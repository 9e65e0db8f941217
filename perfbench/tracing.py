"""Spans around the package's public entry points, recorded from outside.

``Tracer.install`` wraps each function in ``TARGETS`` and rebinds *every*
module-level name in the package that refers to it: ``quad`` is imported by
name into riccati, polynomials and catalog, so patching ``numerics.quad``
alone would miss most calls.  ``uninstall`` puts the originals back, so an
untraced job runs the package's own functions and nothing else.

A span's self time is its duration minus the durations of its direct
children; summed over all spans it equals the summed root durations.
"""

from __future__ import annotations

import array
import importlib
import os
import sys
import time

SUITES = ("algebra", "orthogonality", "riccati", "spectrum")

# module -> public functions that get a span; verify.run_suite's span is
# named verify.suite_<name> after its argument
TARGETS = {
    "cli": ("main",),
    "families": ("make_family",),
    "polynomials": ("poly_eigenfunction", "gram_matrix", "norm"),
    "ladder": ("check_identities",),
    "riccati": ("cumulative_weight_sorted", "gamma_rays"),
    "schrodinger": ("grid_frame", "write_csv", "write_json", "write_svg"),
    "catalog": ("compare_with_generic",),
    "numerics": ("quad", "fd_spectrum"),
    "verify": ("run_suite",),
}


def _fd_points(args, kwargs, result):
    n = args[3] if len(args) > 3 else kwargs["n"]
    richardson = args[6] if len(args) > 6 else kwargs.get("richardson", True)
    return {"grid_points": n + (2 * n - 1 if richardson else 0)}


def _bytes_written(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])}


# extra counts per span, from the call's arguments and result
COUNTERS = {
    "numerics.quad": lambda a, k, r: {"evals": r.panels},
    "numerics.fd_spectrum": _fd_points,
    "riccati.cumulative_weight_sorted": lambda a, k, r: {"points": len(a[2])},
    "ladder.check_identities": lambda a, k, r: {"levels": len(r["factor_low"])},
    "schrodinger.write_csv": _bytes_written,
    "schrodinger.write_json": _bytes_written,
    "schrodinger.write_svg": _bytes_written,
}


class Tracer:
    def __init__(self):
        self.names = []            # span name per name id
        # one entry per span; typed arrays, so a long trace adds nothing for
        # the garbage collector to scan while the traced jobs run
        self.span_name = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.span_parent = array.array("i")   # index of the parent span, or -1
        self.stats = {}            # name -> {"calls", "self_s", "total_s", "failed", counters...}
        self._ids = {}
        self._stack = []           # [span index, time covered by children]
        self._patched = []         # (module, attribute, original)

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def enter(self, name):
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_name.append(self._name_id(name))
        self.span_end.append(0.0)
        self._stack.append([len(self.span_start), 0.0])
        self.span_start.append(time.perf_counter())

    def exit(self, failed=False, counts=None):
        end = time.perf_counter()
        index, covered = self._stack.pop()
        self.span_end[index] = end
        duration = end - self.span_start[index]
        if self._stack:
            self._stack[-1][1] += duration
        st = self.stats.setdefault(self.names[self.span_name[index]],
                                   {"calls": 0, "self_s": 0.0, "total_s": 0.0, "failed": 0})
        st["calls"] += 1
        st["self_s"] += duration - covered
        st["total_s"] += duration
        st["failed"] += failed
        for key, val in (counts or {}).items():
            st[key] = st.get(key, 0) + val
        return duration

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)
        suite_span = name == "verify.run_suite"

        def traced(*args, **kwargs):
            self.enter(f"verify.suite_{args[0]}" if suite_span else name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.exit(failed=True)
                raise
            self.exit(counts=counter(args, kwargs, result) if counter else None)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        if self._patched:
            return
        package = [m for n, m in sys.modules.items()
                   if n == "hypersusy" or n.startswith("hypersusy.")]
        for mod_name, funcs in TARGETS.items():
            mod = importlib.import_module(f"hypersusy.{mod_name}")
            for func in funcs:
                original = getattr(mod, func)
                traced = self.wrap(f"{mod_name}.{func}", original)
                for m in package:
                    for attr, val in list(vars(m).items()):
                        if val is original:
                            self._patched.append((m, attr, original))
                            setattr(m, attr, traced)

    def uninstall(self):
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched = []

    @staticmethod
    def known_spans():
        names = {f"{mod}.{func}" for mod, funcs in TARGETS.items() for func in funcs}
        return names | {f"verify.suite_{s}" for s in SUITES} | {"bench.job"}

    def __len__(self):
        return len(self.span_start)

    def root_seconds(self):
        return sum(self.span_end[i] - self.span_start[i]
                   for i, parent in enumerate(self.span_parent) if parent == -1)

    def dump(self):
        return {"names": self.names, "name": self.span_name.tolist(),
                "start": self.span_start.tolist(), "end": self.span_end.tolist(),
                "parent": self.span_parent.tolist()}
