"""Seeded job plans for the four benchmark workloads, and how to run one job.

A workload is an endless sequence of *rounds*.  Every round holds one job
per stratum of the workload's input mix (family and order, suite, or kind).
Each input of a stratum (grid size, gamma, lmax, ...) follows its own
low-discrepancy sequence over the rounds, frac(u0 + k * golden ratio), with
a seeded start u0, so a handful of rounds already covers every range
evenly.  Runs stop only at round boundaries.  Two seeds therefore give
nearly the same multiset of job sizes, which keeps per-run medians steady,
while the inputs themselves and the job order still differ.

The program sees only what a user would hand it: the argv of an in-process
``cli.main`` call, or the parameters of a library call.  Everything a check
needs to know is carried next to it in ``Job.spec``.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import hypersusy
from hypersusy import families, ladder, polynomials, riccati, verify
from tracing import SUITES

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

WORKLOADS = ("derive-deformed", "derive-undeformed", "verify-all", "exact-algebra")

# x-windows inside each coordinate domain (x -> s(x) of schrodinger.py)
X_WINDOW = {
    families.CONST: (-3.0, 3.0),
    families.LINEAR: (0.4, 6.0),
    families.ONE_MINUS_S2: (0.3, math.pi - 0.3),
    families.S2_MINUS_ONE: (0.4, 5.0),
    families.S2: (-2.0, 3.0),
    families.S2_PLUS_ONE: (-3.0, 3.0),
}


# one invalid (alpha, beta) per kind: each breaks that kind's closed-form range
INVALID_PARAMS = {
    families.CONST: (2, 0),
    families.LINEAR: (-1, -1),
    families.ONE_MINUS_S2: (-2, 3),
    families.S2_MINUS_ONE: (1, 2),
    families.S2: (-3, -2),
    families.S2_PLUS_ONE: (3, 1),
}


@dataclass
class Job:
    """One request: ``op`` names the entry point, ``spec`` what checks need."""

    op: str                 # "derive", "verify" or "algebra"
    spec: dict
    argv: list = None
    expect_rc: int = 0
    timed: bool = True      # False for the expected-error probes

    @property
    def label(self):
        return self.spec.get("label", self.op)


@dataclass
class Outcome:
    rc: int = None
    stdout: str = ""
    stderr: str = ""
    value: object = None
    error: str = None       # repr of an unexpected exception
    seconds: float = 0.0


@dataclass
class Workload:
    name: str
    seed: int
    workdir: Path
    strata: list = field(default_factory=list)

    def rounds(self):
        """Endless, seeded sequence of rounds (lists of Jobs)."""
        rng = random.Random(f"{self.name}:{self.seed}")
        starts = {}
        for k in itertools.count():
            def ld(*key, k=k):
                """k-th point in [0, 1) of the sequence named by key."""
                if key not in starts:
                    starts[key] = rng.random()
                return (starts[key] + k * _GOLDEN) % 1.0

            yield _ROUND[self.name](self, rng, k, ld)


def _levels_for(fam, m):
    """Levels m+1 .. m+2 that stay below the cutoff (at least one)."""
    return [l for l in (m + 1, m + 2) if families.below_cutoff(fam, l)]


def _derive_strata():
    """Every (family, m) of verify.TEST_MATRIX whose order is below cutoff."""
    out = []
    for kind, alpha, beta in verify.TEST_MATRIX:
        fam = families.make_family(kind, alpha, beta)
        for m in (0, 1):
            if families.below_cutoff(fam, m + 1):
                out.append({"kind": kind, "alpha": alpha, "beta": beta, "m": m,
                            "rays": riccati.gamma_rays(fam, m),
                            "levels": _levels_for(fam, m)})
    return out


def make_workload(name, seed, workdir):
    """Validate the workload's families once; this is the workload's set-up."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    wl = Workload(name, int(seed), Path(workdir))
    if name.startswith("derive"):
        wl.strata = _derive_strata()
    return wl


def _derive_job(wl, rng, ld, j, st, n, gamma, fmt, svg):
    lo, hi = X_WINDOW[st["kind"]]
    width = hi - lo
    x_min = round(lo + 0.05 * width * ld("x_min", j), 6)
    x_max = round(hi - 0.05 * width * ld("x_max", j), 6)
    levels = st["levels"][: 1 + int(ld("levels", j) * len(st["levels"]))]
    out = wl.workdir / f"frame.{fmt}"
    argv = ["derive", f"--kind={st['kind']}", f"--alpha={st['alpha']}",
            f"--beta={st['beta']}", f"--m={st['m']}", f"--gamma={gamma!r}",
            f"--levels={','.join(map(str, levels))}", f"--x-min={x_min!r}",
            f"--x-max={x_max!r}", f"--n={n}", f"--out={out}", f"--format={fmt}"]
    spec = dict(st, label=f"derive:{st['kind']}:m={st['m']}", gamma=gamma,
                levels=levels, x_min=x_min, x_max=x_max, n=n, fmt=fmt, out=str(out),
                svg=None, check_seed=rng.getrandbits(32))
    spec.pop("rays")
    if svg:
        spec["svg"] = str(wl.workdir / "frame.svg")
        argv.append(f"--svg={spec['svg']}")
    return Job("derive", spec, argv)


def _probe_job(wl, rng, k, ld):
    """An expected-error request: forbidden gamma (exit 3) or bad params (exit 2)."""
    st = wl.strata[int(ld("probe") * len(wl.strata))]
    lo, hi = X_WINDOW[st["kind"]]
    out = wl.workdir / "probe.csv"
    base = ["derive", f"--kind={st['kind']}", f"--m={st['m']}", f"--levels={st['levels'][0]}",
            f"--x-min={lo!r}", f"--x-max={hi!r}", "--n=600", f"--out={out}"]
    if (k + wl.seed) % 2 == 0:
        rays = st["rays"]
        gamma = rays.left_end + (0.2 + 0.6 * ld("forbidden")) * (rays.right_start - rays.left_end)
        argv = base + [f"--alpha={st['alpha']}", f"--beta={st['beta']}", f"--gamma={gamma!r}"]
        label, rc = f"probe:forbidden-gamma:{st['kind']}", 3
    else:
        alpha, beta = INVALID_PARAMS[st["kind"]]
        argv = base + [f"--alpha={alpha}", f"--beta={beta}", "--gamma=inf"]
        label, rc = f"probe:invalid-params:{st['kind']}", 2
    return Job("derive", {"label": label, "out": str(out)}, argv, expect_rc=rc, timed=False)


def _round_deformed(wl, rng, k, ld):
    jobs = []
    for j, st in enumerate(wl.strata):
        # distance from the ray edge in units of the total weight (the width
        # of the forbidden interval), so every family is deformed alike
        rays = st["rays"]
        dist = (rays.right_start - rays.left_end) * 0.25 ** ld("gamma", j)
        gamma = rays.right_start + dist if ld("side", j) < 0.5 else rays.left_end - dist
        n = 600 + int(1001 * ld("n", j))
        jobs.append(_derive_job(wl, rng, ld, j, st, n, gamma, "json", False))
    rng.shuffle(jobs)
    jobs.insert(rng.randrange(len(jobs) + 1), _probe_job(wl, rng, k, ld))
    return jobs


# output mix: csv or json, each with or without an SVG
_FORMATS = (("csv", False), ("json", False), ("csv", True), ("json", True))


def _round_undeformed(wl, rng, k, ld):
    strata = wl.strata + [wl.strata[int(ld("extra") * len(wl.strata))]]
    jobs = []
    for j, st in enumerate(strata):
        fmt, svg = _FORMATS[int(ld("format", j) * len(_FORMATS))]
        n = 1500 + int(2501 * ld("n", j))
        jobs.append(_derive_job(wl, rng, ld, j, st, n, math.inf, fmt, svg))
    rng.shuffle(jobs)
    return jobs


def _round_verify(wl, rng, k, ld):
    order = list(SUITES)
    rng.shuffle(order)
    return [Job("verify", {"label": f"verify:{s}", "suite": s},
                ["verify", f"--suite={s}", "--json"]) for s in order]


def _exact_params(kind, u):
    """Admissible exact (alpha, beta) from three numbers u in [0, 1).

    Quadratic sigmas get alpha <= -23, so their cutoff is >= 12.  linear
    keeps beta <= 4|alpha| and one_minus_s2 keeps |beta| <= |alpha| - 1:
    make_family's sampled decay check rejects the rest of the admissible
    range (ROADMAP D3), and a benchmark input must not fail.
    """
    q = 1 + int(3 * u[0])

    def pick(lo, hi, v):
        return lo + int((hi - lo + 1) * v)

    if kind == families.CONST:
        return -Fraction(pick(1, 4 * q, u[1]), q), Fraction(pick(-2 * q, 2 * q, u[2]), q)
    if kind == families.LINEAR:
        a = pick(1, 4 * q, u[1])
        return -Fraction(a, q), Fraction(pick(1, 4 * a, u[2]), q)
    if kind == families.ONE_MINUS_S2:
        a = pick(2 * q, 8 * q, u[1])
        return -Fraction(a, q), Fraction(pick(q - a, a - q, u[2]), q)
    alpha = -Fraction(pick(23 * q, 31 * q, u[1]), q)
    if kind == families.S2_MINUS_ONE:
        return alpha, Fraction(pick(0, 30 * q, u[2]), q)
    if kind == families.S2:
        return alpha, Fraction(pick(1, 6 * q, u[2]), q)
    return alpha, Fraction(pick(-6 * q, 6 * q, u[2]), q)


def _round_exact(wl, rng, k, ld):
    jobs = []
    for kind in families.KINDS:
        alpha, beta = _exact_params(kind, [ld(kind, i) for i in range(3)])
        m = int(2 * ld(kind, "m"))
        lmax = 12 + int(9 * ld(kind, "lmax"))
        jobs.append(Job("algebra", {"label": f"algebra:{kind}:m={m}", "kind": kind,
                                    "alpha": alpha, "beta": beta, "m": m, "lmax": lmax}))
    rng.shuffle(jobs)
    return jobs


_ROUND = {
    "derive-deformed": _round_deformed,
    "derive-undeformed": _round_undeformed,
    "verify-all": _round_verify,
    "exact-algebra": _round_exact,
}


def _algebra(spec):
    """Exact polynomials for l <= lmax plus the exact ladder identities."""
    fam = families.make_family(spec["kind"], spec["alpha"], spec["beta"])
    lmax = spec["lmax"]
    while not families.below_cutoff(fam, lmax):
        lmax -= 1
    polys = [polynomials.poly_eigenfunction(fam, l) for l in range(lmax + 1)]
    report = ladder.check_identities(ladder.make_context(fam, spec["m"]), lmax)
    return {"family": fam, "lmax": lmax, "polys": polys, "report": report}


def execute(job):
    """Run one job in-process and time it; exceptions become part of the outcome."""
    out, err = io.StringIO(), io.StringIO()
    res = Outcome()
    t0 = time.perf_counter()
    try:
        if job.op == "algebra":
            res.value = _algebra(job.spec)
        else:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                res.rc = hypersusy.cli.main(job.argv)
    except Exception as exc:  # a raising job is a failed job, not a crashed run
        res.error = f"{type(exc).__name__}: {exc}"
    res.seconds = time.perf_counter() - t0
    res.stdout, res.stderr = out.getvalue(), err.getvalue()
    return res
