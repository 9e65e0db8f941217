"""Command-line front end.

Three subcommands: `families` lists the six kinds, the pure-power
subfamilies and the ten catalog examples; `derive` writes grid exports of
the partner-pair potentials and superpotential plus a metadata file;
`verify` runs the invariant suites.  Every number printed comes from a
library call.

Exit codes: 0 success, 1 invariant failure, 2 invalid parameters,
3 inadmissible gamma, 4 numerical non-convergence; a package error carries
its own code (errors.HypersusyError.exit_code).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys

import numpy as np

from . import catalog, families, riccati, schrodinger, verify
from .errors import HypersusyError, ParameterViolation


def _number(name, val):
    """An int stays an int, any other number is a float; the algebra reads either exactly."""
    if isinstance(val, str):
        for cast in (int, float):
            try:
                return cast(val)
            except ValueError:
                pass
    elif isinstance(val, (int, float)) and not isinstance(val, bool):
        return val
    raise ParameterViolation(f"setting '{name}' must be a number, got {val!r}")


def _string(name, val, options=None):
    """A text setting, one of options unless options is None."""
    if isinstance(val, str) and (options is None or val in options):
        return val
    want = "a string" if options is None else "one of " + ", ".join(options)
    raise ParameterViolation(f"setting '{name}' must be {want}, got {val!r}")


def _integer(name, val):
    """A whole-number setting; a fraction, a bool or a non-number names the setting."""
    try:
        whole = not isinstance(val, bool) and float(val).is_integer()
    except (TypeError, ValueError):
        whole = False
    if not whole:
        raise ParameterViolation(f"setting '{name}' must be an integer, got {val!r}")
    return int(val) if isinstance(val, int) else int(float(val))


def _levels(name, text):
    """Levels from a list, a comma list '1,2', a range '1:4' or one integer; none
    repeated, no range reversed.  A config's null is no integer and is refused."""
    if isinstance(text, (list, tuple)):
        levels = [_integer(name, v) for v in text]
    elif not isinstance(text, str):
        levels = [_integer(name, text)]
    elif ":" in text:
        lo, _, hi = text.partition(":")
        levels = list(range(_integer(name, lo), _integer(name, hi) + 1))
        if not levels:
            raise ParameterViolation(f"setting '{name}': range {text!r} ends below its start")
    else:
        levels = [_integer(name, tok) for tok in text.split(",") if tok.strip()]
    if len(set(levels)) < len(levels):
        raise ParameterViolation(f"setting '{name}' repeats a level, got {text!r}")
    return levels


_FORMATS = ("csv", "json")
_REQUIRED = object()  # the default of a setting that every job must give

# One row per derive setting, keyed by its flag's dest and config key (the config
# may spell fmt "format"): flag, reader, default, the flag's other argparse options.
# A flag and a config value alike go through the reader, named as the flag spells it.
_SETTINGS = {
    "kind": ("--kind", functools.partial(_string, options=families.KINDS), _REQUIRED,
             {"choices": families.KINDS}),
    "alpha": ("--alpha", _number, _REQUIRED, {}),
    "beta": ("--beta", _number, _REQUIRED, {}),
    "m": ("--m", _integer, 0, {}),
    "gamma": ("--gamma", _number, math.inf, {"help": "number or 'inf'"}),
    "delta": ("--delta", _number, None, {}),
    "levels": ("--levels", _levels, (), {"help": "comma list '1,2' or range '1:4'"}),
    "x_min": ("--x-min", _number, _REQUIRED, {}),
    "x_max": ("--x-max", _number, _REQUIRED, {}),
    "n": ("--n", _integer, 1201, {}),
    "out": ("--out", _string, _REQUIRED, {}),
    "fmt": ("--format", functools.partial(_string, options=_FORMATS), "csv", {"choices": _FORMATS}),
    "svg": ("--svg", _string, None, {}),
    "meta": ("--meta", _string, None, {}),
}


def _derive_settings(args):
    """Every derive setting: its default, then the config file's value, then the flag's."""
    raw = {}
    if args.config:
        with open(args.config) as fh:
            raw = json.load(fh)
        if not (isinstance(raw, dict) and isinstance(raw.get("grid", {}), dict)):
            raise ParameterViolation(f"{args.config} must hold a JSON object, its grid too")
        raw.update(raw.pop("grid", {}))
        if "format" in raw:
            raw["fmt"] = raw.pop("format")
        unknown = sorted(set(raw) - set(_SETTINGS))
        if unknown:
            raise ParameterViolation(
                f"unknown config setting(s) {', '.join(map(repr, unknown))} in {args.config}"
            )
    flags = {name: val for name in _SETTINGS if (val := getattr(args, name)) is not None}
    cfg = {name: default for name, (_, _, default, _) in _SETTINGS.items()}
    for name, val in [*raw.items(), *flags.items()]:
        flag, read, _, _ = _SETTINGS[name]
        cfg[name] = read(flag[2:].replace("-", "_"), val)
    for name, val in cfg.items():
        if val is _REQUIRED:
            raise ParameterViolation(f"missing required setting '{name}'")
    return argparse.Namespace(**cfg)


def cmd_families(args):
    specs = families.SPECS.values()
    rows = [
        {
            "kind": sp.kind,
            "sigma": sp.sigma_text,
            "tau": "alpha*s + beta",
            "rho": sp.rho_text,
            "interval": list(sp.interval),
            "constraint": sp.constraint_text,
        }
        for sp in specs
    ]
    powers = [{"kind": sp.kind, "tau": sp.power.tau, "k": sp.power.k_text}
              for sp in specs if sp.power]
    entries = [
        {
            "id": e.entry_id,
            "name": e.name,
            "kind": e.kind,
            "tau": families.SPECS[e.kind].power.tau if e.shifted else "alpha*s + beta",
            "shifted": e.shifted,
        }
        for e in catalog.CATALOG
    ]
    if args.catalog is not None:
        e = catalog.entry(args.catalog)
        info = entries[e.entry_id - 1]
        sp = families.SPECS[e.kind]
        info["sigma"] = sp.sigma_text
        if e.shifted:
            info["k"] = sp.power.k_text
        print(json.dumps(info, indent=2) if args.json else _format_entry(info))
        return 0
    if args.json:
        print(json.dumps({"families": rows, "weight_powers": powers, "catalog": entries}, indent=2))
        return 0
    print(f"{'kind':<14} {'sigma':<8} {'interval':<18} constraint")
    for r in rows:
        print(f"{r['kind']:<14} {r['sigma']:<8} {str(r['interval']):<18} {r['constraint']}")
    print("\npure-power weights (rho = sigma^k):")
    for p in powers:
        print(f"  {p['kind']:<14} tau = {p['tau']:<9} k = {p['k']}")
    print("\ncatalog examples:")
    for e in entries:
        shift = " (with constant shift)" if e["shifted"] else ""
        print(f"  {e['id']:>2}. {e['name']:<38} {e['kind']:<14} tau = {e['tau']}{shift}")
    return 0


def _format_entry(info):
    lines = [f"{info['id']}. {info['name']}", f"   kind: {info['kind']} (sigma = {info['sigma']})",
             f"   tau: {info['tau']}"]
    if info.get("k"):
        lines.append(f"   k: {info['k']}")
    return "\n".join(lines)


def _check_outputs(cfg):
    """Every output goes into an existing directory, each to a file of its own.

    Checked before any work, so that a bad path leaves no other output behind.
    """
    seen = {}
    for name in ("out", "svg", "meta"):
        path = getattr(cfg, name)
        if path is None:
            continue
        real = os.path.realpath(path)
        if not os.path.isdir(os.path.dirname(real)) or os.path.isdir(real):
            raise ParameterViolation(
                f"setting '{name}': {path!r} is not a file in an existing directory"
            )
        if real in seen:
            raise ParameterViolation(
                f"settings '{seen[real]}' and '{name}' name the same file {path!r}"
            )
        seen[real] = name


def cmd_derive(args):
    cfg = _derive_settings(args)
    x_min, x_max, n = float(cfg.x_min), float(cfg.x_max), cfg.n
    if not (math.isfinite(x_min) and math.isfinite(x_max) and x_min < x_max and n >= 2):
        raise ParameterViolation(
            f"the grid needs finite x_min < x_max and n >= 2, "
            f"got x_min={x_min}, x_max={x_max}, n={n}"
        )
    _check_outputs(cfg)
    fam = families.make_family(cfg.kind, cfg.alpha, cfg.beta)
    defm = riccati.make_deformation(fam, cfg.m, float(cfg.gamma), cfg.delta)
    if cfg.meta:  # built first, so that a failing record (the rays) leaves no file behind
        lam_max = max(cfg.levels) if cfg.levels else cfg.m + 4
        shift = 0 if cfg.delta is None else 1  # a shifted level l needs l + 1 below the cutoff
        targets = [defm.eigenvalue(l) for l in range(cfg.m + 1, lam_max + 1)
                   if families.below_cutoff(fam, l + shift)]
        meta = {
            "deformation": defm.to_json(),
            "lambda_targets": targets,
            "gamma_rays": defm.rays.to_json(),
            "grid": {"x_min": x_min, "x_max": x_max, "n": n},
            "levels": cfg.levels,
        }
    xs = np.linspace(x_min, x_max, n)
    frame = schrodinger.grid_frame(defm, xs, cfg.levels)
    (schrodinger.write_json if cfg.fmt == "json" else schrodinger.write_csv)(frame, cfg.out)
    if cfg.svg:
        schrodinger.write_svg(frame, cfg.svg)
    if cfg.meta:
        with open(cfg.meta, "w") as fh:
            json.dump(meta, fh, indent=2)
    print(f"wrote {cfg.out}")
    return 0


def cmd_verify(args):
    report = verify.run_all() if args.suite == "all" else verify.run_suite(args.suite)
    if args.json:
        # strict JSON: a non-finite number as json_number writes it ("nan", "inf", "-inf")
        text = json.dumps(report, default=str)
        print(json.dumps(json.loads(text, parse_constant=lambda c: families.json_number(float(c))), indent=2))
    else:
        if "suites" in report:
            for name, sub in report["suites"].items():
                print(f"{'PASS' if sub['ok'] else 'FAIL'}  {name}  ({sub['seconds']}s)")
        else:
            print(f"{'PASS' if report['ok'] else 'FAIL'}  {report['suite']}")
        if not report["ok"]:
            print("failures detected; run with --json for details", file=sys.stderr)
    return 0 if report["ok"] else 1


@functools.cache  # built once per process; parse_args leaves it unchanged
def build_parser():
    parser = argparse.ArgumentParser(
        prog="hypersusy",
        description="Operator families, ladder factorizations and partner potentials",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fam = sub.add_parser("families", help="list families, subfamilies and catalog")
    p_fam.add_argument("--json", action="store_true")
    p_fam.add_argument("--catalog", type=int, help="show one catalog entry (1..10)")
    p_fam.set_defaults(func=cmd_families)

    p_der = sub.add_parser("derive", help="export potentials/superpotential grids")
    p_der.add_argument("--config", help="JSON config file; flags override it")
    for name, (flag, _, _, options) in _SETTINGS.items():
        p_der.add_argument(flag, dest=name, **options)
    p_der.set_defaults(func=cmd_derive)

    p_ver = sub.add_parser("verify", help="run invariant suites")
    p_ver.add_argument("--suite", default="all", choices=(*verify._SUITES, "all"))
    p_ver.add_argument("--json", action="store_true")
    p_ver.set_defaults(func=cmd_verify)
    return parser


# a negative number, including scientific notation and -inf
_NEGATIVE_VALUE = re.compile(r"-(\d|\.\d|inf)", re.IGNORECASE)


def _attach_negative_values(argv):
    """Rewrite '--gamma -1e3' as '--gamma=-1e3'.

    argparse takes any token that starts with '-' for an option unless it is
    a plain negative decimal, so '-1e3', '-1.2e-05' or '-inf' would otherwise
    leave the preceding option without its value.
    """
    out = []
    for tok in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and _NEGATIVE_VALUE.match(tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None):
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = parser.parse_args(_attach_negative_values(argv))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (HypersusyError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)


def run():
    sys.exit(main())
