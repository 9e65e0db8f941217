"""Invariant suites behind `verify` and the acceptance tests.

Every suite runs over the default test matrix: one parameter choice per
family, orders m in {0, 1}, levels l <= 6 below the cutoff, gamma drawn
from {inf} plus one value inside each admissible ray.  Suites return plain
dicts (JSON-ready) with an "ok" flag and per-case residuals; they print
nothing.
"""

from __future__ import annotations

import math
import time

import numpy as np

from . import catalog, families, ladder, riccati
from .errors import HypersusyError
from .numerics import verify_spectrum
from .polynomials import gram_matrix

# One parameter choice per family.  The s^2-1 entry uses beta > -alpha so
# that the weighted norms converge; the named deep-well examples with small
# beta stay available through the catalog/spectrum fixtures.
TEST_MATRIX = (
    (families.CONST, -2, 0),
    (families.LINEAR, -1, 1),
    (families.ONE_MINUS_S2, -4, 1),
    (families.S2_MINUS_ONE, -8, 10),
    (families.S2, -3, 2),
    (families.S2_PLUS_ONE, -4, 1),
)

# Same kinds with non-dyadic float parameters: exercises the float lane.
FLOAT_MATRIX = (
    (families.CONST, -2.2, 0.3),
    (families.LINEAR, -1.1, 1.2),
    (families.ONE_MINUS_S2, -4.3, 0.9),
    (families.S2_MINUS_ONE, -7.7, 10.1),
    (families.S2, -3.1, 2.2),
    (families.S2_PLUS_ONE, -4.1, 0.7),
)


def _matrix_families(float_mode=False):
    rows = FLOAT_MATRIX if float_mode else TEST_MATRIX
    return [families.make_family(kind, a, b) for kind, a, b in rows]


def _lmax(fam):
    """The largest level l <= 6 below the cutoff."""
    return next(l for l in range(6, -1, -1) if families.below_cutoff(fam, l))


def _orders(fam, want=(0, 1)):
    return [m for m in want if families.below_cutoff(fam, m + 1)]


def _finite_gammas(fam, m):
    rays = riccati.gamma_rays(fam, m)
    out = []
    if math.isfinite(rays.right_start):
        out.append(rays.right_start + 1.0)
    if math.isfinite(rays.left_end):
        out.append(rays.left_end - 1.0)
    return out


def suite_algebra():
    """Factorization/intertwining identities plus the order recurrence.

    Exact rows must reach 0; float rows may reach 1e-12.
    """
    failures, details = [], {}
    worst_exact, worst_float = 0.0, 0.0
    for float_mode in (False, True):
        for fam in _matrix_families(float_mode):
            lmax = _lmax(fam)
            for m in _orders(fam):
                ctx = ladder.make_context(fam, m)
                rep = ladder.check_identities(ctx, lmax)
                key = f"{fam.kind}[{'float' if float_mode else 'exact'}],m={m}"
                details[key] = rep["max_residual"]
                if float_mode:
                    worst_float = max(worst_float, rep["max_residual"])
                    if rep["max_residual"] > 1e-12:
                        failures.append((fam.kind, m, "identities-float", rep["max_residual"]))
                else:
                    worst_exact = max(worst_exact, rep["max_residual"])
                    if rep["max_residual"] != 0.0:
                        failures.append((fam.kind, m, "identities-exact", rep["max_residual"]))
    return {
        "ok": not failures,
        "max_residual_exact": worst_exact,
        "max_residual_float": worst_float,
        "details": details,
        "failures": failures,
    }


def suite_recurrence():
    """Three-term order recurrence (interior and boundary forms), to 1e-10
    at 32 seeded random points per case."""
    rng = np.random.default_rng(7)
    failures, details = [], {}
    worst = 0.0
    for fam in _matrix_families():
        lmax = _lmax(fam)
        for l in range(1, lmax + 1):
            for m in range(1, l + 1):
                pts = families.sample_points(fam, 32, rng)
                r = ladder.recurrence_residual(fam, l, m, pts)
                worst = max(worst, r)
                details[f"{fam.kind},l={l},m={m}"] = r
                if r > 1e-10:
                    failures.append((fam.kind, l, m, r))
    return {"ok": not failures, "max_residual": worst, "details": details, "failures": failures}


def suite_orthogonality():
    """Gram off-diagonals and the norm-ratio identity.

    One Gram matrix per (family, m), m = 0..lmax; the norms are read off
    their diagonals, and the normalized off-diagonals are checked to 1e-8
    for m <= 3.  The norm ratios must hold to 1e-7.
    """
    failures, details = [], {}
    worst_gram, worst_ratio = 0.0, 0.0
    for fam in _matrix_families():
        lmax = _lmax(fam)
        norms = {}
        for m in range(0, lmax + 1):
            g = gram_matrix(fam, m, lmax)
            d = np.sqrt(np.diag(g))
            norms.update({(l, m): float(n) for l, n in enumerate(d, start=m)})
            if m > 3:
                continue
            normalized = g / np.outer(d, d)
            off = np.abs(normalized - np.diag(np.diag(normalized)))
            r = float(np.max(off)) if off.size else 0.0
            worst_gram = max(worst_gram, r)
            details[f"gram:{fam.kind},m={m}"] = r
            if r > 1e-8:
                failures.append((fam.kind, m, "gram", r))
        for l in range(1, lmax + 1):
            for m in range(0, l):
                lhs = norms[(l, m + 1)]
                rhs = math.sqrt(
                    float(families.eigenvalue(fam, l)) - float(families.eigenvalue(fam, m))
                ) * norms[(l, m)]
                r = abs(lhs - rhs) / norms[(l, m)]
                worst_ratio = max(worst_ratio, r)
                if r > 1e-7:
                    failures.append((fam.kind, l, m, "norm-ratio", r))
        details[f"norm-ratio:{fam.kind}"] = worst_ratio
    return {
        "ok": not failures,
        "max_gram": worst_gram,
        "max_ratio": worst_ratio,
        "details": details,
        "failures": failures,
    }


def suite_riccati():
    """Riccati residuals, to 1e-9 at 64 points, for gamma = inf and one value
    in each finite ray."""
    failures, details = [], {}
    worst = 0.0
    for fam in _matrix_families():
        for m in _orders(fam, want=(0, 1, 2)):
            gammas = [math.inf] + _finite_gammas(fam, m)
            for gamma in gammas:
                defm = riccati.make_deformation(fam, m, gamma)
                pts = families.sample_points(fam, 64)
                r = riccati.riccati_residual(defm, pts)
                worst = max(worst, r)
                tag = "inf" if gamma == math.inf else f"{gamma:.4g}"
                details[f"{fam.kind},m={m},gamma={tag}"] = r
                if r > 1e-9:
                    failures.append((fam.kind, m, tag, r))
    return {"ok": not failures, "max_residual": worst, "details": details, "failures": failures}


# Catalog fixtures: (entry, alpha, beta, m, gamma_mode, delta)
_CATALOG_FIXTURES = (
    (1, -2, 0, 0, "both", None),
    (1, -2, 0, 1, "inf", None),
    (2, -1, 1, 0, "both", None),
    (2, -1, 1, 1, "inf", None),
    (3, -4, 1, 0, "both", None),
    (3, -4, 1, 1, "inf", None),
    (4, -9, 1, 0, "inf", None),
    (5, -3, 2, 0, "both", None),
    (6, -4, 1, 0, "both", None),
    (6, -4, 1, 1, "inf", None),
    # shift entries compare at gamma = inf: the shifted upper potential
    # acquires a gamma-dependent constant cross-term away from it
    (7, 0, 2, 0, "inf", 2),
    (8, -4, 0, 0, "inf", 1),
    (8, -4, 0, 1, "inf", 1),
    (9, -4, 0, 0, "inf", 1),
    (10, -4, 0, 0, "inf", 1),
    (10, -4, 0, 1, "inf", 1),
)


_CATALOG_TOL = 1e-10


def suite_catalog():
    """Generic pipeline against the ten printed closed forms, to _CATALOG_TOL."""
    failures, flags, details = [], [], {}
    worst = 0.0
    for entry_id, alpha, beta, m, gmode, delta in _CATALOG_FIXTURES:
        e = catalog.entry(entry_id)
        xs = np.linspace(*families.SPECS[e.kind].x_window, 16)
        gammas = [math.inf]
        if gmode == "both":
            fam = families.make_family(e.kind, alpha, beta)
            gammas += _finite_gammas(fam, m)[:1]
        for gamma in gammas:
            rep = catalog.compare_with_generic(
                entry_id, alpha, beta, m, xs, gamma, delta, _CATALOG_TOL
            )
            dev = max(rep["max_dev_V"], rep["max_dev_W"])
            worst = max(worst, dev)
            tag = "inf" if gamma == math.inf else f"{gamma:.3g}"
            details[f"entry{entry_id},m={m},gamma={tag}"] = dev
            flags.extend(rep["flags"])
            if dev > _CATALOG_TOL:
                failures.append((entry_id, m, tag, dev))
    return {
        "ok": not failures,
        "max_deviation": worst,
        "details": details,
        "flags": flags,
        "failures": failures,
    }


# Spectrum fixtures, explicit grids per case: (name, (kind, alpha, beta),
# gamma, delta, which, levels, x_min, x_max, n, tol, targets in the spectrum)
_SPECTRUM_FIXTURES = (
    ("oscillator-upper", (families.CONST, -2, 0), math.inf, None, "upper",
     4, -10.0, 10.0, 4000, 1e-3, True),
    ("oscillator-partner", (families.CONST, -2, 0), 2.0, None, "partner",
     4, -10.0, 10.0, 4000, 1e-3, True),
    # Deep hyperbolic well at the same closed-form levels l*(10-l): beta = 10
    # keeps beta > -alpha so the level functions are square-integrable.
    ("deep-well-upper", (families.S2_MINUS_ONE, -9, 10), math.inf, None, "upper",
     3, 0.0, 16.0, 4000, 5e-3, True),
    # With beta = 1 the order-1 functions leave L^2 and the closed-form
    # levels must be absent; the oracle has to report them missing, not
    # invent matches.
    ("deep-well-carrier", (families.S2_MINUS_ONE, -9, 1), math.inf, None, "upper",
     3, 0.0045, 17.0, 4000, 5e-3, False),
    ("coulomb-shifted-upper", (families.LINEAR, 0, 2), math.inf, 2, "upper",
     2, 0.002, 120.0, 6000, 5e-3, True),
)


def suite_spectrum():
    """FD-oracle reproduction of the closed-form spectra."""
    reports, failures = {}, []
    for name, params, gamma, delta, which, levels, lo, hi, n, tol, present in _SPECTRUM_FIXTURES:
        defm = riccati.make_deformation(families.make_family(*params), 0, gamma, delta)
        rep = verify_spectrum(defm, which, levels, lo, hi, n, tol=tol)
        reports[name] = rep.to_json()
        if not present:
            if rep.matched or sorted(rep.missing) != sorted(rep.targets):
                failures.append((name, "non-normalizable levels were matched"))
        elif not rep.ok or rep.max_residual > tol:
            failures.append((name, rep.max_residual))
    return {"ok": not failures, "reports": reports, "failures": failures}


_SUITES = {
    "algebra": lambda: _merge(suite_algebra(), suite_recurrence()),
    "orthogonality": suite_orthogonality,
    "riccati": suite_riccati,
    "spectrum": lambda: _merge(suite_catalog(), suite_spectrum()),
}


def _merge(*parts):
    return {"ok": all(p["ok"] for p in parts), "parts": list(parts)}


def run_suite(name):
    """Run one named suite; raises KeyError for unknown names."""
    t0 = time.perf_counter()
    try:
        out = _SUITES[name]()
    except HypersusyError as exc:
        out = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
    out["suite"] = name
    out["seconds"] = round(time.perf_counter() - t0, 3)
    return out


def run_all():
    """Every suite; overall ok iff each one passes."""
    suites = {name: run_suite(name) for name in _SUITES}
    return {"ok": all(s["ok"] for s in suites.values()), "suites": suites}
