"""Invariant suites behind `verify` and the acceptance tests.

Every suite runs over the default test matrix (the algebra suite over the
float matrix too): one parameter choice per family, orders m in {0, 1} (the
recurrence every order below the top), levels l <= 6 below the cutoff, gamma
drawn from {inf} plus one value inside each admissible ray.  Suites return
plain dicts (JSON-ready) with an "ok" flag and per-case residuals; they
print nothing.  Every verdict is `not r <= tol` against a named tolerance,
so a NaN residual fails, and worst values propagate it (np.maximum, not max).
"""

from __future__ import annotations

import math
import time

import numpy as np

from . import catalog, families, ladder, polynomials, riccati
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

# Same kinds with non-dyadic float parameters, each the exact binary rational
# of its float: the identities must hold exactly for these too.
FLOAT_MATRIX = (
    (families.CONST, -2.2, 0.3),
    (families.LINEAR, -1.1, 1.2),
    (families.ONE_MINUS_S2, -4.3, 0.9),
    (families.S2_MINUS_ONE, -7.7, 10.1),
    (families.S2, -3.1, 2.2),
    (families.S2_PLUS_ONE, -4.1, 0.7),
)

# A residual r passes its check iff r <= tol.
EXACT_TOL = 0.0          # level equations, ladder identities and the order recurrence
GRAM_TOL = 1e-8          # normalized Gram off-diagonals
NORM_RATIO_TOL = 1e-7    # norm-ratio identity between orders
RICCATI_TOL = 1e-9       # Riccati residual
CATALOG_TOL = 1e-10      # |catalog - generic| for V, W and lambda


def _fails(r, tol):
    return not r <= tol


class _Check:
    """One check: its worst value, the worst per detail key, failing cases."""

    def __init__(self, tol):
        self.tol, self.worst, self.details, self.failures = tol, 0.0, {}, []

    def add(self, key, r, *case):
        self.worst = float(np.maximum(self.worst, r))
        self.details[key] = float(np.maximum(self.details.get(key, 0.0), r))
        if _fails(r, self.tol):
            self.failures.append((*case, r))


def _report(**checks):
    """A suite part: each check's worst under its name, and the tolerance behind it."""
    failures = [f for c in checks.values() for f in c.failures]
    return {"ok": not failures, **{name: c.worst for name, c in checks.items()},
            "details": {k: r for c in checks.values() for k, r in c.details.items()},
            "failures": failures, "tol": {name: c.tol for name, c in checks.items()}}


def _matrix_families(rows=TEST_MATRIX):
    return [families.make_family(kind, a, b) for kind, a, b in rows]


def _lmax(fam):
    """The largest level l <= 6 below the cutoff."""
    return next(l for l in range(6, -1, -1) if families.below_cutoff(fam, l))


def _orders(fam, want=(0, 1)):
    return [m for m in want if families.below_cutoff(fam, m + 1)]


def _finite_gammas(fam, m):
    rays = riccati.gamma_rays(fam, m)
    return [g for g in (rays.right_start + 1.0, rays.left_end - 1.0) if math.isfinite(g)]


def suite_algebra(fams=None):
    """Level polynomials' equations and factorization/intertwining identities on
    the TEST_MATRIX and FLOAT_MATRIX rows (or fams), to EXACT_TOL.  The identities
    hold for any polynomial, so only the equations tie them to the eigenfunctions."""
    check = _Check(EXACT_TOL)
    for fam in fams or _matrix_families(TEST_MATRIX + FLOAT_MATRIX):
        case = (fam.kind, fam.alpha, fam.beta)
        row = "{}(alpha={},beta={})".format(*case)
        lmax = _lmax(fam)
        for l in range(lmax + 1):
            # sigma p'' + tau p' + lambda_l p relative to p: 0 only if p solves its equation
            p = polynomials.poly_eigenfunction(fam, l)
            res = polynomials.ode_residual(fam, l, p)
            r = 0.0 if res.is_zero else max(res.max_abs() / max(p.max_abs(), 1.0), math.ulp(0.0))
            check.add(f"ode:{row},l={l}", r, *case, l, "ode")
        for m in _orders(fam):
            rep = ladder.check_identities(ladder.make_context(fam, m), lmax)
            check.add(f"identities:{row},m={m}", rep["max_residual"], *case, m, "identities")
    return _report(max_residual=check)


def suite_recurrence(fams=None):
    """Three-term order recurrence on the TEST_MATRIX rows (or fams), to EXACT_TOL:
    each case (l, m), 1 <= m <= l, is the exact lowering map at order m - 1."""
    check = _Check(EXACT_TOL)
    for fam in fams or _matrix_families():
        lmax = _lmax(fam)
        for m in range(1, lmax + 1):
            rep = ladder.check_recurrence(ladder.make_context(fam, m - 1), lmax)
            for l, (key, r) in enumerate(rep.items(), start=m):
                check.add(f"{fam.kind},{key}", r, fam.kind, l, m)
    return _report(max_residual=check)


def suite_orthogonality():
    """Gram off-diagonals and the norm-ratio identity.

    One Gram matrix per (family, m), m = 0..lmax; the norms are read off
    their diagonals, and the normalized off-diagonals are checked to
    GRAM_TOL for m <= 3.  The norm ratios, one detail per family, must hold
    to NORM_RATIO_TOL.
    """
    gram, ratio = _Check(GRAM_TOL), _Check(NORM_RATIO_TOL)
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
            gram.add(f"gram:{fam.kind},m={m}", r, fam.kind, m, "gram")
        for l in range(1, lmax + 1):
            for m in range(0, l):
                gap = float(families.eigenvalue(fam, l)) - float(families.eigenvalue(fam, m))
                r = abs(norms[(l, m + 1)] - math.sqrt(gap) * norms[(l, m)]) / norms[(l, m)]
                ratio.add(f"norm-ratio:{fam.kind}", r, fam.kind, l, m, "norm-ratio")
    return _report(max_gram=gram, max_ratio=ratio)


def suite_riccati():
    """Riccati residuals, to RICCATI_TOL at 64 points, for gamma = inf and
    one value in each finite ray."""
    check = _Check(RICCATI_TOL)
    for fam in _matrix_families():
        for m in _orders(fam, want=(0, 1, 2)):
            for gamma in [math.inf] + _finite_gammas(fam, m):
                defm = riccati.make_deformation(fam, m, gamma)
                pts = families.sample_points(fam, 64)
                r = riccati.riccati_residual(defm, pts)
                tag = "inf" if gamma == math.inf else f"{gamma:.4g}"
                check.add(f"{fam.kind},m={m},gamma={tag}", r, fam.kind, m, tag)
    return _report(max_residual=check)


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
# gamma = inf fixtures on an x-domain unbounded above also compare here: past
# x = 177 a quadratic sigma's square overflows while sigma itself does not
_FAR_FIELD = (200.0, 350.0)


def suite_catalog():
    """Generic pipeline against the ten printed closed forms, to CATALOG_TOL.

    Each fixture builds one family, so a finite gamma's rays are computed
    once and shared by the deformation that is compared.
    """
    check = _Check(CATALOG_TOL)
    for entry_id, alpha, beta, m, gmode, delta in _CATALOG_FIXTURES:
        kind = catalog.entry(entry_id).kind
        fam = families.make_family(kind, alpha, beta)
        xs = np.linspace(*fam.spec.x_window, 16)
        far_xs = np.append(xs, _FAR_FIELD) if math.isinf(fam.spec.coords.x_domain[1]) else xs
        gammas = [math.inf] + (_finite_gammas(fam, m)[:1] if gmode == "both" else [])
        for gamma in gammas:
            defm = riccati.make_deformation(fam, m, gamma, delta)
            rep = catalog.compare_with_generic(entry_id, defm, far_xs if gamma == math.inf else xs)
            dev = float(np.max([rep["max_dev_V"], rep["max_dev_W"], rep["max_dev_lambda"]]))
            tag = "inf" if gamma == math.inf else f"{gamma:.3g}"
            check.add(f"entry{entry_id},m={m},gamma={tag}", dev, entry_id, m, tag)
    return _report(max_deviation=check)


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
    """FD-oracle reproduction of the closed-form spectra, to each fixture's tol."""
    reports, failures = {}, []
    for name, params, gamma, delta, which, levels, lo, hi, n, tol, present in _SPECTRUM_FIXTURES:
        defm = riccati.make_deformation(families.make_family(*params), 0, gamma, delta)
        rep = verify_spectrum(defm, which, levels, lo, hi, n, tol=tol)
        reports[name] = {**rep.to_json(), "tol": tol}
        if not present:
            if rep.matched or sorted(rep.missing) != sorted(rep.targets):
                failures.append((name, "non-normalizable levels were matched"))
        elif not rep.ok or _fails(rep.max_residual, tol):
            failures.append((name, rep.max_residual))
    return {"ok": not failures, "reports": reports, "failures": failures}


def _algebra():
    """Both algebra parts on one set of families, so each level is built once per run."""
    fams = _matrix_families(TEST_MATRIX + FLOAT_MATRIX)
    return _merge(suite_algebra(fams), suite_recurrence(fams[:len(TEST_MATRIX)]))


_SUITES = {
    "algebra": _algebra,
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
