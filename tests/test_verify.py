import math
from fractions import Fraction

import numpy as np
import pytest

from hypersusy import families, polynomials, verify
from hypersusy.errors import NoConvergence

# The top level each suite checks: the largest l <= 6 below the cutoff
# (1 - alpha)/2 of the quadratic sigmas; the others have no cutoff.
TOP_LEVEL = {
    ("const", -2, 0): 6, ("linear", -1, 1): 6, ("one_minus_s2", -4, 1): 6,
    ("s2_minus_one", -8, 10): 4,  # cutoff 9/2
    ("s2", -3, 2): 1,  # cutoff 2
    ("s2_plus_one", -4, 1): 2,  # cutoff 5/2
    ("const", -2.2, 0.3): 6, ("linear", -1.1, 1.2): 6, ("one_minus_s2", -4.3, 0.9): 6,
    ("s2_minus_one", -7.7, 10.1): 4,  # cutoff 4.35
    ("s2", -3.1, 2.2): 2,  # cutoff 2.05
    ("s2_plus_one", -4.1, 0.7): 2,  # cutoff 2.55
}


def test_top_level_table_covers_both_matrices():
    assert set(TOP_LEVEL) == set(verify.TEST_MATRIX) | set(verify.FLOAT_MATRIX)
    for row, top in TOP_LEVEL.items():
        fam = families.make_family(*row)
        assert verify._lmax(fam) == top
        assert top < families.cutoff(fam) and (top == 6 or top + 1 >= families.cutoff(fam))


def row_of(fam):
    return (fam.kind, fam.alpha, fam.beta)


def test_algebra_suite_reaches_the_top_level(monkeypatch):
    reached = {}
    real = verify.ladder.check_identities

    def recording(ctx, lmax):
        rep = real(ctx, lmax)
        levels = [int(key.split(",")[0][2:]) for key in rep["factor_low"]]
        reached[(row_of(ctx.family), ctx.m)] = max(levels)
        return rep

    monkeypatch.setattr(verify.ladder, "check_identities", recording)
    assert verify.suite_algebra()["ok"]
    for row, top in TOP_LEVEL.items():
        fam = families.make_family(*row)
        orders = [m for m in (0, 1) if families.below_cutoff(fam, m + 1)]
        assert orders and all(reached[(row, m)] == top for m in orders)


def test_algebra_suite_builds_each_level_once_per_run(monkeypatch):
    # its two parts share the run's families, so each (family, level) pair
    # of the table above is built once: 63 calls, not 88
    built = []
    real = polynomials._recurrence

    def counting(fam, level):
        built.append((row_of(fam), level))
        return real(fam, level)

    monkeypatch.setattr(polynomials, "_recurrence", counting)
    assert verify.run_suite("algebra")["ok"]
    assert set(built) == {(row, l) for row, top in TOP_LEVEL.items() for l in range(top + 1)}
    assert len(built) == 63


def test_recurrence_suite_reaches_the_top_level():
    out = verify.suite_recurrence()
    assert out["ok"]
    for kind, alpha, beta in verify.TEST_MATRIX:
        levels = [int(key.split(",")[1][2:]) for key in out["details"] if key.startswith(kind + ",")]
        assert max(levels) == TOP_LEVEL[(kind, alpha, beta)]


@pytest.mark.parametrize("row", verify.TEST_MATRIX)
def test_orthogonality_suite_reaches_the_top_level(monkeypatch, row):
    grams = []
    real = verify.gram_matrix

    def recording(fam, order, lmax, *args):
        g = real(fam, order, lmax, *args)
        if row_of(fam) == row:
            grams.append((order, lmax, g.shape))
        return g

    monkeypatch.setattr(verify, "gram_matrix", recording)
    assert verify.suite_orthogonality()["ok"]
    top = TOP_LEVEL[row]
    assert grams == [(m, top, (top - m + 1,) * 2) for m in range(top + 1)]


def test_spectrum_suite_solves_only_the_states_it_can_match(monkeypatch, capfd):
    # fd_spectrum imports eigh_tridiagonal at call time, so wrapping the
    # scipy.linalg attribute sees every call.  At resolution n each fixture
    # bisects the states at or below its match band: 4 + 5 + 3 + 0 + 4, plus
    # the ground state of deep-well-carrier, whose band lies below min V.
    # Resolution 2n-1 refines the same states by Rayleigh-quotient iteration
    # and bisects none of them; one count-only call per fixture certifies
    # them.  Bisecting the lowest levels + 6 states at both resolutions would
    # be 92, and bisecting the 17 again at 2n-1 would be 34.
    import scipy.linalg

    real = scipy.linalg.eigh_tridiagonal
    coarse = {f[8] - 2 for f in verify._SPECTRUM_FIXTURES}
    bisected = {"coarse": 0, "fine": 0}
    counts = []

    def counting(d, e, **kwargs):
        lams = real(d, e, **kwargs)
        if kwargs.get("tol", 0.0) > 0.0:
            counts.append(len(lams))
        else:
            bisected["coarse" if len(d) in coarse else "fine"] += len(lams)
        return lams

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", counting)
    out = verify.suite_spectrum()
    assert out["ok"]
    assert bisected == {"coarse": 17, "fine": 0}
    assert counts == [4, 5, 3, 1, 4]
    assert capfd.readouterr().err == ""


def test_run_suite_reports_a_package_error_as_a_failed_suite(monkeypatch):
    def boom():
        raise NoConvergence("quadrature gave up")

    monkeypatch.setitem(verify._SUITES, "riccati", boom)
    out = verify.run_suite("riccati")
    assert out["ok"] is False and out["suite"] == "riccati"
    assert out["error"] == "NoConvergence: quadrature gave up"


# Each suite with one residual source made NaN: the suite fails and its worst
# value is NaN, where max(0.0, nan) == 0.0 and nan > tol would let it pass.
NAN_SOURCES = {
    "algebra": (verify.ladder, "check_identities", lambda real: lambda ctx, lmax: {
        **real(ctx, lmax), "max_residual": math.nan},
        verify.suite_algebra, ("max_residual",), ("identities",)),
    "recurrence": (verify.ladder, "check_recurrence", lambda real: lambda ctx, lmax: dict.fromkeys(
        real(ctx, lmax), math.nan), verify.suite_recurrence, ("max_residual",), ()),
    "orthogonality": (verify, "gram_matrix", lambda real: lambda fam, m, lmax: np.full(
        (lmax - m + 1,) * 2, math.nan), verify.suite_orthogonality, ("max_gram", "max_ratio"),
        ("gram", "norm-ratio")),
    "riccati": (verify.riccati, "riccati_residual", lambda real: lambda *a: math.nan,
                verify.suite_riccati, ("max_residual",), ()),
    # the V deviation stays finite: max(finite, nan) would drop the NaN W
    "catalog": (verify.catalog, "compare_with_generic", lambda real: lambda *a: {
        **real(*a), "max_dev_W": math.nan}, verify.suite_catalog, ("max_deviation",), ()),
    # each fixture's last matched residual: max(finite, nan) would drop it; the
    # suite has no worst value, and each fixture with matched levels must fail
    "spectrum": (verify, "verify_spectrum", lambda real: lambda *a, **kw: _last_residual_nan(
        real(*a, **kw)), verify.suite_spectrum, (),
        tuple(f[0] for f in verify._SPECTRUM_FIXTURES if f[-1])),
}


def _last_residual_nan(rep):
    if rep.matched:
        rep.matched[-1] = {**rep.matched[-1], "residual": math.nan}
    return rep


@pytest.mark.parametrize("source", sorted(NAN_SOURCES))
def test_a_nan_residual_fails_its_suite(monkeypatch, source):
    module, name, fake, suite, worst_keys, kinds = NAN_SOURCES[source]
    monkeypatch.setattr(module, name, fake(getattr(module, name)))
    rep = suite()
    assert rep["ok"] is False and rep["failures"]
    for key in worst_keys:
        assert math.isnan(rep[key]), key
    for kind in kinds:
        assert any(kind in f for f in rep["failures"]), kind


# One FLOAT_MATRIX row, s2_plus_one(-4.1, 0.7), with one exact quantity off by
# a relative 2^-80: its level-2 polynomial's s coefficient (seen by the
# equation check: the identities hold for any polynomial) or its order-1
# factorization energy lambda_1 (seen by the identities).
_TWEAK = 1 + Fraction(1, 2 ** 80)


def _tweak_level_2(real):
    def recurrence(fam, level):
        p = real(fam, level)
        if (fam.kind, fam.alpha, level) != ("s2_plus_one", -4.1, 2):
            return p
        cs = list(p.coeffs)
        cs[1] *= _TWEAK
        return polynomials.Poly(cs)
    return recurrence


def _tweak_lambda_1(real):
    def shifted(fam, m, delta):
        lam = real(fam, m, delta)
        return lam * _TWEAK if (fam.kind, fam.alpha, m) == ("s2_plus_one", -4.1, 1) else lam
    return shifted


@pytest.mark.parametrize("module, name, fake, key", [
    (polynomials, "_recurrence", _tweak_level_2, "ode:s2_plus_one(alpha=-4.1,beta=0.7),l=2"),
    (families, "shifted_eigenvalue", _tweak_lambda_1,
     "identities:s2_plus_one(alpha=-4.1,beta=0.7),m=1"),
], ids=["level-polynomial", "lambda_1"])
def test_algebra_suite_catches_an_error_below_the_old_float_tolerance(monkeypatch, module, name,
                                                                       fake, key):
    assert verify.suite_algebra()["ok"]
    monkeypatch.setattr(module, name, fake(getattr(module, name)))
    rep = verify.suite_algebra()
    # a 1e-12 tolerance would pass it; the exact check does not
    assert rep["ok"] is False and 0.0 < rep["max_residual"] <= 1e-12
    assert {k for k, r in rep["details"].items() if r} == {key}
    assert [f[:3] for f in rep["failures"]] == [("s2_plus_one", -4.1, 0.7)]


def _tweak_const_level_3(real):
    def recurrence(fam, level):
        p = real(fam, level)
        if (fam.kind, fam.alpha, level) != ("const", -2, 3):
            return p
        cs = list(p.coeffs)
        cs[1] *= _TWEAK
        return polynomials.Poly(cs)
    return recurrence


def test_recurrence_suite_catches_an_error_below_the_old_float_tolerance(monkeypatch):
    # const(-2, 0)'s level-3 polynomial s^3/6 - s/4 with its s coefficient off
    # by a relative 2^-80: Phi_{3,1} and Phi_{3,2} carry it, Phi_{3,3} does not.
    # The 1e-10 float check at 32 random points passed it; the exact one does not
    assert verify.suite_recurrence()["ok"]
    monkeypatch.setattr(polynomials, "_recurrence", _tweak_const_level_3(polynomials._recurrence))
    rep = verify.suite_recurrence()
    assert rep["ok"] is False and 0.0 < rep["max_residual"] <= 1e-12
    assert {k for k, r in rep["details"].items() if r} == {"const,l=3,m=1", "const,l=3,m=2"}
    assert [f[:3] for f in rep["failures"]] == [("const", 3, 1), ("const", 3, 2)]


def test_each_norm_ratio_detail_is_its_own_familys_worst(monkeypatch):
    # const, the first family, gets an order-1 Gram 1% too large: only its
    # norm ratios break, and the families after it keep their own worst
    real = verify.gram_matrix

    def skewed(fam, m, lmax):
        g = real(fam, m, lmax)
        return g * 1.01 if (fam.kind, m) == ("const", 1) else g

    monkeypatch.setattr(verify, "gram_matrix", skewed)
    out = verify.suite_orthogonality()
    assert {f[0] for f in out["failures"]} == {"const"}
    assert out["details"]["norm-ratio:const"] > 1e-3
    for kind, _, _ in verify.TEST_MATRIX[1:]:
        assert out["details"][f"norm-ratio:{kind}"] < 1e-12, kind


# The top-level keys of each suite part in `verify --json`; a part with
# details states the tolerance behind each of its worst values.
_JUDGED = {"ok", "details", "failures", "tol"}
PART_KEYS = {
    "algebra": [_JUDGED | {"max_residual"}, _JUDGED | {"max_residual"}],
    "orthogonality": [_JUDGED | {"max_gram", "max_ratio"}],
    "riccati": [_JUDGED | {"max_residual"}],
    "spectrum": [_JUDGED | {"max_deviation"}, {"ok", "reports", "failures"}],
}
REPORT_KEYS = {"grid", "eigenvalues", "targets", "matched", "extras", "missing", "tol",
               "gap", "fine_solve"}


def test_run_all_pins_each_parts_keys_and_margins():
    out = verify.run_all()
    assert out["ok"] and set(out["suites"]) == set(PART_KEYS)
    for name, keys in PART_KEYS.items():
        suite = out["suites"][name]
        if "parts" in suite:
            assert set(suite) == {"ok", "parts", "suite", "seconds"}, name
            parts = suite["parts"]
        else:
            parts = [{k: v for k, v in suite.items() if k not in ("suite", "seconds")}]
        assert [set(p) for p in parts] == keys, name
        for part in parts:
            worst = {k for k in part if k.startswith("max_")}
            assert set(part.get("tol", {})) == worst, name
            assert all(part[k] <= part["tol"][k] for k in worst), name
    tols = {f[0]: f[9] for f in verify._SPECTRUM_FIXTURES}
    for fixture, rep in out["suites"]["spectrum"]["parts"][1]["reports"].items():
        assert set(rep) == REPORT_KEYS and rep["tol"] == tols[fixture]
        # every fixture's fine states are certified, and its grid passed
        assert rep["fine_solve"] == "refined", fixture
        assert 0.0 <= rep["gap"] <= 10.0 * rep["tol"], fixture
