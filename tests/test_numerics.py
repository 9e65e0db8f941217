import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypersusy import numerics
from hypersusy.errors import GridTooCoarse, NoConvergence, NonFinite
from hypersusy.numerics import fd_spectrum, match_band, match_targets, quad
from oracles import derivative, fixed_level_quad


def test_gaussian_integral():
    res = quad(lambda s: np.exp(-s * s), -math.inf, math.inf)
    assert abs(res.value - math.sqrt(math.pi)) < 1e-12
    assert res.error_estimate <= 1e-12 * max(1.0, abs(res.value))
    assert res.panels > 0


def test_integrable_endpoint_singularity():
    res = quad(lambda s: 1.0 / np.sqrt(s), 0.0, 1.0, tol=1e-10)
    assert abs(res.value - 2.0) < 1e-10


def test_zero_function():
    res = quad(lambda s: np.zeros_like(s), 0.0, 1.0)
    assert res.value == 0.0


def test_orientation():
    fwd = quad(lambda s: s * s, 0.0, 2.0).value
    rev = quad(lambda s: s * s, 2.0, 0.0).value
    assert abs(fwd - 8.0 / 3.0) < 1e-12
    assert abs(fwd + rev) < 1e-12


def test_half_infinite():
    res = quad(lambda s: np.exp(-s), 0.0, math.inf)
    assert abs(res.value - 1.0) < 1e-12
    res = quad(lambda s: np.exp(s), -math.inf, 0.0)
    assert abs(res.value - 1.0) < 1e-12


def test_nonfinite_sample_rejected():
    with np.errstate(divide="ignore"), pytest.raises(NonFinite):
        quad(lambda s: 1.0 / s, -1.0, 1.0)


def test_divergent_integral_fails():
    with np.errstate(over="ignore"), pytest.raises((NoConvergence, NonFinite)):
        quad(lambda s: np.power(s, -1.5), 0.0, 1.0)


def test_one_row_integrand_returns_a_float():
    res = quad(lambda s: np.exp(-s * s), -math.inf, math.inf)
    assert type(res.value) is float and type(res.error_estimate) is float
    assert type(quad(lambda s: s, 1.0, 1.0).value) is float


def gauss_moment(k):
    """s^k exp(-s^2), written so that the extreme nodes give 0, not inf * 0."""
    def f(s):
        with np.errstate(divide="ignore", over="ignore"):
            return np.exp(k * np.log(np.abs(s)) - s * s)

    return f


# exp(-s^2) settles levels before s^8 exp(-s^2), whose mass sits out at |s| ~ 2
STACKED_ROWS = (
    (lambda s: np.exp(-s * s), math.sqrt(math.pi)),
    (gauss_moment(8), 105.0 / 16.0 * math.sqrt(math.pi)),
    (lambda s: np.sign(s) * gauss_moment(1)(s), 0.0),
    (gauss_moment(2), 0.5 * math.sqrt(math.pi)),
)


def test_stacked_rows_match_closed_forms_and_single_rows():
    fs = [f for f, _ in STACKED_ROWS]
    res = quad(lambda s: np.stack([f(s) for f in fs]), -math.inf, math.inf)
    singles = [quad(f, -math.inf, math.inf) for f in fs]
    assert res.value.shape == (len(fs),)
    assert res.error_estimate <= 1e-12 * max(1.0, float(np.max(np.abs(res.value))))
    # every row runs to the level of the slowest one
    assert res.panels == max(r.panels for r in singles)
    assert min(r.panels for r in singles) < res.panels
    for got, one, (_, exact) in zip(res.value, singles, STACKED_ROWS):
        assert abs(got - exact) <= 1e-12 * max(1.0, abs(exact))
        assert abs(got - one.value) <= 1e-12 * max(1.0, abs(exact))


def test_a_stacked_row_is_summed_exactly_as_a_lone_row():
    # numpy returns a stack's level selection F-ordered; summed that way a
    # row came out a few ulps from the same row integrated alone, and so did
    # the rows an integrand returns F-ordered, past level 4
    for f, _ in STACKED_ROWS:
        lone = quad(f, -math.inf, math.inf).value
        for order in "CF":
            pair = quad(lambda s: np.array([f(s), f(s)], order=order), -math.inf, math.inf).value
            assert pair[0] == pair[1] == lone


@pytest.mark.parametrize("a,b", [(math.nan, 1.0), (0.0, math.nan), (math.nan, math.inf)])
def test_nan_bound_raises_before_the_integrand_is_called(a, b):
    # a NaN bound left no node inside (a, b): quad returned 0 having
    # evaluated nothing
    g, calls = counting(np.exp)
    with pytest.raises(ValueError, match="not NaN"):
        quad(g, a, b)
    assert calls == []


def test_stacked_rows_keep_orientation_and_empty_intervals():
    def f(s):
        return np.stack([s * s, np.ones_like(s)])

    fwd, rev = quad(f, 0.0, 2.0).value, quad(f, 2.0, 0.0).value
    assert np.allclose(fwd, [8.0 / 3.0, 2.0], rtol=0.0, atol=1e-12)
    assert np.array_equal(rev, -fwd)
    empty = quad(f, 1.0, 1.0)
    assert np.array_equal(empty.value, [0.0, 0.0]) and empty.panels == 0


def test_nan_in_one_row_raises_nonfinite():
    def f(s):
        return np.stack([np.exp(-s * s), np.where(s > 0.5, np.nan, 1.0)])

    with pytest.raises(NonFinite, match="x="):
        quad(f, 0.0, 1.0)


def test_stacked_row_that_cannot_converge_fails():
    def f(s):
        return np.stack([np.ones_like(s), np.power(s, -1.5)])

    with np.errstate(over="ignore"), pytest.raises((NoConvergence, NonFinite)):
        quad(f, 0.0, 1.0)


# --- nested levels: every node is evaluated once ---------------------------------

def counting(f):
    """f, and the node arrays it has been called with."""
    calls = []

    def g(s):
        calls.append(np.array(s))
        return f(s)

    return g, calls


def stopping_level(f, a, b, tol):
    """quad's stopping rule applied to fixed-level values: (level, value)."""
    prev = fixed_level_quad(f, a, b, 0)
    for level in range(1, 13):
        value = fixed_level_quad(f, a, b, level)
        if np.all(np.abs(value - prev) <= tol * np.maximum(1.0, np.abs(value))):
            return level, value
        prev = value
    raise AssertionError("no level settles")


def test_integrand_settled_by_level_four_is_called_once():
    for f, a, b, tol in ((lambda s: s * s, 0.0, 2.0, 1e-12),
                         (lambda s: 1.0 / np.sqrt(s), 0.0, 1.0, 1e-10)):
        g, calls = counting(f)
        res = quad(g, a, b, tol)
        assert stopping_level(f, a, b, tol)[0] <= 4
        assert len(calls) == 1 and res.panels == calls[0].size


def test_levels_past_four_evaluate_only_their_new_nodes():
    f = gauss_moment(8)
    g, calls = counting(f)
    res = quad(g, -math.inf, math.inf)
    level, _ = stopping_level(f, -math.inf, math.inf, 1e-12)
    assert level > 4 and len(calls) == level - 3
    # every node of the stopping level, each exactly once
    h, fixed = counting(f)
    fixed_level_quad(h, -math.inf, math.inf, level)
    got = np.concatenate(calls)
    assert res.panels == got.size == fixed[0].size
    assert np.array_equal(np.sort(got), np.sort(fixed[0]))


def test_quad_equals_fixed_level_value_at_its_stopping_level():
    def rows(s):
        return np.stack([f(s) for f, _ in STACKED_ROWS])

    for f, a, b, tol in ((rows, -math.inf, math.inf, 1e-12),
                         (lambda s: 1.0 / np.sqrt(s), 0.0, 1.0, 1e-10)):
        _, fixed = stopping_level(f, a, b, tol)
        got = quad(f, a, b, tol).value
        assert np.all(np.abs(got - fixed) <= 4.0 * np.spacing(np.maximum(1.0, np.abs(fixed))))


def test_level_doubling_cuts_error_by_ten():
    exact = math.e - 1.0
    errs = [abs(fixed_level_quad(np.exp, 0.0, 1.0, lev) - exact) for lev in (1, 2, 3)]
    assert errs[1] <= errs[0] / 10.0
    assert errs[2] <= errs[1] / 10.0


def test_derivative_richardson():
    assert abs(derivative(np.sin, 0.7, order=1) - math.cos(0.7)) < 1e-10
    assert abs(derivative(np.sin, 0.7, order=2) + math.sin(0.7)) < 1e-8


def test_fd_oscillator():
    lams = fd_spectrum(lambda x: x * x + 1.0, -10.0, 10.0, 4000, 9.0).values
    assert np.allclose(lams, [2.0, 4.0, 6.0, 8.0], atol=1e-3)


def test_fd_particle_in_box():
    lams = fd_spectrum(lambda x: np.zeros_like(x), 0.0, math.pi, 2000, 12.0).values
    assert np.allclose(lams, [1.0, 4.0, 9.0], atol=1e-3)


def test_fd_constant_shift():
    base = fd_spectrum(lambda x: x * x, -8.0, 8.0, 1000, 6.0).values
    shifted = fd_spectrum(lambda x: x * x + 5.0, -8.0, 8.0, 1000, 11.0).values
    assert np.allclose(shifted, base + 5.0, atol=1e-9)


def test_fd_h2_convergence_order():
    # the gap between the two h^2-accurate resolutions falls by 4 when n
    # doubles (the premise of the extrapolation), the extrapolated error by 16
    exact = np.array([1.0, 3.0, 5.0])
    coarse, fine = (fd_spectrum(lambda x: x * x, -10.0, 10.0, n, 6.0) for n in (1001, 2001))
    assert 3.5 < coarse.gap / fine.gap < 4.5
    ratio = np.abs(coarse.values - exact) / np.abs(fine.values - exact)
    assert np.all(ratio > 12.0) and np.all(ratio < 20.0)


def test_fd_grid_too_coarse():
    # a potential rough enough that 200 vs 399 points disagree wildly; the
    # ceiling sits between its third and fourth level at n = 200
    with pytest.raises(GridTooCoarse):
        fd_spectrum(
            lambda x: 1e4 * np.sin(40.0 * x) + x * x, -10.0, 10.0, 200, -9760.0, tol=1e-9
        )


def test_fd_returns_every_level_up_to_the_ceiling():
    # 15 levels, more than the old fixed count of targets + 6 ever asked for
    lams = fd_spectrum(lambda x: x * x, -10.0, 10.0, 4000, 30.0).values
    assert lams.shape == (15,)
    assert np.allclose(lams, np.arange(1.0, 30.0, 2.0), atol=1e-3)


@pytest.mark.parametrize("e_max", [0.5, -3.0])
def test_fd_ceiling_below_the_ground_level_returns_the_ground_level(e_max, capfd):
    # 0.5 leaves an empty window above min V = 0; -3 lies below min V itself,
    # where stebz would reject the window (VL >= VU) on stderr
    lams = fd_spectrum(lambda x: x * x, -10.0, 10.0, 1000, e_max).values
    assert lams.shape == (1,) and abs(lams[0] - 1.0) < 1e-3
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("e_max", [math.inf, -math.inf, math.nan])
def test_fd_rejects_a_non_finite_ceiling(e_max):
    with pytest.raises(ValueError, match="finite e_max"):
        fd_spectrum(lambda x: x * x, -10.0, 10.0, 1000, e_max)


def test_fd_requires_minimum_grid():
    with pytest.raises(ValueError):
        fd_spectrum(lambda x: x * x, -1.0, 1.0, 50, 5.0)


def test_fd_rejects_a_non_finite_potential():
    with pytest.raises(NonFinite, match="potential non-finite"):
        fd_spectrum(lambda x: np.where(x > 0.5, np.nan, x * x), -1.0, 1.0, 200, 5.0)


@pytest.mark.parametrize("x_min,x_max", [(1.0, 1.0), (2.0, -2.0), (-math.inf, 1.0),
                                         (0.0, math.inf), (math.nan, 1.0)])
def test_fd_rejects_an_empty_or_non_finite_window_before_the_potential(x_min, x_max):
    # x_min == x_max divided by zero, and an infinite end was blamed on the
    # potential as non-finite
    calls = []

    def potential(x):
        calls.append(x)
        return x * x

    with pytest.raises(ValueError, match="x_min < x_max"):
        fd_spectrum(potential, x_min, x_max, 1000, 5.0)
    assert calls == []


def _grids(potential, x_min, x_max, n):
    """The coarse (n) and fine (2n-1) matrices fd_spectrum builds: (d, e, lo)
    at resolution n and (d2, e2, lo2, v, h2) at 2n-1."""
    x = np.linspace(x_min, x_max, 2 * n - 1)
    v = potential(x[1:-1])
    h = (x_max - x_min) / (n - 1)
    h2 = 0.5 * h
    coarse = (2.0 / (h * h) + v[1::2], np.full(n - 3, -1.0 / (h * h)), float(v[1::2].min()))
    return coarse, (2.0 / (h2 * h2) + v, np.full(v.size - 1, -1.0 / (h2 * h2)), float(v.min()), v, h2)


def _all_lowest(shifts):
    """Every state from the lowest coarse value: all find the one state."""
    return np.full(len(shifts), shifts[0])


def _one_state_up(shifts):
    """Each state from the next one's coarse value: k distinct states, but
    not the k lowest."""
    return np.append(shifts[1:], 2.0 * shifts[-1] - shifts[-2])


def _moved_shifts(real, move):
    """A _rayleigh that starts from move(shifts), recording what it returns."""
    seen = []

    def rayleigh(d, e, v, h, shifts):
        out = real(d, e, v, h, move(shifts))
        seen.append(out)
        return out

    return rayleigh, seen


def _wells(a, b, c):
    return lambda x: a * x * x + b * x ** 4 + c * x


@settings(max_examples=12, deadline=None)
@given(st.floats(0.5, 4.0), st.floats(0.0, 0.5), st.floats(-2.0, 2.0), st.integers(200, 1000))
@example(a=1.3046875, b=0.0, c=0.0, n=200)
def test_fd_refined_fine_solve_matches_index_bisection(a, b, c, n):
    # a quadratic or quartic well with a tilt: the refined fine states are
    # certified, and they agree with bisecting the same states by index.
    # The example's seeded start holds 0.002 of state 10 and 2.26 of state 9:
    # two shifted steps left the quotient nearer state 9, where Rayleigh
    # shifts then converged
    well = _wells(a, b, c)
    refined, _, how = fd_spectrum(well, -8.0, 8.0, n, 25.0, tol=0.1)
    assert how == "refined"
    assert refined.size >= 2
    with pytest.MonkeyPatch.context() as mp:
        rayleigh, _ = _moved_shifts(numerics._rayleigh, _all_lowest)
        mp.setattr(numerics, "_rayleigh", rayleigh)
        bisected, _, how = fd_spectrum(well, -8.0, 8.0, n, 25.0, tol=0.1)
        assert how == "bisected"
    assert refined.shape == bisected.shape
    assert np.all(np.abs(refined - bisected) <= 1e-9 * (1.0 + np.abs(bisected)))


@pytest.mark.parametrize("potential,x_min,x_max,e_max", [
    (lambda x: x * x + 1.0, -10.0, 10.0, 9.0),
    (_wells(1.0, 0.1, -1.5), -8.0, 8.0, 20.0),
])
def test_fd_refined_values_reach_a_tight_bisection(potential, x_min, x_max, e_max):
    # against stebz at the smallest absolute tolerance: the refined values
    # come within 1e-11 relative (3.8e-12 at worst here), where stebz at its
    # default tolerance, eps times the matrix norm, is up to 1.5e-11 off
    from scipy.linalg import eigh_tridiagonal

    (d, e, lo), (d2, e2, _, v, h2) = _grids(potential, x_min, x_max, 4000)
    lam = eigh_tridiagonal(d, e, eigvals_only=True, select="v", select_range=(lo, e_max))
    tight = eigh_tridiagonal(d2, e2, eigvals_only=True, select="i",
                             select_range=(0, lam.size - 1), tol=np.finfo(float).tiny)
    refined, slack = numerics._rayleigh(d2, e2, v, h2, lam)
    assert lam.size >= 3
    assert np.all(np.abs(refined - tight) <= 1e-11 * (1.0 + np.abs(tight)))
    assert np.all(np.diff(refined) > slack)


def test_fd_refined_box_levels_are_the_exact_discrete_ones():
    # with V = 0 the fine matrix has the closed-form eigenvalues
    # (4/h^2) sin^2(k pi / (2(N+1))); stebz, even at the smallest tolerance,
    # is held near eps times the matrix norm (about 3e-10 here)
    _, (d2, e2, _, v, h2) = _grids(np.zeros_like, 0.0, math.pi, 4000)
    k = np.arange(1, 4)
    exact = 4.0 / (h2 * h2) * np.sin(k * math.pi / (2 * (v.size + 1))) ** 2
    refined, _ = numerics._rayleigh(d2, e2, v, h2, k * k * 1.0)
    assert np.all(np.abs(refined - exact) <= 1e-13 * exact)


@pytest.mark.parametrize("move,distinct", [(_all_lowest, False), (_one_state_up, True)])
def test_fd_falls_back_to_index_bisection_when_the_certificate_fails(monkeypatch, move, distinct):
    # one state found k times fails the residual test; k distinct states
    # that skip the lowest pass it and fail the count
    from scipy.linalg import eigh_tridiagonal

    well = _wells(1.0, 0.0, 0.5)
    rayleigh, seen = _moved_shifts(numerics._rayleigh, move)
    monkeypatch.setattr(numerics, "_rayleigh", rayleigh)
    got = fd_spectrum(well, -10.0, 10.0, 1000, 12.0)
    (values, slack), = seen
    assert np.all(np.diff(values) > slack) == distinct
    assert got.fine_solve == "bisected"
    (d, e, lo), (d2, e2, _, _, _) = _grids(well, -10.0, 10.0, 1000)
    lam = eigh_tridiagonal(d, e, eigvals_only=True, select="v", select_range=(lo, 12.0))
    lam2 = eigh_tridiagonal(d2, e2, eigvals_only=True, select="i", select_range=(0, lam.size - 1))
    assert lam.size == values.size >= 3
    np.testing.assert_array_equal(got.values, (4.0 * lam2 - lam) / 3.0)


def test_verify_spectrum_rejects_an_unknown_operator():
    from hypersusy import families, riccati
    from hypersusy.numerics import verify_spectrum

    d = riccati.make_deformation(families.make_family("const", -2, 0), 0, math.inf)
    with pytest.raises(ValueError, match="which must be"):
        verify_spectrum(d, "lower", 2, -6.0, 6.0, 400)


def test_verify_spectrum_rejects_an_empty_level_list():
    # no targets would leave nothing to check and a report that passes
    from hypersusy import families, riccati
    from hypersusy.numerics import verify_spectrum

    d = riccati.make_deformation(families.make_family("const", -2, 0), 0, math.inf)
    for n_levels in (0, -1):
        with pytest.raises(ValueError, match="at least one level"):
            verify_spectrum(d, "upper", n_levels, -10.0, 10.0, 1000)


def test_match_targets_greedy_window():
    matched, extras, missing = match_targets([0.0, 2.0004, 4.01, 9.0], [2.0, 4.0, 6.0])
    assert [m["target"] for m in matched] == [2.0, 4.0]
    assert missing == [6.0]
    assert extras == [0.0]


def test_match_band_is_the_highest_window_edge():
    assert match_band([2.0, 6.0, 4.0]) == pytest.approx(6.0 + 0.05 * 7.0)
    assert match_band([-20.0, -10.0]) == pytest.approx(-10.0 + 0.05 * 11.0)
    with pytest.raises(ValueError, match="no targets"):
        match_band([])


def test_verify_spectrum_morse_level():
    from hypersusy import families, riccati
    from hypersusy.numerics import verify_spectrum

    fam = families.make_family("s2", -3, 2)  # cutoff 2: one level below it
    d = riccati.make_deformation(fam, 0, math.inf)
    rep = verify_spectrum(d, "upper", 1, -3.0, 40.0, 4000, tol=5e-3)
    assert rep.targets == [3.0]
    assert rep.ok and rep.max_residual <= 5e-3


def test_verify_spectrum_trigonometric_pair():
    from hypersusy import families, riccati
    from hypersusy.numerics import verify_spectrum

    fam = families.make_family("one_minus_s2", -4, 1)  # lambda_l = l(l+3)
    d = riccati.make_deformation(fam, 0, math.inf)
    rep = verify_spectrum(d, "upper", 3, 1.4e-3, math.pi - 1.4e-3, 4000, tol=5e-3)
    assert rep.targets == [4.0, 10.0, 18.0]
    assert rep.ok and rep.max_residual <= 5e-3

    # deformed partner: isospectral above the ground level; the singular
    # walls need a tighter trim because the partner states vanish only
    # linearly there
    gamma = riccati.gamma_rays(fam, 0).right_start + 1.0
    dp = riccati.make_deformation(fam, 0, gamma)
    rep = verify_spectrum(dp, "partner", 3, 1e-4, math.pi - 1e-4, 4000, tol=5e-3)
    assert rep.ok and rep.max_residual <= 5e-3


# (kind, alpha, beta, m, end) -> (panels, stopping level) of quad on each
# finite gamma_rays edge of TEST_MATRIX, as per-level sums (stopping_level) give them
EDGE_LEVELS = {
    ("const", -2, 0, 0, "lower"): (419, 5),
    ("const", -2, 0, 0, "upper"): (419, 5),
    ("const", -2, 0, 1, "lower"): (419, 5),
    ("const", -2, 0, 1, "upper"): (419, 5),
    ("linear", -1, 1, 0, "lower"): (155, 4),
    ("linear", -1, 1, 0, "upper"): (333, 5),
    ("linear", -1, 1, 1, "lower"): (155, 4),
    ("linear", -1, 1, 1, "upper"): (333, 5),
    ("one_minus_s2", -4, 1, 0, "lower"): (155, 3),
    ("one_minus_s2", -4, 1, 0, "upper"): (155, 4),
    ("one_minus_s2", -4, 1, 1, "lower"): (155, 4),
    ("one_minus_s2", -4, 1, 1, "upper"): (155, 4),
    ("s2_minus_one", -8, 10, 0, "lower"): (101, 4),
    ("s2_minus_one", -8, 10, 0, "upper"): (166, 3),
    ("s2_minus_one", -8, 10, 1, "lower"): (101, 4),
    ("s2_minus_one", -8, 10, 1, "upper"): (166, 3),
    ("s2", -3, 2, 0, "lower"): (311, 5),
    ("s2", -3, 2, 0, "upper"): (166, 3),
    ("s2_plus_one", -4, 1, 0, "lower"): (209, 3),
    ("s2_plus_one", -4, 1, 0, "upper"): (209, 3),
    ("s2_plus_one", -4, 1, 1, "lower"): (209, 3),
    ("s2_plus_one", -4, 1, 1, "upper"): (209, 3),
}


@pytest.mark.parametrize("key", EDGE_LEVELS, ids=lambda k: "-".join(map(str, k)))
def test_gamma_ray_edges_keep_their_panels_and_stopping_levels(key):
    from hypersusy import families, riccati

    kind, alpha, beta, m, end = key
    fam = families.make_family(kind, alpha, beta)
    assert not riccati._endpoint_diverges(fam, m, end)
    target = fam.interval[0 if end == "lower" else 1]
    f = lambda t: families.sigma_m_rho(fam, m, t)
    g, calls = counting(f)
    res = quad(g, fam.spec.base_point, target, tol=1e-12)
    panels, level = EDGE_LEVELS[key]
    lo, hi = sorted((fam.spec.base_point, target))
    got_level, fixed = stopping_level(f, lo, hi, 1e-12)
    assert (res.panels, got_level, len(calls)) == (panels, level, max(1, level - 3))
    assert abs(abs(res.value) - fixed) <= 4.0 * np.spacing(max(1.0, fixed))


def test_every_finite_gamma_ray_edge_is_pinned():
    from hypersusy import families, riccati
    from hypersusy.verify import TEST_MATRIX

    edges = set()
    for kind, alpha, beta in TEST_MATRIX:
        fam = families.make_family(kind, alpha, beta)
        edges |= {(kind, alpha, beta, m, end) for m in (0, 1) if families.below_cutoff(fam, m + 1)
                  for end in ("lower", "upper") if not riccati._endpoint_diverges(fam, m, end)}
    assert edges == set(EDGE_LEVELS)


def test_benchmark_tracer_reads_the_fd_and_quad_spans():
    # perfbench's traced runs read fd_spectrum's 4th argument as n and each
    # QuadratureResult's panels as evals; a change to either call or return
    # shape must fail here, not in a benchmark run
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracing
    from hypersusy import families, riccati
    from hypersusy.numerics import verify_spectrum

    n, tracer = 1000, tracing.Tracer()
    tracer.install()
    try:
        fam = families.make_family("const", -2, 0)
        defm = riccati.make_deformation(fam, 0, riccati.gamma_rays(fam, 0).right_start + 1.0)
        rep = verify_spectrum(defm, "partner", 2, -10.0, 10.0, n)
    finally:
        tracer.uninstall()
    assert rep.ok
    fd, q = tracer.stats["numerics.fd_spectrum"], tracer.stats["numerics.quad"]
    assert fd["calls"] == 1 and fd["grid_points"] == n + 2 * n - 1
    assert q["calls"] >= 1 and q["failed"] == 0 and q["evals"] >= 100 * q["calls"]
