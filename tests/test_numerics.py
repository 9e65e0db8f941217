import math

import numpy as np
import pytest

from hypersusy.errors import GridTooCoarse, NoConvergence, NonFinite
from hypersusy.numerics import (
    derivative,
    fd_spectrum,
    fixed_level_quad,
    match_targets,
    quad,
)


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


def test_level_doubling_cuts_error_by_ten():
    exact = math.e - 1.0
    errs = [abs(fixed_level_quad(np.exp, 0.0, 1.0, lev) - exact) for lev in (1, 2, 3)]
    assert errs[1] <= errs[0] / 10.0
    assert errs[2] <= errs[1] / 10.0


def test_derivative_richardson():
    assert abs(derivative(np.sin, 0.7, order=1) - math.cos(0.7)) < 1e-10
    assert abs(derivative(np.sin, 0.7, order=2) + math.sin(0.7)) < 1e-8


def test_fd_oscillator():
    lams = fd_spectrum(lambda x: x * x + 1.0, -10.0, 10.0, 4000, 4)
    assert np.allclose(lams, [2.0, 4.0, 6.0, 8.0], atol=1e-3)


def test_fd_particle_in_box():
    lams = fd_spectrum(lambda x: np.zeros_like(x), 0.0, math.pi, 2000, 3)
    assert np.allclose(lams, [1.0, 4.0, 9.0], atol=1e-3)


def test_fd_constant_shift():
    base = fd_spectrum(lambda x: x * x, -8.0, 8.0, 1000, 3)
    shifted = fd_spectrum(lambda x: x * x + 5.0, -8.0, 8.0, 1000, 3)
    assert np.allclose(shifted, base + 5.0, atol=1e-9)


def test_fd_h2_convergence_order():
    exact = np.array([1.0, 3.0, 5.0])

    def err(n):
        lams = fd_spectrum(lambda x: x * x, -10.0, 10.0, n, 3, richardson=False)
        return np.abs(lams - exact)

    ratio = err(1001) / err(2001)
    assert np.all(ratio > 3.5) and np.all(ratio < 4.5)


def test_fd_grid_too_coarse():
    # a potential rough enough that 200 vs 399 points disagree wildly
    with pytest.raises(GridTooCoarse):
        fd_spectrum(lambda x: 1e4 * np.sin(40.0 * x) + x * x, -10.0, 10.0, 200, 3, tol=1e-9)


def test_fd_requires_minimum_grid():
    with pytest.raises(ValueError):
        fd_spectrum(lambda x: x * x, -1.0, 1.0, 50, 1)


def test_fd_rejects_a_non_finite_potential():
    with pytest.raises(NonFinite, match="potential non-finite"):
        fd_spectrum(lambda x: np.where(x > 0.5, np.nan, x * x), -1.0, 1.0, 200, 2)


def test_verify_spectrum_rejects_an_unknown_operator():
    from hypersusy import families, riccati
    from hypersusy.numerics import verify_spectrum

    d = riccati.make_deformation(families.make_family("const", -2, 0), 0, math.inf)
    with pytest.raises(ValueError, match="which must be"):
        verify_spectrum(d, "lower", 2, -6.0, 6.0, 400)


def test_match_targets_greedy_window():
    matched, extras, missing = match_targets([0.0, 2.0004, 4.01, 9.0], [2.0, 4.0, 6.0])
    assert [m["target"] for m in matched] == [2.0, 4.0]
    assert missing == [6.0]
    assert extras == [0.0]


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
