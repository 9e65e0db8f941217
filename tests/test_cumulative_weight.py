"""The one-sweep cumulative weight I_m against references that share no code
with it: closed forms through scipy.special, and scipy.integrate.quad on an
integrand written out here."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad
from scipy.special import betainc, erf, gamma, gammainc

from hypersusy import families, riccati
from hypersusy.errors import NoConvergence
from hypersusy.verify import TEST_MATRIX

REL = 1e-12

# x-windows of the benchmark's derive workloads, and s(x) on each
X_WINDOW = {
    "const": (-3.0, 3.0),
    "linear": (0.4, 6.0),
    "one_minus_s2": (0.3, math.pi - 0.3),
    "s2_minus_one": (0.4, 5.0),
    "s2": (-2.0, 3.0),
    "s2_plus_one": (-3.0, 3.0),
}
S_OF_X = {
    "const": lambda x: x,
    "linear": lambda x: x * x / 4.0,
    "one_minus_s2": np.cos,
    "s2_minus_one": np.cosh,
    "s2": np.exp,
    "s2_plus_one": np.sinh,
}
SIGMA = {
    "const": lambda s: 1.0,
    "linear": lambda s: s,
    "one_minus_s2": lambda s: 1.0 - s * s,
    "s2_minus_one": lambda s: s * s - 1.0,
    "s2": lambda s: s * s,
    "s2_plus_one": lambda s: 1.0 + s * s,
}


def log_rho(kind, a, b, s):
    if kind == "const":
        return a * s * s / 2.0 + b * s
    if kind == "linear":
        return (b - 1.0) * math.log(s) + a * s
    if kind == "one_minus_s2":
        p, q = -(a - b) / 2.0 - 1.0, -(a + b) / 2.0 - 1.0
        return p * math.log1p(s) + q * math.log1p(-s)
    if kind == "s2_minus_one":
        p, q = (a - b) / 2.0 - 1.0, (a + b) / 2.0 - 1.0
        return p * math.log(s + 1.0) + q * math.log(s - 1.0)
    if kind == "s2":
        return (a - 2.0) * math.log(s) - b / s
    return (a / 2.0 - 1.0) * math.log1p(s * s) + b * math.atan(s)


def scipy_reference(kind, a, b, m, s0, s):
    f = lambda t: SIGMA[kind](t) ** m * math.exp(log_rho(kind, a, b, t))
    return scipy_quad(f, s0, s, epsabs=0.0, epsrel=1e-12, limit=400)[0]


def const_closed_form(a, b, s):
    # int_0^s exp(a t^2/2 + b t) dt, completing the square
    c, t0 = math.sqrt(-a / 2.0), -b / a
    return math.exp(b * b / (4.0 * c * c)) * math.sqrt(math.pi) / (2.0 * c) * (
        erf(c * (s - t0)) - erf(-c * t0)
    )


def linear_closed_form(a, b, m, s):
    # int_1^s t^(p-1) e^(-lam t) dt with p = m + beta, lam = -alpha
    p, lam = m + b, -a
    return gamma(p) / lam ** p * (gammainc(p, lam * s) - gammainc(p, lam))


def one_minus_s2_closed_form(a, b, m, s):
    # s = 2u - 1 turns (1+s)^P (1-s)^Q ds into 2^(P+Q+1) u^P (1-u)^Q du
    p = -(a - b) / 2.0 - 1.0 + m
    q = -(a + b) / 2.0 - 1.0 + m
    scale = 2.0 ** (p + q + 1.0) * math.exp(
        math.lgamma(p + 1.0) + math.lgamma(q + 1.0) - math.lgamma(p + q + 2.0)
    )
    return scale * (betainc(p + 1.0, q + 1.0, (s + 1.0) / 2.0) - betainc(p + 1.0, q + 1.0, 0.5))


def grid(kind, n):
    return np.sort(S_OF_X[kind](np.linspace(*X_WINDOW[kind], n)))


def assert_close(got, want, rel=REL):
    want = np.asarray(want, dtype=float)
    err = np.abs(got - want)
    worst = int(np.argmax(err / np.abs(want)))
    assert np.all(err <= rel * np.abs(want)), (worst, got[worst], want[worst])


def orders(fam):
    return [m for m in (0, 1) if families.below_cutoff(fam, m + 1)]


# --- accuracy -------------------------------------------------------------------

@pytest.mark.parametrize("kind,a,b", TEST_MATRIX)
@pytest.mark.parametrize("n", (600, 1600))
def test_sweep_matches_scipy_on_benchmark_grids(kind, a, b, n):
    fam = families.make_family(kind, a, b)
    s0 = fam.spec.base_point
    pts = grid(kind, n)
    for m in orders(fam):
        got = riccati.cumulative_weight_sorted(fam, m, pts)
        assert_close(got, [scipy_reference(kind, a, b, m, s0, s) for s in pts])


@pytest.mark.parametrize("a,b", ((-2, 0), (-2.2, 0.3), (-7, -3), (-0.5, 1.5)))
def test_sweep_matches_erf_for_const(a, b):
    fam = families.make_family("const", a, b)
    pts = np.linspace(-4.0, 5.0, 900)
    got = riccati.cumulative_weight_sorted(fam, 0, pts)
    assert_close(got, [const_closed_form(a, b, s) for s in pts])


@pytest.mark.parametrize("a,b", ((-1, 1), (-1.1, 1.2), (-1, 20), (-3, 0.5)))
def test_sweep_matches_incomplete_gamma_for_linear(a, b):
    fam = families.make_family("linear", a, b)
    pts = grid("linear", 800)
    for m in (0, 1, 2):
        got = riccati.cumulative_weight_sorted(fam, m, pts)
        assert_close(got, [linear_closed_form(a, b, m, s) for s in pts])


@pytest.mark.parametrize("a,b", ((-4, 1), (-4.3, 0.9), (-2, 0), (-9, -5)))
def test_sweep_matches_incomplete_beta_for_one_minus_s2(a, b):
    fam = families.make_family("one_minus_s2", a, b)
    pts = grid("one_minus_s2", 800)
    for m in (0, 1, 2):
        got = riccati.cumulative_weight_sorted(fam, m, pts)
        assert_close(got, [one_minus_s2_closed_form(a, b, m, s) for s in pts])


# --- edge cases -------------------------------------------------------------------

def test_one_and_two_points():
    fam = families.make_family("const", -2, 0)
    for pts in ([1.3], [-0.4], [-2.0, 0.7], [0.5, 3.0], [-3.0, -1.0]):
        got = riccati.cumulative_weight_sorted(fam, 0, np.array(pts))
        assert got.shape == (len(pts),)
        assert_close(got, [const_closed_form(-2, 0, s) for s in pts])


def test_repeated_points_and_the_base_point():
    fam = families.make_family("one_minus_s2", -4, 1)
    pts = np.array([-0.8, -0.3, -0.3, 0.0, 0.0, 0.4, 0.9, 0.9])
    got = riccati.cumulative_weight_sorted(fam, 1, pts)
    assert got[1] == got[2] and got[6] == got[7]
    assert got[3] == 0.0 and got[4] == 0.0
    nonzero = pts != 0.0
    want = [one_minus_s2_closed_form(-4, 1, 1, s) for s in pts[nonzero]]
    assert_close(got[nonzero], want)


def spy_gauss(monkeypatch):
    sizes = []
    real = riccati._gauss

    def spy(fam, m, lo, hi, order):
        sizes.append(lo.size)
        return real(fam, m, lo, hi, order)

    monkeypatch.setattr(riccati, "_gauss", spy)
    return sizes


def count_quad(monkeypatch):
    calls = []
    real = riccati.quad

    def counting(*args, **kwargs):
        calls.append(args[1:3])
        return real(*args, **kwargs)

    monkeypatch.setattr(riccati, "quad", counting)
    return calls


def test_coarse_grid_on_a_narrow_weight_bisects(monkeypatch):
    # exp(-200 s^2), width 0.05, on gaps of 0.32: the two orders disagree
    # next to the peak until those gaps are split
    fam = families.make_family("const", -400, 0)
    pts = np.linspace(-3.0, 3.0, 20)
    sizes = spy_gauss(monkeypatch)
    got = riccati.cumulative_weight_sorted(fam, 0, pts)
    assert len(sizes) > 2 and sizes[0] == len(pts)
    assert_close(got, [const_closed_form(-400, 0, s) for s in pts])


def test_quad_fallback_returns_the_reference(monkeypatch):
    # width 8e-5 against gaps of 0.12: eight bisections leave gaps for quad
    fam = families.make_family("const", -1.6e8, 0)
    pts = np.linspace(-3.0, 3.0, 50)
    calls = count_quad(monkeypatch)
    got = riccati.cumulative_weight_sorted(fam, 0, pts)
    assert calls
    assert_close(got, [const_closed_form(-1.6e8, 0, s) for s in pts])


def test_quad_fallback_raises_when_it_cannot_settle(monkeypatch):
    fam = families.make_family("const", -2, 0)
    calls = count_quad(monkeypatch)
    with pytest.raises(NoConvergence):
        riccati.cumulative_weight_sorted(fam, 0, np.linspace(-1.0, 1.0, 3), tol=1e-300)
    assert calls


# --- structural guards against the per-gap quadrature coming back -------------------

@pytest.mark.parametrize("kind,a,b", TEST_MATRIX)
def test_grid_sweep_makes_no_quad_call(monkeypatch, kind, a, b):
    fam = families.make_family(kind, a, b)
    calls = count_quad(monkeypatch)
    riccati.cumulative_weight_sorted(fam, 0, grid(kind, 4000))
    assert calls == []


def test_import_leaves_numpy_polynomial_out():
    code = "import sys, hypersusy; print('numpy.polynomial' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
    )
    assert out.stdout.strip() == "False"


def test_gauss_legendre_rules_are_exact_on_polynomials():
    for n in riccati._GL_ORDERS:
        x, w = riccati._gauss_legendre(n)
        assert abs(w.sum() - 2.0) <= 1e-14
        for k in range(2 * n):
            want = 0.0 if k % 2 else 2.0 / (k + 1)
            assert abs(float(w @ x ** k) - want) <= 1e-14
