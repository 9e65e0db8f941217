"""The one-sweep cumulative weight I_m against references that share no code
with it: closed forms through scipy.special, and scipy.integrate.quad on an
integrand written out here."""

import math
import os
import subprocess
import sys

import mpmath
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


# --- near a singular end, against mpmath at 40 digits ------------------------------

def mpmath_reference(kind, a, b, s):
    """I_0(s) in closed form: incomplete beta in u = (1+s)/2 for one_minus_s2
    and in u = (s-1)/(s+1) for s2_minus_one, incomplete gamma for linear."""
    a, b, s = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(float(s))
    if kind == "one_minus_s2":
        p, q = -(a - b) / 2 - 1, -(a + b) / 2 - 1
        return 2 ** (p + q + 1) * mpmath.betainc(p + 1, q + 1, 0.5, (1 + s) / 2)
    if kind == "s2_minus_one":
        p, q = (a - b) / 2 - 1, (a + b) / 2 - 1
        return 2 ** (p + q + 1) * mpmath.betainc(q + 1, -p - q - 1, mpmath.mpf(1) / 3,
                                                 (s - 1) / (s + 1))
    return (-a) ** -b * mpmath.gammainc(b, -a, -a * s)


# grids that reach to within d of the singular end
NEAR_END_GRID = {
    "one_minus_s2": lambda d: np.linspace(-0.5, 1.0 - d, 50),
    "s2_minus_one": lambda d: np.linspace(1.0 + d, 4.0, 40),
    "linear": lambda d: np.linspace(d, 3.0, 40),
}
NEAR_END = (
    [("one_minus_s2", -4, b) for b in (3, 3.5, 3.9)]
    + [("s2_minus_one", -8, b) for b in (8.5, 8.01)]
    + [("linear", -1, b) for b in (0.1, 0.01, 0.001)]
)


@pytest.mark.parametrize("d", (1e-4, 1e-6, 1e-8))
@pytest.mark.parametrize("kind,a,b", NEAR_END)
def test_near_a_singular_end_the_sweep_raises_or_is_right(kind, a, b, d):
    fam = families.make_family(kind, a, b)
    pts = NEAR_END_GRID[kind](d)
    try:
        got = riccati.cumulative_weight_sorted(fam, 0, pts)
    except NoConvergence:
        assert (kind, b, d) != ("one_minus_s2", 3.9, 1e-4)  # within reach: must return
        return
    assert (kind, b, d) != ("one_minus_s2", 3.5, 1e-8)  # past the floor: must raise
    with mpmath.workdps(40):
        want = [mpmath_reference(kind, a, b, s) for s in pts]
        err = max(abs((mpmath.mpf(float(g)) - w) / w) for g, w in zip(got, want) if w)
    assert err <= 1e-13


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


def test_any_shape_and_order():
    fam = families.make_family("linear", -1.1, 1.2)
    s = np.array([[3.0, 0.5, 1.5], [0.2, 3.0, 7.5]])
    got = riccati.cumulative_weight(fam, 1, s)
    assert got.shape == s.shape and got[0, 0] == got[1, 1]
    pointwise = [riccati.cumulative_weight(fam, 1, x) for x in s.ravel()]
    assert all(type(v) is float for v in pointwise)
    assert_close(got.ravel(), pointwise)
    assert_close(got.ravel(), [linear_closed_form(-1.1, 1.2, 1, x) for x in s.ravel()])


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


def test_coarse_grid_on_a_narrow_weight_sends_each_unsettled_gap_to_quad(monkeypatch):
    # exp(-200 s^2), width 0.05, on gaps of 0.32: the two orders disagree
    # next to the peak, and each such gap goes to quad once
    fam = families.make_family("const", -400, 0)
    pts = np.linspace(-3.0, 3.0, 20)
    # the gaps, the base point 0 being one more edge, whose 10- and 20-point
    # values differ by more than 1e-13 of the closed form at their far edge
    edges = np.insert(pts, 10, 0.0)
    unsettled = []
    for a, b in zip(edges[:-1], edges[1:]):
        far = b if b > 0 else a
        rules = [riccati._gauss(fam, 0, np.array([a]), np.array([b]), n)[0]
                 for n in riccati._GL_ORDERS]
        if abs(rules[1] - rules[0]) > 1e-13 * abs(const_closed_form(-400, 0, far)):
            unsettled.append((a, b))
    sizes = spy_gauss(monkeypatch)
    calls = count_quad(monkeypatch)
    got = riccati.cumulative_weight_sorted(fam, 0, pts)
    assert sizes == [len(pts), len(pts)]
    assert unsettled and calls == unsettled
    assert_close(got, [const_closed_form(-400, 0, s) for s in pts])


def test_quad_fallback_returns_the_reference(monkeypatch):
    # width 8e-5 against gaps of 0.12: the gaps next to the peak go to quad
    fam = families.make_family("const", -1.6e8, 0)
    pts = np.linspace(-3.0, 3.0, 50)
    calls = count_quad(monkeypatch)
    got = riccati.cumulative_weight_sorted(fam, 0, pts)
    assert calls
    assert_close(got, [const_closed_form(-1.6e8, 0, s) for s in pts])


def test_an_unresolvable_gap_raises_at_the_precision_floor():
    # (1 - s)^-0.95 at s = 1 - 1e-10: half an ulp there holds more of I_0
    # than the sweep may miss
    fam = families.make_family("one_minus_s2", -4, 3.9)
    with pytest.raises(NoConvergence):
        riccati.cumulative_weight_sorted(fam, 0, [1.0 - 1e-10])


# --- structural guards against the per-gap quadrature coming back -------------------

@pytest.mark.parametrize("kind,a,b", TEST_MATRIX)
def test_grid_sweep_makes_no_quad_call(monkeypatch, kind, a, b):
    fam = families.make_family(kind, a, b)
    calls = count_quad(monkeypatch)
    for n in (600, 1601, 4000):
        for m in orders(fam):
            riccati.cumulative_weight_sorted(fam, m, grid(kind, n))
    assert calls == []


def test_import_leaves_numpy_polynomial_out():
    # nor scipy, which only fd_spectrum imports, nor the tanh-sinh node
    # tables, which the first quad call builds
    code = (
        "import sys, hypersusy\n"
        "print('numpy.polynomial' in sys.modules,"
        " any(n == 'scipy' or n.startswith('scipy.') for n in sys.modules),"
        " hypersusy.numerics._table.cache_info().currsize)\n"
        "hypersusy.numerics.quad(lambda s: s, 0.0, 1.0)\n"
        "print(hypersusy.numerics._table.cache_info().currsize)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
    )
    assert out.stdout.split() == ["False", "False", "0", "1"]


def test_import_leaves_orjson_out_until_a_json_grid_is_written(tmp_path):
    code = (
        "import sys, numpy, hypersusy\n"
        "print('orjson' in sys.modules)\n"
        f"hypersusy.schrodinger.write_json({{'x': numpy.zeros(2)}}, {str(tmp_path / 'g.json')!r})\n"
        "print('orjson' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
    )
    assert out.stdout.split() == ["False", "True"]


def test_import_leaves_orjson_and_the_digit_tables_out_until_a_csv_is_written(tmp_path):
    code = (
        "import sys, numpy, hypersusy\n"
        "tables = hypersusy.schrodinger._export_tables.cache_info\n"
        "print('orjson' in sys.modules, tables().currsize)\n"
        f"hypersusy.schrodinger.write_csv({{'x': numpy.linspace(1.5, 2.5, 5)}}, {str(tmp_path / 'g.csv')!r})\n"
        "print('orjson' in sys.modules, tables().currsize)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
    )
    assert out.stdout.split() == ["False", "0", "True", "1"]


def test_gauss_legendre_rules_are_exact_on_polynomials():
    for n in riccati._GL_ORDERS:
        x, w = riccati._gauss_legendre(n)
        assert abs(w.sum() - 2.0) <= 1e-14
        for k in range(2 * n):
            want = 0.0 if k % 2 else 2.0 / (k + 1)
            assert abs(float(w @ x ** k) - want) <= 1e-14
