import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hypersusy import catalog, families, polynomials
from hypersusy.errors import (
    CutoffExceeded,
    IndexViolation,
    InvalidParameters,
    QuadratureFailure,
    RecurrenceBreakdown,
)
from hypersusy.ladder import check_identities, check_recurrence, make_context
from hypersusy.numerics import quad
from hypersusy.polynomials import (
    Poly,
    associated_function,
    gram_matrix,
    norm,
    ode_residual,
    poly_eigenfunction,
)
from hypersusy.riccati import (cumulative_weight_sorted, endpoint_limit, gamma_rays,
                               make_deformation, partner_eigenfunction)
from hypersusy.schrodinger import grid_frame
from hypersusy.verify import FLOAT_MATRIX, TEST_MATRIX
from oracles import derivative


def matrix_families():
    return [families.make_family(k, a, b) for k, a, b in TEST_MATRIX]


def lmax_for(fam, cap=6):
    return max(l for l in range(cap + 1) if families.below_cutoff(fam, l))


# --- Poly basics ------------------------------------------------------------

def test_poly_arithmetic():
    p = Poly([1, 2, 3])
    q = Poly([0, 1])
    assert (p + q).coeffs == (1, 3, 3)
    assert (p * q).coeffs == (0, 1, 2, 3)
    assert (p - p).is_zero
    assert p.deriv().coeffs == (2, 6)
    assert p(2) == 17
    assert np.allclose(p.eval_array(np.array([0.0, 2.0])), [1.0, 17.0])


def test_poly_trims_trailing_zeros():
    assert Poly([1, 0, 0]).coeffs == (1,)
    assert Poly([0, 0]).is_zero


@settings(max_examples=50, deadline=None)
@given(
    a=st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=5),
    b=st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=5),
)
def test_poly_product_evaluates(a, b):
    p, q = Poly([Fraction(c) for c in a]), Poly([Fraction(c) for c in b])
    s = Fraction(3, 7)
    assert (p * q)(s) == p(s) * q(s)


# --- exact Poly against a plain Fraction-list reference ----------------------

def ref_trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def ref_add(a, b, sign=1):
    n = max(len(a), len(b))
    a, b = list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b))
    return ref_trim(x + sign * y for x, y in zip(a, b))


def ref_mul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref_trim(out)


def ref_deriv(a):
    return ref_trim(i * c for i, c in enumerate(a))[1:] if len(a) > 1 else ()


def ref_horner(a, s, conv=lambda c: c):
    out = 0
    for c in reversed(a):
        out = out * s + conv(c)
    return out


def assert_canonical(p):
    assert type(p.den) is int and p.den > 0
    assert all(type(x) is int for x in p.nums)
    assert math.gcd(p.den, *p.nums) == 1
    assert not p.nums or p.nums[-1] != 0


rationals = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.fractions(min_value=-1000, max_value=1000, max_denominator=10**4),
)
coeff_lists = st.lists(rationals, max_size=9)


@settings(max_examples=100, deadline=None)
@given(a=coeff_lists, b=coeff_lists, c=rationals)
def test_exact_poly_matches_fraction_reference(a, b, c):
    p, q = Poly(a), Poly(b)
    ra, rb = ref_trim(a), ref_trim(b)
    cases = [
        (p, ra), (p + q, ref_add(ra, rb)), (p - q, ref_add(ra, rb, -1)), (-p, ref_mul(ra, (-1,))),
        (p * q, ref_mul(ra, rb)), (p * c, ref_mul(ra, (c,))), (c * p, ref_mul(ra, (c,))),
        (p * Fraction(c), ref_mul(ra, (c,))), (p.deriv(), ref_deriv(ra)),
        (p.deriv(2), ref_deriv(ref_deriv(ra))),
    ]
    for got, want in cases:
        assert_canonical(got)
        assert got.coeffs == want
        assert all(type(x) is Fraction for x in got.coeffs)


@settings(max_examples=100, deadline=None)
@given(
    a=coeff_lists,
    s=rationals,
    xs=st.lists(st.floats(min_value=-30, max_value=30), min_size=1, max_size=12),
)
def test_exact_poly_evaluation_matches_reference(a, s, xs):
    p, ra = Poly(a), ref_trim(a)
    assert p(s) == ref_horner(ra, Fraction(s))
    x = np.asarray(xs)
    with np.errstate(over="ignore", invalid="ignore"):
        want = ref_horner(ra, x, float) + np.zeros_like(x)
        got = p.eval_array(x)
    # float(Fraction) and n/den are both the correctly rounded quotient
    assert np.array_equal(got, want, equal_nan=True)
    assert p(float(s)) == ref_horner(ra, float(s))
    assert p.max_abs() == max((abs(float(c)) for c in ra), default=0.0)


@settings(max_examples=50, deadline=None)
@given(a=coeff_lists, k=st.integers(min_value=0, max_value=3))
def test_exact_poly_equality_and_hash_across_input_types(a, k):
    as_fractions = Poly([Fraction(c) for c in a] + [0] * k)
    p = Poly(a)
    assert p == as_fractions and hash(p) == hash(as_fractions)
    # integer-valued floats give the same exact polynomial as the ints
    ints = [Fraction(c).numerator for c in a]
    same = Poly([float(x) for x in ints])
    assert Poly(ints) == same and hash(Poly(ints)) == hash(same)
    if ref_trim(a):
        assert p != p + Poly([1])


@settings(max_examples=50, deadline=None)
@given(a=coeff_lists, f=st.lists(st.floats(min_value=-10, max_value=10), min_size=1, max_size=5))
def test_float_coefficients_enter_as_their_exact_rationals(a, f):
    # a float coefficient or scalar is its binary rational Fraction(x), exactly
    p, g, ra, rf = Poly(a), Poly(f), ref_trim(a), ref_trim(map(Fraction, f))
    for got, want in ((p * g, ref_mul(ra, rf)), (g * p, ref_mul(rf, ra)),
                      (p * f[0], ref_mul(ra, (Fraction(f[0]),))), (p + g, ref_add(ra, rf))):
        assert_canonical(got)
        assert got.coeffs == want


def test_float_input_gives_exact_results():
    # an integer-valued result of arithmetic on floats is that exact integer polynomial
    p, q = Poly([3, 1.5]), Poly([0, 1.5])
    for got in (p - q, (p - q) * Poly([2.0]), q * 2, q.deriv(), q - q):
        assert_canonical(got)
    assert (p - q) == Poly([3]) and q * 2 == Poly([0, 3]) and q.deriv() == Poly([Fraction(3, 2)])
    assert (p - q).coeffs == (3,) and (q - q).is_zero


def test_a_coefficient_beyond_float_range_evaluates_as_infinite():
    # the float view maps a coefficient too large for a float to +-inf, never raises
    huge = 10 ** 400
    p = Poly([1, Fraction(huge, 3)])
    assert p.max_abs() == math.inf and (-p).max_abs() == math.inf
    assert p(0.5) == math.inf and (-p)(0.5) == -math.inf
    assert p(Fraction(1, 2)) == Fraction(huge, 6) + 1
    assert p.eval_array(np.array([-0.5, 2.0])).tolist() == [-math.inf, math.inf]


# --- eigenfunction construction ---------------------------------------------

def test_hermite_type_polynomials():
    f = families.make_family("const", -2, 0)
    assert poly_eigenfunction(f, 0).coeffs == (Fraction(1),)
    assert poly_eigenfunction(f, 1).coeffs == (Fraction(0), Fraction(1))
    assert poly_eigenfunction(f, 2).coeffs == (Fraction(-1, 4), Fraction(0), Fraction(1, 2))


def test_ode_residual_exact_zero():
    for fam in matrix_families():
        for level in range(0, lmax_for(fam) + 1):
            p = poly_eigenfunction(fam, level)
            assert p.degree == level
            assert ode_residual(fam, level, p).is_zero


def test_leading_coefficient_normalization():
    f = families.make_family("one_minus_s2", -4, 1)
    for level in range(0, 5):
        p = poly_eigenfunction(f, level)
        assert p.coeffs[-1] == Fraction(1, math.factorial(level))


def test_cutoff_enforced():
    f = families.make_family("s2", -3, 2)  # cutoff 2
    poly_eigenfunction(f, 1)
    for _ in range(2):  # a refused level is never kept, so it raises every time
        with pytest.raises(CutoffExceeded):
            poly_eigenfunction(f, 2)


def test_degenerate_parameters_break_recurrence():
    carrier = families.make_family("linear", 0, 2)  # every eigenvalue is 0
    for _ in range(2):
        with pytest.raises(RecurrenceBreakdown):
            poly_eigenfunction(carrier, 1)


def test_levels_are_built_once_per_family_instance():
    for alpha, beta in ((-7, 2), (-7.0, 2.0)):
        fam, twin = families.make_family("s2", alpha, beta), families.make_family("s2", alpha, beta)
        p = poly_eigenfunction(fam, 3)
        assert poly_eigenfunction(fam, 3) is p
        # int and integer-valued float parameters give the same exact polynomial
        assert p == poly_eigenfunction(families.make_family("s2", -7, 2), 3)
        # the memo leaves the family's value semantics alone
        assert fam == twin and hash(fam) == hash(twin) and fam.to_json() == twin.to_json()
        other = poly_eigenfunction(twin, 3)
        assert other == p and other is not p


def test_float_parameters_solve_the_ode_exactly():
    for kind, alpha, beta in FLOAT_MATRIX:
        f = families.make_family(kind, alpha, beta)
        for level in range(lmax_for(f) + 1):
            assert ode_residual(f, level, poly_eigenfunction(f, level)).is_zero


def reference_recurrence(fam, level):
    """The downward recurrence coefficient by coefficient, in Fractions of
    the parameters' exact values."""
    c0, c1, c2 = fam.sigma_coeffs
    alpha, beta = Fraction(fam.alpha), Fraction(fam.beta)
    lam = families.eigenvalue(fam, level)
    cs = [0] * (level + 1)
    cs[level] = Fraction(1, math.factorial(level))
    for j in range(level - 1, -1, -1):
        div = c2 * j * (j - 1) + alpha * j + lam
        if div == 0:
            raise RecurrenceBreakdown(f"lambda_{level} - lambda_{j} vanishes")
        num = (j + 1) * (c1 * j + beta) * cs[j + 1]
        if j + 2 <= level:
            num += c0 * (j + 2) * (j + 1) * cs[j + 2]
        cs[j] = -num / div
    return cs


def top_level(fam, cap=30):
    return max(l for l in range(cap + 1) if families.below_cutoff(fam, l))


@pytest.mark.parametrize("kind, alpha, beta", TEST_MATRIX)
def test_exact_recurrence_matches_fraction_reference(kind, alpha, beta):
    fam = families.make_family(kind, alpha, beta)
    for level in range(top_level(fam) + 1):
        p = poly_eigenfunction(fam, level)
        assert_canonical(p)
        assert p == Poly(reference_recurrence(fam, level))


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(families.KINDS),
    alpha=st.fractions(min_value=-40, max_value=0, max_denominator=12),
    beta=st.fractions(min_value=-20, max_value=20, max_denominator=12),
    level=st.integers(min_value=0, max_value=14),
)
# sigma*rho overflows at its peak s=85, so make_family rejects the family
@example(kind="const", alpha=Fraction(-1, 5), beta=Fraction(17), level=0)
def test_exact_recurrence_matches_fraction_reference_drawn(kind, alpha, beta, level):
    try:
        fam = families.make_family(kind, alpha, beta)
    except InvalidParameters:
        assume(False)
    assume(families.below_cutoff(fam, level))
    try:
        want = Poly(reference_recurrence(fam, level))
    except RecurrenceBreakdown:
        with pytest.raises(RecurrenceBreakdown):
            poly_eigenfunction(fam, level)
        return
    assert poly_eigenfunction(fam, level) == want


def test_exact_recurrence_breaks_down_where_the_reference_does():
    # the Coulomb carrier (alpha = 0) has lambda_l = 0 for every l
    for beta in (2, Fraction(1, 3)):
        carrier = families.make_family("linear", 0, beta)
        for level in range(1, 6):
            with pytest.raises(RecurrenceBreakdown):
                reference_recurrence(carrier, level)
            with pytest.raises(RecurrenceBreakdown, match=f"lambda_{level} - lambda_"):
                poly_eigenfunction(carrier, level)
        assert poly_eigenfunction(carrier, 0) == Poly([1])


FLOAT_ROWS = (
    ("const", -2.2, 0.3), ("linear", -1.1, 1.2), ("one_minus_s2", -4.3, 0.9),
    ("s2_minus_one", -7.7, 10.1), ("s2", -3.1, 2.2), ("s2_plus_one", -4.1, 0.7),
    ("one_minus_s2", -31.3, 0.7), ("s2_minus_one", -60.7, 1.9), ("s2_plus_one", -45.0, 3.25),
    ("linear", -2.5, 0.75),
)


@pytest.mark.parametrize("kind, alpha, beta", FLOAT_ROWS)
def test_float_recurrence_matches_fraction_reference(kind, alpha, beta):
    # a float parameter is its exact binary rational: the same polynomial as
    # the Fraction family, level by level
    fam = families.make_family(kind, alpha, beta)
    twin = families.make_family(kind, Fraction(alpha), Fraction(beta))
    for level in range(top_level(fam) + 1):
        got = poly_eigenfunction(fam, level)
        assert_canonical(got)
        assert got == Poly(reference_recurrence(fam, level)) == poly_eigenfunction(twin, level)


# --- associated functions ---------------------------------------------------

def test_assoc_top_order_is_kappa_power():
    for fam in matrix_families():
        l = min(3, lmax_for(fam))
        af = associated_function(fam, l, l)
        assert af.poly.coeffs == (Fraction(1),)


def test_assoc_derivative_structure():
    f = families.make_family("const", -2, 0)
    af = associated_function(f, 2, 1)
    assert af.poly.coeffs == (Fraction(0), Fraction(1))
    assert associated_function(f, 2, 0).poly == poly_eigenfunction(f, 2)


def test_assoc_index_violation():
    f = families.make_family("const", -2, 0)
    with pytest.raises(IndexViolation):
        associated_function(f, 2, 3)
    with pytest.raises(IndexViolation):
        associated_function(f, 2, -1)


def test_eval_simple_cases():
    f = families.make_family("one_minus_s2", -4, 1)
    v = associated_function(f, 2, 2).eval(0.0)
    assert abs(v.value - 1.0) < 1e-15
    assert abs(v.deriv) < 1e-15
    g = families.make_family("const", -2, 0)
    v = associated_function(g, 1, 0).eval(3.0)
    assert (v.value, v.deriv) == (3.0, 1.0)


def test_eval_derivative_matches_finite_difference():
    rng = np.random.default_rng(5)
    for fam in matrix_families():
        l = min(3, lmax_for(fam))
        for m in range(0, l + 1):
            af = associated_function(fam, l, m)
            for s in rng.uniform(*fam.spec.sample_window, size=5):
                fd = derivative(lambda t: np.vectorize(lambda u: af.eval(float(u)).value)(t),
                                float(s), order=1, h0=1e-2)
                an = af.eval(float(s)).deriv
                assert abs(fd - an) <= 1e-6 * (1.0 + abs(an))


def test_values_vectorized_matches_eval():
    f = families.make_family("s2_plus_one", -4, 1)
    af = associated_function(f, 2, 1)
    pts = np.linspace(-2, 2, 7)
    vals = af.values(pts)
    for s, v in zip(pts, vals):
        assert abs(v - af.eval(float(s)).value) < 1e-13


# --- classical cross-check against mpmath ------------------------------------

def classical_value(fam, level, s):
    """The standard-polynomial identification of the level-l eigenfunction at s."""
    al, be = float(fam.alpha), float(fam.beta)
    if fam.kind == families.CONST:
        return float(mpmath.hermite(level, math.sqrt(-al / 2.0) * s - be / math.sqrt(-2.0 * al)))
    if fam.kind == families.LINEAR:
        return float(mpmath.laguerre(level, be - 1.0, -al * s))
    if fam.kind == families.ONE_MINUS_S2:
        return float(mpmath.jacobi(level, -(al + be) / 2.0 - 1.0, (-al + be) / 2.0 - 1.0, s))
    if fam.kind == families.S2_MINUS_ONE:
        return float(mpmath.jacobi(level, (al - be) / 2.0 - 1.0, (al + be) / 2.0 - 1.0, -s))
    if fam.kind == families.S2:
        # reciprocal-argument Laguerre
        if be == 0:
            raise ValueError("the s^2 identification needs beta != 0")
        return (s / be) ** level * float(mpmath.laguerre(level, 1.0 - al - 2 * level, be / s))
    # complex-parameter Jacobi
    p = (al + 1j * be) / 2.0 - 1.0
    val = complex((1j ** level) * mpmath.jacobi(level, p, p.conjugate(), 1j * s))
    assert abs(val.imag) <= 1e-9 * (1.0 + abs(val.real)), f"not real at s={s}: {val}"
    return val.real


def classical_ratio(fam, level, reference=classical_value):
    """The constant ratio reference / constructed at 16 interior points.

    Points where the constructed polynomial nearly vanishes are skipped (both
    sides share the zeros when proportional); the ratio may spread by 1e-8.
    """
    pts = families.sample_points(fam, 16)
    ours = poly_eigenfunction(fam, level).eval_array(pts)
    scale = float(np.max(np.abs(ours))) or 1.0
    ratios = np.array([reference(fam, level, float(s)) / v
                       for s, v in zip(pts, ours) if abs(v) >= 1e-6 * scale])
    assert len(ratios) >= 6, "too few usable sample points for the ratio"
    mean = float(np.mean(ratios))
    spread = float(np.max(ratios) - np.min(ratios))
    assert spread <= 1e-8 * max(1.0, abs(mean)), f"ratio varies by {spread:.3e} (mean {mean:.6g})"
    return mean


def test_classical_ratio_hermite():
    f = families.make_family("const", -2, 0)
    assert abs(classical_ratio(f, 2) - 8.0) < 1e-8
    assert abs(classical_ratio(f, 0) - 1.0) < 1e-12


def test_classical_ratio_laguerre():
    f = families.make_family("linear", -1, 1)
    assert abs(classical_ratio(f, 1) + 1.0) < 1e-10


def test_classical_ratio_all_kinds():
    for fam in matrix_families():
        for level in range(0, min(4, lmax_for(fam)) + 1):
            classical_ratio(fam, level)


def test_classical_ratio_shifted_argument():
    f = families.make_family("const", -2, 1)
    for level in range(0, 5):
        classical_ratio(f, level)


def test_classical_ratio_deep_quadratic_families():
    # the inverse-argument and complex-parameter identifications, up to the
    # deepest level below the cutoff (1 - alpha)/2 = 5
    f = families.make_family("s2", -9, 2)
    g = families.make_family("s2_plus_one", -9, 2)
    for level in range(0, 5):
        classical_ratio(f, level)
        classical_ratio(g, level)


def test_classical_needs_beta_for_s2():
    f = families.make_family("s2", -3, 0)
    with pytest.raises(ValueError, match="beta != 0"):
        classical_ratio(f, 1)


def test_not_proportional_detection():
    f = families.make_family("const", -2, 0)
    with pytest.raises(AssertionError, match="ratio varies"):
        classical_ratio(f, 2, lambda fam, level, s: classical_value(fam, level, s) + 0.05 * s)


# --- norms and Gram matrices --------------------------------------------------

def test_gaussian_ground_norm():
    f = families.make_family("const", -2, 0)
    assert abs(norm(f, 0, 0) - math.pi ** 0.25) < 1e-12


def test_norm_ratio_identity():
    for fam in matrix_families():
        lmax = min(4, lmax_for(fam))
        for l in range(1, lmax + 1):
            for m in range(0, l):
                lhs = norm(fam, l, m + 1)
                lam_gap = float(families.eigenvalue(fam, l)) - float(families.eigenvalue(fam, m))
                rhs = math.sqrt(lam_gap) * norm(fam, l, m)
                assert abs(lhs - rhs) <= 1e-7 * norm(fam, l, m)


def test_top_norm_is_sigma_moment():
    f = families.make_family("linear", -1, 1)
    lhs = norm(f, 2, 2) ** 2
    rhs = quad(lambda s: np.asarray(f.sigma(s)) ** 2 * families.weight(f, s), 0, math.inf).value
    assert abs(lhs - rhs) < 1e-10


def test_gram_orthogonality_gaussian():
    f = families.make_family("const", -2, 0)
    g = gram_matrix(f, 0, 5)
    d = np.sqrt(np.diag(g))
    normalized = np.abs(g / np.outer(d, d) - np.eye(len(d)))
    assert normalized.max() <= 1e-8


def test_gram_orthogonality_finite_cutoff():
    f = families.make_family("s2_minus_one", -8, 10)
    g = gram_matrix(f, 0, 3)
    d = np.sqrt(np.diag(g))
    normalized = np.abs(g / np.outer(d, d) - np.eye(len(d)))
    assert normalized.max() <= 1e-8
    for l in range(0, 4):
        assert abs(g[l, l] - norm(f, l, 0) ** 2) <= 1e-9 * max(1.0, g[l, l])


def count_quad(monkeypatch):
    calls = []
    real = polynomials.quad

    def counting(*args, **kwargs):
        calls.append(args[1:3])
        return real(*args, **kwargs)

    monkeypatch.setattr(polynomials, "quad", counting)
    return calls


def pair_integrand(fam, m, p1, p2):
    """sigma^m p1 p2 rho for one pair, zero where rho underflows."""
    def f(s):
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            w = families.weight(fam, s)
            sig = np.asarray(fam.sigma(s), dtype=float)
            out = sig ** m * p1.eval_array(s) * p2.eval_array(s) * w
        return np.where(w == 0.0, 0.0, out)

    return f


def test_gram_matrix_is_one_quadrature_pass(monkeypatch):
    calls = count_quad(monkeypatch)
    g = gram_matrix(families.make_family("const", -2, 0), 1, 6)
    assert g.shape == (6, 6) and np.array_equal(g, g.T)
    assert len(calls) == 1


def test_norm_is_one_quadrature_pass(monkeypatch):
    calls = count_quad(monkeypatch)
    norm(families.make_family("linear", -1, 1), 4, 2)
    assert len(calls) == 1


def test_gram_matrix_without_levels_makes_no_quadrature(monkeypatch):
    calls = count_quad(monkeypatch)
    assert gram_matrix(families.make_family("const", -2, 0), 3, 2).shape == (0, 0)
    assert not calls


@pytest.mark.parametrize("call", [lambda f: norm(f, 2, -1), lambda f: norm(f, 3, -2),
                                  lambda f: norm(f, 2, 1.5), lambda f: gram_matrix(f, 1.5, 3)],
                         ids=["norm-2-neg1", "norm-3-neg2", "norm-2-1.5", "gram-1.5-3"])
def test_norm_and_gram_reject_an_order_that_is_not_a_level_index(call):
    # a negative order integrated against sigma^-1 rho and returned a number;
    # a fractional one ended in a bare TypeError
    with pytest.raises(IndexViolation, match="^order must be a non-negative integer, got order="):
        call(families.make_family("const", -2, 0))


_PTS = np.array([-0.5, 0.5])


@pytest.mark.parametrize("call, name", [
    (lambda f: gram_matrix(f, 1.5, 1), "order"),
    (lambda f: gram_matrix(f, -1, -1), "order"),
    (lambda f: gram_matrix(f, True, 2), "order"),
    (lambda f: associated_function(f, 2, True), "order"),
    (lambda f: poly_eigenfunction(f, True), "level"),
    (lambda f: families.eigenvalue(f, True), "level"),
    (lambda f: make_deformation(f, True, math.inf), "order"),
    (lambda f: make_context(f, True), "order"),
    (lambda f: gram_matrix(f, 1, 1.5), "lmax"),
    (lambda f: gram_matrix(f, 0, True), "lmax"),
    (lambda f: check_identities(make_context(f, 1), 2.5), "lmax"),
    (lambda f: check_identities(make_context(f, 0), True), "lmax"),
    (lambda f: families.potential_term(f, -1, 0.5), "order"),
    (lambda f: families.potential_term(f, 1.5, 0.5), "order"),
    (lambda f: check_recurrence(make_context(f, 0), 1.5), "lmax"),
    (lambda f: check_recurrence(make_context(f, 0), True), "lmax"),
    (lambda f: check_recurrence(make_context(f, 1), 1), "lmax"),
    (lambda f: catalog.entry(0), "entry"),
    (lambda f: catalog.entry(True), "entry"),
    (lambda f: catalog.entry(1.0), "entry"),
    (lambda f: partner_eigenfunction(make_context(f, 1), 1), "level"),
    (lambda f: grid_frame(make_context(f, 1), _PTS, levels=(1,)), "level"),
    (lambda f: cumulative_weight_sorted(f, True, _PTS), "order"),
    (lambda f: gamma_rays(f, 1.5), "order"),
    (lambda f: (gamma_rays(f, 1), gamma_rays(f, True)), "order"),
    (lambda f: families.shift_constant(f, -1, 1), "order"),
    (lambda f: endpoint_limit(f, -1, "upper"), "order"),
    (lambda f: endpoint_limit(f, 1.5, "upper"), "order"),
    (lambda f: families.sigma_potential(f, -1), "order"),
    (lambda f: families.sigma_potential(f, True), "order"),
], ids=["gram-1.5-1", "gram-neg1-neg1", "gram-True-2", "assoc-order-True", "poly-level-True",
        "eigenvalue-level-True", "deformation-order-True", "context-order-True",
        "gram-lmax-1.5", "gram-lmax-True", "identities-lmax-2.5", "identities-lmax-True",
        "potential-order-neg1", "potential-order-1.5", "recurrence-lmax-1.5",
        "recurrence-lmax-True", "recurrence-lmax-below-m", "entry-0", "entry-True", "entry-1.0",
        "partner-level-m", "psi-level-m", "sweep-order-True",
        "rays-order-1.5", "rays-order-True-after-1", "shift-order-neg1",
        "endpoint-order-neg1", "endpoint-order-1.5", "sigma-potential-order-neg1",
        "sigma-potential-order-True"])
def test_an_index_that_is_a_bool_or_no_int_is_refused(call, name):
    # even where no level is in range: gram_matrix returned a (0, 0) matrix
    # for the first two and a (2, 2) one for the bool order; a float lmax
    # ended in a bare TypeError from range, and lmax=True was read as 1;
    # potential_term returned v_{-1}, catalog.entry read True and 1.0 as 1, and
    # gamma_rays and shift_constant integrated or divided at any order;
    # endpoint_limit integrated and sigma_potential built v_m at any order
    with pytest.raises(IndexViolation, match=rf"^{name} must be .*, got {name}="):
        call(families.make_family("const", -2, 0))


def test_orthogonality_suite_makes_one_pass_per_order(monkeypatch):
    from hypersusy import verify

    calls = count_quad(monkeypatch)
    out = verify.suite_orthogonality()
    assert out["ok"]
    expected = sum(lmax_for(families.make_family(*row)) + 1 for row in verify.TEST_MATRIX)
    assert expected == 31 and len(calls) == expected


@pytest.mark.parametrize("kind, alpha, beta", TEST_MATRIX)
def test_gram_matrix_matches_pairwise_references(kind, alpha, beta):
    fam = families.make_family(kind, alpha, beta)
    lmax = lmax_for(fam)
    a, b = fam.interval
    for m in range(0, min(3, lmax) + 1):
        g = gram_matrix(fam, m, lmax)
        polys = [poly_eigenfunction(fam, l).deriv(m) for l in range(m, lmax + 1)]
        ref = np.array([[quad(pair_integrand(fam, m, p, q), a, b, tol=1e-13).value
                         for q in polys] for p in polys])
        scale = np.sqrt(np.outer(np.diag(ref), np.diag(ref)))
        assert np.all(np.abs(g - ref) <= 1e-12 * scale)


def test_divergent_weight_raises_quadrature_failure():
    # beta <= -alpha leaves rho non-integrable at the lower endpoint
    f = families.make_family("s2_minus_one", -8, 1)
    with np.errstate(over="ignore"), pytest.raises(QuadratureFailure):
        norm(f, 0, 0)


def test_assoc_json():
    f = families.make_family("const", -2, 0)
    blob = associated_function(f, 2, 1).to_json()
    assert blob["l"] == 2 and blob["m"] == 1
    assert blob["coeffs"] == ["0", "1"]
    assert Poly.from_json(blob["coeffs"]).coeffs == (Fraction(0), Fraction(1))
