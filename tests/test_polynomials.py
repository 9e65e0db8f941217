import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hypersusy import families, polynomials
from hypersusy.errors import (
    CutoffExceeded,
    IndexViolation,
    InvalidParameters,
    QuadratureFailure,
    RecurrenceBreakdown,
)
from hypersusy.numerics import derivative, quad
from hypersusy.polynomials import (
    Poly,
    associated_function,
    gram_matrix,
    norm,
    ode_residual,
    poly_divmod,
    poly_eigenfunction,
)

MATRIX = (
    ("const", -2, 0),
    ("linear", -1, 1),
    ("one_minus_s2", -4, 1),
    ("s2_minus_one", -8, 10),
    ("s2", -3, 2),
    ("s2_plus_one", -4, 1),
)


def matrix_families():
    return [families.make_family(k, a, b) for k, a, b in MATRIX]


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


def test_poly_divmod_exact():
    num = Poly([Fraction(-1), Fraction(0), Fraction(2)])  # 2s^2 - 1
    den = Poly([Fraction(1), Fraction(1)])  # s + 1
    q, r = poly_divmod(num, den)
    assert (q * den + r).coeffs == num.coeffs


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


def ref_divmod(a, b):
    n, q = [Fraction(c) for c in a], [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for i in range(len(a) - len(b), -1, -1):
        c = n[i + len(b) - 1] / b[-1]
        q[i] = c
        for j, d in enumerate(b):
            n[i + j] -= c * d
    return ref_trim(q), ref_trim(n[: len(b) - 1])


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
@given(a=coeff_lists, kind=st.sampled_from([k for k, _, _ in MATRIX]))
def test_exact_divmod_by_sigma_matches_reference(a, kind):
    fam = next(f for f in matrix_families() if f.kind == kind)
    sig = Poly(fam.sigma_coeffs)
    q, r = poly_divmod(Poly(a), sig)
    assert_canonical(q)
    assert_canonical(r)
    if len(ref_trim(a)) < len(sig.nums):
        assert (q.coeffs, r.coeffs) == ((), ref_trim(a))
    else:
        assert (q.coeffs, r.coeffs) == ref_divmod(ref_trim(a), sig.coeffs)
    assert q * sig + r == Poly(a)


@settings(max_examples=50, deadline=None)
@given(a=st.lists(rationals, min_size=2, max_size=9), b=st.lists(rationals, min_size=1, max_size=4))
def test_exact_divmod_by_any_lead_matches_reference(a, b):
    # divisors whose leading coefficient is not +-1
    ra, rb = ref_trim(a), ref_trim(b)
    if not rb or len(ra) < len(rb):
        return
    q, r = poly_divmod(Poly(a), Poly(b))
    assert_canonical(q)
    assert_canonical(r)
    assert (q.coeffs, r.coeffs) == ref_divmod(ra, rb)


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
    # a float polynomial with the same values compares equal, as Fraction == float does
    ints = [Fraction(c).numerator for c in a]
    same = Poly([float(x) for x in ints])
    assert Poly(ints) == same and hash(Poly(ints)) == hash(same)
    if ref_trim(a):
        assert p != p + Poly([1])


@settings(max_examples=50, deadline=None)
@given(a=coeff_lists, f=st.lists(st.floats(min_value=-10, max_value=10), min_size=1, max_size=5))
def test_exact_times_float_is_a_float_polynomial(a, f):
    assume(any(f))  # an all-zero list trims to the zero polynomial, which is exact
    p, g, ra = Poly(a), Poly(f), ref_trim(a)
    for got, want in ((p * g, ref_mul(ra, ref_trim(f))), (g * p, ref_mul(ref_trim(f), ra)),
                      (p * f[0], ref_mul(ra, (f[0],))), (p + g, ref_add(ra, ref_trim(f)))):
        assert got.den is None or got.is_zero
        # Fraction op float is float(Fraction) op float
        assert got.coeffs == tuple(map(float, want))


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
    with pytest.raises(CutoffExceeded):
        poly_eigenfunction(f, 2)


def test_degenerate_parameters_break_recurrence():
    carrier = families.make_family("linear", 0, 2)  # every eigenvalue is 0
    with pytest.raises(RecurrenceBreakdown):
        poly_eigenfunction(carrier, 1)


def test_float_mode_residual():
    f = families.make_family("const", -2.2, 0.3)
    for level in range(1, 6):
        p = poly_eigenfunction(f, level)
        res = ode_residual(f, level, p)
        assert res.max_abs() <= 1e-12 * max(1.0, p.max_abs())


def reference_recurrence(fam, level):
    """The downward recurrence coefficient by coefficient: Fractions in the
    exact lane, floats (in this operation order) in the float lane."""
    c0, c1, c2 = fam.sigma_coeffs
    alpha, beta, exact = fam.alpha, fam.beta, fam.exact
    lam = families.eigenvalue(fam, level)
    cs = [0] * (level + 1)
    cs[level] = Fraction(1, math.factorial(level)) if exact else 1.0 / math.factorial(level)
    for j in range(level - 1, -1, -1):
        div = c2 * j * (j - 1) + alpha * j + lam
        if div == 0 or (not exact and abs(float(div)) < 1e-14):
            raise RecurrenceBreakdown(f"lambda_{level} - lambda_{j} vanishes")
        num = (j + 1) * (c1 * j + beta) * cs[j + 1]
        if j + 2 <= level:
            num += c0 * (j + 2) * (j + 1) * cs[j + 2]
        cs[j] = -Fraction(num) / Fraction(div) if exact else -float(num) / float(div)
    return cs


def top_level(fam, cap=30):
    return max(l for l in range(cap + 1) if families.below_cutoff(fam, l))


@pytest.mark.parametrize("kind, alpha, beta", MATRIX)
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
def test_float_recurrence_is_bit_identical_to_reference(kind, alpha, beta):
    fam = families.make_family(kind, alpha, beta)
    for level in range(top_level(fam) + 1):
        got = poly_eigenfunction(fam, level)
        want = Poly(reference_recurrence(fam, level))
        assert got.den is None
        assert [c.hex() for c in got.coeffs] == [float(c).hex() for c in want.coeffs]


# --- associated functions ---------------------------------------------------

def test_assoc_top_order_is_kappa_power():
    for fam in matrix_families():
        l = min(3, lmax_for(fam))
        af = associated_function(fam, l, l)
        assert af.poly.coeffs == (Fraction(1),) or af.poly.coeffs == (1.0,)


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
            for s in families.sample_points(fam, 5, rng):
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


def test_orthogonality_suite_makes_one_pass_per_order(monkeypatch):
    from hypersusy import verify

    calls = count_quad(monkeypatch)
    out = verify.suite_orthogonality()
    assert out["ok"]
    expected = sum(lmax_for(families.make_family(*row)) + 1 for row in verify.TEST_MATRIX)
    assert expected == 31 and len(calls) == expected


@pytest.mark.parametrize("kind, alpha, beta", MATRIX)
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
