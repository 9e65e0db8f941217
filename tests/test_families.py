import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersusy import families, riccati, schrodinger, verify
from hypersusy.errors import (
    BoundaryDecayFailure,
    CutoffExceeded,
    DegenerateDenominator,
    NoWeightPower,
    OutOfDomain,
    ParameterViolation,
)
from hypersusy.verify import TEST_MATRIX
from oracles import derivative


@pytest.fixture(params=TEST_MATRIX, ids=[m[0] for m in TEST_MATRIX])
def fam(request):
    kind, a, b = request.param
    return families.make_family(kind, a, b)


def test_sigma_skips_zero_coefficients_with_the_same_bits(fam):
    # sigma evaluates only the kind's nonzero terms; at finite points inside the
    # interval, tiny and huge ones included (up to where s s overflows), it has
    # the bits, shape and dtype of c0 + c1 s + c2 s s
    c0, c1, c2 = fam.sigma_coeffs
    lo, hi = (min(max(x, -1e150), 1e150) for x in fam.interval)
    rng = np.random.default_rng(7)
    edges = [x for x in (np.nextafter(lo, hi), np.nextafter(hi, lo), 0.0, -0.0, 1e-300, -1e-300,
                         5e-324, 0.5, 1.5, 1e100, -1e100) if lo < x < hi]
    block = lo + (hi - lo) * rng.uniform(size=(512, 15))
    block.flat[:len(edges)] = edges
    near = np.clip(rng.normal(size=(512, 15)) * 3, np.nextafter(lo, hi), np.nextafter(hi, lo))
    for s in (0.3 if lo < 0.3 < hi else hi / 2, np.float64(edges[-1]), np.asarray(edges[0]),
              *edges, block, near):
        got, x = fam.sigma(s), np.asarray(s, dtype=float)
        want = c0 + c1 * x + c2 * x * x
        assert isinstance(got, np.ndarray | np.generic) and np.shape(got) == np.shape(want)
        assert np.asarray(got).dtype == np.asarray(want).dtype == np.float64
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_make_family_gaussian_weight():
    f = families.make_family("const", -2, 0)
    assert f.interval == (-math.inf, math.inf)
    s = np.linspace(-3, 3, 11)
    assert np.allclose(families.weight(f, s), np.exp(-s * s))


def test_make_family_exponential_weight():
    f = families.make_family("linear", -1, 1)
    assert f.interval == (0.0, math.inf)
    s = np.linspace(0.2, 5, 9)
    assert np.allclose(families.weight(f, s), np.exp(-s))


@pytest.mark.parametrize(
    "kind,a,b",
    [
        ("const", 0, 0),
        ("const", 1, 2),
        ("linear", -1, 0),
        ("linear", 1, 1),
        ("one_minus_s2", 1, 0),
        ("one_minus_s2", -2, 3),
        ("s2_minus_one", 1, 2),
        ("s2", -1, -1),
        ("s2_plus_one", 0.5, 0),
    ],
)
def test_parameter_violations(kind, a, b):
    with pytest.raises(ParameterViolation):
        families.make_family(kind, a, b)


def test_unknown_kind():
    with pytest.raises(ParameterViolation):
        families.make_family("cubic", -1, 0)


def test_power_weight_carriers_construct():
    families.make_family("linear", 0, 2)       # tau = beta
    families.make_family("s2", -3, 0)          # tau = alpha*s
    families.make_family("s2_minus_one", -9, 1)  # deep well


def test_decay_failure_outside_carriers():
    # alpha barely negative with a huge linear term: no decay inside the window
    with pytest.raises((BoundaryDecayFailure, ParameterViolation)):
        families.make_family("const", -1e-12, 50)


def test_eigenvalues():
    f = families.make_family("const", -2, 0)
    assert families.eigenvalue(f, 3) == 6
    assert families.eigenvalue(f, 0) == 0
    g = families.make_family("one_minus_s2", -6, 0)
    assert families.eigenvalue(g, 2) == 14


def test_eigenvalue_cutoff():
    f = families.make_family("s2", -1, 2)
    assert families.cutoff(f) == 1.0
    assert families.eigenvalue(f, 0) == 0
    with pytest.raises(CutoffExceeded):
        families.eigenvalue(f, 1)


def test_cutoffs():
    assert families.cutoff(families.make_family("const", -2, 0)) == math.inf
    assert families.cutoff(families.make_family("s2_minus_one", -6, 1)) == 3.5
    assert families.cutoff(families.make_family("linear", -1, 1)) == math.inf


def test_weight_values():
    f = families.make_family("linear", -1, 3)
    assert abs(families.weight(f, 2.0) - 4.0 * math.exp(-2)) < 1e-12
    g = families.make_family("s2_plus_one", -4, 1)
    assert abs(families.weight(g, 0.0) - 1.0) < 1e-15


def test_weight_is_elementwise_over_any_sequence():
    f = families.make_family("const", -2, 0)
    for s in ([0.1, 0.2], (0.1, 0.2), np.array([0.1, 0.2])):
        out = families.weight(f, s)
        assert isinstance(out, np.ndarray) and np.allclose(out, np.exp(-np.square(s)))
    assert type(families.weight(f, np.float64(0.1))) is float


def test_weight_out_of_domain():
    f = families.make_family("linear", -1, 1)
    with pytest.raises(OutOfDomain, match=r"^s=-0\.5 outside"):
        families.weight(f, -0.5)
    # the message printed the whole array, and numpy elided this NaN from it
    s = np.where(np.arange(1201) == 600, math.nan, np.linspace(0.1, 9.0, 1201))
    with pytest.raises(OutOfDomain, match=r"^s=nan outside the open interval \(0\.0, inf\)$"):
        families.weight(f, s)


def test_potential_term():
    f = families.make_family("const", -2, 0)
    assert families.potential_term(f, 0, 0.7) == 0.0
    assert abs(families.potential_term(f, 1, -1.3) - 2.0) < 1e-14
    g = families.make_family("linear", -1, 2)
    assert abs(families.potential_term(g, 1, 1.0) - 1.25) < 1e-14


def closed_form_potential(fam, m, s):
    """v_m written out in sigma, sigma', tau: an independent reference."""
    sig, sp, tau = fam.sigma(s), fam.sigma_prime(s), fam.tau(s)
    return (m * (m - 2) / 4.0 * sp * sp / sig + m * tau / 2.0 * sp / sig
            - m * (m - 2) * fam.sigma_lead - m * float(fam.alpha))


@pytest.mark.parametrize("row", verify.TEST_MATRIX + verify.FLOAT_MATRIX,
                         ids=lambda r: f"{r[0]}({r[1]},{r[2]})")
def test_potential_term_matches_the_closed_formula(row):
    fam = families.make_family(*row)
    s = families.sample_points(fam, 64)
    for m in range(4):
        pot = families.sigma_potential(fam, m)
        # a float parameter enters as its exact rational
        twin = families.make_family(row[0], Fraction(row[1]), Fraction(row[2]))
        assert pot == families.sigma_potential(twin, m) and pot.is_zero == (m == 0)
        want = closed_form_potential(fam, m, s)
        got = families.potential_term(fam, m, s)
        assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= 1e-13


def test_fraction_parameters_evaluate_in_float64_as_ints_do():
    exact = families.make_family("linear", Fraction(-1), Fraction(1))
    plain = families.make_family("linear", -1, 1)
    s = families.sample_points(plain, 64)

    def same(a, b):
        a, b = np.asarray(a), np.asarray(b)
        return a.dtype == b.dtype == np.float64 and np.array_equal(a, b)

    for name in ("sigma", "sigma_prime", "tau", "kappa", "kappa_prime"):
        assert same(getattr(exact, name)(s), getattr(plain, name)(s))
    for m in range(3):
        assert same(families.potential_term(exact, m, s), families.potential_term(plain, m, s))
        assert same(families.sigma_m_rho(exact, m, s), families.sigma_m_rho(plain, m, s))
    for gamma in (math.inf, 2.0):
        d_exact, d_plain = (riccati.make_deformation(f, 0, gamma) for f in (exact, plain))
        for a, b in zip(riccati.psi_phi_arrays(d_exact, s), riccati.psi_phi_arrays(d_plain, s)):
            assert same(a, b)
        xs = np.linspace(0.4, 6.0, 50)
        frames = [schrodinger.grid_frame(d, xs, (1, 2)) for d in (d_exact, d_plain)]
        assert frames[0].keys() == frames[1].keys()
        assert all(same(frames[0][k], frames[1][k]) for k in frames[0])
    # a non-dyadic Fraction rounds once, to the float parameter's value
    third = families.make_family("linear", Fraction(-1, 3), Fraction(5, 2))
    floats = families.make_family("linear", -1 / 3, 2.5)
    for name in ("sigma", "tau", "kappa", "kappa_prime"):
        assert same(getattr(third, name)(s), getattr(floats, name)(s))
    assert families.potential_term(third, 1, s).dtype == np.float64
    assert families.sigma_m_rho(third, 1, s).dtype == np.float64


@pytest.mark.parametrize("kind,alpha,beta", TEST_MATRIX)
def test_sigma_m_rho_is_the_product_written_out_and_checks_its_points(kind, alpha, beta):
    # the unchecked variant and the order-0 shortcut give the product's bits
    fam = families.make_family(kind, alpha, beta)
    s = families.sample_points(fam, 64)
    for m in range(3):
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            w = families.weight(fam, s)
            want = np.where(w == 0.0, 0.0, fam.sigma(s) ** m * w)
        for got in (families.sigma_m_rho(fam, m, s), families.sigma_m_rho_inside(fam, m, s)):
            assert got.dtype == np.float64 and np.array_equal(got, want)
        assert np.ndim(families.sigma_m_rho(fam, m, s[3])) == 0
    with pytest.raises(OutOfDomain):
        families.sigma_m_rho(fam, 0, [s[0], math.nan])


def test_json_number_round_trips_infinities_and_fractions():
    import json

    assert (families.json_number(math.inf), families.json_number(-math.inf)) == ("inf", "-inf")
    for v in (math.inf, -math.inf, 2.5, 3, Fraction(1, 3)):
        back = families.from_json_number(json.loads(json.dumps(families.json_number(v))))
        assert back == v and type(back) is type(v)
    assert families.json_number(math.nan) == "nan"
    assert math.isnan(families.from_json_number(json.loads(json.dumps("nan"))))


def test_weight_power():
    assert families.weight_power(families.make_family("linear", 0, 3)) == 2
    assert families.weight_power(families.make_family("one_minus_s2", -4, 0)) == 1
    assert families.weight_power(families.make_family("const", -2, 0)) is None
    assert families.weight_power(families.make_family("s2", -3, 0)) == Fraction(-5, 2)
    # beta != 0 disables the power form for quadratic sigma
    assert families.weight_power(families.make_family("s2_plus_one", -4, 1)) is None


def test_shifted_eigenvalue():
    f = families.make_family("linear", 0, 2)
    assert families.shifted_eigenvalue(f, 0, 2) == Fraction(-4, 9)
    assert families.shifted_eigenvalue(f, 1, 0) == families.eigenvalue(f, 1)
    g = families.make_family("one_minus_s2", -4, 0)
    assert abs(float(families.shifted_eigenvalue(g, 1, 1)) - 3.96) < 1e-12


BIG = 10 ** 400  # a 401-digit integer: its float overflows


@pytest.mark.parametrize("delta", [
    math.nan, math.inf, -math.inf,
    pytest.param(BIG, id="big"), pytest.param(-BIG, id="minus-big"),
    pytest.param(Fraction(BIG, 3), id="big-fraction"),
    # c is finite, c*c is not
    pytest.param(10 ** 200, id="big-square"), pytest.param(1e200, id="big-float-square"),
])
def test_non_finite_delta_is_rejected(delta):
    for f in (families.make_family("linear", 0, 2), families.make_family("linear", 0.0, 2.0)):
        with pytest.raises(ParameterViolation, match="delta"):
            families.shift_constant(f, 0, delta)
        with pytest.raises(ParameterViolation, match="delta"):
            riccati.make_deformation(f, 0, math.inf, delta)


@pytest.mark.parametrize("a,b", [
    (-1, True), (True, 2), (False, 2), ("-1", 1), (-1, "1"), (-1, None), (-1, 1j),
], ids=["beta-True", "alpha-True", "alpha-False", "alpha-str", "beta-str", "beta-None",
        "beta-complex"])
def test_a_parameter_that_is_a_bool_or_no_real_number_is_refused(a, b):
    # beta=True made a family whose to_json wrote "beta": true, and a string
    # alpha ended in a bare TypeError
    name = "alpha" if isinstance(a, (bool, str)) else "beta"
    with pytest.raises(ParameterViolation, match=f"^{name} must be a real number, got {name}="):
        families.make_family("linear", a, b)


def test_numpy_scalar_parameters_are_real_numbers():
    f = families.make_family("linear", np.int64(0), np.float64(2.0))
    assert families.shift_constant(f, 0, np.int64(2)) == Fraction(2, 3)


@pytest.mark.parametrize("delta", [True, False, np.bool_(True), "1", 1j])
def test_a_delta_that_is_a_bool_or_no_real_number_is_refused(delta):
    # delta=True gave the shift constant 1/3 and a --meta record "delta": true
    f = families.make_family("linear", 0, 2)
    for call in (lambda: families.shift_constant(f, 0, delta),
                 lambda: riccati.make_deformation(f, 0, math.inf, delta)):
        with pytest.raises(ParameterViolation, match="^delta must be a real number, got delta="):
            call()


def test_shifted_eigenvalue_errors():
    f = families.make_family("const", -2, 0)
    with pytest.raises(NoWeightPower):
        families.shifted_eigenvalue(f, 0, 1)
    g = families.make_family("linear", 0, Fraction(1, 2))  # k = -1/2, so 2m+2k+1 = 2m
    with pytest.raises(DegenerateDenominator):
        families.shifted_eigenvalue(g, 0, 1)


def test_shift_denominator_refuses_only_an_exact_zero():
    # 2m + 2k + 1 is an exact rational, so only an exact 0 is degenerate; a
    # float tolerance of 1e-12 refused 2*10^-13 and called it 0
    zero = families.make_family("linear", 0, Fraction(1, 2))
    with pytest.raises(DegenerateDenominator, match=r"^2m \+ 2k \+ 1 = 0 for m=0"):
        families.shift_constant(zero, 0, 1)
    near = families.make_family("linear", 0, Fraction(1, 2) + Fraction(1, 10 ** 13))
    assert families._shift_denominator(near, 0) == Fraction(2, 10 ** 13)
    assert families.shift_constant(near, 0, 1) == 5 * 10 ** 12


def test_eigenvalue_monotone_below_cutoff(fam):
    prev = families.eigenvalue(fam, 0)
    assert prev == 0
    l = 1
    while families.below_cutoff(fam, l) and l <= 8:
        cur = families.eigenvalue(fam, l)
        assert cur > prev
        prev, l = cur, l + 1


def test_log_derivative_identity(fam):
    # (sigma*rho)'/(sigma*rho) == tau/sigma at 100 interior points
    rng = np.random.default_rng(11)
    pts = rng.uniform(*fam.spec.sample_window, size=100)

    def log_sig_rho(s):
        return math.log(float(fam.sigma(s)) * families.weight(fam, float(s)))

    for s in pts:
        lhs = derivative(np.vectorize(log_sig_rho), float(s), order=1, h0=1e-2, levels=4)
        rhs = float(fam.tau(s)) / float(fam.sigma(s))
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(rhs))


def approach_points(fam, endpoint):
    """Geometric approach: doubling toward an infinite end, halving toward a finite one."""
    a, b = fam.interval
    end, inward = (a, 1.0) if endpoint == "lower" else (b, -1.0)
    if math.isinf(end):
        start = 1.0 + max((abs(v) for v in (a, b) if math.isfinite(v)), default=0.0)
        return -inward * start * np.exp2(np.arange(13.0))
    return end + inward * min(1.0, (b - a) / 4.0) * np.exp2(-np.arange(50.0))


def test_endpoint_decay_tail(fam):
    # no family of the matrix is a pure-power carrier, so sigma*rho decays at both ends
    for endpoint in ("lower", "upper"):
        pts = approach_points(fam, endpoint)
        with np.errstate(over="ignore", under="ignore"):
            vals = np.asarray(fam.sigma(pts), dtype=float) * families.weight(fam, pts)
        tail = vals[-10:]
        assert np.all(np.diff(tail) <= 0)
        assert tail[-1] <= 1e-3 * (1.0 + np.max(vals))


@pytest.mark.parametrize(
    "kind,a,b",
    [
        ("linear", -1, 20),
        ("linear", -1, 60),
        ("const", -1, 30),
        ("s2", -3, 50),
        ("one_minus_s2", -4, Fraction(11, 3)),
        ("one_minus_s2", -4, 3.9),
    ],
)
def test_decaying_weights_with_large_peaks_accepted(kind, a, b):
    f = families.make_family(kind, a, b)
    if kind != "one_minus_s2":
        rays = riccati.gamma_rays(f, 0)
        assert math.isfinite(rays.right_start) and math.isfinite(rays.left_end)


@pytest.mark.parametrize(
    "kind,a,b",
    [
        ("const", -1, 40),              # peak exp(800) overflows
        ("linear", -1, 200),            # peak 200^200 e^-200 overflows
        ("const", -31.0364, -211.881),  # peak exp(723) overflows
        ("s2", -1308.9, 850.9),         # peak underflows to 0
    ],
)
def test_peak_out_of_float_range_rejected(kind, a, b):
    with pytest.raises(BoundaryDecayFailure):
        families.make_family(kind, a, b)


@pytest.mark.parametrize("a,b", [
    (-math.inf, 1), (-1, math.inf), (math.nan, 1),
    pytest.param(BIG, 2, id="big-alpha"), pytest.param(-BIG, 2, id="minus-big-alpha"),
    pytest.param(0, BIG, id="big-beta"), pytest.param(0, Fraction(BIG, 7), id="big-fraction-beta"),
])
def test_non_finite_parameters_rejected(a, b):
    with pytest.raises(ParameterViolation):
        families.make_family("linear", a, b)


@pytest.mark.parametrize(
    "kind,a,b,s",
    [("one_minus_s2", -1552, 571, 0.999), ("s2_plus_one", -1070, 899, 10.0)],
)
def test_weight_over_or_underflows_without_nan(kind, a, b, s):
    # a product of two powers gives inf * 0 here
    f = families.make_family(kind, a, b)
    assert families.weight(f, s) in (0.0, math.inf)


@st.composite
def admissible_family_and_point(draw):
    kind = draw(st.sampled_from(families.KINDS))
    alpha = draw(st.floats(-2000.0, -1e-3))
    if kind == "one_minus_s2":
        beta = -alpha * draw(st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True))
    elif kind in ("linear", "s2_minus_one", "s2"):
        beta = draw(st.floats(1e-3, 2000.0))
    else:
        beta = draw(st.floats(-2000.0, 2000.0))
    f = families.Family(kind, alpha, beta)
    a, b = f.interval
    s = draw(st.floats(
        min_value=a if math.isfinite(a) else None,
        max_value=b if math.isfinite(b) else None,
        exclude_min=math.isfinite(a),
        exclude_max=math.isfinite(b),
        allow_nan=False,
        allow_infinity=False,
    ))
    return f, s


@settings(max_examples=300, deadline=None)
@given(admissible_family_and_point())
def test_weight_never_nan_inside(case):
    f, s = case
    assert not math.isnan(families.weight(f, s))


def test_v0_vanishes(fam):
    for s in families.sample_points(fam, 7):
        assert families.potential_term(fam, 0, float(s)) == 0.0


def test_json_round_trip(fam):
    blob = fam.to_json()
    assert set(blob) == {"kind", "alpha", "beta"}
    back = families.Family.from_json(blob)
    assert back == fam


@settings(max_examples=40, deadline=None)
@given(
    alpha=st.integers(min_value=-12, max_value=-1),
    level=st.integers(min_value=0, max_value=6),
)
def test_const_eigenvalue_formula(alpha, level):
    f = families.make_family("const", alpha, 0)
    assert families.eigenvalue(f, level) == -alpha * level


@settings(max_examples=40, deadline=None)
@given(
    alpha=st.integers(min_value=-14, max_value=-5),
    level=st.integers(min_value=0, max_value=3),
)
def test_quadratic_eigenvalue_monotone(alpha, level):
    f = families.make_family("s2_plus_one", alpha, 0)
    if families.below_cutoff(f, level + 1):
        assert families.eigenvalue(f, level + 1) > families.eigenvalue(f, level)


def test_shifted_eigenvalue_is_eigenvalue_minus_c_squared_exactly():
    for kind, a, b in (("linear", 0, 2), ("one_minus_s2", -4, 0), ("s2_minus_one", -8, 0),
                       ("s2", -5, 0), ("s2_plus_one", Fraction(-9, 2), 0)):
        f = families.make_family(kind, a, b)
        for m in (0, 1):
            for delta in (0, 3, -2, Fraction(3, 2), Fraction(-7, 5)):
                c = families.shift_constant(f, m, delta)
                assert isinstance(c, (int, Fraction))
                lam = families.shifted_eigenvalue(f, m, delta)
                assert lam == families.eigenvalue(f, m) - c * c
    # a float delta or a float family enters as its exact rational
    f = families.make_family("one_minus_s2", -4, 0)
    c = families.shift_constant(f, 0, 1.5)
    assert c == families.shift_constant(f, 0, Fraction(3, 2)) and isinstance(c, Fraction)
    c = families.shift_constant(f, 0, 0.1)
    assert c == Fraction(0.1) / 3 and families.shifted_eigenvalue(f, 0, 0.1) == -c * c
    g = families.make_family("one_minus_s2", -4.0, 0)
    c = families.shift_constant(g, 0, 3)
    assert c == 1 and isinstance(c, Fraction)
    assert families.shifted_eigenvalue(f, 1, None) == families.eigenvalue(f, 1)
