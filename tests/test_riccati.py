import math
import re

import numpy as np
import pytest

from hypersusy import families, ladder, riccati, schrodinger
from hypersusy.errors import CutoffExceeded, InadmissibleGamma, NonFinite, OutOfDomain
from hypersusy.numerics import derivative, quad
from hypersusy.polynomials import DifferentiableValue, associated_function

MATRIX = (
    ("const", -2, 0),
    ("linear", -1, 1),
    ("one_minus_s2", -4, 1),
    ("s2_minus_one", -8, 10),
    ("s2", -3, 2),
    ("s2_plus_one", -4, 1),
)

SQRT_PI_2 = math.sqrt(math.pi) / 2.0


def matrix_families():
    return [families.make_family(k, a, b) for k, a, b in MATRIX]


def finite_gammas(fam, m):
    rays = riccati.gamma_rays(fam, m)
    out = []
    if math.isfinite(rays.right_start):
        out.append(rays.right_start + 1.0)
    if math.isfinite(rays.left_end):
        out.append(rays.left_end - 1.0)
    return out


def hermite_weight():
    return families.make_family("const", -2, 0)


# --- cumulative weight --------------------------------------------------------

def test_cumulative_weight_base_point():
    f = hermite_weight()
    assert riccati.cumulative_weight(f, 0, f.spec.base_point) == 0.0


def test_cumulative_weight_gaussian_tail():
    f = hermite_weight()
    val = riccati.cumulative_weight(f, 0, 8.0)
    assert abs(val - SQRT_PI_2) < 1e-12


def test_cumulative_weight_elementary():
    f = families.make_family("linear", 0, 2)  # integrand is t
    for s in (0.3, 1.0, 2.5, 4.0):
        assert abs(riccati.cumulative_weight(f, 0, s) - (s * s - 1.0) / 2.0) < 1e-11


def test_cumulative_weight_strictly_increasing():
    rng = np.random.default_rng(9)
    for fam in matrix_families():
        pts = np.sort(families.sample_points(fam, 12, rng))
        vals = riccati.cumulative_weight_sorted(fam, 0, pts)
        assert np.all(np.diff(vals) > 0)


def test_cumulative_weight_sorted_matches_direct():
    f = families.make_family("one_minus_s2", -4, 1)
    pts = np.array([-0.8, -0.3, 0.2, 0.6, 0.9])
    batch = riccati.cumulative_weight_sorted(f, 1, pts)
    direct = [riccati.cumulative_weight(f, 1, s) for s in pts]
    assert np.allclose(batch, direct, atol=1e-11)


# --- admissible rays ------------------------------------------------------------

def test_gamma_rays_hermite():
    rays = riccati.gamma_rays(hermite_weight(), 0)
    assert abs(rays.right_start - SQRT_PI_2) < 1e-10
    assert abs(rays.left_end + SQRT_PI_2) < 1e-10


def test_gamma_rays_one_sided():
    f = families.make_family("linear", 0, 2)
    rays = riccati.gamma_rays(f, 0)
    assert abs(rays.right_start - 0.5) < 1e-11  # -I(0+) = 1/2
    assert rays.left_end == -math.inf  # divergent upper limit empties the ray
    assert rays.contains(0.6) and not rays.contains(0.4)
    assert "gamma > 0.5" in rays.describe()


@pytest.mark.parametrize("kind,a,b,m", [
    ("linear", -50, 2, 1),           # edges 1.6e-05 and -4.0e-24
    ("s2_minus_one", -8, 10, 0),
    ("s2", -30, 0.001, 0),           # right edge near 2.7e+125
    ("linear", 0, 2, 0),             # one ray only
])
def test_gamma_rays_describe_prints_edges_that_parse_back(kind, a, b, m):
    rays = riccati.gamma_rays(families.make_family(kind, a, b), m)
    printed = dict(re.findall(r"gamma ([<>]) (\S+)", rays.describe()))
    for op, edge in ((">", rays.right_start), ("<", rays.left_end)):
        if math.isfinite(edge):
            assert abs(float(printed[op]) - edge) <= 1e-5 * abs(edge)
        else:
            assert op not in printed


def test_gamma_inf_always_admissible():
    for fam in matrix_families():
        assert riccati.gamma_rays(fam, 0).contains(math.inf)


def test_margin_rejects_ray_edge():
    rays = riccati.gamma_rays(hermite_weight(), 0)
    assert not rays.contains(rays.right_start + 1e-12)
    assert rays.contains(rays.right_start + 1e-6)


def test_make_deformation_validates():
    f = hermite_weight()
    riccati.make_deformation(f, 0, 2.0)
    with pytest.raises(InadmissibleGamma):
        riccati.make_deformation(f, 0, 0.0)
    with pytest.raises(CutoffExceeded):
        riccati.make_deformation(families.make_family("s2", -3, 2), 1, math.inf)


# --- psi and phi -----------------------------------------------------------------

def test_gamma_inside_the_forbidden_interval_is_caught_pointwise():
    # built by hand past make_deformation's ray check: gamma = 0 lies in the
    # forbidden interval and gamma + I_0 vanishes at the base point
    f = hermite_weight()
    d = riccati.Deformation(f, 0, 0.0)
    with pytest.raises(InadmissibleGamma, match="within the margin"):
        riccati.psi_phi_arrays(d, np.array([-1.0, f.spec.base_point, 1.0]))


def test_cumulative_weight_rejects_an_overflowing_integrand():
    # sigma^200 rho = s^200 e^-s is about 1e356 at s = 100, past the float range
    f = families.make_family("linear", -1, 1)
    with pytest.raises(NonFinite, match="non-finite in the gaps"):
        riccati.cumulative_weight_sorted(f, 200, [1.0, 100.0])


def test_psi_particular_solution_is_linear():
    d = riccati.make_deformation(hermite_weight(), 0, math.inf)
    for s in (-2.0, 0.0, 1.5):
        v = riccati.psi(d, s)
        assert abs(v.value - 2.0 * s) < 1e-14
        assert abs(v.deriv - 2.0) < 1e-14


def test_psi_deformed_at_base():
    d = riccati.make_deformation(hermite_weight(), 0, 2.0)
    v = riccati.psi(d, 0.0)
    assert abs(v.value - 0.5) < 1e-13


def test_phi_particular_vanishes():
    d = riccati.make_deformation(hermite_weight(), 0, math.inf)
    for s in (-1.0, 0.3):
        assert abs(riccati.phi(d, s).value) < 1e-15


def test_phi_deformed_at_base():
    d = riccati.make_deformation(hermite_weight(), 0, 2.0)
    assert abs(riccati.phi(d, 0.0).value - 0.5) < 1e-13


def test_phi_minus_psi_identity():
    # phi - psi = tau/sigma - sigma'/(2 sigma) pointwise
    rng = np.random.default_rng(2)
    for fam in matrix_families():
        for gamma in [math.inf] + finite_gammas(fam, 0):
            d = riccati.make_deformation(fam, 0, gamma)
            for s in families.sample_points(fam, 8, rng):
                s = float(s)
                lhs = riccati.phi(d, s).value - riccati.psi(d, s).value
                rhs = float(fam.tau(s)) / float(fam.sigma(s)) - float(
                    fam.sigma_prime(s)
                ) / (2.0 * float(fam.sigma(s)))
                assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))


def test_large_gamma_approaches_particular():
    f = hermite_weight()
    d_inf = riccati.make_deformation(f, 0, math.inf)
    d_big = riccati.make_deformation(f, 0, 1e8)
    for s in (-1.0, 0.0, 2.0):
        gap = abs(riccati.psi(d_big, s).value - riccati.psi(d_inf, s).value)
        bound = families.sigma_m_rho(f, 0, s) / (1e8 - SQRT_PI_2)
        assert gap <= bound + 1e-15


def test_psi_derivative_matches_finite_difference():
    for fam in matrix_families():
        for gamma in [math.inf] + finite_gammas(fam, 0)[:1]:
            d = riccati.make_deformation(fam, 0, gamma)
            for s in families.sample_points(fam, 5):
                fd = derivative(
                    np.vectorize(lambda u: riccati.psi(d, float(u)).value),
                    float(s), order=1, h0=1e-3,
                )
                an = riccati.psi(d, float(s)).deriv
                assert abs(fd - an) <= 1e-6 * (1.0 + abs(an))


# --- Riccati equation residuals ---------------------------------------------------

def test_riccati_residual_particular():
    for fam in matrix_families():
        d = riccati.make_deformation(fam, 0, math.inf)
        pts = families.sample_points(fam, 64)
        assert riccati.riccati_residual(d, pts) <= 1e-10


def test_riccati_residual_deformed():
    for fam in matrix_families():
        for m in (0, 1, 2):
            if not families.below_cutoff(fam, m + 1):
                continue
            for gamma in [math.inf] + finite_gammas(fam, m):
                d = riccati.make_deformation(fam, m, gamma)
                pts = families.sample_points(fam, 64)
                assert riccati.riccati_residual(d, pts) <= 1e-9


def test_pointwise_paths_take_any_shape():
    # a float, a 0-d array and a 2-d array give the 1-d result at the same points
    d = riccati.make_deformation(hermite_weight(), 0, 2.0)
    flat = np.array([-1.5, -0.2, 0.3, 0.9, 1.7, 2.4])
    paths = (
        lambda s: np.stack(riccati.psi_phi_arrays(d, s)),
        lambda s: riccati.partner_potential(d, s),
        lambda s: np.stack(schrodinger.potentials(d, s)),  # x = s for const
    )
    for path in paths:
        want = path(flat)
        for pts, ref in (
            (float(flat[2]), want[..., 2]),
            (np.asarray(flat[2]), want[..., 2]),
            (flat.reshape(2, 3), want.reshape(want.shape[:-1] + (2, 3))),
        ):
            got = path(pts)
            assert np.shape(got) == np.shape(ref)
            np.testing.assert_allclose(got, ref, rtol=1e-13, atol=1e-14)
    assert riccati.riccati_residual(d, flat.reshape(2, 3)) == riccati.riccati_residual(d, flat)
    assert riccati.riccati_residual(d, np.asarray(0.3)) == riccati.riccati_residual(d, 0.3)
    assert riccati.riccati_residual(d, 0.3) <= 1e-9


def test_riccati_residual_deformed_oscillator_wide_window():
    d = riccati.make_deformation(hermite_weight(), 0, 2.0)
    assert riccati.riccati_residual(d, np.linspace(-6.0, 6.0, 64)) <= 1e-9


# --- deformed first-order maps ------------------------------------------------------

def test_b_matches_ladder_at_gamma_inf():
    rng = np.random.default_rng(4)
    for fam in matrix_families():
        d = riccati.make_deformation(fam, 0, math.inf)
        ctx = ladder.make_context(fam, 0)
        lmax = 2 if families.below_cutoff(fam, 2) else 1
        for l in range(1, lmax + 1):
            af = associated_function(fam, l, 0)
            raised = ladder.raise_order(ctx, af)
            for s in families.sample_points(fam, 6, rng):
                s = float(s)
                got = riccati.apply_b(d, s, af.eval(s), "b")
                want = raised.eval(s).value
                assert abs(got - want) <= 1e-11 * (1.0 + abs(want))
            up = associated_function(fam, l, 1)
            lowered = ladder.lower_order(ctx, up)
            for s in families.sample_points(fam, 6, rng):
                s = float(s)
                got = riccati.apply_b(d, s, up.eval(s), "b_plus")
                want = lowered.eval(s).value
                assert abs(got - want) <= 1e-11 * (1.0 + abs(want))


def test_b_on_zero_function():
    from hypersusy.polynomials import DifferentiableValue

    d = riccati.make_deformation(hermite_weight(), 0, 2.0)
    assert riccati.apply_b(d, 0.5, DifferentiableValue(0.0, 0.0), "b") == 0.0


def test_apply_b_on_an_array_matches_pointwise_calls():
    for fam in matrix_families():
        s = families.sample_points(fam, 12).reshape(3, 4)
        f, fp, _ = associated_function(fam, 1, 0).derivatives(s)
        for gamma in [math.inf] + finite_gammas(fam, 0):
            d = riccati.make_deformation(fam, 0, gamma)
            for which in ("b", "b_plus"):
                got = riccati.apply_b(d, s, DifferentiableValue(f, fp), which)
                want = np.vectorize(lambda *a: riccati.apply_b(
                    d, a[0], DifferentiableValue(a[1], a[2]), which))(s, f, fp)
                assert got.shape == s.shape
                if gamma == math.inf:
                    assert np.array_equal(got, want)
                else:  # one sweep over the grid sums I_m in other gaps
                    assert np.all(np.abs(got - want) <= 1e-11 * (1.0 + np.abs(want)))


# --- partner operator -----------------------------------------------------------------

def test_partner_potential_reduces_at_gamma_inf():
    for fam in matrix_families():
        d = riccati.make_deformation(fam, 0, math.inf)
        for s in families.sample_points(fam, 9):
            v = riccati.partner_potential(d, float(s))
            assert abs(v - families.potential_term(fam, 0, float(s))) <= 1e-10


def test_first_order_coefficient_identity():
    # sigma*(phi - psi) + kappa*kappa' = tau keeps the first-order term at -tau
    for fam in matrix_families():
        for gamma in [math.inf] + finite_gammas(fam, 0)[:1]:
            d = riccati.make_deformation(fam, 0, gamma)
            for s in families.sample_points(fam, 8):
                s = float(s)
                sig = float(fam.sigma(s))
                lhs = sig * (riccati.phi(d, s).value - riccati.psi(d, s).value)
                lhs += float(fam.kappa(s)) * float(fam.kappa_prime(s))
                assert abs(lhs - float(fam.tau(s))) <= 1e-12 * (1.0 + abs(float(fam.tau(s))))


def test_partner_eigen_relation_pointwise():
    # H u = lambda_l u with the second derivative taken numerically
    f = hermite_weight()
    d = riccati.make_deformation(f, 0, 2.0)
    pts = np.linspace(-3.0, 3.0, 32)
    for l in (1, 2, 3, 4):
        u = riccati.partner_eigenfunction(d, l)
        lam = float(families.eigenvalue(f, l))
        here = u(pts)
        scale = float(np.max(np.abs(here.value)))
        upp = derivative(lambda s: u(s).value, pts, order=2, h0=0.1, levels=3)
        h_u = -f.sigma(pts) * upp - f.tau(pts) * here.deriv
        h_u += riccati.partner_potential(d, pts) * here.value
        assert np.all(np.abs(h_u - lam * here.value) <= 1e-8 * max(1.0, scale))


def test_partner_eigenfunction_value_and_vector_paths_agree():
    f = hermite_weight()
    d = riccati.make_deformation(f, 0, 2.0)
    u = riccati.partner_eigenfunction(d, 2)
    pts = np.linspace(-2.0, 2.0, 9)
    vals = u(pts).value
    for s, v in zip(pts, vals):
        assert abs(v - u(float(s)).value) < 1e-11


def test_partner_eigenfunction_derivative_matches_finite_difference():
    for fam in matrix_families():
        for gamma in [math.inf] + finite_gammas(fam, 0)[:1]:
            d = riccati.make_deformation(fam, 0, gamma)
            u = riccati.partner_eigenfunction(d, 1)
            for s in families.sample_points(fam, 6):
                s = float(s)
                fd = derivative(lambda t: u(t).value, s, order=1, h0=0.02)
                assert abs(u(s).deriv - fd) <= 1e-8 * (1.0 + abs(fd))


def test_partner_eigenfunction_needs_m_below_l_below_cutoff():
    d = riccati.make_deformation(hermite_weight(), 1, 2.0)
    with pytest.raises(OutOfDomain, match="m < l < cutoff"):
        riccati.partner_eigenfunction(d, 1)
    morse = riccati.make_deformation(families.make_family("s2", -3, 2), 0, math.inf)  # cutoff 2
    with pytest.raises(OutOfDomain, match="m < l < cutoff"):
        riccati.partner_eigenfunction(morse, 2)


def test_partner_explicit_value_at_origin():
    # b_plus applied to the l=1, order-1 function at s=0: kappa=1, the
    # function is identically 1, so the value is psi(0) = 1/(gamma) = 1/2
    f = hermite_weight()
    d = riccati.make_deformation(f, 0, 2.0)
    u = riccati.partner_eigenfunction(d, 1)
    assert abs(u(0.0).value - 0.5) < 1e-13


def test_partner_eigenfunctions_orthogonal():
    f = hermite_weight()
    d = riccati.make_deformation(f, 0, 2.0)

    def inner(l1, l2):
        def integrand(s):
            v1 = riccati.partner_eigenfunction(d, l1)(s).value
            v2 = riccati.partner_eigenfunction(d, l2)(s).value
            return v1 * v2 * families.weight(f, s)

        return quad(integrand, -8.0, 8.0, tol=1e-11).value

    norms = {l: math.sqrt(inner(l, l)) for l in (1, 2, 3)}
    for l1 in (1, 2, 3):
        for l2 in (1, 2, 3):
            if l1 < l2:
                assert abs(inner(l1, l2)) / (norms[l1] * norms[l2]) <= 1e-6


def test_shifted_partner_matches_plain_at_delta_zero():
    f = families.make_family("one_minus_s2", -4, 0)
    d0 = riccati.make_deformation(f, 0, math.inf, delta=0)
    d = riccati.make_deformation(f, 0, math.inf)
    for s in families.sample_points(f, 7):
        assert abs(
            riccati.partner_potential(d0, float(s)) - riccati.partner_potential(d, float(s))
        ) < 1e-14


def test_deformation_json_round_trip():
    f = hermite_weight()
    d = riccati.make_deformation(f, 0, 2.0)
    blob = d.to_json()
    assert blob["gamma"] == 2.0 and blob["delta"] is None
    back = riccati.Deformation.from_json(blob)
    assert back.gamma == 2.0 and back.family == f
    d_inf = riccati.make_deformation(f, 1, math.inf)
    assert d_inf.to_json()["gamma"] == "inf"


def test_minus_inf_gamma_is_rejected():
    with pytest.raises(InadmissibleGamma, match="gamma=inf"):
        riccati.make_deformation(hermite_weight(), 0, -math.inf)
    with pytest.raises(InadmissibleGamma):
        riccati.Deformation.from_json({"family": hermite_weight().to_json(), "m": 0,
                                       "gamma": "-inf"})


def test_deformation_json_round_trip_is_strict_json():
    import json

    def reject(name):
        raise ValueError(name)

    for fam, m, gamma in ((hermite_weight(), 0, -2.5), (hermite_weight(), 1, math.inf),
                          (families.make_family("linear", 0, 2), 0, 0.75)):
        d = riccati.make_deformation(fam, m, gamma)
        blob = json.loads(json.dumps(d.to_json()), parse_constant=reject)
        back = riccati.Deformation.from_json(blob)
        assert (back.family, back.m, back.gamma) == (fam, m, gamma)


def test_deformation_json_round_trip_with_fraction_delta():
    # delta is encoded as Family.to_json encodes alpha and beta
    import json
    from fractions import Fraction

    f = families.make_family("one_minus_s2", -4, 0)
    for d in (riccati.make_deformation(f, 0, math.inf, Fraction(1, 2)),
              riccati.make_deformation(f, 0, 2.0, Fraction(3, 2)),
              ladder.make_context(f, 1, delta=Fraction(-5, 4)),
              ladder.make_context(f, 0, delta=2)):
        blob = json.loads(json.dumps(d.to_json()))
        back = riccati.Deformation.from_json(blob)
        assert back == d
        assert back.delta == d.delta and type(blob["delta"]) is type(families.json_number(d.delta))
        assert float(back.shift_constant) == float(d.shift_constant)


def test_json_round_trip_keeps_the_exact_lane():
    # a non-integer Fraction travels as the string "p/q"
    import json
    from fractions import Fraction

    f = families.make_family("one_minus_s2", Fraction(-7, 2), 0)
    ctx = ladder.make_context(f, 1, delta=Fraction(3, 2))
    blob = json.loads(json.dumps(ctx.to_json()))
    assert blob["family"]["alpha"] == "-7/2" and blob["delta"] == "3/2"
    back = riccati.Deformation.from_json(blob)
    assert back == ctx and back.family.exact
    assert type(back.family.alpha) is Fraction and type(back.delta) is Fraction
    rep = ladder.check_identities(back, 4)
    assert rep["exact"] is True and rep["max_residual"] == 0
    assert families.json_number(Fraction(4, 2)) == 2 and type(families.json_number(Fraction(4, 2))) is int


def test_json_round_trip_keeps_each_lane():
    # an integer-valued float stays a float, ints and "p/q" stay exact
    import json
    from fractions import Fraction

    for kind, alpha, beta, exact in (("const", -2.0, 0.0, False), ("const", -2, 0, True),
                                     ("one_minus_s2", -4.0, 1.0, False),
                                     ("one_minus_s2", Fraction(-7, 2), 0, True)):
        f = families.make_family(kind, alpha, beta)
        back = families.Family.from_json(json.loads(json.dumps(f.to_json())))
        assert back == f and back.exact is exact
        assert type(back.alpha) is type(f.alpha) and type(back.beta) is type(f.beta)
        d = riccati.make_deformation(f, 1, math.inf)
        d_back = riccati.Deformation.from_json(json.loads(json.dumps(d.to_json())))
        assert d_back.family.exact is exact
        assert ladder.check_identities(d_back, 3)["exact"] is exact
