import math

import numpy as np
import pytest

from hypersusy import families, riccati, verify
from hypersusy.catalog import (CATALOG, _deformation_ratio, catalog_reference,
                               compare_with_generic, entry)
from hypersusy.errors import IndexViolation, ParameterViolation
from hypersusy.numerics import quad
from oracles import deformation_ratio_per_point

GRID = {
    "const": np.linspace(-3.0, 3.0, 16),
    "linear": np.linspace(0.4, 6.0, 16),
    "one_minus_s2": np.linspace(0.3, math.pi - 0.3, 16),
    "s2_minus_one": np.linspace(0.4, 5.0, 16),
    "s2": np.linspace(-2.0, 3.0, 16),
    "s2_plus_one": np.linspace(-3.0, 3.0, 16),
}

# (entry, alpha, beta, m, delta)
CASES = (
    (1, -2, 0, 0, None),
    (1, -2, 0, 1, None),
    (2, -1, 1, 0, None),
    (2, -1, 1, 1, None),
    (3, -4, 1, 0, None),
    (3, -4, 1, 1, None),
    (4, -9, 1, 0, None),
    (5, -3, 2, 0, None),
    (6, -4, 1, 0, None),
    (6, -4, 1, 1, None),
    (7, 0, 2, 0, 2),
    (8, -4, 0, 0, 1),
    (8, -4, 0, 1, 1),
    (9, -4, 0, 0, 1),
    (10, -4, 0, 0, 1),
    (10, -4, 0, 1, 1),
)


def test_catalog_has_ten_entries():
    assert len(CATALOG) == 10
    assert [e.entry_id for e in CATALOG] == list(range(1, 11))
    assert entry(7).kind == "linear" and entry(7).shifted


@pytest.mark.parametrize("entry_id,alpha,beta,m,delta", CASES)
def test_generic_matches_catalog_undeformed(entry_id, alpha, beta, m, delta):
    kind = entry(entry_id).kind
    defm = riccati.make_deformation(families.make_family(kind, alpha, beta), m, math.inf, delta)
    rep = compare_with_generic(entry_id, defm, GRID[kind])
    assert rep["max_dev_V"] <= 1e-10
    assert rep["max_dev_W"] <= 1e-10
    assert rep["max_dev_lambda"] <= 1e-10


@pytest.mark.parametrize(
    "entry_id,alpha,beta,m",
    [(1, -2, 0, 0), (2, -1, 1, 0), (3, -4, 1, 0), (5, -3, 2, 0), (6, -4, 1, 0)],
)
def test_generic_matches_catalog_deformed(entry_id, alpha, beta, m):
    kind = entry(entry_id).kind
    fam = families.make_family(kind, alpha, beta)
    rays = riccati.gamma_rays(fam, m)
    gamma = rays.right_start + 1.0 if math.isfinite(rays.right_start) else rays.left_end - 1.0
    rep = compare_with_generic(entry_id, riccati.make_deformation(fam, m, gamma), GRID[kind])
    assert rep["max_dev_V"] <= 1e-10
    assert rep["max_dev_W"] <= 1e-10
    assert rep["max_dev_lambda"] <= 1e-10


# past x = 177 the square of a quadratic sigma overflows, sigma itself does not
@pytest.mark.parametrize("entry_id,alpha,beta,m,gmode,delta",
                         [f for f in verify._CATALOG_FIXTURES if f[0] in (4, 5, 6, 9, 10)])
def test_generic_matches_catalog_in_the_far_field(entry_id, alpha, beta, m, gmode, delta):
    kind = entry(entry_id).kind
    defm = riccati.make_deformation(families.make_family(kind, alpha, beta), m, math.inf, delta)
    rep = compare_with_generic(entry_id, defm, np.array([200.0, 350.0]))
    assert rep["max_dev_V"] <= 1e-10
    assert rep["max_dev_W"] <= 1e-10
    assert rep["max_dev_lambda"] <= 1e-10


def test_catalog_suite_adds_far_field_points_at_gamma_inf(monkeypatch):
    grids, real = [], verify.catalog.compare_with_generic

    def recording(entry_id, defm, xs):
        grids.append((defm.family.kind, defm.gamma, xs[-2:].tolist()))
        return real(entry_id, defm, xs)

    monkeypatch.setattr(verify.catalog, "compare_with_generic", recording)
    assert verify.suite_catalog()["ok"]
    for kind, gamma, tail in grids:
        far = gamma == math.inf and kind != "one_minus_s2"  # x in (0, pi) there
        assert (tail == [200.0, 350.0]) == far


def test_compare_with_generic_rejects_a_family_of_another_kind():
    defm = riccati.make_deformation(families.make_family("const", -2, 0), 0, math.inf)
    with pytest.raises(ParameterViolation):
        compare_with_generic(2, defm, GRID["linear"])


def test_catalog_suite_computes_each_finite_ray_edge_once(monkeypatch):
    limits, quads = [], []
    real_limit, real_quad = riccati.endpoint_limit, riccati.quad

    def limit(fam, m, endpoint):
        value = real_limit(fam, m, endpoint)
        limits.append((fam.kind, fam.alpha, fam.beta, m, endpoint, math.isfinite(value)))
        return value

    def counting(*args, **kwargs):
        quads.append(args[1:3])
        return real_quad(*args, **kwargs)

    monkeypatch.setattr(riccati, "endpoint_limit", limit)
    monkeypatch.setattr(riccati, "quad", counting)
    assert verify.suite_catalog()["ok"]
    assert len(set(limits)) == len(limits)
    assert len(quads) == sum(finite for *_, finite in limits) == 10


def test_coulomb_superpotential_matches_at_finite_gamma():
    # the shifted upper potential is gamma-free only at gamma = inf (the
    # constant cross-term 2*c*delta*W(gamma) varies with gamma), but the
    # printed superpotential carries the integral term and must agree for
    # finite gamma too
    from hypersusy import schrodinger

    fam = families.make_family("linear", 0, 2)
    gamma = riccati.gamma_rays(fam, 0).right_start + 1.0
    d = riccati.make_deformation(fam, 0, gamma, delta=2)
    for x in GRID["linear"]:
        _, w_ref, _ = catalog_reference(7, 0, 2, 0, float(x), gamma, 2)
        assert abs(w_ref - schrodinger.superpotential(d, float(x))) <= 1e-10


def test_morse_fixture_values():
    # alpha=-3, beta=2, m=0: V(x) = exp(-2x) - 3 exp(-x) + 4
    for x in (-1.0, 0.0, 1.5):
        v, w, lam = catalog_reference(5, -3, 2, 0, x)
        assert abs(v - (math.exp(-2 * x) - 3 * math.exp(-x) + 4.0)) < 1e-12
        assert lam == 0


def test_oscillator_fixture_values():
    v, w, lam = catalog_reference(1, -2, 0, 0, 0.0, gamma=2.0)
    assert abs(w - 0.5) < 1e-14
    assert abs(v - 1.0) < 1e-14
    v, w, lam = catalog_reference(1, -2, 0, 1, 1.0)
    assert lam == 2.0
    assert abs(v - (1.0 + 1.0 + 2.0)) < 1e-14


def test_coulomb_fixture_eigenvalue():
    _, _, lam = catalog_reference(7, 0, 2, 0, 1.0, delta=2)
    assert abs(lam + 4.0 / 9.0) < 1e-15


def test_poschl_teller_closed_form():
    # alpha=-4, beta=1, m=0: 4 cosec^2 x - 2 cotan x cosec x - 2.25
    for x in (0.5, 1.2, 2.4):
        v, _, _ = catalog_reference(3, -4, 1, 0, x)
        cosec, cotan = 1 / math.sin(x), math.cos(x) / math.sin(x)
        assert abs(v - (4 * cosec ** 2 - 2 * cotan * cosec - 2.25)) < 1e-12


def test_catalog_rejects_wrong_tau_shape():
    with pytest.raises(ParameterViolation):
        catalog_reference(7, -1, 2, 0, 1.0, delta=2)  # needs alpha = 0
    with pytest.raises(ParameterViolation):
        catalog_reference(9, -4, 1, 0, 1.0, delta=1)  # needs beta = 0
    with pytest.raises(ParameterViolation):
        catalog_reference(1, -2, 0, 0, 1.0, delta=1)  # no shift for entry 1
    with pytest.raises(ParameterViolation):
        catalog_reference(8, -4, 0, 0, 1.0)  # shift entries require delta
    with pytest.raises(IndexViolation, match="^entry must be an integer in 1..10, got entry=11"):
        catalog_reference(11, -2, 0, 0, 1.0)


# (shifted entry, its base entry, alpha, beta): the pure-power subfamily
SHIFT_BASES = ((7, 2, 0, 2), (8, 3, -4, 0), (9, 4, -4, 0), (10, 6, -4, 0))


@pytest.mark.parametrize("shifted,base,alpha,beta", SHIFT_BASES)
def test_shift_zero_matches_unshifted_potential(shifted, base, alpha, beta):
    xs = GRID[entry(base).kind]
    for x in xs:
        v8, w8, lam8 = catalog_reference(shifted, alpha, beta, 0, float(x), delta=0)
        v3, w3, lam3 = catalog_reference(base, alpha, beta, 0, float(x))
        assert abs(v8 - v3) < 1e-12
        assert abs(w8 - w3) < 1e-12
        assert abs(lam8 - lam3) < 1e-15


@pytest.mark.parametrize("finite_gamma", [False, True], ids=["inf", "finite"])
@pytest.mark.parametrize("entry_id,alpha,beta,m,delta", CASES)
def test_array_call_matches_pointwise_calls(entry_id, alpha, beta, m, delta, finite_gamma):
    kind = entry(entry_id).kind
    gamma = math.inf
    if finite_gamma:
        rays = riccati.gamma_rays(families.make_family(kind, alpha, beta), m)
        gamma = rays.right_start + 1.0 if math.isfinite(rays.right_start) else rays.left_end - 1.0
    xs = GRID[kind]
    v, w, lam = catalog_reference(entry_id, alpha, beta, m, xs, gamma, delta)
    assert v.shape == w.shape == xs.shape
    for i, x in enumerate(xs):
        vp, wp, lamp = catalog_reference(entry_id, alpha, beta, m, float(x), gamma, delta)
        assert isinstance(vp, float) and isinstance(wp, float)
        assert abs(v[i] - vp) <= 1e-15 * max(1.0, abs(vp))
        assert abs(w[i] - wp) <= 1e-15 * max(1.0, abs(wp))
        assert lamp == lam


@pytest.mark.parametrize("entry_id,alpha,beta,m,gmode,delta",
                         [f for f in verify._CATALOG_FIXTURES if f[4] == "both"])
def test_stacked_reference_matches_one_quad_per_point(entry_id, alpha, beta, m, gmode, delta):
    # the gamma term's integral from one stacked quad, against one scalar
    # quad per point, on points either side of the base point and at it
    fam = families.make_family(entry(entry_id).kind, alpha, beta)
    s0 = fam.spec.base_point
    s = np.append(families.sample_points(fam, 16), s0)
    assert np.any(s < s0) and np.any(s > s0)
    weight = families.sigma_m_rho(fam, m, s)
    for gamma in verify._finite_gammas(fam, m):
        stacked = _deformation_ratio(fam, m, gamma, s)
        per_point = deformation_ratio_per_point(fam, m, gamma, s)
        integral, reference = weight / stacked - gamma, weight / per_point - gamma
        assert np.all(np.abs(integral - reference) <= 1e-13 * np.maximum(1.0, np.abs(reference)))
        assert stacked[-1] == weight[-1] / gamma  # zero span: the integral is 0
        for i in (0, 8, 16):  # a lone point, as a 0-d array, as in a grid
            lone = _deformation_ratio(fam, m, gamma, np.asarray(s[i]))
            assert np.shape(lone) == () and abs(lone - stacked[i]) <= 1e-15 * abs(stacked[i])


def test_a_reference_row_is_summed_as_it_would_be_alone():
    # the gamma term's integrand on 61 const(-2, 0) points: 48 of them
    # summed differently as a lone row and in a 2-row stack, which made a
    # lone point's reference differ from the same quad's lone row
    fam, m = families.make_family("const", -2, 0), 0
    s0, gamma = fam.spec.base_point, verify._finite_gammas(fam, m)[0]
    for x in np.linspace(-3.0, 3.0, 61):
        def row(u, span=x - s0):
            return span * families.sigma_m_rho(fam, m, s0 + span * u)

        lone = quad(row, 0.0, 1.0, tol=1e-14).value
        pair = quad(lambda u: np.stack([row(u), row(u)]), 0.0, 1.0, tol=1e-14).value
        assert pair[0] == pair[1] == lone
        weight = families.sigma_m_rho(fam, m, np.asarray(x))
        assert _deformation_ratio(fam, m, gamma, np.asarray(x)) == weight / (gamma + lone)
