import json
import math

import numpy as np
import pytest

from hypersusy import families, riccati, schrodinger
from hypersusy.errors import OutOfDomain
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

X_WINDOW = {
    "const": (-3.0, 3.0),
    "linear": (0.3, 5.0),
    "one_minus_s2": (0.25, math.pi - 0.25),
    "s2_minus_one": (0.3, 5.0),
    "s2": (-2.0, 2.5),
    "s2_plus_one": (-3.0, 3.0),
}


def matrix_families():
    return [families.make_family(k, a, b) for k, a, b in MATRIX]


def x_points(kind, n=16):
    lo, hi = X_WINDOW[kind]
    return np.linspace(lo, hi, n)


def test_coordinate_map_identity():
    for fam in matrix_families():
        cmap = schrodinger.coordinate_map(fam.kind)
        xs = x_points(fam.kind, 64)
        s = cmap.s_of_x(xs)
        lhs = cmap.ds_dx(xs)
        rhs = cmap.sign * np.sqrt(np.asarray(fam.sigma(s), dtype=float))
        assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_wavefunction_gaussian_ground_state():
    f = families.make_family("const", -2, 0)
    for x in (-1.5, 0.0, 0.7):
        assert abs(schrodinger.wavefunction(f, 0, 0, x) - math.exp(-x * x / 2.0)) < 1e-14


def test_wavefunction_norm_change_of_variables():
    # int Psi^2 dx equals int Phi^2 rho ds, two independent quadratures
    for kind, a, b in MATRIX[:4]:
        fam = families.make_family(kind, a, b)
        cmap = schrodinger.coordinate_map(kind)
        l, m = 1, 1

        def x_integrand(xs):
            return schrodinger.wavefunction_grid(fam, l, m, xs) ** 2

        def s_integrand(s):
            af = associated_function(fam, l, m)
            with np.errstate(over="ignore", under="ignore", invalid="ignore"):
                w = families.weight(fam, s)
                out = af.values(s) ** 2 * w
            return np.where(w == 0.0, 0.0, out)

        ix = quad(x_integrand, *cmap.x_domain, tol=1e-11).value
        isv = quad(s_integrand, *fam.interval, tol=1e-11).value
        assert abs(ix - isv) <= 1e-8 * max(1.0, isv)


def test_wavefunction_decays_at_domain_edges():
    f = families.make_family("const", -2, 0)
    assert schrodinger.wavefunction(f, 2, 1, 8.0) < 1e-12
    g = families.make_family("s2_minus_one", -8, 10)
    assert schrodinger.wavefunction(g, 1, 1, 14.0) < 1e-8


def test_superpotential_undeformed_oscillator():
    f = families.make_family("const", -2, 0)
    d = riccati.make_deformation(f, 0, math.inf)
    for x in (-2.0, 0.0, 1.3):
        assert abs(schrodinger.superpotential(d, x) - x) < 1e-14


def test_superpotential_deformed_at_origin():
    f = families.make_family("const", -2, 0)
    d = riccati.make_deformation(f, 0, 2.0)
    assert abs(schrodinger.superpotential(d, 0.0) - 0.5) < 1e-13


def test_superpotential_radial_value():
    f = families.make_family("linear", -1, 1)
    d = riccati.make_deformation(f, 0, math.inf)
    assert abs(schrodinger.superpotential(d, 2.0) - 0.25) < 1e-14


def test_superpotential_shift_constant():
    f = families.make_family("linear", 0, 2)
    d = riccati.make_deformation(f, 0, math.inf, delta=2)
    d0 = riccati.make_deformation(f, 0, math.inf, delta=0)
    for x in (0.5, 1.0, 3.0):
        gap = schrodinger.superpotential(d, x) - schrodinger.superpotential(d0, x)
        assert abs(gap - 2.0 / 3.0) < 1e-14


def test_oscillator_potentials():
    f = families.make_family("const", -2, 0)
    d = riccati.make_deformation(f, 0, math.inf)
    for x in (-1.0, 0.4, 2.0):
        vu, vp = schrodinger.potentials(d, x)
        assert abs(vu - (x * x + 1.0)) < 1e-13
        assert abs(vp - (x * x - 1.0)) < 1e-13


def test_upper_potential_is_gamma_independent():
    f = families.make_family("const", -2, 0)
    d_inf = riccati.make_deformation(f, 0, math.inf)
    d_fin = riccati.make_deformation(f, 0, 2.0)
    xs = np.linspace(-4, 4, 21)
    vu_inf = schrodinger.potentials(d_inf, xs)[0]
    vu_fin = schrodinger.potentials(d_fin, xs)[0]
    assert np.max(np.abs(vu_inf - vu_fin)) <= 1e-11


def test_susy_pairing_via_numeric_w_prime():
    # V_upper - V_partner = 2 * sign * dW/dx, with dW/dx taken numerically
    for kind, a, b in MATRIX:
        fam = families.make_family(kind, a, b)
        cmap = schrodinger.coordinate_map(kind)
        for gamma in (math.inf,):
            d = riccati.make_deformation(fam, 0, gamma)
            for x in x_points(kind, 7):
                x = float(x)
                vu, vp = schrodinger.potentials(d, x)
                wp = derivative(
                    np.vectorize(lambda u: schrodinger.superpotential(d, float(u))),
                    x, order=1, h0=1e-2, levels=4,
                )
                assert abs((vu - vp) - 2.0 * cmap.sign * wp) <= 1e-9 * (1.0 + abs(wp))


def test_schrodinger_eigen_relation():
    # -Psi'' + V_upper Psi = lambda_l Psi pointwise
    for kind, a, b in MATRIX:
        fam = families.make_family(kind, a, b)
        d = riccati.make_deformation(fam, 0, math.inf)
        lmax = 2 if families.below_cutoff(fam, 2) else 1
        for l in range(1, lmax + 1):
            lam = float(families.eigenvalue(fam, l))
            psi = np.vectorize(lambda u: schrodinger.wavefunction(fam, l, 1, float(u)))
            xs = x_points(kind, 9)
            scale = float(np.max(np.abs(psi(xs))))
            for x in xs:
                x = float(x)
                upp = derivative(psi, x, order=2, h0=0.02, levels=3)
                vu, _ = schrodinger.potentials(d, x)
                res = -upp + vu * psi(x) - lam * psi(x)
                assert abs(res) <= 1e-6 * (1.0 + abs(lam)) * scale


def test_ground_state_annihilation():
    f = families.make_family("const", -2, 0)
    d = riccati.make_deformation(f, 0, math.inf)
    for x in (-1.0, 0.2, 1.7):
        val = math.exp(-x * x / 2.0)
        fv = DifferentiableValue(val, -x * val)
        assert abs(schrodinger.apply_B(d, x, fv, "B")) < 1e-14


def test_B_conjugation_identity():
    # B(sqrt(kappa rho) h) == sqrt(kappa rho) * b(h) under s = s(x)
    for kind, a, b in MATRIX:
        fam = families.make_family(kind, a, b)
        cmap = schrodinger.coordinate_map(kind)
        d = riccati.make_deformation(fam, 0, math.inf)
        l = 1
        af = associated_function(fam, l, 1)
        psi = np.vectorize(lambda u: schrodinger.wavefunction(fam, l, 1, float(u)))
        for x in x_points(kind, 6):
            x = float(x)
            s = float(cmap.s_of_x(x))
            dpsi = derivative(psi, x, order=1, h0=1e-3)
            got = schrodinger.apply_B(d, x, DifferentiableValue(float(psi(x)), dpsi), "B_plus")
            factor = math.sqrt(float(fam.kappa(s)) * families.weight(fam, s))
            want = factor * riccati.apply_b(d, s, af.eval(s), "b_plus")
            assert abs(got - want) <= 1e-9 * (1.0 + abs(want))


def test_B_plus_maps_into_partner_eigenfunction():
    # (-d^2/dx^2 + V_partner)(B_plus Psi_{l,1}) = lambda_l (B_plus Psi_{l,1})
    f = families.make_family("const", -2, 0)
    d = riccati.make_deformation(f, 0, 2.0)
    psi1 = np.vectorize(lambda u: schrodinger.wavefunction(f, 1, 1, float(u)))

    def u(x):
        x = float(x)
        dv = DifferentiableValue(float(psi1(x)), derivative(psi1, x, order=1, h0=1e-3))
        return schrodinger.apply_B(d, x, dv, "B_plus")

    uv = np.vectorize(u)
    lam = 2.0
    xs = np.linspace(-2.5, 2.5, 9)
    scale = float(np.max(np.abs(uv(xs))))
    for x in xs:
        x = float(x)
        upp = derivative(uv, x, order=2, h0=0.05, levels=3)
        _, vp = schrodinger.potentials(d, x)
        assert abs(-upp + vp * u(x) - lam * u(x)) <= 1e-7 * max(1.0, scale)


# --- exports ------------------------------------------------------------------

def test_csv_header_and_values(tmp_path):
    f = families.make_family("const", -2, 0)
    d = riccati.make_deformation(f, 0, 2.0)
    xs = np.linspace(-6.0, 6.0, 13)
    frame = schrodinger.grid_frame(d, xs, levels=(1, 2))
    path = tmp_path / "grid.csv"
    schrodinger.write_csv(frame, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,s,V_upper,V_partner,W,psi_1,psi_2"
    assert len(lines) == 14
    row0 = dict(zip(lines[0].split(","), lines[7].split(",")))  # x = 0 row
    assert abs(float(row0["x"])) < 1e-12
    assert abs(float(row0["W"]) - 0.5) < 1e-12


def test_json_frame(tmp_path):
    f = families.make_family("const", -2, 0)
    d = riccati.make_deformation(f, 0, math.inf)
    frame = schrodinger.grid_frame(d, np.linspace(-1, 1, 5))
    path = tmp_path / "grid.json"
    schrodinger.write_json(frame, path)
    blob = json.loads(path.read_text())
    assert set(blob) == {"x", "s", "V_upper", "V_partner", "W"}
    assert len(blob["x"]) == 5


def test_psi_level_below_order_rejected():
    f = families.make_family("const", -2, 0)
    d = riccati.make_deformation(f, 1, math.inf)
    with pytest.raises(OutOfDomain):
        schrodinger.grid_frame(d, np.linspace(-1, 1, 5), levels=(1,))


def test_svg_writer(tmp_path):
    f = families.make_family("const", -2, 0)
    d = riccati.make_deformation(f, 0, 2.0)
    frame = schrodinger.grid_frame(d, np.linspace(-4, 4, 101))
    path = tmp_path / "plot.svg"
    schrodinger.write_svg(frame, path)
    text = path.read_text()
    assert text.startswith("<svg")
    assert text.count("<path") == 3
    assert "V_partner" in text


@pytest.mark.parametrize("deformed", [False, True])
def test_x_that_rounds_onto_the_s_boundary_is_out_of_domain(deformed):
    # x = 1e-9 lies inside (0, inf), but cosh(1e-9) rounds to the closed end s = 1
    f = families.make_family("s2_minus_one", -8, 10)
    gamma = riccati.gamma_rays(f, 0).right_start + 1.0 if deformed else math.inf
    d = riccati.make_deformation(f, 0, gamma)
    with pytest.raises(OutOfDomain):
        schrodinger.grid_frame(d, np.array([1e-9, 0.5, 1.0]))


def test_context_shift_constant_is_the_superpotential_offset():
    from fractions import Fraction

    from hypersusy import ladder

    for kind, a, delta, xs in (("one_minus_s2", -4, Fraction(3, 2), (0.4, 1.5, 2.7)),
                               ("s2_minus_one", -8, 2, (0.5, 1.0, 2.0)),
                               ("s2_plus_one", -4.0, 1, (-1.0, 0.2, 2.0))):
        f = families.make_family(kind, a, 0)
        c = float(ladder.make_context(f, 0, delta=delta).shift_constant)
        d = riccati.make_deformation(f, 0, math.inf, delta=delta)
        d0 = riccati.make_deformation(f, 0, math.inf)
        for x in xs:
            gap = schrodinger.superpotential(d, x) - schrodinger.superpotential(d0, x)
            assert abs(gap - c) < 1e-14
