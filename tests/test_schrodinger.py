import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hypersusy import families, riccati, schrodinger, verify
from hypersusy.errors import IndexViolation, NonFinite, OutOfDomain
from hypersusy.numerics import quad
from hypersusy.polynomials import DifferentiableValue, associated_function
from hypersusy.verify import TEST_MATRIX
from oracles import apply_B, derivative


X_WINDOW = {
    "const": (-3.0, 3.0),
    "linear": (0.3, 5.0),
    "one_minus_s2": (0.25, math.pi - 0.25),
    "s2_minus_one": (0.3, 5.0),
    "s2": (-2.0, 2.5),
    "s2_plus_one": (-3.0, 3.0),
}


def matrix_families():
    return [families.make_family(k, a, b) for k, a, b in TEST_MATRIX]


def x_points(kind, n=16):
    lo, hi = X_WINDOW[kind]
    return np.linspace(lo, hi, n)


def test_coordinate_map_identity():
    # ds/dx = sign * kappa(s(x)), with ds/dx by Richardson-extrapolated differences
    for fam in matrix_families():
        cmap = fam.spec.coords
        xs = x_points(fam.kind, 64)
        lhs = derivative(cmap.s_of_x, xs, h0=2e-2)
        rhs = cmap.sign * fam.kappa(cmap.s_of_x(xs))
        assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_wavefunction_gaussian_ground_state():
    f = families.make_family("const", -2, 0)
    for x in (-1.5, 0.0, 0.7):
        assert abs(schrodinger.wavefunction(f, 0, 0, x) - math.exp(-x * x / 2.0)) < 1e-14


def test_wavefunction_norm_change_of_variables():
    # int Psi^2 dx equals int Phi^2 rho ds, two independent quadratures
    for kind, a, b in TEST_MATRIX[:4]:
        fam = families.make_family(kind, a, b)
        cmap = families.SPECS[kind].coords
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
    for kind, a, b in TEST_MATRIX:
        fam = families.make_family(kind, a, b)
        cmap = families.SPECS[kind].coords
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
    for kind, a, b in TEST_MATRIX:
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
        assert abs(apply_B(d, x, fv, "B")) < 1e-14


def test_B_conjugation_identity():
    # B(sqrt(kappa rho) h) == sqrt(kappa rho) * b(h) under s = s(x)
    for kind, a, b in TEST_MATRIX:
        fam = families.make_family(kind, a, b)
        cmap = families.SPECS[kind].coords
        d = riccati.make_deformation(fam, 0, math.inf)
        l = 1
        af = associated_function(fam, l, 1)
        psi = np.vectorize(lambda u: schrodinger.wavefunction(fam, l, 1, float(u)))
        for x in x_points(kind, 6):
            x = float(x)
            s = float(cmap.s_of_x(x))
            dpsi = derivative(psi, x, order=1, h0=1e-3)
            got = apply_B(d, x, DifferentiableValue(float(psi(x)), dpsi), "B_plus")
            factor = math.sqrt(float(fam.kappa(s)) * families.weight(fam, s))
            want = factor * riccati.apply_b(d, s, af.derivatives(s), "b_plus").value
            assert abs(got - want) <= 1e-9 * (1.0 + abs(want))


def test_B_plus_maps_into_partner_eigenfunction():
    # (-d^2/dx^2 + V_partner)(B_plus Psi_{l,1}) = lambda_l (B_plus Psi_{l,1})
    f = families.make_family("const", -2, 0)
    d = riccati.make_deformation(f, 0, 2.0)
    psi1 = np.vectorize(lambda u: schrodinger.wavefunction(f, 1, 1, float(u)))

    def u(x):
        x = float(x)
        dv = DifferentiableValue(float(psi1(x)), derivative(psi1, x, order=1, h0=1e-3))
        return apply_B(d, x, dv, "B_plus")

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


def reference_json(frame):
    """The per-value writer that write_json replaced: json.dumps over tolist()."""
    return json.dumps({k: np.asarray(v, dtype=float).tolist() for k, v in frame.items()})


def strict_json(text):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def same_bits(got, want):
    return np.array_equal(np.asarray(got, dtype=float).view(np.int64),
                          np.asarray(want, dtype=float).view(np.int64))


def assert_json_round_trip(frame, path):
    schrodinger.write_json(frame, path)
    back = strict_json(path.read_text())
    assert list(back) == list(frame)
    for k, col in frame.items():
        assert same_bits(back[k], col), k
    assert json.dumps(back) == reference_json(frame)


def json_matrix_cases():
    for kind, a, b in verify.TEST_MATRIX:
        f = families.make_family(kind, a, b)
        for m in (0, 1):
            if families.below_cutoff(f, m + 1):
                yield pytest.param(kind, a, b, m, id=f"{kind}-m{m}")


@pytest.mark.parametrize("kind,a,b,m", json_matrix_cases())
def test_json_values_are_bit_identical_to_the_frame(kind, a, b, m, tmp_path):
    f = families.make_family(kind, a, b)
    rays = riccati.gamma_rays(f, m)
    edge = (rays.right_start + 1.0 if math.isfinite(rays.right_start)
            else rays.left_end - 1.0)
    levels = [l for l in (m + 1, m + 2) if families.below_cutoff(f, l)]
    for gamma in (math.inf, edge):
        d = riccati.make_deformation(f, m, gamma)
        frame = schrodinger.grid_frame(d, x_points(kind, 301), levels)
        assert_json_round_trip(frame, tmp_path / "grid.json")


def test_json_extreme_doubles_round_trip(tmp_path):
    big = sys.float_info.max
    vals = [-0.0, 5e-324, 1e-5, 1e16, big, -5e-324, -big, 0.1, 1e-7, 123456.789]
    frame = {"x": np.arange(len(vals), dtype=float), "V": np.array(vals)}
    assert_json_round_trip(frame, tmp_path / "grid.json")
    text = (tmp_path / "grid.json").read_text()
    assert text.startswith('{"x":[0.0,1.0,')
    # no space after separators, exponents with no '+' and no zero padding
    assert ",1e16," in text and "e+" not in text and ", " not in text


def test_json_takes_strided_views_and_plain_lists(tmp_path):
    base = np.linspace(-1.0, 1.0, 10)
    frame = {"b": base[::2], "a": [0.5, -0.0, 2.0, 1e300, 3.0], "c": base[1::2][::-1]}
    assert not frame["b"].flags.c_contiguous
    assert_json_round_trip(frame, tmp_path / "grid.json")


def test_non_finite_psi_column_is_refused(monkeypatch):
    d = riccati.make_deformation(families.make_family("const", -2, 0), 0, 2.0)
    xs = np.linspace(-1.0, 1.0, 5)

    def psi_with_nan(fam, l, m, x):
        return np.where(np.arange(len(x)) == 3, math.nan, 1.0)

    monkeypatch.setattr(schrodinger, "wavefunction_grid", psi_with_nan)
    with pytest.raises(NonFinite, match=r"^psi_1 non-finite at x=0\.5$"):
        schrodinger.grid_frame(d, xs, levels=(1,))


def test_psi_level_below_order_rejected():
    f = families.make_family("const", -2, 0)
    d = riccati.make_deformation(f, 1, math.inf)
    with pytest.raises(IndexViolation, match=r"^level must be an integer >= 2, got level=1$"):
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


def test_svg_writer_with_no_finite_value_draws_empty_paths(tmp_path):
    nan = np.full(3, np.nan)
    frame = {"x": np.array([0.0, 1.0, 2.0]), "V_upper": nan, "V_partner": nan, "W": nan}
    schrodinger.write_svg(frame, tmp_path / "a.svg")
    paths = (tmp_path / "a.svg").read_text().split('<path d="')[1:]
    assert [p.split('"')[0] for p in paths] == ["M ", "M ", "M "]


def test_grid_frame_names_the_first_non_finite_x():
    # s(x) = x: tau = -2 s overflows W^2 at x = 1e308, and nothing warns
    d = riccati.make_deformation(families.make_family("const", -2, 0), 0, math.inf)
    with pytest.raises(NonFinite, match=r"at x=1e\+308$"):
        schrodinger.grid_frame(d, np.array([0.0, 1e308, 1.5e308]))


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


# --- export bytes against the per-value writers the block writers replaced ----

def reference_csv(frame):
    """The header and the bytes that write_csv replaced wrote."""
    cols = list(frame.keys())
    header = ",".join(cols)
    rows = np.column_stack([frame[c] for c in cols])
    lines = [header] + [",".join(f"{v:.12g}" for v in row) for row in rows]
    return header, "".join(line + "\n" for line in lines).encode()


def reference_svg(frame, width=640, height=440, pad=50.0):
    """The bytes that write_svg replaced wrote."""
    xs = frame["x"]
    series = {k: frame[k] for k in ("V_upper", "V_partner", "W")}
    ys = np.concatenate(list(series.values()))
    ys = ys[np.isfinite(ys)]
    y_lo, y_hi = np.percentile(ys, [2.0, 98.0])
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    x_lo, x_hi = float(xs[0]), float(xs[-1])

    def px(x):
        return pad + (x - x_lo) / (x_hi - x_lo) * (width - 2 * pad)

    def py(y):
        y = min(max(y, y_lo), y_hi)
        return height - pad - (y - y_lo) / (y_hi - y_lo) * (height - 2 * pad)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" '
        'stroke="black" stroke-width="1"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" '
        'stroke="black" stroke-width="1"/>',
    ]
    colors = {"V_upper": "#1f77b4", "V_partner": "#d62728", "W": "#2ca02c"}
    for i, (name, vals) in enumerate(series.items()):
        coords = [
            (px(float(x)), py(float(v)))
            for x, v in zip(xs, vals)
            if math.isfinite(float(v))
        ]
        d = "M " + " L ".join(f"{cx:.2f} {cy:.2f}" for cx, cy in coords)
        color = colors[name]
        parts.append(f'<path d="{d}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(
            f'<text x="{width - pad - 110}" y="{pad + 16 * (i + 1)}" '
            f'fill="{color}" font-size="13">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts).encode()


def export_frame(gamma=math.inf, n=101, levels=()):
    d = riccati.make_deformation(families.make_family("const", -2, 0), 0, gamma)
    return schrodinger.grid_frame(d, np.linspace(-4.0, 4.0, n), levels)


def special_values_frame():
    frame = {k: np.array(v, dtype=float) for k, v in export_frame(n=21, levels=(1,)).items()}
    # the literal 1.8e308 rounds to inf; the largest double is 1.7976931348623157e308
    big = sys.float_info.max
    specials = (math.nan, math.inf, -math.inf, -0.0, 5e-324, big, -5e-324, -big)
    for j, col in enumerate(frame.values()):
        for i, v in enumerate(specials):
            col[1 + (i + 2 * j) % 19] = v
    return frame


def non_finite_series_frame():
    frame = dict(export_frame(n=31))
    frame["W"] = np.full(31, math.nan)
    frame["V_partner"] = np.where(np.arange(31) % 2 == 0, math.inf, -math.inf)
    return frame


BLOCK = schrodinger._CSV_BLOCK_ROWS
EXPORT_FRAMES = {
    "n=2": lambda: export_frame(n=2),
    "undeformed, no psi": lambda: export_frame(),
    "undeformed, 1 psi": lambda: export_frame(levels=(1,)),
    "undeformed, 3 psi": lambda: export_frame(levels=(1, 2, 3)),
    "deformed, no psi": lambda: export_frame(gamma=2.0),
    "deformed, 1 psi": lambda: export_frame(gamma=2.0, levels=(2,)),
    "deformed, 3 psi": lambda: export_frame(gamma=-3.0, levels=(1, 2, 4)),
    "block - 1 rows": lambda: export_frame(n=BLOCK - 1, levels=(1,)),
    "block rows": lambda: export_frame(n=BLOCK, levels=(1,)),
    "block + 1 rows": lambda: export_frame(gamma=2.0, n=BLOCK + 1, levels=(1, 3)),
    "special values": special_values_frame,
    "non-finite series": non_finite_series_frame,
}


# the largest doubles overflow y_hi - y_lo in both SVG writers alike
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
@pytest.mark.parametrize("name", EXPORT_FRAMES)
def test_csv_and_svg_bytes_match_the_per_value_writers(name, tmp_path):
    frame = EXPORT_FRAMES[name]()
    assert csv_bytes(frame, tmp_path / "a.csv") == reference_csv(frame)
    assert svg_bytes(frame, tmp_path / "a.svg") == reference_svg(frame)


def test_special_values_frames_reach_the_writers(tmp_path):
    frame = special_values_frame()
    schrodinger.write_csv(frame, tmp_path / "a.csv")
    tokens = set((tmp_path / "a.csv").read_text().replace("\n", ",").split(","))
    assert {"nan", "inf", "-inf", "-0", "4.94065645841e-324", "-1.79769313486e+308"} <= tokens
    schrodinger.write_svg(non_finite_series_frame(), tmp_path / "a.svg")
    paths = (tmp_path / "a.svg").read_text().split('<path d="')[1:]
    assert [p.split('"')[0] for p in paths[1:]] == ["M ", "M "]


# every float64 (subnormals, +-0, nan, +-inf), 12-digit ties (k + 1/2) 10^j,
# the doubles next to 10^j, and integers up to 2^53.  A tie is (2k + 1) num / den,
# which int / int rounds once, as float(Fraction) does.
FLOATS, INTEGERS = st.floats(), st.integers(-2**53, 2**53)
TIE_K = st.integers(10**11, 10**12 - 1)
TIE_SCALES = st.sampled_from([(sign * 10**max(j, 0), 2 * 10**max(-j, 0))
                              for j in range(-20, 5) for sign in (1, -1)])
NEAR_POWERS = st.sampled_from([float(np.nextafter(float(Fraction(10) ** j), to))
                               for j in range(-6, 14) for to in (math.inf, -math.inf)])
VALUE_CLASS = st.integers(0, 3)


def export_values(draw, n):
    """n cells, each of a class drawn for it: a plain draw per class, not one_of's filtered pick."""
    cells = []
    for _ in range(n):
        cls = draw(VALUE_CLASS)
        if cls == 1:
            num, den = draw(TIE_SCALES)
            cells.append((2 * draw(TIE_K) + 1) * num / den)
        else:
            cells.append(draw((FLOATS, None, NEAR_POWERS, INTEGERS)[cls]))
    return np.array(cells, dtype=float)


def csv_bytes(frame, path):
    """What write_csv returns and writes."""
    return schrodinger.write_csv(frame, path), path.read_bytes()


def svg_bytes(frame, path):
    """What write_svg writes."""
    schrodinger.write_svg(frame, path)
    return path.read_bytes()


@st.composite
def export_frames(draw):
    n, ncols = draw(st.integers(0, 12)), draw(st.integers(1, 5))
    return {f"c{j}": export_values(draw, n) for j in range(ncols)}


@settings(max_examples=300, deadline=None)
@given(export_frames())
def test_csv_bytes_match_the_per_value_writer_on_drawn_frames(tmp_path_factory, frame):
    path = tmp_path_factory.getbasetemp() / "drawn.csv"
    assert csv_bytes(frame, path) == reference_csv(frame)


# With x_lo = 0 and x_hi = 1, px = 50 + 540 x: x = i/32 puts px on exact .xx5
# ties at odd i, and an x placed from a target c = h/200 puts px within an ulp
# or two of c, on either side: a .xx5 tie at odd h, a 2-decimal value at even h;
# targets near 10 and 1000 reach outside [10, 1000).
svg_x = st.one_of(
    st.integers(-32, 64).map(lambda i: i / 32),
    st.builds(lambda h, j: (h / 200 - 50) / 540 + j * 1e-16,
              st.one_of(st.integers(1990, 2010), st.integers(199980, 200010), st.integers(1990, 200010)),
              st.integers(-5, 5)),
)


def svg_frame(x):
    return {"x": np.array(x), **{k: np.array([0.0, 1.0, 2.0]) for k in ("V_upper", "V_partner", "W")}}


@st.composite
def svg_frames(draw):
    """Series of drawn cells over x drawn alike, or placed by svg_x between x = 0 and x = 1."""
    n = draw(st.integers(2, 12))
    placed = draw(st.booleans())
    x = np.array([0.0, *[draw(svg_x) for _ in range(n - 2)], 1.0]) if placed else export_values(draw, n)
    return {"x": x, **{k: export_values(draw, n) for k in ("V_upper", "V_partner", "W")}}


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(svg_frames())
# px = 60.00500000000000256 prints 60.01, but 100 px rounds onto 6000.5, which rint takes to 6000
@example(frame=svg_frame([0.0, 0.018527777777777782, 1.0]))
# px = 1000.00: round(100 px) = 100000 has no "ddd." entry
@example(frame=svg_frame([0.0, 950 / 540, 1.0]))
def test_svg_bytes_match_the_per_value_writer_on_drawn_frames(tmp_path_factory, frame):
    assume(frame["x"][-1] - frame["x"][0] != 0)
    assume(np.isfinite(np.concatenate([frame["V_upper"], frame["V_partner"], frame["W"]])).any())
    path = tmp_path_factory.getbasetemp() / "drawn.svg"
    assert svg_bytes(frame, path) == reference_svg(frame)
