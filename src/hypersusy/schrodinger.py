"""Change of variable to Schrodinger form.

Each family carries a fixed coordinate map x -> s(x) with ds/dx equal to
(+/-) kappa(s(x)); conjugating by sqrt(kappa * rho) turns the second-order
operators into -d^2/dx^2 + V(x) and the first-order deformed maps into
(+/- d/dx + W(x)) with the superpotential

    W(x) = -tau/(2 kappa) - (m - 1/2) kappa' + kappa sigma^m rho/(gamma + I_m)

evaluated at s = s(x) (plus the constant delta shift when active).  The
upper potential W^2 + sign*W' + lambda is gamma-independent; the partner
W^2 - sign*W' + lambda is the one-parameter family.
"""

from __future__ import annotations

import json
import math

import numpy as np

from . import families, riccati
from .errors import OutOfDomain
from .polynomials import DifferentiableValue, associated_function


def coordinate_map(kind):
    """The kind's fixed x -> s(x) map (families.CoordinateMap)."""
    return families.SPECS[kind].coords


def wavefunction(fam, l, m, x):
    """Psi_{l,m}(x) = sqrt(kappa rho) Phi_{l,m} at s(x)."""
    cmap = coordinate_map(fam.kind)
    cmap.require_inside(x)
    s = float(cmap.s_of_x(x))
    af = associated_function(fam, l, m)
    kap = float(fam.kappa(s))
    rho = families.weight(fam, s)
    return math.sqrt(kap * rho) * af.eval(s).value


def wavefunction_grid(fam, l, m, xs):
    # extreme x may round s(x) onto the closed s-boundary; the decaying
    # sqrt(kappa*rho) factor makes 0 the right limiting value there
    cmap = coordinate_map(fam.kind)
    cmap.require_inside(xs)
    with np.errstate(over="ignore"):
        s = np.asarray(cmap.s_of_x(np.asarray(xs, dtype=float)), dtype=float)
    a, b = fam.interval
    inside = (s > a) & (s < b) & np.isfinite(s)
    out = np.zeros_like(s)
    if np.any(inside):
        af = associated_function(fam, l, m)
        si = s[inside]
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            kap = np.sqrt(np.asarray(fam.sigma(si), dtype=float))
            rho = families.weight(fam, si)
            vals = np.sqrt(kap * rho) * af.values(si)
        out[inside] = np.where(rho == 0.0, 0.0, vals)
    return out


def _w_core(defm, x):
    """W(x) and dW/dx at x of any shape, from psi and phi at s(x).

    W = kappa (psi + phi)/2 + c, and dW/dx = sign * kappa * dW/ds.
    """
    fam = defm.family
    cmap = coordinate_map(fam.kind)
    cmap.require_inside(x)
    s = cmap.s_of_x(np.asarray(x, dtype=float))
    p, pp, q, qp = riccati.psi_phi_arrays(defm, s)
    sig = np.asarray(fam.sigma(s), dtype=float)
    sp = np.asarray(fam.sigma_prime(s), dtype=float)
    w = np.sqrt(sig) * (p + q) / 2.0 + float(defm.shift_constant)
    wp = cmap.sign * (sp * (p + q) / 4.0 + sig * (pp + qp) / 2.0)
    return w, wp


def superpotential(defm, x):
    """W(x), including the constant shift when the deformation carries delta."""
    return _w_core(defm, x)[0]


def potentials_and_w(defm, x):
    """(V_upper, V_partner, W) at x of any shape from one evaluation of W and W'."""
    w, wp = _w_core(defm, x)
    sign = coordinate_map(defm.family.kind).sign
    lam = defm.lambda_base
    return w * w + sign * wp + lam, w * w - sign * wp + lam, w


def potentials(defm, x):
    """(V_upper, V_partner) at x of any shape: W^2 +/- sign*W' + the base eigenvalue."""
    vu, vp, _ = potentials_and_w(defm, x)
    return vu, vp


def apply_B(defm, x, fv, which="B"):
    """(+/- d/dx + W) in x-space on a DifferentiableValue."""
    cmap = coordinate_map(defm.family.kind)
    cmap.require_inside(x)
    w = superpotential(defm, x)
    if which == "B":
        return cmap.sign * fv.deriv + w * fv.value
    if which == "B_plus":
        return -cmap.sign * fv.deriv + w * fv.value
    raise ValueError("which must be 'B' or 'B_plus'")


def grid_frame(defm, xs, levels=()):
    """Column arrays for export: x, s, V_upper, V_partner, W, psi_l...

    psi columns are the wavefunctions of the upper operator (order m+1),
    one per requested level l >= m+1.
    """
    xs = np.asarray(xs, dtype=float)
    v_upper, v_partner, w = potentials_and_w(defm, xs)
    frame = {
        "x": xs,
        "s": coordinate_map(defm.family.kind).s_of_x(xs),
        "V_upper": v_upper,
        "V_partner": v_partner,
        "W": w,
    }
    for l in levels:
        if l < defm.m + 1:
            raise OutOfDomain(f"psi level must be >= m+1, got l={l}")
        frame[f"psi_{l}"] = wavefunction_grid(defm.family, l, defm.m + 1, xs)
    return frame


CSV_BASE_HEADER = "x,s,V_upper,V_partner,W"


def write_csv(frame, path):
    cols = list(frame.keys())
    header = ",".join(cols)
    rows = np.column_stack([frame[c] for c in cols])
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.12g}" for v in row) + "\n")
    return header


def frame_to_json(frame):
    return {k: np.asarray(arr, dtype=float).tolist() for k, arr in frame.items()}


def write_json(frame, path):
    # json.dumps runs the C encoder; json.dump streams through the Python one
    text = json.dumps(frame_to_json(frame))
    with open(path, "w") as fh:
        fh.write(text)


_SVG_COLORS = {"V_upper": "#1f77b4", "V_partner": "#d62728", "W": "#2ca02c"}


def write_svg(frame, path, width=640, height=440, pad=50.0):
    """Quick-look line plot of V_upper, V_partner and W as plain SVG paths."""
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
    for i, (name, vals) in enumerate(series.items()):
        coords = [
            (px(float(x)), py(float(v)))
            for x, v in zip(xs, vals)
            if math.isfinite(float(v))
        ]
        d = "M " + " L ".join(f"{cx:.2f} {cy:.2f}" for cx, cy in coords)
        color = _SVG_COLORS[name]
        parts.append(f'<path d="{d}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(
            f'<text x="{width - pad - 110}" y="{pad + 16 * (i + 1)}" '
            f'fill="{color}" font-size="13">{name}</text>'
        )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))
