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
from .errors import NonFinite, OutOfDomain
from .polynomials import DifferentiableValue, associated_function


def wavefunction(fam, l, m, x):
    """Psi_{l,m}(x) = sqrt(kappa rho) Phi_{l,m} at s(x)."""
    cmap = fam.spec.coords
    cmap.require_inside(x)
    s = float(cmap.s_of_x(x))
    af = associated_function(fam, l, m)
    kap = float(fam.kappa(s))
    rho = families.weight(fam, s)
    return math.sqrt(kap * rho) * af.eval(s).value


def wavefunction_grid(fam, l, m, xs):
    # extreme x may round s(x) onto the closed s-boundary; the decaying
    # sqrt(kappa*rho) factor makes 0 the right limiting value there
    cmap = fam.spec.coords
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
            kap = fam.kappa(si)
            rho = families.weight(fam, si)
            vals = np.sqrt(kap * rho) * af.values(si)
        out[inside] = np.where(rho == 0.0, 0.0, vals)
    return out


def _w_core(defm, x):
    """W(x) and dW/dx at x of any shape, from psi and phi at s(x).

    W = kappa (psi + phi)/2 + c, and dW/dx = sign * kappa * dW/ds.
    """
    fam = defm.family
    cmap = fam.spec.coords
    cmap.require_inside(x)
    s = cmap.s_of_x(x)
    p, pp, q, qp = riccati.psi_phi_arrays(defm, s)
    sig, sp = fam.sigma(s), fam.sigma_prime(s)
    w = np.sqrt(sig) * (p + q) / 2.0 + float(defm.shift_constant)
    wp = cmap.sign * (sp * (p + q) / 4.0 + sig * (pp + qp) / 2.0)
    return w, wp


def superpotential(defm, x):
    """W(x), including the constant shift when the deformation carries delta."""
    return _w_core(defm, x)[0]


def potentials_and_w(defm, x):
    """(V_upper, V_partner, W) at x of any shape from one evaluation of W and W'."""
    w, wp = _w_core(defm, x)
    sign = defm.family.spec.coords.sign
    lam = defm.lambda_base
    return w * w + sign * wp + lam, w * w - sign * wp + lam, w


def potentials(defm, x):
    """(V_upper, V_partner) at x of any shape: W^2 +/- sign*W' + the base eigenvalue."""
    vu, vp, _ = potentials_and_w(defm, x)
    return vu, vp


def apply_B(defm, x, fv, which="B"):
    """(+/- d/dx + W) in x-space on a DifferentiableValue."""
    cmap = defm.family.spec.coords
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
    one per requested level l >= m+1.  A non-finite V_upper, V_partner or W
    raises NonFinite, naming the first x where it occurs.
    """
    xs = np.asarray(xs, dtype=float)
    with np.errstate(all="ignore"):
        v_upper, v_partner, w = potentials_and_w(defm, xs)
    bad = ~(np.isfinite(v_upper) & np.isfinite(v_partner) & np.isfinite(w))
    if bad.any():
        raise NonFinite(f"V_upper, V_partner or W non-finite at x={float(xs[bad][0])}")
    frame = {
        "x": xs,
        "s": defm.family.spec.coords.s_of_x(xs),
        "V_upper": v_upper,
        "V_partner": v_partner,
        "W": w,
    }
    for l in levels:
        if l < defm.m + 1:
            raise OutOfDomain(f"psi level must be >= m+1, got l={l}")
        frame[f"psi_{l}"] = wavefunction_grid(defm.family, l, defm.m + 1, xs)
    return frame


# rows per format pass: the text held in memory stays bounded for any n
_CSV_BLOCK_ROWS = 1024


def write_csv(frame, path):
    cols = list(frame.keys())
    header = ",".join(cols)
    rows = np.column_stack([frame[c] for c in cols])
    line = ",".join(["%.12g"] * len(cols)) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for block in np.split(rows, range(_CSV_BLOCK_ROWS, len(rows), _CSV_BLOCK_ROWS)):
            fh.write(line * len(block) % tuple(block.ravel().tolist()))
    return header


def write_json(frame, path):
    # json.dumps runs the C encoder; json.dump streams through the Python one
    text = json.dumps({k: np.asarray(arr, dtype=float).tolist() for k, arr in frame.items()})
    with open(path, "w") as fh:
        fh.write(text)


_SVG_COLORS = {"V_upper": "#1f77b4", "V_partner": "#d62728", "W": "#2ca02c"}


def write_svg(frame, path):
    """Quick-look line plot of V_upper, V_partner and W as plain SVG paths.

    The y-range spans the 2nd to 98th percentile of the finite values; with
    none left it is [0, 1] and every path is empty.
    """
    width, height, pad = 640, 440, 50.0
    xs = np.asarray(frame["x"], dtype=float)
    series = {k: np.asarray(frame[k], dtype=float) for k in ("V_upper", "V_partner", "W")}
    ys = np.concatenate(list(series.values()))
    ys = ys[np.isfinite(ys)]
    y_lo, y_hi = np.percentile(ys, [2.0, 98.0]) if ys.size else (0.0, 1.0)
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    x_lo, x_hi = float(xs[0]), float(xs[-1])
    px = pad + (xs - x_lo) / (x_hi - x_lo) * (width - 2 * pad)
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
        ok = np.isfinite(vals)
        y = np.minimum(np.maximum(vals[ok], y_lo), y_hi)
        py = height - pad - (y - y_lo) / (y_hi - y_lo) * (height - 2 * pad)
        xy = np.column_stack([px[ok], py]).ravel().tolist()
        d = "M " + " L ".join(["%.2f %.2f"] * len(py)) % tuple(xy)
        color = _SVG_COLORS[name]
        parts.append(f'<path d="{d}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(
            f'<text x="{width - pad - 110}" y="{pad + 16 * (i + 1)}" '
            f'fill="{color}" font-size="13">{name}</text>'
        )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))
