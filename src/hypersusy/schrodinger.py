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

import functools
import math

import numpy as np

from . import families, riccati
from .errors import NonFinite
from .polynomials import associated_function


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


def superpotential(defm, x):
    """W(x), including the constant shift when the deformation carries delta."""
    return potentials_and_w(defm, x)[2]


def potentials_and_w(defm, x):
    """(V_upper, V_partner, W) at x of any shape from one evaluation of W and W'.

    W = kappa (psi + phi)/2 + c and dW/dx = sign * kappa * dW/ds, from psi
    and phi at s(x).
    """
    fam = defm.family
    cmap = fam.spec.coords
    cmap.require_inside(x)
    s = cmap.s_of_x(x)
    p, pp, q, qp = riccati.psi_phi_arrays(defm, s)
    sig, sp = fam.sigma(s), fam.sigma_prime(s)
    w = np.sqrt(sig) * (p + q) / 2.0 + float(defm.shift_constant)
    wp = cmap.sign * (sp * (p + q) / 4.0 + sig * (pp + qp) / 2.0)
    lam = defm.lambda_base
    return w * w + cmap.sign * wp + lam, w * w - cmap.sign * wp + lam, w


def potentials(defm, x):
    """(V_upper, V_partner) at x of any shape: W^2 +/- sign*W' + the base eigenvalue."""
    return potentials_and_w(defm, x)[:2]


def grid_frame(defm, xs, levels=()):
    """Column arrays for export: x, s, V_upper, V_partner, W, psi_l...

    psi columns are the wavefunctions of the upper operator (order m+1),
    one per requested level l >= m+1.  A non-finite value in any column
    raises NonFinite, naming the first x where one occurs and the columns
    non-finite there.
    """
    xs = np.asarray(xs, dtype=float)
    with np.errstate(all="ignore"):
        v_upper, v_partner, w = potentials_and_w(defm, xs)
    frame = {
        "x": xs,
        "s": defm.family.spec.coords.s_of_x(xs),
        "V_upper": v_upper,
        "V_partner": v_partner,
        "W": w,
    }
    for l in levels:
        families.require_index("level", l, defm.m + 1)
        frame[f"psi_{l}"] = wavefunction_grid(defm.family, l, defm.m + 1, xs)
    finite = np.logical_and.reduce([np.isfinite(col) for col in frame.values()])
    if not finite.all():
        i = int(np.argmin(finite))
        names = [k for k, col in frame.items() if not np.isfinite(col[i])]
        raise NonFinite(f"{', '.join(names)} non-finite at x={float(xs[i])}")
    return frame


# rows per format pass: the text held in memory stays bounded for any n
_CSV_BLOCK_ROWS = 1024


@functools.cache
def _export_tables():
    """10^0..10^15, exact; "ddd." (0..999, NUL-padded left) and "dd" (00..99) as <u4 words."""
    whole = "".join(f"{q}.".rjust(4, "\0") for q in range(1000)).encode()
    frac = "".join(f"{f:02d}" for f in range(100)).encode()
    return (np.array([float(10**k) for k in range(16)]),
            np.frombuffer(whole, "<u4"), np.frombuffer(frac, "<u2").astype("<u4"))


def _csv_text(block):
    """The rows of a 2-D block as "%.12g" text.

    d = round(p), p = |v| 10^k (k = 11 - v's decimal exponent) rounded once, holds
    the 12 digits when 10^11 <= d < 10^12 and p is not within 1e-4 of a tie (its
    error is <= 6.1e-5); then r = d / 10^k is the double nearest that decimal and its
    shortest text (orjson's) is the "%.12g" text unless r is integral.  Any other
    cell is formatted by "%.12g" into a hole marked 1e300, which no kept cell prints.
    """
    import orjson

    a = np.abs(block)
    with np.errstate(all="ignore"):
        kept = (a >= 1e-4) & (a < 1e12)
        k = np.where(kept, 11 - np.floor(np.log10(a)), 0).clip(0, 15).astype(int)
        scale = _export_tables()[0][k]
        p = a * scale
        d = np.rint(p)
        r = np.copysign(d / scale, block)
        kept &= (np.abs(p - d) <= 0.4999) & (d >= 1e11) & (d < 1e12) & (r != np.trunc(r))
    text = orjson.dumps(np.where(kept, r, 1e300).ravel(), option=orjson.OPT_SERIALIZE_NUMPY)
    buf = np.frombuffer(text, np.uint8)[1:-1].copy()
    ncols = block.shape[1]
    buf[np.flatnonzero(buf == ord(","))[ncols - 1::ncols]] = ord("\n")
    text, holes = buf.tobytes() + b"\n", block[~kept]
    return text.replace(b"1e300", b"%.12g") % tuple(holes.tolist()) if holes.size else text


def write_csv(frame, path):
    cols = list(frame.keys())
    header = ",".join(cols)
    rows = np.column_stack([frame[c] for c in cols])
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for start in range(0, len(rows), _CSV_BLOCK_ROWS):
            fh.write(_csv_text(rows[start:start + _CSV_BLOCK_ROWS]))
    return header


def write_json(frame, path):
    """One JSON object of float lists, each float its shortest round-trip form.

    orjson encodes each float64 column in C; it takes only C-contiguous arrays.
    Imported here, so that `import hypersusy` does not pay for it.
    """
    import orjson

    cols = {k: np.ascontiguousarray(arr, dtype=float) for k, arr in frame.items()}
    with open(path, "wb") as fh:
        fh.write(orjson.dumps(cols, option=orjson.OPT_SERIALIZE_NUMPY))


_SVG_COLORS = {"V_upper": "#1f77b4", "V_partner": "#d62728", "W": "#2ca02c"}


def _svg_path(px, py):
    """The path data "M x0 y0 L x1 y1 ...", each coordinate as "%.2f".

    k = round(100 v) picks each v's digits from the tables (20 bytes a point, NULs masked out);
    a path with a v outside [10, 1000), or 100 v (error < 7.3e-12) within 1e-9 of a tie, is per value.
    """
    xy = np.column_stack([px, py])
    with np.errstate(invalid="ignore"):
        p = 100.0 * xy
        k = np.rint(p)
        fast = ((k >= 1000) & (k < 100000) & (np.abs(p - k) <= 0.5 - 1e-9)).all()
    if not fast:
        return "M " + " L ".join(["%.2f %.2f"] * len(xy)) % tuple(xy.ravel().tolist())
    _, whole, frac = _export_tables()
    q, f = np.divmod(k.astype(int), 100)
    sep = [int.from_bytes(b, "little") for b in (b"\0\0 \0", b"\0\0 L", b" \0\0\0")]
    buf = np.column_stack([whole[q[:, 0]], frac[f[:, 0]] | sep[0], whole[q[:, 1]],
                           frac[f[:, 1]] | sep[1], np.full(len(xy), sep[2])]).astype("<u4")
    buf = buf.view(np.uint8).ravel()
    return "M " + buf[buf != 0].tobytes().decode()[:-3]


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
        d = _svg_path(px[ok], py)
        color = _SVG_COLORS[name]
        parts.append(f'<path d="{d}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(
            f'<text x="{width - pad - 110}" y="{pad + 16 * (i + 1)}" '
            f'fill="{color}" font-size="13">{name}</text>'
        )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))
