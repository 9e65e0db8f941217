"""Independent numerical back ends.

Two oracles live here: an adaptive tanh-sinh (double-exponential)
quadrature that tolerates integrable endpoint singularities and maps
infinite endpoints through the same transformation, and a finite-difference
eigensolver for -d^2/dx^2 + V(x) with Dirichlet walls, which bisects at
resolution n and refines at 2n-1 by Rayleigh-quotient iteration that a
Sturm count certifies (index bisection when it does not), and returns its
values with the Richardson gap and how the fine solve went (FDSolve).
Neither consumes anything from the operator algebra in the rest of the
package, so their output can certify spectra and inner products computed
analytically elsewhere.  The one bridge is verify_spectrum, which hands the
solver a partner-pair potential from schrodinger.potentials and matches
its output against the closed-form eigenvalues.

Within the package, tanh-sinh serves the integrals that run to an interval
end, where integrands may be singular: the endpoint limits of the cumulative
weight behind the gamma rays, norms and Gram matrices, and the catalog's
reference integrals (one stacked quad per grid).  The cumulative weight on
a grid uses a ladder of Gauss-Legendre orders on the gaps between grid
points instead (riccati.cumulative_weight_sorted) and calls quad only for
a gap where its two highest orders still differ.

The tanh-sinh levels nest, and quad evaluates each node once: its first
integrand call takes every node of level 4, ordered by the coarsest level
holding it, so one running sum gives the trapezoid sums of levels 0-4 at
the ends of their prefixes, and each later level evaluates only its new
odd nodes.  The (a, b)-free parts of each level's nodes, down to the
weights of each interval map, are built on first use and kept (_table).

Integrands and potentials are called with numpy arrays and must evaluate
elementwise.  An integrand may also return stacked rows, shape (k, n) for
the n nodes of a call: quad then integrates all k rows in one pass over
the same nodes, as the Gram matrices of the polynomials module do.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .errors import GridTooCoarse, NoConvergence, NonFinite

_T_CUT = 6.56      # |t| beyond this every double-exponential weight underflows
_Y_CLIP = 345.0    # keep exp(2y) finite while distances stay > 0
_FIRST = 4         # quad's first integrand call covers levels 0.._FIRST
_MAX_LEVEL = 12    # quad's last refinement level: step 2^-12
_MATCH_WINDOW = 0.05  # match_targets' relative window
_RQI_STEPS = 8     # Rayleigh-quotient steps per state; convergence is cubic
_RQI_SETTLED = 1e-15  # a quotient that moves less than this, relative, has settled


@dataclass(frozen=True)
class QuadratureResult:
    """Value, last refinement difference, and number of integrand samples.

    ``value`` is a float, or a length-k array for an integrand that returns k
    stacked rows; ``error_estimate`` is then the worst row's difference.
    ``panels`` counts each evaluated node once, as the levels nest: it is the
    node count of the stopping level, or of level _FIRST if quad stops sooner,
    and it counts nodes, not rows times nodes.
    """

    value: float | np.ndarray
    error_estimate: float
    panels: int


@functools.cache
def _table(level):
    """The (a, b)-free parts of the nodes t = k 2^-level, built on first use.

    The levels nest: the nodes of level L-1 are the even k of level L.  The
    table of level _FIRST holds every node of levels 0.._FIRST, a later one
    only its new odd k; ``first`` is the coarsest level holding each node,
    and the nodes are ordered by it, so each level's nodes are a prefix.
    """
    k = np.arange(-int(_T_CUT * 2 ** level), int(_T_CUT * 2 ** level) + 1)
    if level > _FIRST:
        k = k[k % 2 == 1]
    first = np.full(k.size, level)
    for coarser in range(level - 1, -1, -1):
        first[k % 2 ** (level - coarser) == 0] = coarser
    order = np.argsort(first, kind="stable")
    k, first = k[order], first[order]
    t = k / 2 ** level
    y = np.clip(0.5 * math.pi * np.sinh(t), -_Y_CLIP, _Y_CLIP)
    ey, emy, e2y, c = np.exp(y), np.exp(-y), np.exp(2.0 * y), 0.5 * math.pi * np.cosh(t)
    sech = 2.0 / (ey + emy)
    # a finite interval's node is its nearer end plus 2*half times this
    dist = np.where(t > 0, -1.0 / (e2y + 1.0), e2y / (e2y + 1.0))
    parts = (np.sinh(y), c * np.cosh(y), ey, c * ey, emy, c * emy, t > 0, dist, c * sech * sech,
             first)
    for p in parts:
        p.flags.writeable = False
    return parts


def _nodes(a, b, level):
    """Nodes x, weights dx/dt and coarsest levels of _table(level) on (a, b).

    Endpoint distances are computed directly so nodes never collide with a
    finite endpoint, which keeps integrable endpoint singularities
    evaluable; nodes that still round onto one, or whose weight underflows,
    are dropped.
    """
    sinh_y, w_both, ey, w_lo, emy, w_hi, upper, dist, w_finite, first = _table(level)
    if math.isinf(a) and math.isinf(b):
        x, dxdt = sinh_y, w_both
    elif math.isinf(b):
        x, dxdt = a + ey, w_lo
    elif math.isinf(a):
        x, dxdt = b - emy, w_hi
    else:
        half = 0.5 * (b - a)
        x, dxdt = np.where(upper, b, a) + 2.0 * half * dist, half * w_finite
    keep = (dxdt > 0.0) & np.isfinite(x) & (x > a) & (x < b)
    return x[keep], dxdt[keep], first[keep]


def _terms(f, x, dxdt):
    """f(x) dx/dt at the nodes, one row per stacked integrand row."""
    fx = np.asarray(f(x), dtype=float, order="C")
    bad = ~np.isfinite(fx)
    if bad.any():
        at = x[bad.reshape(-1, x.size).any(axis=0)]
        raise NonFinite(f"integrand non-finite at x={at[:3]}")
    with np.errstate(over="ignore", under="ignore"):
        return fx * dxdt


def quad(f, a, b, tol=1e-12):
    """Integrate f over the open interval (a, b).

    The interval is mapped by the double-exponential transformation; the
    trapezoid step is halved per level until two successive levels agree to
    ``tol * max(1, |I|)``.  Infinite endpoints use the exp/sinh variants of
    the same map.  Stacked rows stop together, when every row meets that
    rule, and give one value per row, summed exactly as that row alone.

    The levels nest, so no node is evaluated twice: the first integrand call
    takes every node of level _FIRST, whose prefixes give the sums of levels
    0.._FIRST in one running sum, and each later level evaluates only its new
    odd nodes and adds them to the total.

    Raises ValueError for a NaN bound before calling f, NoConvergence when
    _MAX_LEVEL levels do not settle and NonFinite for a non-finite f value.
    """
    if math.isnan(a) or math.isnan(b):
        raise ValueError(f"quad needs bounds that are not NaN, got a={a}, b={b}")
    orient = 1.0
    if a > b:
        a, b, orient = b, a, -1.0

    x, dxdt, first = _nodes(a, b, _FIRST)
    terms, evals = _terms(f, x, dxdt), x.size
    with np.errstate(over="ignore", under="ignore"):
        # one running sum, read where each level's prefix of the table ends
        totals = np.zeros((*terms.shape[:-1], x.size + 1))
        np.cumsum(terms, axis=-1, out=totals[..., 1:])
        totals = totals[..., np.searchsorted(first, np.arange(_FIRST + 1), side="right")]
        for level in range(_FIRST, _MAX_LEVEL + 1):
            if level > _FIRST:  # the previous level's total and this one's
                x, dxdt, _ = _nodes(a, b, level)
                new = totals[..., -1] + np.sum(_terms(f, x, dxdt), axis=-1)
                totals, evals = np.stack((totals[..., -1], new), axis=-1), evals + x.size
            values = totals / 2.0 ** np.arange(level + 1 - totals.shape[-1], level + 1)
            diff = np.abs(values[..., 1:] - values[..., :-1])
            ok = np.isfinite(diff) & (diff <= tol * np.maximum(1.0, np.abs(values[..., 1:])))
            ok = ok.reshape(-1, ok.shape[-1]).all(axis=0)  # every row, per level
            if ok.any():
                i = int(np.argmax(ok))
                return QuadratureResult(_as_value(orient * values[..., i + 1]),
                                        float(np.max(diff[..., i])), evals)
    raise NoConvergence(
        f"tanh-sinh did not converge on ({a}, {b}) after {_MAX_LEVEL} levels "
        f"(last value {_as_value(values[..., -1])!r})"
    )


def _as_value(v):
    """A float for a one-row integrand, the array of row values otherwise."""
    return float(v) if np.ndim(v) == 0 else v


class FDSolve(NamedTuple):
    """Extrapolated eigenvalues, Richardson gap, fine solve ("refined"/"bisected")."""

    values: np.ndarray
    gap: float
    fine_solve: str


def fd_spectrum(potential, x_min, x_max, n, e_max, tol=1e-3):
    """Eigenvalues at or below e_max of -d^2/dx^2 + V with Dirichlet walls.

    ``potential`` is called once, on the interior nodes of the uniform
    (2n-1)-point grid on [x_min, x_max], whose even nodes are the n-point
    grid.  The operator is a symmetric tridiagonal matrix: three-point
    second difference plus diag V.  At resolution n, LAPACK's stebz bisects
    the value window (min V, e_max] (min V is a strict lower bound, the
    second difference being positive definite); if the window is empty the
    lowest state alone is returned.  The same k states are refined at
    resolution 2n-1 by Rayleigh-quotient iteration from the coarse values
    (_rayleigh).  They stand if certified: more than twice the worst
    residual apart, and one count-only Sturm call finds exactly k
    eigenvalues up to the highest plus that margin; otherwise the k lowest
    are bisected by index.  The two h^2-accurate results are combined by
    index into an FDSolve, and a gap above 10*tol raises GridTooCoarse.
    """
    if n < 200:
        raise ValueError("fd_spectrum needs at least 200 grid points")
    if not math.isfinite(e_max):
        raise ValueError("fd_spectrum needs a finite e_max")
    if not (math.isfinite(x_min) and math.isfinite(x_max) and x_min < x_max):
        raise ValueError(f"fd_spectrum needs finite x_min < x_max, got {x_min}, {x_max}")
    # imported here: scipy.linalg is most of the package's import time
    from scipy.linalg import eigh_tridiagonal

    x = np.linspace(x_min, x_max, 2 * n - 1)
    v = np.asarray(potential(x[1:-1]), dtype=float)
    if not np.all(np.isfinite(v)):
        raise NonFinite("potential non-finite on the grid interior")

    def matrix(v, h):
        return 2.0 / (h * h) + v, np.full(v.size - 1, -1.0 / (h * h)), float(v.min())

    def lowest(d, e, k):
        return eigh_tridiagonal(d, e, eigvals_only=True, select="i", select_range=(0, k - 1))

    h = (x_max - x_min) / (n - 1)
    d, e, lo = matrix(v[1::2], h)
    lam = np.empty(0)
    if e_max > lo:  # stebz rejects an empty window (VL >= VU) on stderr
        lam = eigh_tridiagonal(d, e, eigvals_only=True, select="v", select_range=(lo, e_max))
    if lam.size == 0:
        lam = lowest(d, e, 1)
    d2, e2, lo2 = matrix(v, 0.5 * h)
    lam2, slack = _rayleigh(d2, e2, v, 0.5 * h, lam)
    top = lam2[-1] + slack  # stebz only counts when its tolerance spans the window
    certified = (np.all(np.diff(lam2) > slack) and math.isfinite(top)
                 and eigh_tridiagonal(d2, e2, eigvals_only=True, select="v",
                                      select_range=(lo2, top), tol=top - lo2).size == lam.size)
    if not certified:
        lam2 = lowest(d2, e2, lam.size)
    gap = float(np.max(np.abs(lam2 - lam) / (1.0 + np.abs(lam2))))
    if gap > 10.0 * tol:
        raise GridTooCoarse(f"resolutions n={n} and n={2 * n - 1} disagree by {gap:.3e} "
                            f"(> {10.0 * tol:.1e})")
    return FDSolve((4.0 * lam2 - lam) / 3.0, gap, "refined" if certified else "bisected")


def _rayleigh(diag, off, v, h, shifts):
    """Rayleigh-quotient iteration by dgtsv on T = -D^2 + diag(v), step h,
    whose diagonal is diag and off-diagonal off: one state per shift, each
    from one fixed seeded start (no symmetry makes it orthogonal to a state)
    and inverse-iteration steps at the shift itself, at least two and more
    until the quotient lies nearer the shift than half the distance to the
    nearest other shift, so that a start poor in the wanted state cannot
    pull the quotient to a neighbour.  The quotient is the cancellation-free form
    (sum v y^2 + (y_1^2 + y_N^2 + sum (dy)^2)/h^2)/sum y^2.  Returns the
    sorted quotients and twice the worst residual |Ty - rho y|, |y| = 1.
    """
    from scipy.linalg.lapack import dgtsv

    start = np.random.default_rng(0).standard_normal(v.size)
    rhos, worst = np.empty(len(shifts)), 0.0
    for i, shift in enumerate(shifts):
        y, rho = start, shift
        reach = 0.5 * min(np.abs(np.delete(shifts, i) - shift), default=math.inf)
        for step in range(_RQI_STEPS):
            own = step > 1 and abs(rho - shift) < reach
            z, info = dgtsv(off, diag - (rho if own else shift), off, y)[3:]
            if info != 0:  # the shift is an eigenvalue to working precision
                break
            y, prev = z / np.linalg.norm(z), rho
            dy = np.diff(y)
            kinetic = (y[0] ** 2 + y[-1] ** 2 + np.dot(dy, dy)) / (h * h)
            rho = (np.dot(v, y * y) + kinetic) / np.dot(y, y)
            if abs(rho - prev) <= _RQI_SETTLED * (1.0 + abs(rho)):
                break
        res = (diag - rho) * y + off[0] * np.convolve(y, [1.0, 0.0, 1.0])[1:-1]
        rhos[i], worst = rho, max(worst, float(np.linalg.norm(res)))
    return np.sort(rhos), 2.0 * worst


@dataclass
class SpectralReport:
    """Finite-difference eigenvalues matched against closed-form targets, with
    fd_spectrum's Richardson gap and fine solve ("refined" or "bisected")."""

    grid: tuple
    eigenvalues: list
    targets: list
    matched: list
    extras: list
    missing: list
    gap: float
    fine_solve: str

    @property
    def ok(self):
        return not self.missing

    @property
    def max_residual(self):
        if not self.matched:
            return math.inf
        return float(np.max([m["residual"] for m in self.matched]))

    def to_json(self):
        return {**asdict(self), "grid": dict(zip(("x_min", "x_max", "n"), self.grid))}


def match_band(targets):
    """Top of the band match_targets can use: the highest target's window edge.

    Each window's upper edge grows with its target, so no eigenvalue above
    the band can be matched or reported as an extra.
    """
    if not targets:
        raise ValueError("no targets to match")
    top = max(targets)
    return top + _MATCH_WINDOW * (1.0 + abs(top))


def match_targets(eigenvalues, targets):
    """Greedy nearest-eigenvalue matching within 0.05*(1+|target|) windows."""
    matched, missing, used = [], [], set()
    for target in targets:
        best, best_gap = None, _MATCH_WINDOW * (1.0 + abs(target))
        for i, lam in enumerate(eigenvalues):
            if i in used:
                continue
            gap = abs(lam - target)
            if gap <= best_gap:
                best, best_gap = i, gap
        if best is None:
            missing.append(target)
        else:
            used.add(best)
            found = eigenvalues[best]
            matched.append({"target": float(target), "found": float(found),
                            "residual": float(abs(found - target))})
    band = match_band(targets)
    extras = [float(lam) for i, lam in enumerate(eigenvalues) if i not in used and lam <= band]
    return matched, extras, missing


def verify_spectrum(defm, which, n_levels, x_min, x_max, n, tol=1e-3):
    """Run the FD oracle on a partner-pair potential and match the spectrum.

    ``which`` selects the upper operator potential or the deformed partner.
    Targets are the closed-form eigenvalues for levels m+1 .. m+n_levels
    (shift-corrected when the deformation carries delta).  The solver stops
    at match_band(targets), the highest eigenvalue matching can use; extra
    eigenvalues below that band are reported, never asserted.
    """
    from . import schrodinger

    if which not in ("upper", "partner"):
        raise ValueError("which must be 'upper' or 'partner'")
    if n_levels < 1:
        raise ValueError("verify_spectrum needs at least one level to check")

    targets = [defm.eigenvalue(l) for l in range(defm.m + 1, defm.m + 1 + n_levels)]

    def potential(xs):
        vu, vp = schrodinger.potentials(defm, xs)
        return vu if which == "upper" else vp

    solve = fd_spectrum(potential, x_min, x_max, n, match_band(targets), tol=tol)
    matched, extras, missing = match_targets(solve.values, targets)
    return SpectralReport((x_min, x_max, n), solve.values.tolist(), targets,
                          matched, extras, missing, solve.gap, solve.fine_solve)
