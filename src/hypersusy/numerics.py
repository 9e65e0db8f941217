"""Independent numerical back ends.

Two oracles live here: an adaptive tanh-sinh (double-exponential)
quadrature that tolerates integrable endpoint singularities and maps
infinite endpoints through the same transformation, and a finite-difference
eigensolver for -d^2/dx^2 + V(x) with Dirichlet walls.  Neither consumes
anything from the operator algebra in the rest of the package, so their
output can certify spectra and inner products computed analytically
elsewhere.  The one bridge is verify_spectrum, which hands the solver a
partner-pair potential from schrodinger.potentials and matches its output
against the closed-form eigenvalues.  derivative, a Richardson-extrapolated
central difference, is what tests hold analytic derivatives against.

Within the package, tanh-sinh serves the integrals that run to an interval
end, where integrands may be singular: the endpoint limits of the cumulative
weight behind the gamma rays, norms and Gram matrices, and the catalog's
reference integrals.  The cumulative weight on a grid uses Gauss-Legendre
on the gaps between grid points instead (riccati.cumulative_weight_sorted)
and calls quad only for a gap that bisection does not settle.

Integrands and potentials are called with numpy arrays and must evaluate
elementwise.  An integrand may also return stacked rows, shape (k, n) for
the n nodes of a level: quad then integrates all k rows in one pass over
the same nodes, as the Gram matrices of the polynomials module do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GridTooCoarse, NoConvergence, NonFinite

_T_CUT = 6.56      # |t| beyond this every double-exponential weight underflows
_Y_CLIP = 345.0    # keep exp(2y) finite while distances stay > 0
_MAX_LEVEL = 12    # quad's last refinement level: step 2^-12
_MATCH_WINDOW = 0.05  # match_targets' relative window


@dataclass(frozen=True)
class QuadratureResult:
    """Value, last refinement difference, and number of integrand samples.

    ``value`` is a float, or a length-k array for an integrand that returns k
    stacked rows; ``error_estimate`` is then the worst row's difference and
    ``panels`` counts nodes, not rows times nodes.
    """

    value: float | np.ndarray
    error_estimate: float
    panels: int


def _transform(t, a, b):
    """Map tanh-sinh abscissae t to nodes and weights on the open (a, b).

    Returns (x, dxdt).  Endpoint distances are computed directly so nodes
    never collide with a finite endpoint, which keeps integrable endpoint
    singularities evaluable.
    """
    y = np.clip(0.5 * math.pi * np.sinh(t), -_Y_CLIP, _Y_CLIP)
    cosh_t = np.cosh(t)
    if math.isinf(a) and math.isinf(b):
        x = np.sinh(y)
        dxdt = 0.5 * math.pi * cosh_t * np.cosh(y)
    elif math.isinf(b):
        x = a + np.exp(y)
        dxdt = 0.5 * math.pi * cosh_t * np.exp(y)
    elif math.isinf(a):
        x = b - np.exp(-y)
        dxdt = 0.5 * math.pi * cosh_t * np.exp(-y)
    else:
        half = 0.5 * (b - a)
        e2y = np.exp(2.0 * y)
        dist_b = 2.0 * half / (e2y + 1.0)
        dist_a = 2.0 * half * e2y / (e2y + 1.0)
        x = np.where(t > 0, b - dist_b, a + dist_a)
        sech = 2.0 / (np.exp(y) + np.exp(-y))
        dxdt = half * 0.5 * math.pi * cosh_t * sech * sech
    return x, dxdt


def _level_nodes(a, b, level):
    """Step h and the usable nodes and weights of one level on (a, b).

    Nodes that round onto a finite endpoint, or whose weight underflows,
    are dropped.
    """
    h = 1.0 / 2 ** level
    k = np.arange(-int(_T_CUT / h), int(_T_CUT / h) + 1)
    with np.errstate(over="ignore", under="ignore"):
        x, dxdt = _transform(k * h, a, b)
    keep = (dxdt > 0.0) & np.isfinite(x)
    if a > -math.inf:
        keep &= x > a
    if b < math.inf:
        keep &= x < b
    return h, x[keep], dxdt[keep]


def quad(f, a, b, tol=1e-12):
    """Integrate f over the open interval (a, b).

    The interval is mapped by the double-exponential transformation; the
    trapezoid step is halved per level until two successive levels agree to
    ``tol * max(1, |I|)``.  Infinite endpoints use the exp/sinh variants of
    the same map.  For an integrand with stacked rows every row must meet
    that rule at the same level, and the value is one entry per row.

    Raises NoConvergence when _MAX_LEVEL refinements do not settle and
    NonFinite when the integrand returns a non-finite value at a node.
    """
    if a == b:
        return QuadratureResult(_as_value(np.zeros(np.shape(f(np.empty(0)))[:-1])), 0.0, 0)
    orient = 1.0
    if a > b:
        a, b, orient = b, a, -1.0

    evals = 0
    prev = None
    value = math.nan
    for level in range(_MAX_LEVEL + 1):
        h, x, dxdt = _level_nodes(a, b, level)
        fx = np.asarray(f(x), dtype=float)
        bad = ~np.isfinite(fx)
        if bad.any():
            at = x[bad.reshape(-1, x.size).any(axis=0)]
            raise NonFinite(f"integrand non-finite at x={at[:3]}")
        with np.errstate(over="ignore", under="ignore"):
            value = h * np.sum(fx * dxdt, axis=-1)
        evals += x.size
        if prev is not None and np.all(np.isfinite(value)) and np.all(np.isfinite(prev)):
            diff = np.abs(value - prev)
            if np.all(diff <= tol * np.maximum(1.0, np.abs(value))):
                return QuadratureResult(_as_value(orient * value), float(np.max(diff)), evals)
        prev = value
    raise NoConvergence(
        f"tanh-sinh did not converge on ({a}, {b}) after {_MAX_LEVEL} levels "
        f"(last value {_as_value(value)!r})"
    )


def _as_value(v):
    """A float for a one-row integrand, the array of row values otherwise."""
    return float(v) if np.ndim(v) == 0 else v


def fixed_level_quad(f, a, b, level):
    """Single-level tanh-sinh value; used to probe the convergence order."""
    h, x, dxdt = _level_nodes(a, b, level)
    return h * float(np.sum(np.asarray(f(x), dtype=float) * dxdt))


def derivative(f, x, order=1, h0=0.1, levels=3):
    """Central-difference derivative with Richardson extrapolation in h^2.

    order=1 gives f', order=2 gives f''.  ``levels`` rows of the Richardson
    table are built from steps h0, h0/2, ...; three levels of the three-point
    second difference reproduce (and extend) the classical five-point stencil.
    """
    est = []
    for i in range(levels):
        h = h0 / 2 ** i
        if order == 1:
            est.append((f(x + h) - f(x - h)) / (2.0 * h))
        else:
            est.append((f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h))
    for j in range(1, levels):
        fac = 4.0 ** j
        est = [(fac * est[i + 1] - est[i]) / (fac - 1.0) for i in range(len(est) - 1)]
    return est[0]


def fd_spectrum(potential, x_min, x_max, n, n_states, tol=1e-3, richardson=True):
    """Lowest eigenvalues of -d^2/dx^2 + V with Dirichlet walls.

    ``potential`` is a callable evaluated on the interior nodes of the
    uniform n-point grid on [x_min, x_max]; the operator becomes a symmetric
    tridiagonal matrix (three-point second difference plus diag V) whose
    lowest eigenvalues come from the standard bisection/inverse-iteration
    routine.  With richardson=True the solve is repeated at doubled
    resolution and the two h^2-accurate results are combined; if they
    disagree by more than 10*tol the grid is rejected as too coarse.
    """
    if n < 200:
        raise ValueError("fd_spectrum needs at least 200 grid points")
    # imported here: scipy.linalg is most of the package's import time
    from scipy.linalg import eigh_tridiagonal

    def eigs(npts):
        x = np.linspace(x_min, x_max, npts)
        v = np.asarray(potential(x[1:-1]), dtype=float)
        if not np.all(np.isfinite(v)):
            raise NonFinite("potential non-finite on the grid interior")
        h = x[1] - x[0]
        d = 2.0 / (h * h) + v
        e = np.full(npts - 3, -1.0 / (h * h))
        return eigh_tridiagonal(
            d, e, eigvals_only=True, select="i", select_range=(0, n_states - 1)
        )

    lam = eigs(n)
    if not richardson:
        return lam
    lam2 = eigs(2 * n - 1)
    gap = float(np.max(np.abs(lam2 - lam) / (1.0 + np.abs(lam2))))
    if gap > 10.0 * tol:
        raise GridTooCoarse(
            f"resolutions n={n} and n={2 * n - 1} disagree by {gap:.3e} "
            f"(> {10.0 * tol:.1e})"
        )
    return (4.0 * lam2 - lam) / 3.0


@dataclass
class SpectralReport:
    """Finite-difference eigenvalues matched against closed-form targets."""

    grid: tuple
    eigenvalues: list
    targets: list
    matched: list = field(default_factory=list)
    extras: list = field(default_factory=list)
    missing: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.missing

    @property
    def max_residual(self):
        if not self.matched:
            return math.inf
        return max(m["residual"] for m in self.matched)

    def to_json(self):
        return {
            "grid": {"x_min": self.grid[0], "x_max": self.grid[1], "n": self.grid[2]},
            "eigenvalues": list(self.eigenvalues),
            "targets": list(self.targets),
            "matched": list(self.matched),
            "extras": list(self.extras),
            "missing": list(self.missing),
        }


def match_targets(eigenvalues, targets):
    """Greedy nearest-eigenvalue matching within 0.05*(1+|target|) windows."""
    matched, missing = [], []
    used = set()
    for target in targets:
        window = _MATCH_WINDOW * (1.0 + abs(target))
        best, best_gap = None, window
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
            matched.append(
                {
                    "target": float(target),
                    "found": float(eigenvalues[best]),
                    "residual": float(abs(eigenvalues[best] - target)),
                }
            )
    band = max(targets) if targets else -math.inf
    band += _MATCH_WINDOW * (1.0 + abs(band))
    extras = [
        float(lam)
        for i, lam in enumerate(eigenvalues)
        if i not in used and lam <= band
    ]
    return matched, extras, missing


def verify_spectrum(defm, which, n_levels, x_min, x_max, n, tol=1e-3):
    """Run the FD oracle on a partner-pair potential and match the spectrum.

    ``which`` selects the upper operator potential or the deformed partner.
    Targets are the closed-form eigenvalues for levels m+1 .. m+n_levels
    (shift-corrected when the deformation carries delta).  Extra eigenvalues
    below the target band are reported, never asserted.
    """
    from . import schrodinger

    if which not in ("upper", "partner"):
        raise ValueError("which must be 'upper' or 'partner'")

    targets = [defm.eigenvalue(l) for l in range(defm.m + 1, defm.m + 1 + n_levels)]

    def potential(xs):
        vu, vp = schrodinger.potentials(defm, xs)
        return vu if which == "upper" else vp

    lams = fd_spectrum(potential, x_min, x_max, n, n_levels + 6, tol=tol)
    matched, extras, missing = match_targets(lams, targets)
    return SpectralReport(
        grid=(x_min, x_max, n),
        eigenvalues=[float(v) for v in lams],
        targets=targets,
        matched=matched,
        extras=extras,
        missing=missing,
    )
