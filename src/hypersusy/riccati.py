"""One-parameter deformation of the factorization.

The general solution of the first-order Riccati equation behind the
factorization replaces the particular solution by

    psi_gamma = -tau/sigma - (m-1)/2 sigma'/sigma + sigma^m rho / (gamma + I_m)

with I_m the cumulative weight integral of sigma^m rho from the kind's base
point.  gamma ranges over two admissible rays determined by the endpoint
limits of I_m; the sentinel gamma = inf recovers the undeformed operators.
sigma, tau, the sigma quotients, sigma^m rho and sigma v_m are read from
families.  All derivatives here are analytic: I_m' = sigma^m rho needs no
numeric differentiation.

I_m is one sweep (cumulative_weight_sorted): the base point joins the
grid, every gap is integrated by Gauss-Legendre at two orders, a gap where
they disagree goes to tanh-sinh quadrature behind a half-ulp precision
floor, and the gaps are summed outward from the base point.  The endpoint
limits behind the gamma rays reach the interval ends, where the integrand
may be singular, and stay with tanh-sinh quadrature.

gamma_rays runs once per Family instance and order, on first use since
gamma = inf needs none, and the family keeps the result (Family.ray_memo),
so every deformation of that family and order shares it.  A Deformation
caches only its shift constant and its ladder stencils; I_m is
recomputed per call, and the one module cache holds Gauss-Legendre nodes.
Threads racing on a cached value at worst compute it twice, so families and
deformations can be shared freely.

Every pointwise quantity takes points of any shape and returns that shape.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import families
from .errors import (CutoffExceeded, InadmissibleGamma, IndexViolation, NoConvergence,
                     NonFinite, OutOfDomain)
from .families import sigma_m_rho
from .numerics import quad
from .polynomials import DifferentiableValue, associated_function

_MARGIN = 1e-9
_TOL = 1e-13           # a gap's allowance, relative to I_m at its far edge
_GL_ORDERS = (10, 20)  # the two Gauss-Legendre orders compared on each gap
_BLOCK = 512           # gaps per vectorized integrand call (bounds peak memory)


def cumulative_weight(fam, m, s):
    """I_m(s), the integral of sigma^m rho from the base point to s, at
    points of any shape and order; a float for a scalar s."""
    s = np.asarray(s, dtype=float)
    fam.require_inside(s)
    order = np.argsort(s, axis=None)
    out = np.empty(s.size)
    out[order] = cumulative_weight_sorted(fam, m, s.ravel()[order])
    return float(out[0]) if s.ndim == 0 else out.reshape(s.shape)


@functools.cache
def _gauss_legendre(n):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Newton iteration on the three-term recurrence, started from the
    Tricomi estimate; numpy.polynomial is not imported for this.
    """
    def legendre(x):  # P_n(x) and (1 - x^2) P_n'(x)
        p_prev, p = np.ones_like(x), x
        for k in range(2, n + 1):
            p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
        return p, n * (p_prev - x * p)

    x = np.cos(math.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(100):
        p, q = legendre(x)
        step = p * (1.0 - x) * (1.0 + x) / q
        x = x - step
        if np.max(np.abs(step)) <= 1e-15:
            break
    q = legendre(x)[1]
    w = 2.0 * (1.0 - x) * (1.0 + x) / (q * q)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _gauss(fam, m, lo, hi, order):
    """order-point Gauss-Legendre value of sigma^m rho on each [lo_i, hi_i]."""
    x, w = _gauss_legendre(order)
    out = np.empty(lo.size)
    for i in range(0, lo.size, _BLOCK):
        a, b = lo[i:i + _BLOCK, None], hi[i:i + _BLOCK, None]
        half = 0.5 * (b - a)
        out[i:i + _BLOCK] = (half * sigma_m_rho(fam, m, a + half * (1.0 + x))) @ w
    return out


def _outward_sums(gaps, k):
    """Signed sums of the gaps from the base point, which lies between gaps
    k-1 and k, out to each gap's far edge: I_m at the grid points."""
    return np.concatenate((-np.cumsum(gaps[:k][::-1])[::-1], np.cumsum(gaps[k:])))


def cumulative_weight_sorted(fam, m, pts):
    """I_m at an ascending array of interior points, in one sweep.

    The base point joins the grid as one more edge.  A gap is settled when
    its two Gauss-Legendre values agree to _TOL relative to I_m at its far
    edge; sigma^m rho > 0, so that is the gap's share of the value returned
    there and no absolute floor enters.  An unsettled gap goes to quad with
    that allowance, unless half an ulp at its two ends carries more mass:
    a tanh-sinh node that close rounds onto the end and is dropped, so it
    raises NoConvergence first.  Summing outward from the base point adds
    terms of one sign, so I_m keeps its relative accuracy next to the base
    point, where a running sum from pts[0] would cancel.
    """
    pts = np.asarray(pts, dtype=float)
    k = int(np.searchsorted(pts, fam.spec.base_point))
    edges = np.insert(pts, k, fam.spec.base_point)
    lo, hi = edges[:-1], edges[1:]
    coarse, fine = (_gauss(fam, m, lo, hi, order) for order in _GL_ORDERS)
    bad = ~np.isfinite(coarse + fine)
    if bad.any():
        raise NonFinite(f"sigma^m rho non-finite in the gaps starting at s={lo[bad][:3]}")
    room = _TOL * np.abs(_outward_sums(fine, k))
    for i in np.flatnonzero(np.abs(fine - coarse) > room):
        ends = edges[i:i + 2]
        floor = float(sigma_m_rho(fam, m, ends) @ np.abs(np.spacing(ends))) / 2.0
        if floor > room[i]:
            raise NoConvergence(f"I_m on the gap [{lo[i]!r}, {hi[i]!r}] must be within "
                                f"{room[i]:.3g}; half an ulp at its ends holds {floor:.3g}")
        # quad stops at tol * max(1, |value|); scaled so that this is room[i]
        tol = room[i] / max(1.0, abs(fine[i]))
        fine[i] = quad(lambda t: sigma_m_rho(fam, m, t), lo[i], hi[i], tol=tol).value
    return _outward_sums(fine, k)


def _endpoint_diverges(fam, m, endpoint):
    """Closed-form test of whether the cumulative weight diverges there.

    Unless an exponential factor decays at the end, sigma^m rho behaves as
    |s - end|^p at a finite end and as |s|^p at an infinite one, so I_m
    diverges for p <= -1 and p >= -1 respectively (families.End).
    """
    i = 0 if endpoint == "lower" else 1
    m_coef, a2, b2, c, da, db = fam.spec.ends[i]
    al, be = float(fam.alpha), float(fam.beta)
    if da * al + db * be < 0:
        return False
    p = m_coef * m + (a2 * al + b2 * be) / 2.0 + c
    return p >= -1.0 if math.isinf(fam.interval[i]) else p <= -1.0


def endpoint_limit(fam, m, endpoint):
    """Limit of I_m at an endpoint: tail quadrature, or +-inf on divergence."""
    a, b = fam.interval
    if _endpoint_diverges(fam, m, endpoint):
        return -math.inf if endpoint == "lower" else math.inf
    target = a if endpoint == "lower" else b
    return quad(lambda t: sigma_m_rho(fam, m, t), fam.spec.base_point, target, tol=1e-12).value


@dataclass(frozen=True)
class GammaRays:
    """Admissible gamma set {gamma > right_start} U {gamma < left_end}.

    right_start = -I_m(a+) and left_end = -I_m(b-); an infinite limit
    empties the corresponding ray.
    """

    right_start: float
    left_end: float

    def contains(self, gamma):
        if gamma == math.inf:
            return True
        if math.isfinite(self.right_start) and gamma >= self.right_start + _MARGIN:
            return True
        if math.isfinite(self.left_end) and gamma <= self.left_end - _MARGIN:
            return True
        return False

    def describe(self):
        parts = []
        if math.isfinite(self.right_start):
            parts.append(f"gamma > {self.right_start:.6g}")
        if math.isfinite(self.left_end):
            parts.append(f"gamma < {self.left_end:.6g}")
        return " or ".join(parts) if parts else "only gamma = inf"

    def to_json(self):
        return {"right_start": families.json_number(self.right_start),
                "left_end": families.json_number(self.left_end)}


def gamma_rays(fam, m):
    """Admissible rays from the endpoint limits of the cumulative weight,
    computed once per Family instance and order (Family.ray_memo)."""
    if m not in fam.ray_memo:
        lo = endpoint_limit(fam, m, "lower")
        hi = endpoint_limit(fam, m, "upper")
        right = -lo if math.isfinite(lo) else math.inf
        left = -hi if math.isfinite(hi) else -math.inf
        fam.ray_memo[m] = GammaRays(right_start=right, left_end=left)
    return fam.ray_memo[m]


@dataclass(frozen=True)
class Deformation:
    """One order-m factorization, deformed by gamma and shifted by delta.

    gamma = inf is the undeformed factorization, the context of the exact
    ladder algebra (ladder.make_context).
    """

    family: families.Family
    m: int
    gamma: float
    delta: object = None

    @property
    def rays(self):
        """Admissible gamma rays, computed on first use and kept by the family."""
        return gamma_rays(self.family, self.m)

    @functools.cached_property
    def shift_constant(self):
        """c = delta/(2m + 2k + 1), exact in the exact lane; 0 without delta."""
        if self.delta is None:
            return 0
        return families.shift_constant(self.family, self.m, self.delta)

    @functools.cached_property
    def ladder_polys(self):
        """(D, sigma, sigma'/2, tau, {k: sigma (v_k - lambda_m) for k = m, m + 1}).

        Built on first use, lambda_m the (shifted) factorization energy: width-3
        coefficient stencils (degree <= 2), integer numerators over one positive
        integer D when the family and lambda_m are exact, else floats and D None.
        """
        sig, sp, tau = self.family.polys
        orders = (self.m, self.m + 1)
        lam = families.shifted_eigenvalue(self.family, self.m, self.delta)
        polys = [sig, sp * Fraction(1, 2), tau,
                 *[families.sigma_potential(self.family, k) - sig * lam for k in orders]]
        if all(p.den is not None for p in polys):
            den = math.lcm(*[p.den for p in polys])
            rows = [[x * (den // p.den) for x in p.nums] for p in polys]
        else:
            den, rows = None, [list(p._floats()) for p in polys]
        sig, half, tau, *pots = [tuple(r + [0] * (3 - len(r))) for r in rows]
        return den, sig, half, tau, dict(zip(orders, pots))

    def eigenvalue(self, level):
        """lambda_level, shift-corrected when delta is active."""
        return float(families.shifted_eigenvalue(self.family, level, self.delta))

    @property
    def lambda_base(self):
        return self.eigenvalue(self.m)

    def to_json(self):
        return {
            "family": self.family.to_json(),
            "m": self.m,
            "gamma": families.json_number(self.gamma),
            "s0": self.family.spec.base_point,
            "delta": None if self.delta is None else families.json_number(self.delta),
        }

    @classmethod
    def from_json(cls, obj):
        fam = families.Family.from_json(obj["family"])
        gamma = float(families.from_json_number(obj["gamma"]))
        return make_deformation(fam, obj["m"], gamma, families.from_json_number(obj.get("delta")))


def make_deformation(fam, m, gamma, delta=None):
    """Validated deformation; gamma must avoid the forbidden interval."""
    if not isinstance(m, int) or m < 0:
        raise IndexViolation(f"order must be a non-negative integer, got {m!r}")
    if not families.below_cutoff(fam, m + 1):
        raise CutoffExceeded(f"deformation needs m+1 below the cutoff, got m={m}")
    if delta is not None:
        families.shift_constant(fam, m, delta)  # validates the shift
    if gamma == -math.inf:
        raise InadmissibleGamma(
            "gamma=-inf is not admissible; the undeformed operators are gamma=inf"
        )
    defm = Deformation(fam, m, gamma, delta)
    if gamma != math.inf and not defm.rays.contains(gamma):
        raise InadmissibleGamma(
            f"gamma={gamma} is not admissible; admissible rays: {defm.rays.describe()}"
        )
    return defm


# --- pointwise machinery ----------------------------------------------------

def psi_phi_arrays(defm, s):
    """(psi, psi', phi, phi') at interior points of any shape.

    The one derivation of the deformed first-order quantities: b, b_plus,
    the partner potential, partner eigenfunctions and the superpotential
    W(x) all read it.  The deformation term g = sigma^m rho/(gamma + I_m)
    and its derivative are 0 at gamma = inf.  sigma enters only in quotients
    (Family.sigma_ratios, tau/sigma), finite until sigma itself overflows.
    """
    fam, m = defm.family, defm.m
    s = np.asarray(s, dtype=float)
    fam.require_inside(s)
    sig = fam.sigma(s)
    ratio, d_ratio = fam.sigma_ratios(s)
    t = fam.tau(s) / sig
    g = gp = 0.0
    if defm.gamma != math.inf:
        den = defm.gamma + cumulative_weight(fam, m, s)
        if np.any(np.abs(den) < _MARGIN):
            raise InadmissibleGamma("gamma + I_m(s) vanishes within the margin near "
                                    f"gamma={defm.gamma}")
        g = sigma_m_rho(fam, m, s) / den
        gp = g * ((m - 1) * ratio + t) - g * g
    psi = -t - (m - 1) / 2.0 * ratio + g
    psi_p = -(float(fam.alpha) / sig - t * ratio) - (m - 1) / 2.0 * d_ratio + gp
    phi = -m / 2.0 * ratio + g
    phi_p = -m / 2.0 * d_ratio + gp
    return psi, psi_p, phi, phi_p


def riccati_residual(defm, points):
    """max |psi' + psi^2 + (tau/sigma) psi - (v_{m+1} - lambda_m)/sigma|."""
    fam, m = defm.family, defm.m
    pts = np.asarray(points, dtype=float)
    p, pp, _, _ = psi_phi_arrays(defm, pts)
    sig, tau = fam.sigma(pts), fam.tau(pts)
    v_next = families.potential_term(fam, m + 1, pts)
    lam = float(families.eigenvalue(fam, m))
    res = pp + p * p + tau / sig * p - (v_next - lam) / sig
    return float(np.max(np.abs(res)))


def apply_b(defm, s, derivs, which="b"):
    """DifferentiableValue(u, u') of a first-order deformed map on derivs =
    (f, f', f'') (AssociatedFunction.derivatives) at s of any shape.

    b      : kappa * (d/ds + phi)   (+ the constant shift when delta is set)
    b_plus : kappa * (-d/ds + psi)  (+ the same constant)
    """
    if which not in ("b", "b_plus"):
        raise ValueError("which must be 'b' or 'b_plus'")
    fam = defm.family
    f, fp, fpp = derivs
    p, pp, q, qp = psi_phi_arrays(defm, s)
    sign, h, hp = (1.0, q, qp) if which == "b" else (-1.0, p, pp)
    kap, kap_p, c = fam.kappa(s), fam.kappa_prime(s), float(defm.shift_constant)
    body = sign * fp + h * f
    return DifferentiableValue(kap * body + c * f,
                               kap_p * body + kap * (sign * fpp + hp * f + h * fp) + c * fp)


def partner_potential(defm, s):
    """Zeroth-order term of the deformed partner operator at s.

    Expansion of kappa(-D+psi) kappa(D+phi) + lambda_m in the form
    -sigma D^2 - tau D + v keeps the first-order coefficient at -tau
    because sigma(phi - psi) + kappa kappa' = tau; when delta is active the
    two constant shifts add delta * c * kappa (phi + psi) on top (the shifted
    eigenvalue absorbs the c^2 delta^2 piece).
    """
    fam = defm.family
    p, _, q, qp = psi_phi_arrays(defm, s)
    sig, sp = fam.sigma(s), fam.sigma_prime(s)
    v = sig * p * q - sig * qp - sp / 2.0 * q + float(families.eigenvalue(fam, defm.m))
    if defm.delta is not None:
        v += float(defm.shift_constant) * fam.kappa(s) * (p + q)
    return v


def partner_eigenfunction(defm, l):
    """s -> apply_b(..., "b_plus") on the order-(m+1) associated function at
    level l: DifferentiableValue(u, u') shaped like s."""
    if not (defm.m < l and families.below_cutoff(defm.family, l)):
        raise OutOfDomain(f"partner eigenfunction needs m < l < cutoff, got l={l}")
    af = associated_function(defm.family, l, defm.m + 1)
    return lambda s: apply_b(defm, s, af.derivatives(s), "b_plus")
