"""One-parameter deformation of the factorization.

The general solution of the first-order Riccati equation behind the
factorization replaces the particular solution by

    psi_gamma = -tau/sigma - (m-1)/2 sigma'/sigma + sigma^m rho / (gamma + I_m)

with I_m the cumulative weight integral of sigma^m rho from the kind's base
point.  gamma ranges over two admissible rays determined by the endpoint
limits of I_m; the sentinel gamma = inf recovers the undeformed operators.
sigma, tau, sigma^m rho and sigma v_m are read from families.  All
derivatives here are analytic: I_m' = sigma^m rho needs no numeric
differentiation.

I_m on a grid is one sweep (cumulative_weight_sorted): the base point
joins the grid, every gap is integrated by Gauss-Legendre at two orders and
bisected where they disagree, and the gaps are summed outward from the base
point.  The endpoint limits behind the gamma rays reach the interval ends,
where the integrand may be singular, and stay with tanh-sinh quadrature.

A Deformation caches only its gamma rays, computed on first use since
gamma = inf needs none, its shift constant and its ladder polynomials; I_m
is recomputed per call, and the one module cache holds Gauss-Legendre nodes.
Threads racing on a cached value at worst compute it twice, so deformations
can be shared freely.

Every pointwise quantity takes points of any shape and returns that shape.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import families
from .errors import CutoffExceeded, InadmissibleGamma, IndexViolation, NonFinite, OutOfDomain
from .families import sigma_m_rho
from .numerics import quad
from .polynomials import DifferentiableValue, associated_function

_MARGIN = 1e-9
_GL_ORDERS = (10, 20)  # the two Gauss-Legendre orders compared on each gap
_BLOCK = 512           # gaps per vectorized integrand call (bounds peak memory)
_MAX_SPLITS = 8        # bisections of an unsettled gap before quad takes it


def cumulative_weight(fam, m, s, tol=1e-13):
    """I_m(s): integral of sigma^m rho from the base point to s."""
    fam.require_inside(s)
    return float(cumulative_weight_sorted(fam, m, [float(s)], tol)[0])


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


def _gap_integrals(fam, m, lo, hi, k, tol):
    """Integral of sigma^m rho over each gap [lo_i, hi_i]; the base point
    lies between gaps k-1 and k.

    Two Gauss-Legendre orders per gap.  A gap is settled when they agree to
    tol relative to I_m at its far edge, taken from the first estimates;
    sigma^m rho > 0, so that is the gap's share of the value returned there
    and no absolute floor enters.  Unsettled gaps are bisected, splitting
    their allowance, at most _MAX_SPLITS times; quad takes what is left and
    raises NoConvergence rather than return an unchecked value.
    """
    total = np.zeros(lo.size)
    owner = np.arange(lo.size)
    room = None
    for depth in range(_MAX_SPLITS + 1):
        coarse = _gauss(fam, m, lo, hi, _GL_ORDERS[0])
        fine = _gauss(fam, m, lo, hi, _GL_ORDERS[1])
        bad = ~np.isfinite(coarse + fine)
        if bad.any():
            raise NonFinite(f"sigma^m rho non-finite in the gaps starting at s={lo[bad][:3]}")
        if room is None:
            room = tol * np.abs(_outward_sums(fine, k))
        done = np.abs(fine - coarse) <= room
        np.add.at(total, owner[done], fine[done])
        lo, hi, owner, fine, room = (v[~done] for v in (lo, hi, owner, fine, room))
        if not lo.size or depth == _MAX_SPLITS:
            break
        mid = 0.5 * (lo + hi)
        lo, hi = np.concatenate((lo, mid)), np.concatenate((mid, hi))
        owner, room = np.tile(owner, 2), np.tile(0.5 * room, 2)
    # quad stops at tol * max(1, |value|); scaled so that this is the allowance r
    for a, b, i, v, r in zip(lo, hi, owner, fine, room):
        total[i] += quad(lambda t: sigma_m_rho(fam, m, t), a, b, tol=r / max(1.0, abs(v))).value
    return total


def cumulative_weight_sorted(fam, m, pts, tol=1e-13):
    """I_m at an ascending array of interior points, in one sweep.

    The base point joins the grid as one more edge and every gap comes from
    _gap_integrals.  Summing outward from the base point adds terms of one
    sign, so I_m keeps its relative accuracy next to the base point, where
    a running sum from pts[0] would cancel.
    """
    pts = np.asarray(pts, dtype=float)
    k = int(np.searchsorted(pts, fam.spec.base_point))
    edges = np.insert(pts, k, fam.spec.base_point)
    return _outward_sums(_gap_integrals(fam, m, edges[:-1], edges[1:], k, tol), k)


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
    """Admissible rays from the endpoint limits of the cumulative weight."""
    lo = endpoint_limit(fam, m, "lower")
    hi = endpoint_limit(fam, m, "upper")
    right = -lo if math.isfinite(lo) else math.inf
    left = -hi if math.isfinite(hi) else -math.inf
    return GammaRays(right_start=right, left_end=left)


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

    @functools.cached_property
    def rays(self):
        """Admissible gamma rays, computed on first use."""
        return gamma_rays(self.family, self.m)

    @functools.cached_property
    def shift_constant(self):
        """c = delta/(2m + 2k + 1), exact in the exact lane; 0 without delta."""
        if self.delta is None:
            return 0
        return families.shift_constant(self.family, self.m, self.delta)

    @functools.cached_property
    def ladder_polys(self):
        """(sigma, sigma'/2, tau, {k: sigma v_k for k = m, m + 1}), built on first use."""
        sig, sp, tau = self.family.polys
        pots = {k: families.sigma_potential(self.family, k) for k in (self.m, self.m + 1)}
        return sig, sp * Fraction(1, 2), tau, pots

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
    and its derivative are 0 at gamma = inf.
    """
    fam, m = defm.family, defm.m
    s = np.asarray(s, dtype=float)
    fam.require_inside(s)
    sig, sp, tau = fam.sigma(s), fam.sigma_prime(s), fam.tau(s)
    spp = 2.0 * fam.sigma_lead
    g = gp = 0.0
    if defm.gamma != math.inf:
        flat = s.ravel()
        order = np.argsort(flat)
        i_vals = np.empty_like(flat)
        i_vals[order] = cumulative_weight_sorted(fam, m, flat[order])
        den = defm.gamma + i_vals.reshape(s.shape)
        if np.any(np.abs(den) < _MARGIN):
            raise InadmissibleGamma(
                f"gamma + I_m(s) vanishes within the margin near gamma={defm.gamma}"
            )
        g = sigma_m_rho(fam, m, s) / den
        gp = g * ((m - 1) * sp + tau) / sig - g * g
    d_ratio = (spp * sig - sp * sp) / (sig * sig)  # (sigma'/sigma)'
    psi = -tau / sig - (m - 1) / 2.0 * sp / sig + g
    psi_p = -(float(fam.alpha) * sig - tau * sp) / (sig * sig) - (m - 1) / 2.0 * d_ratio + gp
    phi = -m / 2.0 * sp / sig + g
    phi_p = -m / 2.0 * d_ratio + gp
    return psi, psi_p, phi, phi_p


def psi(defm, s):
    """General Riccati solution and its analytic derivative at s."""
    p, pp, _, _ = psi_phi_arrays(defm, s)
    return DifferentiableValue(p, pp)


def phi(defm, s):
    """Companion gauge function phi = psi + tau/sigma - kappa'/kappa at s."""
    _, _, q, qp = psi_phi_arrays(defm, s)
    return DifferentiableValue(q, qp)


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


def apply_b(defm, s, fv, which="b"):
    """First-order deformed maps on fv = (f, f') at s of any shape.

    b      : kappa * (d/ds + phi)   (+ the constant shift when delta is set)
    b_plus : kappa * (-d/ds + psi)  (+ the same constant)
    """
    if which not in ("b", "b_plus"):
        raise ValueError("which must be 'b' or 'b_plus'")
    p, _, q, _ = psi_phi_arrays(defm, s)
    kap, c = defm.family.kappa(s), float(defm.shift_constant)
    if which == "b":
        return kap * (fv.deriv + q * fv.value) + c * fv.value
    return kap * (-fv.deriv + p * fv.value) + c * fv.value


def partner_potential(defm, s):
    """Zeroth-order term of the deformed partner operator at s.

    Expansion of kappa(-D+psi) kappa(D+phi) + lambda_m in the form
    -sigma D^2 - tau D + v keeps the first-order coefficient at -tau
    because sigma(phi - psi) + kappa kappa' = tau; when delta is active the
    two constant shifts add delta * c * kappa (phi + psi) on top (the shifted
    eigenvalue absorbs the c^2 delta^2 piece).
    """
    fam = defm.family
    s = np.asarray(s, dtype=float)
    p, _, q, qp = psi_phi_arrays(defm, s)
    sig, sp = fam.sigma(s), fam.sigma_prime(s)
    v = sig * p * q - sig * qp - sp / 2.0 * q + float(families.eigenvalue(fam, defm.m))
    if defm.delta is not None:
        v += float(defm.shift_constant) * fam.kappa(s) * (p + q)
    return v


def partner_eigenfunction(defm, l):
    """s -> b_plus applied to the order-(m+1) associated function, with its derivative.

    The callable returns DifferentiableValue(u, u') shaped like s, with
    u = kappa(-f' + psi f) + c f for the order-(m+1) associated function f
    at level l; f' and f'' come from its polynomial and psi' from
    psi_phi_arrays, so both are analytic.
    """
    fam, m = defm.family, defm.m
    if not (m < l and families.below_cutoff(fam, l)):
        raise OutOfDomain(f"partner eigenfunction needs m < l < cutoff, got l={l}")
    af = associated_function(fam, l, m + 1)

    def both(s):
        s = np.asarray(s, dtype=float)
        p, pp, _, _ = psi_phi_arrays(defm, s)
        f, fp, fpp = af.derivatives(s)
        kap, kap_p, c = fam.kappa(s), fam.kappa_prime(s), float(defm.shift_constant)
        body = -fp + p * f
        return DifferentiableValue(
            kap * body + c * f, kap_p * body + kap * (-fpp + pp * f + p * fp) + c * fp
        )

    return both
