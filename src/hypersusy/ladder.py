"""First-order ladder maps and the second-order operators they factorize.

Operators act on formal sums of kappa-power terms, sum_j kappa^j * p_j(s)
with kappa = sqrt(sigma).  A form holds at most one slot per parity of j:
a term joins its parity's slot by folding onto the lower power,
kappa^(j+2i) p = kappa^j sigma^i p.  Every map sends a slot kappa^j p to one
slot by a closed form, in one pass over p's integer numerators against the
context's integer coefficient stencils (Deformation.ladder_polys), reduced
once, so every map is exact.  The context carries lambda_m, so it applies
H_k - lambda_m and the relations need no lambda term.
lower_order and apply_hamiltonian read their result off its one slot; H
lands on kappa^(m-2) and is divided by sigma once, so a nonzero remainder is
an algebra bug and raises DivisibilityFailure.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from . import families, riccati
from .errors import ContextMismatch, DivisibilityFailure, IndexViolation
from .polynomials import (
    AssociatedFunction,
    Poly,
    associated_function,
    poly_divmod,
    poly_eigenfunction,
)


def make_context(fam, m, delta=None):
    """Ladder context at order m: the undeformed (gamma = inf) Deformation.

    delta switches on the constant shift of the pure-power weights.
    """
    return riccati.make_deformation(fam, m, math.inf, delta)


def _pass(sig, g, n):
    """Numerators of sigma p' + g p from p's numerators n, in one fixed-width pass.

    g has degree <= 1 (it combines sigma'/2 and tau).  Output k is sig0 (k+1) n_(k+1) + sig1 k n_k + sig2 (k-1) n_(k-1)
    + g0 n_k + g1 n_(k-1), the terms in the order Poly products add them.
    """
    s0, s1, s2 = sig
    g0, g1 = g[0], g[1]
    d = [0, *[i * x for i, x in enumerate(n)], 0, 0]
    z = [0, *n, 0]
    return [s0 * c + s1 * b + s2 * a + (g0 * y + g1 * x)
            for a, b, c, x, y in zip(d, d[1:], d[2:], z, z[1:])]


def _conv(stencil, n):
    """Numerators of stencil * p from p's numerators n."""
    t0, t1, t2 = stencil
    z = [0, 0, *n, 0, 0]
    return [t0 * c + t1 * b + t2 * a for a, b, c in zip(z, z[1:], z[2:])]


def _first_order(polys, p, e, with_tau=False):
    """sigma p' + e (sigma'/2) p (+ tau p), the part every map applies to a slot p.

    polys = ctx.ladder_polys; (kappa^j p)' = kappa^(j-2) [sigma p' + j (sigma'/2) p].
    One pass over p's numerators and one reduction.
    """
    den, sig, half, tau, _ = polys
    g = [e * h + t for h, t in zip(half, tau)] if with_tau else [e * h for h in half]
    return Poly._canonical(_pass(sig, g, p.nums), den * p.den)


class KappaForm:
    """sum over j of kappa^j * poly_j, at most one slot per parity of j."""

    __slots__ = ("family", "terms")

    def __init__(self, family, terms=()):
        self.family = family
        self.terms = {}
        for j, p in terms:
            self._put(j, p)

    def _put(self, j, p):
        """Add kappa^j p, folding onto the lower power of its parity's slot."""
        k = next((k for k in self.terms if (k - j) % 2 == 0), None)
        if k is not None:
            q = self.terms.pop(k)
            if k < j:
                j, k, p, q = k, j, q, p
            for _ in range((k - j) // 2):
                q = q * self.family.polys[0]
            p = p + q
        if not p.is_zero:
            self.terms[j] = p

    @classmethod
    def from_assoc(cls, af):
        return cls(af.family, [(af.m, af.poly)])

    def __sub__(self, other):
        neg = [(j, -p) for j, p in other.terms.items()]
        return KappaForm(self.family, [*self.terms.items(), *neg])

    def max_abs(self):
        return max((p.max_abs() for p in self.terms.values()), default=0.0)


def residual(lhs, rhs):
    """Relative max-coefficient deviation between two kappa forms; 0 only if they are equal."""
    diff = lhs - rhs
    if not diff.terms:
        return 0.0
    return max(diff.max_abs() / max(lhs.max_abs(), rhs.max_abs(), 1.0), math.ulp(0.0))


# --- the operators ---------------------------------------------------------
#
# Each map sends each slot kappa^j p of u to one slot.  A shifted context
# (delta set) adds c*u to the first-order maps and -delta*kappa'*u =
# -delta kappa^(j-1) (sigma'/2) p to H, each in the other parity's slot.

def _apply_raise(ctx, u):
    """kappa (d/ds - m kappa'/kappa) (+ c): kappa^(j-1) [sigma p' + (j-m) (sigma'/2) p]."""
    polys = ctx.ladder_polys
    out = [(j - 1, _first_order(polys, p, j - ctx.m)) for j, p in u.terms.items()]
    if ctx.delta is not None:
        out += [(j, p * ctx.shift_constant) for j, p in u.terms.items()]
    return KappaForm(ctx.family, out)


def _apply_lower(ctx, u):
    """kappa (-d/ds - tau/sigma - (m-1) kappa'/kappa) (+ c).

    -kappa^(j-1) [sigma p' + (j+m-1) (sigma'/2) p + tau p] on each slot.
    """
    polys = ctx.ladder_polys
    out = [(j - 1, -_first_order(polys, p, j + ctx.m - 1, True)) for j, p in u.terms.items()]
    if ctx.delta is not None:
        out += [(j, p * ctx.shift_constant) for j, p in u.terms.items()]
    return KappaForm(ctx.family, out)


def _apply_h(ctx, m, u):
    """-sigma D^2 - tau D + v_m (- delta kappa') - lam, for m = ctx.m or ctx.m + 1,
    with lam the context's factorization energy lambda_(ctx.m).

    Slot by slot: kappa^(j-2) [sigma (v_m - lam) p - sigma q' - (j-2)
    (sigma'/2) q - tau q] with q = sigma p' + j (sigma'/2) p, so Du =
    kappa^(j-2) q.  Both passes and the potential term run on numerator
    lists, reduced once per slot: q is over D p.den, the slot over D^2 p.den.
    """
    den, sig, half, tau, pots = ctx.ladder_polys
    out = []
    for j, p in u.terms.items():
        g_q = [j * h for h in half]
        g_r = [(j - 2) * h + t for h, t in zip(half, tau)]
        r = _pass(sig, g_r, _pass(sig, g_q, p.nums))
        out.append((j - 2, Poly._canonical([den * a - b for a, b in zip(_conv(pots[m], p.nums), r)],
                                           den * den * p.den)))
        if ctx.delta is not None:
            out.append((j - 1, (ctx.family.polys[1] * p) * (Fraction(ctx.delta) / -2)))
    return KappaForm(ctx.family, out)


def _check_compatible(ctx, af, expected_m):
    if ctx.delta is not None:
        raise ContextMismatch("shifted maps do not reduce to one kappa^m slot")
    if af.family != ctx.family:
        raise ContextMismatch("function family differs from the context's")
    if af.m != expected_m:
        raise ContextMismatch(f"expected order {expected_m}, got {af.m}")


def raise_order(ctx, af):
    """Raise m by one: the slot polynomial simply differentiates."""
    _check_compatible(ctx, af, ctx.m)
    return AssociatedFunction(ctx.family, af.l, ctx.m + 1, af.poly.deriv())


def lower_order(ctx, af):
    """Lower m+1 -> m; returns (lambda_l - lambda_m) times the order-m function."""
    _check_compatible(ctx, af, ctx.m + 1)
    if not (ctx.m < af.l and families.below_cutoff(ctx.family, af.l)):
        raise ContextMismatch(f"lowering needs m < l < cutoff, got l={af.l}, m={ctx.m}")
    out = _apply_lower(ctx, KappaForm.from_assoc(af)).terms.get(ctx.m, Poly())
    return AssociatedFunction(ctx.family, af.l, ctx.m, out)


def apply_hamiltonian(ctx, af):
    """Apply -sigma D^2 - tau D + v_m at the context order.

    The context's H_m - lambda_m lands on kappa^(m-2), is divided by sigma
    once and gets lambda_m p back.  Any remainder raises.
    """
    _check_compatible(ctx, af, ctx.m)
    out = _apply_h(ctx, ctx.m, KappaForm.from_assoc(af)).terms.get(ctx.m - 2, Poly())
    q, rem = poly_divmod(out, ctx.family.polys[0])
    if not rem.is_zero:
        raise DivisibilityFailure(f"division by sigma left remainder of size {rem.max_abs():.3e}")
    return AssociatedFunction(ctx.family, af.l, ctx.m,
                              q + af.poly * families.eigenvalue(ctx.family, ctx.m))


def _report(ctx, cases):
    """Residuals of the four relations on each case (key_u, u, key_w, w).

    u has order m and w order m+1 (None skips the two relations on w); a is
    _apply_raise, a+ is _apply_lower and _apply_h the context's H - lambda_m.
    Each operator is applied to a given form once.
    """
    m = ctx.m
    report = {name: {} for name in ("factor_low", "factor_high", "intertwine_h", "intertwine_a")}
    for key_u, u, key_w, w in cases:
        au, hu = _apply_raise(ctx, u), _apply_h(ctx, m, u)
        report["factor_low"][key_u] = residual(_apply_lower(ctx, au), hu)
        report["intertwine_a"][key_u] = residual(_apply_raise(ctx, hu), _apply_h(ctx, m + 1, au))
        if w is not None:
            lw, hw = _apply_lower(ctx, w), _apply_h(ctx, m + 1, w)
            report["factor_high"][key_w] = residual(_apply_raise(ctx, lw), hw)
            report["intertwine_h"][key_w] = residual(_apply_h(ctx, m, lw), _apply_lower(ctx, hw))
    # np.max, not max: a NaN residual must reach max_residual and fail the check
    report["max_residual"] = float(np.max([0.0, *(r for rel in report.values() for r in rel.values())]))
    return report


def check_identities(ctx, lmax):
    """Residuals of the factorization and intertwining identities.

    On the order-m and order-(m+1) associated functions up to lmax:
      factor_low      a+ a           vs  H_m - lambda_m
      factor_high     a  a+          vs  H_{m+1} - lambda_m
      intertwine_h    H_m a+         vs  a+ H_{m+1}
      intertwine_a    a H_m          vs  H_{m+1} a
    Residuals are relative max-coefficient deviations, 0 exactly when an
    identity holds; every map is exact, so the "exact" key is always True.
    Each level builds its polynomial once and takes both orders from it by
    differentiation.  A shifted context checks the shifted maps against the
    shifted eigenvalue.  lmax < m raises IndexViolation.
    """
    fam, m = ctx.family, ctx.m
    if lmax < m:
        raise IndexViolation(f"check_identities needs lmax >= m, got lmax={lmax}, m={m}")

    def cases():
        for l in range(m, lmax + 1):
            if not families.below_cutoff(fam, l):
                break
            q = poly_eigenfunction(fam, l).deriv(m)
            w = KappaForm(fam, [(m + 1, q.deriv())]) if l >= m + 1 else None
            yield f"l={l},m={m}", KappaForm(fam, [(m, q)]), f"l={l},m={m + 1}", w

    return {**_report(ctx, cases()), "exact": True}


def recurrence_residual(fam, l, m, points):
    """Pointwise residual of the three-term order recurrence.

    Checks Phi_{l,m+1} + (tau/kappa + 2(m-1) kappa') Phi_{l,m}
    + (lambda_l - lambda_{m-1}) Phi_{l,m-1} = 0 for 1 <= m <= l (the m=l
    boundary form drops the first term, which the m=l associated function
    handles by raising to zero).  Residuals are normalized by the largest
    participating term.
    """
    if not 1 <= m <= l:
        raise ValueError("recurrence needs 1 <= m <= l")
    up = associated_function(fam, l, m + 1) if m < l else None
    mid = associated_function(fam, l, m)
    low = associated_function(fam, l, m - 1)
    lam = float(families.eigenvalue(fam, l)) - float(families.eigenvalue(fam, m - 1))
    s = np.asarray(points, dtype=float)
    fam.require_inside(s)
    coef = fam.tau(s) / fam.kappa(s) + 2.0 * (m - 1) * fam.kappa_prime(s)
    t1 = up.values(s) if up is not None else np.zeros_like(s)
    t2 = coef * mid.values(s)
    t3 = lam * low.values(s)
    scale = 1.0 + np.max(np.abs([t1, t2, t3]), axis=0)
    return float(np.max(np.abs(t1 + t2 + t3) / scale))
