"""First-order ladder maps and the second-order operators they factorize.

Operators act on formal sums of kappa-power terms, sum_j kappa^j * p_j(s)
with kappa = sqrt(sigma).  A form holds at most one slot per parity of j:
a term joins its parity's slot by folding onto the lower power,
kappa^(j+2i) p = kappa^j sigma^i p.  Every map then sends a slot kappa^j p
to one slot by a closed form, so every identity below is checked in exact
polynomial arithmetic (rational mode) or to roundoff (float mode).
lower_order and apply_hamiltonian read their result off its one slot; H
lands on kappa^(m-2) and is divided by sigma once, so a nonzero remainder is
an algebra bug and raises DivisibilityFailure.
"""

from __future__ import annotations

import math

import numpy as np

from . import families, riccati
from .errors import ContextMismatch, DivisibilityFailure
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


def _first_order(polys, p, e, with_tau=False):
    """sigma p' + e (sigma'/2) p (+ tau p), the part every map applies to a slot p.

    polys = (sigma, sigma'/2, tau, ...); (kappa^j p)' = kappa^(j-2) [sigma p' + j (sigma'/2) p].
    """
    sig, half, tau = polys[:3]
    g = half * e if e else None
    if with_tau:
        g = tau if g is None else g + tau
    out = sig * p.deriv()
    return out if g is None else out + g * p


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

    def scale(self, c):
        return KappaForm(self.family, [(j, p * c) for j, p in self.terms.items()])

    def max_abs(self):
        return max((p.max_abs() for p in self.terms.values()), default=0.0)


def residual(lhs, rhs):
    """Relative max-coefficient deviation between two kappa forms."""
    diff = lhs - rhs
    if not diff.terms:
        return 0.0
    return diff.max_abs() / max(lhs.max_abs(), rhs.max_abs(), 1.0)


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
    """-sigma D^2 - tau D + v_m (- delta kappa'), for m = ctx.m or ctx.m + 1.

    Slot by slot: kappa^(j-2) [sigma v_m p - sigma q' - (j-2) (sigma'/2) q
    - tau q] with q = sigma p' + j (sigma'/2) p, so Du = kappa^(j-2) q.
    """
    polys = ctx.ladder_polys
    sigma_v = polys[3][m]
    out = []
    for j, p in u.terms.items():
        q = _first_order(polys, p, j)
        out.append((j - 2, sigma_v * p - _first_order(polys, q, j - 2, True)))
        if ctx.delta is not None:
            out.append((j - 1, (polys[1] * p) * -ctx.delta))
    return KappaForm(ctx.family, out)


def _check_compatible(ctx, af, expected_m):
    if ctx.delta is not None:
        raise ContextMismatch("shifted maps do not reduce to one kappa^m slot")
    if af.family != ctx.family or af.family.exact != ctx.family.exact:
        raise ContextMismatch("function family or lane differs from the context's")
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

    The result sits at kappa^(m-2); one division by sigma brings it to
    kappa^m.  Exact coefficients demand a zero remainder, float ones allow
    1e-10 of the larger of 1 and the largest coefficient.
    """
    _check_compatible(ctx, af, ctx.m)
    out = _apply_h(ctx, ctx.m, KappaForm.from_assoc(af)).terms.get(ctx.m - 2, Poly())
    q, rem = poly_divmod(out, ctx.family.polys[0])
    if rem.max_abs() > (0.0 if ctx.family.exact else 1e-10) * max(out.max_abs(), 1.0):
        raise DivisibilityFailure(f"division by sigma left remainder of size {rem.max_abs():.3e}")
    return AssociatedFunction(ctx.family, af.l, ctx.m, q)


def _report(ctx, cases):
    """Residuals of the four relations on each case (key_u, u, key_w, w).

    u has order m and w order m+1 (None skips the two relations on w); a is
    _apply_raise, a+ is _apply_lower and lam the (shifted) lambda_m.  Each
    operator is applied to a given form once.
    """
    m = ctx.m
    lam = families.shifted_eigenvalue(ctx.family, m, ctx.delta)
    report = {name: {} for name in ("factor_low", "factor_high", "intertwine_h", "intertwine_a")}
    for key_u, u, key_w, w in cases:
        au, hu = _apply_raise(ctx, u), _apply_h(ctx, m, u)
        report["factor_low"][key_u] = residual(_apply_lower(ctx, au), hu - u.scale(lam))
        report["intertwine_a"][key_u] = residual(_apply_raise(ctx, hu), _apply_h(ctx, m + 1, au))
        if w is not None:
            lw, hw = _apply_lower(ctx, w), _apply_h(ctx, m + 1, w)
            report["factor_high"][key_w] = residual(_apply_raise(ctx, lw), hw - w.scale(lam))
            report["intertwine_h"][key_w] = residual(_apply_h(ctx, m, lw), _apply_lower(ctx, hw))
    report["max_residual"] = max([0.0] + [r for rel in report.values() for r in rel.values()])
    return report


def check_identities(ctx, lmax):
    """Residuals of the factorization and intertwining identities.

    On the order-m and order-(m+1) associated functions up to lmax:
      factor_low      a+ a           vs  H_m - lambda_m
      factor_high     a  a+          vs  H_{m+1} - lambda_m
      intertwine_h    H_m a+         vs  a+ H_{m+1}
      intertwine_a    a H_m          vs  H_{m+1} a
    Residuals are relative max-coefficient deviations (exactly 0 in
    rational mode).  Each level builds its polynomial once and takes both
    orders from it by differentiation.  A shifted context checks the shifted
    maps against the shifted eigenvalue.
    """
    fam, m = ctx.family, ctx.m

    def cases():
        for l in range(m, lmax + 1):
            if not families.below_cutoff(fam, l):
                break
            q = poly_eigenfunction(fam, l).deriv(m)
            w = KappaForm(fam, [(m + 1, q.deriv())]) if l >= m + 1 else None
            yield f"l={l},m={m}", KappaForm(fam, [(m, q)]), f"l={l},m={m + 1}", w

    report = _report(ctx, cases())
    # a float delta on an exact family runs the shifted maps in floats
    report["exact"] = fam.exact and not isinstance(ctx.shift_constant, float)
    return report


def check_shifted_factorization(ctx):
    """The four relations of check_identities on monomial test functions.

    Uses kappa^m * s^d and kappa^(m+1) * s^d for d <= 4, so it works for
    families whose polynomial eigenfunctions degenerate (the pure-power
    carriers), since the identities are operator identities.
    """
    if ctx.delta is None:
        raise ContextMismatch("context carries no shift; build it with delta")
    fam, m = ctx.family, ctx.m

    def cases():
        for d in range(5):
            mono = Poly([0] * d + [1])
            u, w = KappaForm(fam, [(m, mono)]), KappaForm(fam, [(m + 1, mono)])
            yield f"deg={d}", u, f"deg={d}", w

    return _report(ctx, cases())


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
