"""First-order ladder maps and the second-order operators they factorize.

Operators act on formal sums of kappa-power terms, sum_j kappa^j * p_j(s)
with kappa = sqrt(sigma).  Differentiation, multiplication by sigma/tau and
division by sigma are all closed on that space with the power index doing
the bookkeeping, so every identity below is checked in exact polynomial
arithmetic (rational mode) or to roundoff (float mode).  Reducing a result
back to a single kappa^m * poly slot requires exact divisibility by sigma;
a nonzero remainder is an algebra bug and raises DivisibilityFailure.
"""

from __future__ import annotations

import math
from fractions import Fraction

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

_HALF = Fraction(1, 2)
_QUARTER = Fraction(1, 4)


def make_context(fam, m, delta=None):
    """Ladder context at order m: the undeformed (gamma = inf) Deformation.

    delta switches on the constant shift of the pure-power weights.
    """
    return riccati.make_deformation(fam, m, math.inf, delta)


class KappaForm:
    """sum over j of kappa^j * poly_j, with exact slot bookkeeping."""

    __slots__ = ("family", "terms")

    def __init__(self, family, terms=None):
        self.family = family
        self.terms = {}
        if terms:
            for j, p in terms.items():
                if not p.is_zero:
                    self.terms[j] = p

    @classmethod
    def from_assoc(cls, af):
        p = af.poly.as_exact() if af.family.exact else af.poly
        return cls(af.family, {af.m: p})

    @classmethod
    def from_poly(cls, family, power, poly):
        p = poly.as_exact() if family.exact else poly
        return cls(family, {power: p})

    def _sigma(self):
        return self.family.polys[0]

    def _sigma_prime(self):
        return self.family.polys[1]

    def __add__(self, other):
        out = dict(self.terms)
        for j, p in other.terms.items():
            out[j] = out[j] + p if j in out else p
        return KappaForm(self.family, out)

    def __sub__(self, other):
        out = dict(self.terms)
        for j, p in other.terms.items():
            out[j] = out[j] - p if j in out else -p
        return KappaForm(self.family, out)

    def scale(self, c):
        return KappaForm(self.family, {j: p * c for j, p in self.terms.items()})

    def shift(self, dk):
        return KappaForm(self.family, {j + dk: p for j, p in self.terms.items()})

    def mul_poly(self, q):
        return KappaForm(self.family, {j: p * q for j, p in self.terms.items()})

    def d_ds(self):
        sp = self._sigma_prime()
        out = {}

        def put(j, p):
            out[j] = out[j] + p if j in out else p

        for j, p in self.terms.items():
            put(j, p.deriv())
            if j != 0:
                put(j - 2, (sp * p) * (_HALF * j))
        return KappaForm(self.family, out)

    def times_kappa_prime(self):
        sp = self._sigma_prime()
        return KappaForm(self.family, {j - 1: (sp * p) * _HALF for j, p in self.terms.items()})

    def is_zero(self):
        return not self.terms

    def max_abs(self):
        return max((p.max_abs() for p in self.terms.values()), default=0.0)

    def fold_down(self):
        """Fold each parity class onto its lowest power by multiplying sigma."""
        if not self.terms:
            return self
        sig = self._sigma()
        out = {}
        for parity in (0, 1):
            powers = sorted(j for j in self.terms if (j % 2 + 2) % 2 == parity)
            if not powers:
                continue
            base = powers[0]
            acc = Poly()
            for j in powers:
                p = self.terms[j]
                for _ in range((j - base) // 2):
                    p = p * sig
                acc = acc + p
            if not acc.is_zero:
                out[base] = acc
        return KappaForm(self.family, out)

    def collapse(self, power, rel_tol=None):
        """Reduce to the single slot kappa^power, dividing by sigma as needed.

        Exact coefficients demand a zero remainder; float coefficients allow
        a relative remainder up to rel_tol (default 1e-10) which is dropped.
        """
        folded = self.fold_down()
        if folded.is_zero():
            return Poly()
        if rel_tol is None:
            rel_tol = 0.0 if self.family.exact else 1e-10
        scale = max(folded.max_abs(), 1.0)
        sig = self._sigma()
        total = Poly()
        for j, p in folded.terms.items():
            if (j - power) % 2 != 0:
                if p.max_abs() > rel_tol * scale:
                    raise DivisibilityFailure(
                        f"kappa^{j} remnant cannot reduce to kappa^{power}"
                    )
                continue
            steps = (power - j) // 2
            if steps < 0:
                raise DivisibilityFailure(
                    f"unexpected kappa^{j} term above target kappa^{power}"
                )
            for _ in range(steps):
                p, rem = poly_divmod(p, sig)
                if rem.max_abs() > rel_tol * scale:
                    raise DivisibilityFailure(
                        f"division by sigma left remainder of size {rem.max_abs():.3e}"
                    )
            total = total + p
        if not self.family.exact:
            cut = rel_tol * max(total.max_abs(), 1.0)
            total = Poly([c if abs(float(c)) > cut else 0 for c in total.coeffs])
        return total


def residual(lhs, rhs):
    """Relative max-coefficient deviation between two kappa forms."""
    diff = (lhs - rhs).fold_down()
    if diff.is_zero():
        return 0.0
    scale = max(lhs.fold_down().max_abs(), rhs.fold_down().max_abs(), 1.0)
    return diff.max_abs() / scale


# --- the operators ---------------------------------------------------------
#
# Each map takes the context; a shifted context (delta set) adds c*u to the
# first-order maps and -delta*kappa'*u to H, an unshifted one builds no extra
# term.

def _apply_raise(ctx, u):
    """kappa (d/ds - m kappa'/kappa) (+ c)."""
    out = u.d_ds().shift(1) - u.times_kappa_prime().scale(ctx.m)
    return out if ctx.delta is None else out + u.scale(ctx.shift_constant)


def _apply_lower(ctx, u):
    """kappa (-d/ds - tau/sigma - (m-1) kappa'/kappa) (+ c)."""
    tau = ctx.family.polys[2]
    out = (
        u.d_ds().shift(1).scale(-1)
        - u.mul_poly(tau).shift(-1)
        - u.times_kappa_prime().scale(ctx.m - 1)
    )
    return out if ctx.delta is None else out + u.scale(ctx.shift_constant)


def _apply_h(ctx, m, u):
    """-sigma D^2 - tau D + v_m (- delta kappa'), v_m entering as an exact rational term."""
    fam = ctx.family
    sig, sp, tau = fam.polys
    du = u.d_ds()
    out = du.d_ds().mul_poly(sig).scale(-1) - du.mul_poly(tau)
    if m:
        num = (sp * sp) * (m * (m - 2)) + (tau * sp) * (2 * m)
        out = out + u.mul_poly(num).scale(_QUARTER).shift(-2)
        const = m * (m - 2) * fam.sigma_lead + m * fam.alpha
        out = out - u.scale(const)
    if ctx.delta is not None:
        out = out - u.times_kappa_prime().scale(ctx.delta)
    return out


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
    out = _apply_lower(ctx, KappaForm.from_assoc(af))
    return AssociatedFunction(ctx.family, af.l, ctx.m, out.collapse(ctx.m))


def apply_hamiltonian(ctx, af):
    """Apply -sigma D^2 - tau D + v_m at the context order."""
    _check_compatible(ctx, af, ctx.m)
    out = _apply_h(ctx, ctx.m, KappaForm.from_assoc(af))
    return AssociatedFunction(ctx.family, af.l, ctx.m, out.collapse(ctx.m))


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
            w = KappaForm.from_poly(fam, m + 1, q.deriv()) if l >= m + 1 else None
            yield f"l={l},m={m}", KappaForm.from_poly(fam, m, q), f"l={l},m={m + 1}", w

    report = _report(ctx, cases())
    # a float delta on an exact family runs the shifted maps in floats
    report["exact"] = fam.exact and not isinstance(ctx.shift_constant, float)
    return report


def check_shifted_factorization(ctx, max_degree=4):
    """The four relations of check_identities on monomial test functions.

    Uses kappa^m * s^d and kappa^(m+1) * s^d for d <= max_degree, so it
    works for families whose polynomial eigenfunctions degenerate (the
    pure-power carriers), since the identities are operator identities.
    """
    if ctx.delta is None:
        raise ContextMismatch("context carries no shift; build it with delta")
    fam, m = ctx.family, ctx.m

    def cases():
        for d in range(max_degree + 1):
            mono = Poly([0] * d + [1])
            u, w = KappaForm.from_poly(fam, m, mono), KappaForm.from_poly(fam, m + 1, mono)
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
    coef = np.asarray(fam.tau(s), dtype=float) / fam.kappa(s) + 2.0 * (m - 1) * fam.kappa_prime(s)
    t1 = up.values(s) if up is not None else np.zeros_like(s)
    t2 = coef * mid.values(s)
    t3 = lam * low.values(s)
    scale = 1.0 + np.max(np.abs([t1, t2, t3]), axis=0)
    return float(np.max(np.abs(t1 + t2 + t3) / scale))
