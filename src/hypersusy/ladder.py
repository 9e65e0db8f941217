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

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import families
from .errors import (
    ContextMismatch,
    CutoffExceeded,
    DivisibilityFailure,
)
from .polynomials import (
    AssociatedFunction,
    Poly,
    associated_function,
    poly_divmod,
    poly_eigenfunction,
)

_HALF = Fraction(1, 2)
_QUARTER = Fraction(1, 4)


@dataclass(frozen=True)
class TildeShift:
    k: object
    delta: object


@dataclass(frozen=True)
class LadderContext:
    family: families.Family
    m: int
    tilde: TildeShift | None = None

    @property
    def shift_constant(self):
        if self.tilde is None:
            return 0
        den = 2 * self.m + 2 * self.tilde.k + 1
        if isinstance(den, Fraction) or isinstance(self.tilde.delta, (int, Fraction)):
            return Fraction(self.tilde.delta) / Fraction(den)
        return float(self.tilde.delta) / float(den)


def make_context(fam, m, delta=None):
    """Ladder context at order m; delta switches on the constant shift."""
    if not isinstance(m, int) or m < 0:
        raise ContextMismatch(f"order must be a non-negative integer, got {m!r}")
    if not families.below_cutoff(fam, m + 1):
        raise CutoffExceeded(f"ladder context needs m+1 below the cutoff, got m={m}")
    if delta is None:
        return LadderContext(fam, m, None)
    families.shifted_eigenvalue(fam, m, delta)  # validates power weight + denominator
    return LadderContext(fam, m, TildeShift(families.weight_power(fam), delta))


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

def _apply_raise(fam, m, u):
    """kappa (d/ds - m kappa'/kappa)."""
    return u.d_ds().shift(1) - u.times_kappa_prime().scale(m)


def _apply_lower(fam, m, u):
    """kappa (-d/ds - tau/sigma - (m-1) kappa'/kappa)."""
    tau = fam.polys[2]
    return (
        u.d_ds().shift(1).scale(-1)
        - u.mul_poly(tau).shift(-1)
        - u.times_kappa_prime().scale(m - 1)
    )


def _apply_h(fam, m, u):
    """-sigma D^2 - tau D + v_m, with v_m entering as an exact rational term."""
    sig, sp, tau = fam.polys
    du = u.d_ds()
    out = du.d_ds().mul_poly(sig).scale(-1) - du.mul_poly(tau)
    if m:
        num = (sp * sp) * (m * (m - 2)) + (tau * sp) * (2 * m)
        out = out + u.mul_poly(num).scale(_QUARTER).shift(-2)
        const = m * (m - 2) * fam.sigma_lead + m * fam.alpha
        out = out - u.scale(const)
    return out


def _check_compatible(ctx, af, expected_m):
    if af.family != ctx.family:
        raise ContextMismatch("function family differs from the context family")
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
    out = _apply_lower(ctx.family, ctx.m, KappaForm.from_assoc(af))
    return AssociatedFunction(ctx.family, af.l, ctx.m, out.collapse(ctx.m))


def apply_hamiltonian(ctx, af):
    """Apply -sigma D^2 - tau D + v_m at the context order."""
    _check_compatible(ctx, af, ctx.m)
    out = _apply_h(ctx.family, ctx.m, KappaForm.from_assoc(af))
    return AssociatedFunction(ctx.family, af.l, ctx.m, out.collapse(ctx.m))


def check_identities(ctx, lmax):
    """Residuals of the factorization and intertwining identities.

    On the order-m and order-(m+1) associated functions up to lmax:
      factor_low      a+ a           vs  H_m - lambda_m
      factor_high     a  a+          vs  H_{m+1} - lambda_m
      intertwine_h    H_m a+         vs  a+ H_{m+1}
      intertwine_a    a H_m          vs  H_{m+1} a
    Residuals are relative max-coefficient deviations (exactly 0 in
    rational mode).  Each level builds its polynomial once, takes both
    orders from it by differentiation, and applies every operator to a
    given form once.
    """
    fam, m = ctx.family, ctx.m
    lam_m = families.eigenvalue(fam, m)
    report = {name: {} for name in ("factor_low", "factor_high", "intertwine_h", "intertwine_a")}
    worst = 0.0
    for l in range(m, lmax + 1):
        if not families.below_cutoff(fam, l):
            break
        q = poly_eigenfunction(fam, l).deriv(m)
        u = KappaForm.from_poly(fam, m, q)
        au, hu = _apply_raise(fam, m, u), _apply_h(fam, m, u)
        lhs = _apply_lower(fam, m, au)
        rhs = hu - u.scale(lam_m)
        report["factor_low"][f"l={l},m={m}"] = r = residual(lhs, rhs)
        worst = max(worst, r)

        lhs = _apply_raise(fam, m, hu)
        rhs = _apply_h(fam, m + 1, au)
        report["intertwine_a"][f"l={l},m={m}"] = r = residual(lhs, rhs)
        worst = max(worst, r)

        if l >= m + 1:
            w = KappaForm.from_poly(fam, m + 1, q.deriv())
            lw, hw = _apply_lower(fam, m, w), _apply_h(fam, m + 1, w)
            lhs = _apply_raise(fam, m, lw)
            rhs = hw - w.scale(lam_m)
            report["factor_high"][f"l={l},m={m + 1}"] = r = residual(lhs, rhs)
            worst = max(worst, r)

            lhs = _apply_h(fam, m, lw)
            rhs = _apply_lower(fam, m, hw)
            report["intertwine_h"][f"l={l},m={m + 1}"] = r = residual(lhs, rhs)
            worst = max(worst, r)
    report["max_residual"] = worst
    report["exact"] = fam.exact
    return report


# --- shifted (delta) variants ----------------------------------------------

def apply_shifted(ctx, form, which):
    """Shifted ladder map on a kappa form: the plain map plus delta/(2m+2k+1)."""
    if ctx.tilde is None:
        raise ContextMismatch("context carries no shift; build it with delta")
    if isinstance(form, AssociatedFunction):
        form = KappaForm.from_assoc(form)
    c = ctx.shift_constant
    if which == "raise":
        return _apply_raise(ctx.family, ctx.m, form) + form.scale(c)
    if which == "lower":
        return _apply_lower(ctx.family, ctx.m, form) + form.scale(c)
    raise ValueError("which must be 'raise' or 'lower'")


def _apply_h_shifted(ctx, order, form):
    """H_order - delta * kappa'."""
    return _apply_h(ctx.family, order, form) - form.times_kappa_prime().scale(
        ctx.tilde.delta
    )


def check_shifted_factorization(ctx, max_degree=4):
    """Residuals of the shifted factorizations on monomial test functions.

    Applies (raise+c)(lower+c)-style products to kappa^m * s^d and
    kappa^(m+1) * s^d for d <= max_degree and compares with the shifted
    operators minus the shifted eigenvalue.  Works for families whose
    polynomial eigenfunctions degenerate (the pure-power carriers), since
    the identities are operator identities.
    """
    if ctx.tilde is None:
        raise ContextMismatch("context carries no shift; build it with delta")
    fam, m = ctx.family, ctx.m
    lam_t = families.shifted_eigenvalue(fam, m, ctx.tilde.delta)
    report = {"factor_low": {}, "factor_high": {}}
    worst = 0.0
    for d in range(max_degree + 1):
        mono = Poly([0] * d + [1])
        u = KappaForm.from_poly(fam, m, mono)
        lhs = apply_shifted(ctx, apply_shifted(ctx, u, "raise"), "lower")
        rhs = _apply_h_shifted(ctx, m, u) - u.scale(lam_t)
        report["factor_low"][f"deg={d}"] = r = residual(lhs, rhs)
        worst = max(worst, r)

        w = KappaForm.from_poly(fam, m + 1, mono)
        lhs = apply_shifted(ctx, apply_shifted(ctx, w, "lower"), "raise")
        rhs = _apply_h_shifted(ctx, m + 1, w) - w.scale(lam_t)
        report["factor_high"][f"deg={d}"] = r = residual(lhs, rhs)
        worst = max(worst, r)
    report["max_residual"] = worst
    return report


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
