"""First-order ladder maps and the second-order operators they factorize.

Operators act on formal sums of kappa-power terms, sum_j kappa^j * p_j(s)
with kappa = sqrt(sigma).  A form maps each power j to the integer
numerators of its slot p_j, all slots over one positive integer scale, and
holds at most one slot per parity of j: a term joins its parity's slot by
folding onto the lower power, kappa^(j+2i) p = kappa^j sigma^i p, and
sigma's coefficients are integers, so the scale stays.  Every map sends a
slot kappa^j p to fixed powers by banded passes over p's numerators n,
out_k = sum_t B_t(k) n_(k+t), with integer rows B_t(k) built from the
context's stencils (_stencils, built once per public call) over their
common denominator D: a first-order map multiplies the scale by D and H
by D^2.  No gcd is taken.  The two sides of a relation share their scale,
so equal trimmed numerator lists decide it exactly; only a relation that
fails builds Polys for its residual.  The context carries lambda_m, so it
applies H_k - lambda_m and the relations need no lambda term.
lower_order canonicalizes its one kappa^m slot at the end, and
apply_hamiltonian is the factorization a+ a + lambda_m: lowering the
raised slot kappa^(m+1) p' lands on kappa^m, with no division.
"""

from __future__ import annotations

import math
from itertools import zip_longest

import numpy as np

from . import families, riccati
from .errors import ContextMismatch
from .polynomials import AssociatedFunction, Poly, poly_eigenfunction


def make_context(fam, m, delta=None):
    """Ladder context at order m: the undeformed (gamma = inf) Deformation.

    delta switches on the constant shift of the pure-power weights.
    """
    return riccati.make_deformation(fam, m, math.inf, delta)


def _stencils(ctx):
    """(D, sigma, sigma'/2, tau, {k: sigma (v_k - lambda_m) for k = m, m + 1}, c, -delta/2).

    lambda_m is the exact (shifted) factorization energy and c the shift
    constant: width-3 coefficient stencils (degree <= 2) and two constants
    (0 without delta), all integer numerators over one positive integer D,
    so shifted maps stay integer too.  A Poly takes 0.5 as exactly 1/2.
    """
    fam, m = ctx.family, ctx.m
    sig, sp, tau = fam.polys
    lam = families.shifted_eigenvalue(fam, m, ctx.delta)
    pots = [families.sigma_potential(fam, k) - sig * lam for k in (m, m + 1)]
    polys = [sig, sp * 0.5, tau, *pots, Poly([ctx.shift_constant]), Poly([ctx.delta or 0]) * -0.5]
    den = math.lcm(*[p.den for p in polys])
    rows = [tuple([x * (den // p.den) for x in p.nums] + [0] * (3 - len(p.nums))) for p in polys]
    sig, half, tau, pot_m, pot_up, c, neg_half_delta = rows
    return den, sig, half, tau, {m: pot_m, m + 1: pot_up}, c[0], neg_half_delta[0]


def _put(form, j, n, sig):
    """Add kappa^j n to form, folding onto the lower power of its parity's slot."""
    k = next((k for k in form if (k - j) % 2 == 0), None)
    if k is not None:
        q = form.pop(k)
        if k < j:
            j, k, n, q = k, j, q, n
        for _ in range((k - j) // 2):
            z = [0, 0, *q, 0, 0]
            q = [sig[0] * c + sig[1] * b + sig[2] * a for a, b, c in zip(z, z[1:], z[2:])]
        n = [a + b for a, b in zip_longest(n, q, fillvalue=0)]
    while n and not n[-1]:
        n.pop()
    if n:
        form[j] = n


def residual(lhs, rhs, scale, sig):
    """Relative max-coefficient deviation between two forms over one scale; 0 only if they are equal."""
    if lhs == rhs:
        return 0.0
    diff = dict(lhs)
    for j, n in rhs.items():
        _put(diff, j, [-x for x in n], sig)
    if not diff:
        return 0.0

    def size(form):
        return max((Poly._canonical(n, scale).max_abs() for n in form.values()), default=0.0)

    return max(size(diff) / max(size(lhs), size(rhs), 1.0), math.ulp(0.0))


# --- the operators ---------------------------------------------------------
#
# A map is "raise" (a), "lower" (a+) or the order k of H_k - lambda_m.  A
# shifted context (delta set) adds c*u to the first-order maps and
# -delta*kappa'*u = -delta kappa^(j-1) (sigma'/2) p to H, each in the other
# parity's slot.

def _terms(ctx, st, op, j):
    """What op does to a slot kappa^j p: one (power shift, h, row) per slot it
    lands on, row(k) = [B_-h(k), ..., B_h(k)] (h = 1 or 2) the integers of
    out_k = sum_t B_t(k) n_(k+t) over p's numerators n.

      raise  kappa^(j-1) [sigma p' + (j-m) (sigma'/2) p]
      lower  -kappa^(j-1) [sigma p' + (j+m-1) (sigma'/2) p + tau p]
      H_k    kappa^(j-2) [sigma (v_k - lambda_m) p - sigma q' - (j-2) (sigma'/2) q - tau q]
             with q = sigma p' + j (sigma'/2) p, so Du = kappa^(j-2) q: both
             passes and the potential term fused into one width-5 band
    """
    den, sig, half, tau, pots, c, neg_half_delta = st

    def first(g, k):  # sigma p' + g p, g of degree <= 1
        return [sig[2] * (k - 1) + g[1], sig[1] * k + g[0], sig[0] * (k + 1)]

    if op == "raise":
        g = [(j - ctx.m) * h for h in half]
        terms = [(-1, 1, lambda k: first(g, k))]
    elif op == "lower":
        g = [(j + ctx.m - 1) * h + t for h, t in zip(half, tau)]
        terms = [(-1, 1, lambda k: [-b for b in first(g, k)])]
    else:
        g_q, g_r, pot = [j * h for h in half], [(j - 2) * h + t for h, t in zip(half, tau)], pots[op]

        def row(k):
            out = [den * pot[2], den * pot[1], den * pot[0], 0, 0]
            for t, a in enumerate(first(g_r, k)):
                for s, b in enumerate(first(g_q, k + t - 1)):
                    out[t + s] -= a * b
            return out
        terms = [(-2, 2, row)]
    if ctx.delta is not None:
        terms.append((0, 1, lambda k: [0, c, 0]) if op in ("raise", "lower")
                     else (-1, 1, lambda k: [2 * neg_half_delta * h for h in (half[1], half[0], 0)]))
    return terms


def _apply(ctx, st, bands, op, form):
    """op on each slot of form, from the stencils st.  bands keeps the rows
    of each (op, j), built on first use and extended to the longest slot seen."""
    out, sig = {}, ctx.family.sigma_coeffs
    for j, n in form.items():
        terms = bands.get((op, j))
        if terms is None:
            terms = bands[op, j] = [(dj, h, row, []) for dj, h, row in _terms(ctx, st, op, j)]
        for dj, h, row, rows in terms:
            if len(rows) < len(n) + h:
                rows += [row(k) for k in range(len(rows), len(n) + h)]
            z = [0] * h + n + [0] * (2 * h)
            if h == 1:
                acc = [a * x + b * y + c * u for (a, b, c), x, y, u in zip(rows, z, z[1:], z[2:])]
            else:
                acc = [a * x + b * y + c * u + d * v + e * w for (a, b, c, d, e), x, y, u, v, w
                       in zip(rows, z, z[1:], z[2:], z[3:], z[4:])]
            _put(out, j + dj, acc, sig)
    return out


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


def _lowered(ctx, st, bands, p):
    """The kappa^m slot of a+ on kappa^(m+1) p, canonical, from the stencils st."""
    out = _apply(ctx, st, bands, "lower", {ctx.m + 1: list(p.nums)}).get(ctx.m, [])
    return Poly._canonical(out, st[0] * p.den)


def lower_order(ctx, af):
    """Lower m+1 -> m; returns (lambda_l - lambda_m) times the order-m function."""
    _check_compatible(ctx, af, ctx.m + 1)
    if not (ctx.m < af.l and families.below_cutoff(ctx.family, af.l)):
        raise ContextMismatch(f"lowering needs m < l < cutoff, got l={af.l}, m={ctx.m}")
    return AssociatedFunction(ctx.family, af.l, ctx.m, _lowered(ctx, _stencils(ctx), {}, af.poly))


def apply_hamiltonian(ctx, af):
    """Apply -sigma D^2 - tau D + v_m at the context order, on any polynomial slot.

    H_m = a+ a + lambda_m: a takes kappa^m p to kappa^(m+1) p', and a+
    brings that back to kappa^m, so no step divides.
    """
    _check_compatible(ctx, af, ctx.m)
    h = (_lowered(ctx, _stencils(ctx), {}, af.poly.deriv())
         + af.poly * families.eigenvalue(ctx.family, ctx.m))
    return AssociatedFunction(ctx.family, af.l, ctx.m, h)


def _report(ctx, cases):
    """Residuals of the four relations on each case (key_u, p, key_w, pw).

    u = kappa^m p and w = kappa^(m+1) pw (pw None skips the two relations on
    w).  The stencils are built once, each operator is applied to a given
    form once, each (op, j) band is built once, and both sides of a relation
    sit over one scale: D^2 p.den for the factorizations, D^3 p.den for the
    intertwinings.
    """
    st, bands = _stencils(ctx), {}
    m, den, sig = ctx.m, st[0], ctx.family.sigma_coeffs

    def op(name, form):
        return _apply(ctx, st, bands, name, form)

    report = {name: {} for name in ("factor_low", "factor_high", "intertwine_h", "intertwine_a")}
    for key_u, p, key_w, pw in cases:
        u, scale = {m: list(p.nums)}, den * den * p.den
        au, hu = op("raise", u), op(m, u)
        report["factor_low"][key_u] = residual(op("lower", au), hu, scale, sig)
        report["intertwine_a"][key_u] = residual(op("raise", hu), op(m + 1, au), scale * den, sig)
        if pw is not None:
            w, scale = {m + 1: list(pw.nums)}, den * den * pw.den
            lw, hw = op("lower", w), op(m + 1, w)
            report["factor_high"][key_w] = residual(op("raise", lw), hw, scale, sig)
            report["intertwine_h"][key_w] = residual(op(m, lw), op("lower", hw), scale * den, sig)
    # np.max, not max: a NaN residual must reach max_residual and fail the check
    report["max_residual"] = float(np.max([0.0, *(r for rel in report.values() for r in rel.values())]))
    return report


def _level_cases(ctx, lmax):
    """(key_u, p, key_w, pw) per level below the cutoff from m to lmax: the
    level polynomial is built once and both orders taken by differentiation."""
    fam, m = ctx.family, ctx.m
    for l in range(m, lmax + 1):
        if not families.below_cutoff(fam, l):
            break
        q = poly_eigenfunction(fam, l).deriv(m)
        yield f"l={l},m={m}", q, f"l={l},m={m + 1}", q.deriv() if l >= m + 1 else None


def check_identities(ctx, lmax):
    """Residuals of the factorization and intertwining identities.

    On the order-m and order-(m+1) associated functions up to lmax:
      factor_low      a+ a           vs  H_m - lambda_m
      factor_high     a  a+          vs  H_{m+1} - lambda_m
      intertwine_h    H_m a+         vs  a+ H_{m+1}
      intertwine_a    a H_m          vs  H_{m+1} a
    Residuals are relative max-coefficient deviations, 0 exactly when an
    identity holds; every map is exact, so the "exact" key is always True.
    A shifted context checks the shifted maps against the shifted
    eigenvalue.  An lmax that is no int, or below m, raises IndexViolation.
    """
    families.require_index("lmax", lmax, ctx.m)
    return {**_report(ctx, _level_cases(ctx, lmax)), "exact": True}


def check_recurrence(ctx, lmax):
    """Residuals of the three-term order recurrence, by "l=<l>,m=<m + 1>".

    At the context order m it is the lowering a+ Phi_{l,m+1} = (lambda_l -
    lambda_m) Phi_{l,m}, on each level m < l <= lmax below the cutoff (l = m + 1
    the boundary form); 0 exactly when the two canonical Polys are equal, else
    their relative max-coefficient deviation.  An lmax that is no int, or below
    m + 1, raises IndexViolation; a shifted context raises ContextMismatch.
    """
    families.require_index("lmax", lmax, ctx.m + 1)
    if ctx.delta is not None:
        raise ContextMismatch("the order recurrence needs an unshifted context")
    st, bands, fam, out = _stencils(ctx), {}, ctx.family, {}
    for l, (_, p, key, pw) in enumerate(_level_cases(ctx, lmax), start=ctx.m):
        if pw is not None:
            lhs = _lowered(ctx, st, bands, pw)
            rhs = p * (families.eigenvalue(fam, l) - families.eigenvalue(fam, ctx.m))
            out[key] = 0.0 if lhs == rhs else max(
                (lhs - rhs).max_abs() / max(lhs.max_abs(), rhs.max_abs(), 1.0), math.ulp(0.0))
    return out
