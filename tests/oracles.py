"""Test-only references, kept apart from the code they check.

Each one is a second route to a quantity the package computes: a
Richardson-extrapolated derivative, one fixed tanh-sinh level, the x-space
first-order maps, the ladder maps and relations by Poly composition on
kappa forms, the ladder relations on monomials, and the catalog's gamma
term with one scalar quad per point.  Living beside the
tests, they cannot drift with the package code.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from hypersusy import families, ladder
from hypersusy.errors import ContextMismatch
from hypersusy.numerics import _FIRST, _as_value, _nodes, quad
from hypersusy.polynomials import Poly
from hypersusy.schrodinger import superpotential


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


def fixed_level_quad(f, a, b, level):
    """Single-level tanh-sinh value on quad's nodes, one entry per stacked
    row; used to probe the convergence order."""
    x, dxdt, first = (np.concatenate(p) for p in zip(
        *(_nodes(a, b, lv) for lv in range(_FIRST, max(level, _FIRST) + 1))))
    keep = first <= level
    return _as_value(np.sum(np.asarray(f(x[keep]), dtype=float) * dxdt[keep], axis=-1) / 2 ** level)


def apply_B(defm, x, fv, which="B"):
    """(+/- d/dx + W) in x-space on a DifferentiableValue."""
    cmap = defm.family.spec.coords
    cmap.require_inside(x)
    w = superpotential(defm, x)
    if which == "B":
        return cmap.sign * fv.deriv + w * fv.value
    if which == "B_plus":
        return -cmap.sign * fv.deriv + w * fv.value
    raise ValueError("which must be 'B' or 'B_plus'")


class KappaForm:
    """sum over j of kappa^j * poly_j as Polys, at most one slot per parity of j."""

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

    def __sub__(self, other):
        neg = [(j, -p) for j, p in other.terms.items()]
        return KappaForm(self.family, [*self.terms.items(), *neg])

    def max_abs(self):
        return max((p.max_abs() for p in self.terms.values()), default=0.0)

    def values(self, s):
        """The form's float value at a point s."""
        return sum(float(self.family.sigma(s)) ** (j / 2.0) * float(p(s)) for j, p in self.terms.items())


def kappa_form(ctx, form, scale):
    """The KappaForm of a ladder form: slot numerator lists over one integer scale."""
    return KappaForm(ctx.family, [(j, Poly._canonical(n, scale)) for j, n in form.items()])


def residual(lhs, rhs):
    """Relative max-coefficient deviation of lhs - rhs on KappaForms; 0 only if they are equal."""
    diff = lhs - rhs
    if not diff.terms:
        return 0.0
    return max(diff.max_abs() / max(lhs.max_abs(), rhs.max_abs(), 1.0), math.ulp(0.0))


def reference_first_order(fam, p, e, with_tau):
    """sigma p' + (e sigma'/2 [+ tau]) p in Poly arithmetic."""
    sig, sp, tau = fam.polys
    g = sp * Fraction(1, 2) * e
    return sig * p.deriv() + ((g + tau) if with_tau else g) * p


def reference_h_slot(fam, k, lam, j, p):
    """sigma (v_k - lam) p - sigma q' - (j-2) sigma'/2 q - tau q, q = sigma p' + j sigma'/2 p."""
    q = reference_first_order(fam, p, j, False)
    return ((families.sigma_potential(fam, k) - fam.polys[0] * lam) * p
            - reference_first_order(fam, q, j - 2, True))


def reference_map(ctx, op, u):
    """The ladder map op ("raise", "lower" or the order k of H_k - lambda_m)
    on a KappaForm, slot by slot in Poly arithmetic."""
    fam, m = ctx.family, ctx.m
    lam = families.shifted_eigenvalue(fam, m, ctx.delta)
    out = []
    for j, p in u.terms.items():
        if op == "raise":
            out.append((j - 1, reference_first_order(fam, p, j - m, False)))
        elif op == "lower":
            out.append((j - 1, -reference_first_order(fam, p, j + m - 1, True)))
        else:
            out.append((j - 2, reference_h_slot(fam, op, lam, j, p)))
        if ctx.delta is None:
            continue
        if op in ("raise", "lower"):
            out.append((j, p * ctx.shift_constant))
        else:
            out.append((j - 1, fam.polys[1] * p * (-Fraction(ctx.delta) / 2)))
    return KappaForm(fam, out)


def reference_report(ctx, cases):
    """ladder._report's relations on the same cases, each formed as lhs - rhs
    on KappaForms built by reference_map."""
    fam, m = ctx.family, ctx.m

    def op(name, form):
        return reference_map(ctx, name, form)

    report = {name: {} for name in ("factor_low", "factor_high", "intertwine_h", "intertwine_a")}
    for key_u, p, key_w, pw in cases:
        u = KappaForm(fam, [(m, p)])
        au, hu = op("raise", u), op(m, u)
        report["factor_low"][key_u] = residual(op("lower", au), hu)
        report["intertwine_a"][key_u] = residual(op("raise", hu), op(m + 1, au))
        if pw is not None:
            w = KappaForm(fam, [(m + 1, pw)])
            lw, hw = op("lower", w), op(m + 1, w)
            report["factor_high"][key_w] = residual(op("raise", lw), hw)
            report["intertwine_h"][key_w] = residual(op(m, lw), op("lower", hw))
    report["max_residual"] = float(np.max([0.0, *(r for rel in report.values() for r in rel.values())]))
    return report


def check_shifted_factorization(ctx):
    """The four relations of check_identities on monomial test functions.

    Uses kappa^m * s^d and kappa^(m+1) * s^d for d <= 4, so it works for
    families whose polynomial eigenfunctions degenerate (the pure-power
    carriers), since the identities are operator identities.
    """
    if ctx.delta is None:
        raise ContextMismatch("context carries no shift; build it with delta")
    return ladder._report(ctx, monomial_cases())


def monomial_cases():
    """ladder._report cases on kappa^m s^d and kappa^(m+1) s^d, d <= 4."""
    return [(f"deg={d}", Poly([0] * d + [1]), f"deg={d}", Poly([0] * d + [1])) for d in range(5)]


def deformation_ratio_per_point(fam, m, gamma, s):
    """sigma^m rho / (gamma + integral), shared by every entry.

    An independent reference: one scalar tanh-sinh quad per point, from the
    base point.
    """
    if gamma == math.inf:
        return 0.0
    s0 = fam.spec.base_point
    integral = np.reshape(
        [quad(lambda t: families.sigma_m_rho(fam, m, t), s0, float(si), tol=1e-13).value
         for si in np.ravel(s)],
        np.shape(s),
    )
    return families.sigma_m_rho(fam, m, s) / (gamma + integral)
