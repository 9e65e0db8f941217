"""Test-only references, kept apart from the code they check.

Each one is a second route to a quantity the package computes: a
Richardson-extrapolated derivative, one fixed tanh-sinh level, the x-space
first-order maps, the ladder relations on monomials, and the catalog's
gamma term with one scalar quad per point.  Living beside the
tests, they cannot drift with the package code.
"""

from __future__ import annotations

import math

import numpy as np

from hypersusy import families, ladder
from hypersusy.errors import ContextMismatch
from hypersusy.ladder import KappaForm
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

    return ladder._report(ctx, cases())


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
