"""Closed-form reference potentials for the ten named example families.

Each of the six kinds has one printed closed form (with the shorthands
am = -(2m + alpha - 1)/2 and apm = (2m - alpha - 1)/2), evaluated with numpy
on x of any shape; it serves purely as a golden fixture against the generic
superpotential/potential pipeline.  Entries 7-10 are the base forms of
their kinds on the pure-power weight subfamilies (degenerate tau) plus the
constant delta shift, as in the shape-invariant potentials of Cooper, Khare
and Sukhatme, Phys. Rep. 251 (1995) 267.  Integral terms share the
package-wide base point of the cumulative weight, since shifting the base
is equivalent to shifting gamma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import families, riccati, schrodinger
from .errors import ParameterViolation
from .numerics import quad


@dataclass(frozen=True)
class CatalogEntry:
    entry_id: int
    name: str
    kind: str
    shifted: bool


CATALOG = (
    CatalogEntry(1, "shifted oscillator", families.CONST, False),
    CatalogEntry(2, "three-dimensional oscillator", families.LINEAR, False),
    CatalogEntry(3, "Poschl-Teller potential", families.ONE_MINUS_S2, False),
    CatalogEntry(4, "generalized Poschl-Teller potential", families.S2_MINUS_ONE, False),
    CatalogEntry(5, "Morse potential", families.S2, False),
    CatalogEntry(6, "Scarf hyperbolic potential", families.S2_PLUS_ONE, False),
    CatalogEntry(7, "Coulomb potential", families.LINEAR, True),
    CatalogEntry(8, "trigonometric Rosen-Morse potential", families.ONE_MINUS_S2, True),
    CatalogEntry(9, "Eckart potential", families.S2_MINUS_ONE, True),
    CatalogEntry(10, "hyperbolic Rosen-Morse potential", families.S2_PLUS_ONE, True),
)

# The shift of entries 7-10, one row per kind: the printed denominator
# den(m, alpha, beta) and the term V gains per unit delta.  The shift adds
# delta*term(x) to V, delta/den to W and -delta^2/den^2 to lambda.
_SHIFTS = {
    families.LINEAR: (lambda m, al, be: 2 * m + 2 * be - 1, lambda x: -1.0 / x),
    families.ONE_MINUS_S2: (lambda m, al, be: 2 * m - al - 1, lambda x: np.cos(x) / np.sin(x)),
    families.S2_MINUS_ONE: (lambda m, al, be: 2 * m + al - 1, lambda x: -np.cosh(x) / np.sinh(x)),
    families.S2_PLUS_ONE: (lambda m, al, be: 2 * m + al - 1, lambda x: -np.tanh(x)),
}


def entry(entry_id):
    for e in CATALOG:
        if e.entry_id == entry_id:
            return e
    raise ParameterViolation(f"catalog entry must be 1..10, got {entry_id}")


def _deformation_ratio(fam, m, gamma, s):
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


def catalog_reference(entry_id, alpha, beta, m, x, gamma=math.inf, delta=None):
    """(V_upper, W, lambda_base) from the printed closed forms.

    x may have any shape; a scalar x gives scalar V and W.  Entries 1-6 take
    delta=None; entries 7-10 require the degenerate tau of their subfamily
    and a delta value (0 is allowed).
    """
    e = entry(entry_id)
    if e.shifted and delta is None:
        raise ParameterViolation(f"entry {entry_id} carries the constant shift; pass delta")
    if not e.shifted and delta is not None:
        raise ParameterViolation(f"entry {entry_id} does not take delta")
    fam = families.make_family(e.kind, alpha, beta)
    if e.shifted and families.weight_power(fam) is None:
        raise ParameterViolation(f"entry {entry_id} needs tau = {fam.spec.power.tau}")
    al, be = float(alpha), float(beta)
    am = -(2 * m + al - 1) / 2.0
    apm = (2 * m - al - 1) / 2.0
    x = np.asarray(x, dtype=float)

    def ratio(s):
        return _deformation_ratio(fam, m, gamma, s)

    if e.kind == families.CONST:
        lam = -al * m
        v = (al * x + be) ** 2 / 4.0 - al / 2.0 + lam
        w = -(al * x + be) / 2.0 + ratio(x)
    elif e.kind == families.LINEAR:
        lam = -al * m
        v = (
            al * al / 16.0 * x * x
            + (be + m - 0.5) * (be + m + 0.5) / (x * x)
            + al / 2.0 * (be + m - 1.0)
            + lam
        )
        w = -al / 4.0 * x - (be + m - 0.5) / x + (x / 2.0) * ratio(x * x / 4.0)
    elif e.kind == families.ONE_MINUS_S2:
        lam = m * (m - al - 1)
        cosec = 1.0 / np.sin(x)
        cotan = np.cos(x) / np.sin(x)
        v = (
            (apm * apm + apm + be * be / 4.0) * cosec * cosec
            - (2 * apm + 1) * be / 2.0 * cotan * cosec
            - apm * apm
            + lam
        )
        w = apm * cotan - be / 2.0 * cosec + np.sin(x) * ratio(np.cos(x))
    elif e.kind == families.S2_MINUS_ONE:
        lam = -m * (m + al - 1)
        csch = 1.0 / np.sinh(x)
        coth = np.cosh(x) / np.sinh(x)
        v = (
            (am * am - am + be * be / 4.0) * csch * csch
            - (2 * am - 1) * be / 2.0 * coth * csch
            + am * am
            + lam
        )
        w = am * coth - be / 2.0 * csch + np.sinh(x) * ratio(np.cosh(x))
    elif e.kind == families.S2:
        lam = -m * (m + al - 1)
        v = (
            be * be / 4.0 * np.exp(-2.0 * x)
            - (2 * am - 1) * be / 2.0 * np.exp(-x)
            + am * am
            + lam
        )
        w = -be / 2.0 * np.exp(-x) + am + np.exp(x) * ratio(np.exp(x))
    else:
        lam = -m * (m + al - 1)
        sech = 1.0 / np.cosh(x)
        v = (
            (-am * am + am + be * be / 4.0) * sech * sech
            - (2 * am - 1) * be / 2.0 * np.tanh(x) * sech
            + am * am
            + lam
        )
        w = am * np.tanh(x) - be / 2.0 * sech + np.cosh(x) * ratio(np.sinh(x))

    if e.shifted:
        den_of, term = _SHIFTS[e.kind]
        den, de = den_of(m, al, be), float(delta)
        v = v + de * term(x)
        w = w + de / den
        lam = lam - de * de / (den * den)
    if x.ndim == 0:
        return float(v), float(w), lam
    return v, w, lam


def compare_with_generic(entry_id, alpha, beta, m, xs, gamma=math.inf, delta=None, tol=1e-10):
    """Max |catalog - generic| for V_upper and W over a grid, plus flags.

    A deviation above tol is returned as a flag describing the worst point;
    callers report flags instead of reconciling them.
    """
    fam = families.make_family(entry(entry_id).kind, alpha, beta)
    defm = riccati.make_deformation(fam, m, gamma, delta)
    xs = np.asarray(xs, dtype=float)
    v_gen, _, w_gen = schrodinger.potentials_and_w(defm, xs)
    v_ref, w_ref, lam_ref = catalog_reference(entry_id, alpha, beta, m, xs, gamma, delta)
    worst_v = float(np.max(np.abs(v_ref - v_gen)))
    worst_w = float(np.max(np.abs(w_ref - w_gen)))
    flags = []
    if abs(lam_ref - defm.lambda_base) > tol:
        flags.append(
            f"entry {entry_id}: eigenvalue shorthand differs "
            f"({lam_ref} vs {defm.lambda_base})"
        )
    if worst_v > tol:
        flags.append(f"entry {entry_id}: potential deviates by {worst_v:.3e}")
    if worst_w > tol:
        flags.append(f"entry {entry_id}: superpotential deviates by {worst_w:.3e}")
    return {"entry": entry_id, "max_dev_V": worst_v, "max_dev_W": worst_w, "flags": flags}
