"""Closed-form reference potentials for the ten named example families.

Each entry evaluates printed formulas directly (with the shorthands
am = -(2m + alpha - 1)/2 and apm = (2m - alpha - 1)/2) and serves purely
as a golden fixture against the generic superpotential/potential pipeline.
Entries 7-10 exist only for the pure-power weight subfamilies and carry the
constant delta shift.  Integral terms share the package-wide base point of
the cumulative weight, since shifting the base is equivalent to shifting
gamma.
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
    tau_form: str  # "full" (alpha*s+beta), "beta" (tau=beta), "alpha_s" (tau=alpha*s)
    shifted: bool


CATALOG = (
    CatalogEntry(1, "shifted oscillator", families.CONST, "full", False),
    CatalogEntry(2, "three-dimensional oscillator", families.LINEAR, "full", False),
    CatalogEntry(3, "Poschl-Teller potential", families.ONE_MINUS_S2, "full", False),
    CatalogEntry(4, "generalized Poschl-Teller potential", families.S2_MINUS_ONE, "full", False),
    CatalogEntry(5, "Morse potential", families.S2, "full", False),
    CatalogEntry(6, "Scarf hyperbolic potential", families.S2_PLUS_ONE, "full", False),
    CatalogEntry(7, "Coulomb potential", families.LINEAR, "beta", True),
    CatalogEntry(8, "trigonometric Rosen-Morse potential", families.ONE_MINUS_S2, "alpha_s", True),
    CatalogEntry(9, "Eckart potential", families.S2_MINUS_ONE, "alpha_s", True),
    CatalogEntry(10, "hyperbolic Rosen-Morse potential", families.S2_PLUS_ONE, "alpha_s", True),
)


def entry(entry_id):
    for e in CATALOG:
        if e.entry_id == entry_id:
            return e
    raise ParameterViolation(f"catalog entry must be 1..10, got {entry_id}")


def _deformation_ratio(fam, m, gamma, s):
    """sigma^m rho / (gamma + integral), shared by every entry."""
    if gamma == math.inf:
        return 0.0
    s0 = riccati.base_point(fam)
    integral = quad(lambda t: riccati.sigma_m_rho(fam, m, t), s0, s, tol=1e-13).value
    return riccati.sigma_m_rho(fam, m, s) / (gamma + integral)


def catalog_reference(entry_id, alpha, beta, m, x, gamma=math.inf, delta=None):
    """(V_upper, W, lambda_base) from the printed closed forms.

    Entries 1-6 take delta=None; entries 7-10 require the degenerate tau of
    their subfamily and a delta value (0 is allowed).
    """
    e = entry(entry_id)
    if e.tau_form == "beta" and alpha != 0:
        raise ParameterViolation(f"entry {entry_id} needs tau = beta (alpha = 0)")
    if e.tau_form == "alpha_s" and beta != 0:
        raise ParameterViolation(f"entry {entry_id} needs tau = alpha*s (beta = 0)")
    if e.shifted and delta is None:
        raise ParameterViolation(f"entry {entry_id} carries the constant shift; pass delta")
    if not e.shifted and delta is not None:
        raise ParameterViolation(f"entry {entry_id} does not take delta")
    fam = families.make_family(e.kind, alpha, beta)
    al, be = float(alpha), float(beta)
    am = -(2 * m + al - 1) / 2.0
    apm = (2 * m - al - 1) / 2.0
    x = float(x)

    if e.entry_id == 1:
        lam = -al * m
        v = (al * x + be) ** 2 / 4.0 - al / 2.0 + lam
        w = -(al * x + be) / 2.0 + _deformation_ratio(fam, m, gamma, x)
        return v, w, lam

    if e.entry_id == 2:
        lam = -al * m
        v = (
            al * al / 16.0 * x * x
            + (be + m - 0.5) * (be + m + 0.5) / (x * x)
            + al / 2.0 * (be + m - 1.0)
            + lam
        )
        cmap_s = x * x / 4.0
        w = (
            -al / 4.0 * x
            - (be + m - 0.5) / x
            + (x / 2.0) * _deformation_ratio(fam, m, gamma, cmap_s)
        )
        return v, w, lam

    if e.entry_id == 3:
        lam = m * (m - al - 1)
        cosec = 1.0 / math.sin(x)
        cotan = math.cos(x) / math.sin(x)
        v = (
            (apm * apm + apm + be * be / 4.0) * cosec * cosec
            - (2 * apm + 1) * be / 2.0 * cotan * cosec
            - apm * apm
            + lam
        )
        w = (
            apm * cotan
            - be / 2.0 * cosec
            + math.sin(x) * _deformation_ratio(fam, m, gamma, math.cos(x))
        )
        return v, w, lam

    if e.entry_id == 4:
        lam = -m * (m + al - 1)
        csch = 1.0 / math.sinh(x)
        coth = math.cosh(x) / math.sinh(x)
        v = (
            (am * am - am + be * be / 4.0) * csch * csch
            - (2 * am - 1) * be / 2.0 * coth * csch
            + am * am
            + lam
        )
        w = (
            am * coth
            - be / 2.0 * csch
            + math.sinh(x) * _deformation_ratio(fam, m, gamma, math.cosh(x))
        )
        return v, w, lam

    if e.entry_id == 5:
        lam = -m * (m + al - 1)
        v = (
            be * be / 4.0 * math.exp(-2.0 * x)
            - (2 * am - 1) * be / 2.0 * math.exp(-x)
            + am * am
            + lam
        )
        w = (
            -be / 2.0 * math.exp(-x)
            + am
            + math.exp(x) * _deformation_ratio(fam, m, gamma, math.exp(x))
        )
        return v, w, lam

    if e.entry_id == 6:
        lam = -m * (m + al - 1)
        sech = 1.0 / math.cosh(x)
        v = (
            (-am * am + am + be * be / 4.0) * sech * sech
            - (2 * am - 1) * be / 2.0 * math.tanh(x) * sech
            + am * am
            + lam
        )
        w = (
            am * math.tanh(x)
            - be / 2.0 * sech
            + math.cosh(x) * _deformation_ratio(fam, m, gamma, math.sinh(x))
        )
        return v, w, lam

    de = float(delta)
    if e.entry_id == 7:
        den = 2 * m + 2 * be - 1
        lam = -de * de / (den * den)
        v = (be + m - 0.5) * (be + m + 0.5) / (x * x) - de / x
        w = (
            -(be + m - 0.5) / x
            + (x / 2.0) * _deformation_ratio(fam, m, gamma, x * x / 4.0)
            + de / den
        )
        return v, w, lam

    if e.entry_id == 8:
        den = 2 * m - al - 1
        lam = m * (m - al - 1) - de * de / (den * den)
        cosec = 1.0 / math.sin(x)
        cotan = math.cos(x) / math.sin(x)
        v = (
            (apm * apm + apm) * cosec * cosec
            + de * cotan
            - apm * apm
            + m * (m - al - 1)
        )
        w = (
            apm * cotan
            + math.sin(x) * _deformation_ratio(fam, m, gamma, math.cos(x))
            + de / den
        )
        return v, w, lam

    if e.entry_id == 9:
        den = 2 * m + al - 1
        lam = -m * (m + al - 1) - de * de / (den * den)
        csch = 1.0 / math.sinh(x)
        coth = math.cosh(x) / math.sinh(x)
        v = (
            (am * am - am) * csch * csch
            - de * coth
            + am * am
            - m * (m + al - 1)
        )
        w = (
            am * coth
            + math.sinh(x) * _deformation_ratio(fam, m, gamma, math.cosh(x))
            + de / den
        )
        return v, w, lam

    den = 2 * m + al - 1
    lam = -m * (m + al - 1) - de * de / (den * den)
    sech = 1.0 / math.cosh(x)
    v = (
        (-am * am + am) * sech * sech
        - de * math.tanh(x)
        + am * am
        - m * (m + al - 1)
    )
    w = (
        am * math.tanh(x)
        + math.cosh(x) * _deformation_ratio(fam, m, gamma, math.sinh(x))
        + de / den
    )
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
    refs = [catalog_reference(entry_id, alpha, beta, m, x, gamma, delta) for x in xs]
    v_ref, w_ref, lam_ref = np.array(refs).T
    lam_ref = float(lam_ref[0])
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
