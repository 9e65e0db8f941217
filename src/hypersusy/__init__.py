"""Hypergeometric-type operator families, their ladder factorizations, and
one-parameter supersymmetric partner potentials, with built-in numerical
verification of every identity and spectrum."""

from . import catalog, cli, errors, families, ladder, numerics, polynomials, riccati, schrodinger, verify
from .families import (
    Family,
    cutoff,
    eigenvalue,
    make_family,
    potential_term,
    shifted_eigenvalue,
    weight,
    weight_power,
)
from .ladder import check_identities, lower_order, make_context, raise_order
from .numerics import QuadratureResult, SpectralReport, fd_spectrum, quad, verify_spectrum
from .polynomials import (
    AssociatedFunction,
    DifferentiableValue,
    Poly,
    associated_function,
    gram_matrix,
    norm,
    poly_eigenfunction,
)
from .riccati import Deformation, gamma_rays, make_deformation, partner_potential
from .schrodinger import potentials, superpotential, wavefunction

__version__ = "0.1.0"
