"""Exception types shared across the package.

Each class carries the CLI exit code it maps to: 1 invariant failure (the
base HypersusyError), 2 invalid parameters, 3 inadmissible gamma, 4
numerical non-convergence.
"""


class HypersusyError(Exception):
    """Base class for all package errors; the default code is an invariant failure."""

    exit_code = 1


class InvalidParameters(HypersusyError):
    """Base class for errors caused by the caller's parameters."""

    exit_code = 2


class ParameterViolation(InvalidParameters):
    """Family or grid parameters violate their admissible ranges."""


class BoundaryDecayFailure(InvalidParameters):
    """sigma*rho leaves the floating-point range at its interior peak."""


class CutoffExceeded(InvalidParameters):
    """An int level at or above the family cutoff Lambda."""


class OutOfDomain(InvalidParameters):
    """A point lies outside the open interval or the coordinate domain."""


class NoWeightPower(InvalidParameters):
    """Family weight is not a pure power of sigma."""


class DegenerateDenominator(InvalidParameters):
    """The shift denominator 2m + 2k + 1 vanishes."""


class IndexViolation(InvalidParameters):
    """An order, level or lmax that is no int (a bool is none) or out of its range."""


class RecurrenceBreakdown(InvalidParameters):
    """Division by zero in the coefficient recurrence (degenerate parameters)."""


class ContextMismatch(InvalidParameters):
    """Function and context disagree (family, order), or a one-slot map got a shifted context."""


class InadmissibleGamma(HypersusyError):
    """gamma lies in (or too close to) the forbidden interval."""

    exit_code = 3


class QuadratureFailure(HypersusyError):
    """Numerical integration failed; message carries the diagnostic."""

    exit_code = 4


class NoConvergence(QuadratureFailure):
    """Refinement exhausted without meeting the tolerance."""


class NonFinite(QuadratureFailure):
    """Integrand or potential produced a non-finite sample."""


class GridTooCoarse(HypersusyError):
    """Eigenvalues from two grid resolutions disagree beyond tolerance."""

    exit_code = 4
