"""The six canonical second-order operator families.

Each family is a pair sigma(s) (degree <= 2, positive on an open interval)
and tau(s) = alpha*s + beta, together with the weight rho that makes
sigma*y'' + tau*y' + lambda*y self-adjoint.  Everything downstream (ladder
operators, deformations, partner potentials) is parametrized by a Family
value, which is immutable and safe to share.

Exact mode: when alpha and beta are ints or Fractions the eigenvalues and
polynomial machinery stay in exact rational arithmetic; floats switch the
whole chain to floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    BoundaryDecayFailure,
    CutoffExceeded,
    DegenerateDenominator,
    NoWeightPower,
    OutOfDomain,
    ParameterViolation,
)

CONST = "const"
LINEAR = "linear"
ONE_MINUS_S2 = "one_minus_s2"
S2_MINUS_ONE = "s2_minus_one"
S2 = "s2"
S2_PLUS_ONE = "s2_plus_one"

KINDS = (CONST, LINEAR, ONE_MINUS_S2, S2_MINUS_ONE, S2, S2_PLUS_ONE)

# sigma coefficients (c0, c1, c2) and the open interval per kind
_SIGMA = {
    CONST: (1, 0, 0),
    LINEAR: (0, 1, 0),
    ONE_MINUS_S2: (1, 0, -1),
    S2_MINUS_ONE: (-1, 0, 1),
    S2: (0, 0, 1),
    S2_PLUS_ONE: (1, 0, 1),
}
_INTERVAL = {
    CONST: (-math.inf, math.inf),
    LINEAR: (0.0, math.inf),
    ONE_MINUS_S2: (-1.0, 1.0),
    S2_MINUS_ONE: (1.0, math.inf),
    S2: (0.0, math.inf),
    S2_PLUS_ONE: (-math.inf, math.inf),
}
# window used when drawing generic interior sample points
_SAMPLE_WINDOW = {
    CONST: (-4.0, 4.0),
    LINEAR: (0.15, 8.0),
    ONE_MINUS_S2: (-0.9, 0.9),
    S2_MINUS_ONE: (1.1, 8.0),
    S2: (0.2, 8.0),
    S2_PLUS_ONE: (-4.0, 4.0),
}

# Pretty strings for listings
SIGMA_TEXT = {
    CONST: "1",
    LINEAR: "s",
    ONE_MINUS_S2: "1-s^2",
    S2_MINUS_ONE: "s^2-1",
    S2: "s^2",
    S2_PLUS_ONE: "s^2+1",
}
# admissible (alpha, beta) per kind: predicate and the text quoted in errors
CONSTRAINTS = {
    CONST: (lambda a, b: a < 0, "alpha < 0"),
    LINEAR: (
        lambda a, b: a <= 0 and b > 0,
        "alpha <= 0, beta > 0 (alpha = 0 only for the pure-power weight)",
    ),
    ONE_MINUS_S2: (lambda a, b: a < b < -a, "alpha < beta < -alpha"),
    S2_MINUS_ONE: (
        lambda a, b: a < 0 and b >= 0,
        "alpha < 0, beta >= 0 (fully normalizable when alpha + beta > 0)",
    ),
    S2: (
        lambda a, b: a < 0 and b >= 0,
        "alpha < 0, beta >= 0 (beta = 0 only for the pure-power weight)",
    ),
    S2_PLUS_ONE: (lambda a, b: a < 0, "alpha < 0"),
}
RHO_TEXT = {
    CONST: "exp(alpha*s^2/2 + beta*s)",
    LINEAR: "s^(beta-1) * exp(alpha*s)",
    ONE_MINUS_S2: "(1+s)^(-(alpha-beta)/2-1) * (1-s)^(-(alpha+beta)/2-1)",
    S2_MINUS_ONE: "(s+1)^((alpha-beta)/2-1) * (s-1)^((alpha+beta)/2-1)",
    S2: "s^(alpha-2) * exp(-beta/s)",
    S2_PLUS_ONE: "(1+s^2)^(alpha/2-1) * exp(beta*arctan(s))",
}


def _is_exact(x):
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


@dataclass(frozen=True)
class Family:
    kind: str
    alpha: object
    beta: object

    @property
    def interval(self):
        return _INTERVAL[self.kind]

    @property
    def exact(self):
        return _is_exact(self.alpha) and _is_exact(self.beta)

    @property
    def sigma_coeffs(self):
        return _SIGMA[self.kind]

    @property
    def sigma_lead(self):
        """Coefficient of s^2 in sigma (equals sigma''/2)."""
        return _SIGMA[self.kind][2]

    def sigma(self, s):
        c0, c1, c2 = _SIGMA[self.kind]
        return c0 + c1 * s + c2 * s * s

    def sigma_prime(self, s):
        c0, c1, c2 = _SIGMA[self.kind]
        return c1 + 2 * c2 * s

    def tau(self, s):
        return self.alpha * s + self.beta

    def kappa(self, s):
        return np.sqrt(self.sigma(s))

    def kappa_prime(self, s):
        return self.sigma_prime(s) / (2.0 * self.kappa(s))

    def contains(self, s):
        a, b = self.interval
        arr = np.asarray(s, dtype=float)
        return bool(np.all((arr > a) & (arr < b)))

    def require_inside(self, s):
        if not self.contains(s):
            raise OutOfDomain(f"s={s} outside the open interval {self.interval}")

    def to_json(self):
        def num(v):
            return v if isinstance(v, int) else float(v)

        return {"kind": self.kind, "alpha": num(self.alpha), "beta": num(self.beta)}

    @classmethod
    def from_json(cls, obj):
        def num(v):
            if isinstance(v, int) and not isinstance(v, bool):
                return v
            f = float(v)
            return int(f) if f.is_integer() else f

        return make_family(obj["kind"], num(obj["alpha"]), num(obj["beta"]))


def _check_constraints(kind, alpha, beta):
    if kind not in CONSTRAINTS:
        raise ParameterViolation(f"unknown kind {kind!r}; expected one of {KINDS}")
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        raise ParameterViolation(f"alpha and beta must be finite, got alpha={alpha}, beta={beta}")
    holds, text = CONSTRAINTS[kind]
    if not holds(alpha, beta):
        raise ParameterViolation(f"kind {kind} requires {text}, got alpha={alpha}, beta={beta}")


def sample_points(fam, n, rng=None):
    """n interior points drawn uniformly from a moderate window."""
    lo, hi = _SAMPLE_WINDOW[fam.kind]
    if rng is None:
        return np.linspace(lo, hi, n)
    return rng.uniform(lo, hi, size=n)


def make_family(kind, alpha, beta):
    """Validate parameters and return the Family.

    The constraint table decides admissibility in closed form.  By Pearson's
    equation (sigma rho)' = tau rho, sigma*rho rises while tau > 0 and falls
    while tau < 0, so for alpha < 0 its only critical point is the maximum
    at s* = -beta/alpha.  Under the constraints sigma*rho tends to 0 at both
    endpoints, except at the three pure-power carriers where it provably
    does not: linear with alpha = 0 (upper end), s2 with beta = 0 and
    s2_minus_one with alpha + beta <= 0 (lower end); there s* is not
    interior.  What remains is floating-point range: when s* is interior,
    sigma(s*)*rho(s*) must be finite and > 0, or every weighted quantity
    overflows (or vanishes) and BoundaryDecayFailure is raised.
    """
    _check_constraints(kind, alpha, beta)
    fam = Family(kind, alpha, beta)
    if alpha != 0:
        peak = -float(beta) / float(alpha)
        if fam.contains(peak):
            with np.errstate(over="ignore", under="ignore"):
                top = float(np.exp(np.log(fam.sigma(peak)) + _log_weight(fam, peak)))
            if not 0.0 < top < math.inf:
                raise BoundaryDecayFailure(
                    f"sigma*rho at its peak s={peak:.6g} is {top} in floating point "
                    f"for ({kind}, alpha={alpha}, beta={beta})"
                )
    return fam


def below_cutoff(fam, level):
    """Exact-halves test for level < Lambda (2*level < 1 - alpha)."""
    if level < 0:
        return False
    if fam.sigma_lead <= 0:
        return True
    return 2 * level < 1 - fam.alpha


def cutoff(fam):
    """Lambda: infinity for sigma in {1, s, 1-s^2}, else (1-alpha)/2."""
    if fam.sigma_lead <= 0:
        return math.inf
    if fam.exact:
        return Fraction(1 - fam.alpha, 2)
    return (1.0 - fam.alpha) / 2.0


def eigenvalue(fam, level):
    """lambda_l = -(sigma''/2) l (l-1) - tau' l; exact when the family is."""
    if not isinstance(level, int) or level < 0:
        raise CutoffExceeded(f"level must be a non-negative integer, got {level!r}")
    if not below_cutoff(fam, level):
        raise CutoffExceeded(f"level {level} is not below the cutoff {cutoff(fam)}")
    return -fam.sigma_lead * level * (level - 1) - fam.alpha * level


def _log_weight(fam, s):
    """log rho(s) on interior points; finite for finite parameters."""
    al, be = float(fam.alpha), float(fam.beta)
    if fam.kind == CONST:
        return s * (al * s / 2.0 + be)  # not al*s*s/2 + be*s: -inf + inf at huge s
    if fam.kind == LINEAR:
        return (be - 1.0) * np.log(s) + al * s
    if fam.kind == ONE_MINUS_S2:
        p, q = -(al - be) / 2.0 - 1.0, -(al + be) / 2.0 - 1.0
        return p * np.log1p(s) + q * np.log1p(-s)
    if fam.kind == S2_MINUS_ONE:
        p, q = (al - be) / 2.0 - 1.0, (al + be) / 2.0 - 1.0
        return p * np.log(s + 1.0) + q * np.log(s - 1.0)
    if fam.kind == S2:
        return (al - 2.0) * np.log(s) - be / s
    return (al / 2.0 - 1.0) * np.log1p(s * s) + be * np.arctan(s)


def weight(fam, s):
    """Closed-form weight rho(s) = exp(log rho(s)); elementwise over arrays.

    Going through the logarithm turns extreme points into a clean overflow
    or underflow; a product of powers would give inf * 0 = NaN there.
    """
    arr = np.asarray(s, dtype=float)
    fam.require_inside(arr)
    with np.errstate(over="ignore", under="ignore"):
        out = np.exp(_log_weight(fam, arr))
    return out if isinstance(s, np.ndarray) else float(out)


def potential_term(fam, m, s):
    """Zeroth-order term v_m(s) of the m-th operator -sigma D^2 - tau D + v_m."""
    fam.require_inside(s)
    sig = fam.sigma(s)
    sp = fam.sigma_prime(s)
    spp = 2.0 * fam.sigma_lead
    tau = fam.tau(s)
    return (
        m * (m - 2) / 4.0 * sp * sp / sig
        + m * tau / 2.0 * sp / sig
        - 0.5 * m * (m - 2) * spp
        - m * float(fam.alpha)
    )


def weight_power(fam):
    """Exponent k with rho = sigma^k, or None when no such k exists.

    Present exactly when tau degenerates: tau = beta for sigma = s, or
    tau = alpha*s (beta = 0) for the four quadratic sigmas.
    """
    half = Fraction(1, 2) if fam.exact else 0.5
    if fam.kind == LINEAR and fam.alpha == 0:
        return fam.beta - 1
    if fam.beta != 0 or fam.kind in (CONST, LINEAR):
        return None
    if fam.kind == ONE_MINUS_S2:
        return -fam.alpha * half - 1
    return fam.alpha * half - 1


def shifted_eigenvalue(fam, m, delta):
    """Constant-shift eigenvalue lambda_m - delta^2 / (2m + 2k + 1)^2."""
    k = weight_power(fam)
    if k is None:
        raise NoWeightPower(f"({fam.kind}, beta={fam.beta}) has no pure-power weight")
    if not below_cutoff(fam, m + 1):
        raise CutoffExceeded(f"shift needs m+1 below the cutoff, got m={m}")
    den = 2 * m + 2 * k + 1
    if den == 0 or abs(float(den)) < 1e-12:
        raise DegenerateDenominator(f"2m + 2k + 1 = 0 for m={m}, k={k}")
    lam = eigenvalue(fam, m)
    if fam.exact and _is_exact(delta):
        return lam - Fraction(delta) ** 2 / Fraction(den) ** 2
    return lam - float(delta) ** 2 / float(den) ** 2
