"""The six canonical second-order operator families.

Each family is a pair sigma(s) (degree <= 2, positive on an open interval)
and tau(s) = alpha*s + beta, together with the weight rho that makes
sigma*y'' + tau*y' + lambda*y self-adjoint.  Everything downstream (ladder
operators, deformations, partner potentials) is parametrized by a Family
value, which is immutable and safe to share.  What differs between the six
kinds is one KindSpec record each, in SPECS; other modules read it instead
of branching on the kind.

A family keeps alpha and beta as given, for printing and the float
evaluators; the algebra reads them through rational(), so a float parameter
enters it as its exact binary rational Fraction(x).
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    BoundaryDecayFailure,
    CutoffExceeded,
    DegenerateDenominator,
    IndexViolation,
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


@dataclass(frozen=True)
class CoordinateMap:
    """Change of variable x -> s(x), defined by ds/dx = sign * kappa(s(x))."""

    x_domain: tuple
    sign: int
    s_fn: object   # s(x) on a float array

    def s_of_x(self, x):
        return self.s_fn(np.asarray(x, dtype=float))

    def require_inside(self, x):
        require_open("x", x, self.x_domain)


# sigma^m rho at one end of the interval: a power |s - end|^p at a finite
# end, |s|^p at an infinite one, p = m_coef*m + (a2*alpha + b2*beta)/2 + c,
# times exp(e) with e -> -inf iff da*alpha + db*beta < 0 (da = db = 0: no
# such factor).  With integers a2, b2 the float evaluation rounds only in the
# sum, so parameters whose sum rounds onto p = -1 count as on the boundary.
End = namedtuple("End", "m_coef a2 b2 c da db", defaults=(0, 0))
# rho = sigma^k(alpha, beta), exact, once tau degenerates to `tau`: "beta" means
# alpha = 0, "alpha*s" means beta = 0
WeightPower = namedtuple("WeightPower", "tau k_text k")


@dataclass(frozen=True)
class KindSpec:
    """Everything that differs between the six kinds."""

    kind: str
    sigma: tuple          # (c0, c1, c2) of sigma = c0 + c1 s + c2 s^2
    interval: tuple       # open interval where sigma > 0
    sample_window: tuple  # generic interior sample points
    x_window: tuple       # x-range of the catalog comparison grid
    base_point: float     # base point of the cumulative weight I_m
    sigma_text: str
    rho_text: str
    constraint_text: str  # admissible (alpha, beta), quoted in errors
    admits: object        # (alpha, beta) -> bool
    log_weight: object    # (s, alpha, beta) -> log rho(s), floats
    coords: CoordinateMap
    ends: tuple           # (lower End, upper End)
    power: WeightPower = None


_ALPHA_POWER = WeightPower("alpha*s", "alpha/2 - 1", lambda a, b: Fraction(a, 2) - 1)
_QUADRATIC_INFINITY = End(2, 2, 0, -2)  # sigma^m rho ~ s^(2m + alpha - 2)

SPECS = {spec.kind: spec for spec in (
    KindSpec(
        CONST, (1, 0, 0), (-math.inf, math.inf), (-4.0, 4.0), (-3.0, 3.0), 0.0,
        sigma_text="1", rho_text="exp(alpha*s^2/2 + beta*s)",
        constraint_text="alpha < 0", admits=lambda a, b: a < 0,
        # not al*s*s/2 + be*s: -inf + inf at huge s
        log_weight=lambda s, al, be: s * (al * s / 2.0 + be),
        coords=CoordinateMap((-math.inf, math.inf), +1, lambda x: x),
        ends=(End(0, 0, 0, 0, da=1), End(0, 0, 0, 0, da=1)),
    ),
    KindSpec(
        LINEAR, (0, 1, 0), (0.0, math.inf), (0.15, 8.0), (0.4, 6.0), 1.0,
        sigma_text="s", rho_text="s^(beta-1) * exp(alpha*s)",
        constraint_text="alpha <= 0, beta > 0 (alpha = 0 only for the pure-power weight)",
        admits=lambda a, b: a <= 0 and b > 0,
        log_weight=lambda s, al, be: (be - 1.0) * np.log(s) + al * s,
        coords=CoordinateMap((0.0, math.inf), +1, lambda x: x * x / 4.0),
        ends=(End(1, 0, 2, -1), End(1, 0, 2, -1, da=1)),
        power=WeightPower("beta", "beta - 1", lambda a, b: b - 1),
    ),
    KindSpec(
        ONE_MINUS_S2, (1, 0, -1), (-1.0, 1.0), (-0.9, 0.9), (0.3, math.pi - 0.3), 0.0,
        sigma_text="1-s^2",
        rho_text="(1+s)^(-(alpha-beta)/2-1) * (1-s)^(-(alpha+beta)/2-1)",
        constraint_text="alpha < beta < -alpha", admits=lambda a, b: a < b < -a,
        log_weight=lambda s, al, be: ((-(al - be) / 2.0 - 1.0) * np.log1p(s)
                                      + (-(al + be) / 2.0 - 1.0) * np.log1p(-s)),
        coords=CoordinateMap((0.0, math.pi), -1, np.cos),
        ends=(End(1, -1, 1, -1), End(1, -1, -1, -1)),
        power=WeightPower("alpha*s", "-alpha/2 - 1", lambda a, b: Fraction(-a, 2) - 1),
    ),
    KindSpec(
        S2_MINUS_ONE, (-1, 0, 1), (1.0, math.inf), (1.1, 8.0), (0.4, 5.0), 2.0,
        sigma_text="s^2-1", rho_text="(s+1)^((alpha-beta)/2-1) * (s-1)^((alpha+beta)/2-1)",
        constraint_text="alpha < 0, beta >= 0 (fully normalizable when alpha + beta > 0)",
        admits=lambda a, b: a < 0 and b >= 0,
        log_weight=lambda s, al, be: (((al - be) / 2.0 - 1.0) * np.log(s + 1.0)
                                      + ((al + be) / 2.0 - 1.0) * np.log(s - 1.0)),
        coords=CoordinateMap((0.0, math.inf), +1, np.cosh),
        ends=(End(1, 1, 1, -1), _QUADRATIC_INFINITY),
        power=_ALPHA_POWER,
    ),
    KindSpec(
        S2, (0, 0, 1), (0.0, math.inf), (0.2, 8.0), (-2.0, 3.0), 1.0,
        sigma_text="s^2", rho_text="s^(alpha-2) * exp(-beta/s)",
        constraint_text="alpha < 0, beta >= 0 (beta = 0 only for the pure-power weight)",
        admits=lambda a, b: a < 0 and b >= 0,
        log_weight=lambda s, al, be: (al - 2.0) * np.log(s) - be / s,
        coords=CoordinateMap((-math.inf, math.inf), +1, np.exp),
        ends=(End(2, 2, 0, -2, db=-1), _QUADRATIC_INFINITY),
        power=_ALPHA_POWER,
    ),
    KindSpec(
        S2_PLUS_ONE, (1, 0, 1), (-math.inf, math.inf), (-4.0, 4.0), (-3.0, 3.0), 0.0,
        sigma_text="s^2+1", rho_text="(1+s^2)^(alpha/2-1) * exp(beta*arctan(s))",
        constraint_text="alpha < 0", admits=lambda a, b: a < 0,
        log_weight=lambda s, al, be: (al / 2.0 - 1.0) * np.log1p(s * s) + be * np.arctan(s),
        coords=CoordinateMap((-math.inf, math.inf), +1, np.sinh),
        ends=(_QUADRATIC_INFINITY, _QUADRATIC_INFINITY),
        power=_ALPHA_POWER,
    ),
)}

KINDS = tuple(SPECS)


def rational(x):
    """x exactly: an int or Fraction as it is, another number as Fraction(x)."""
    return x if isinstance(x, (int, Fraction)) else Fraction(x)


def require_index(name, k, lo=0, hi=None):
    """Raise IndexViolation, naming the argument, unless k is an int (a bool is
    not) in lo..hi: hi=None leaves the top open, lo=None admits any int."""
    is_int = isinstance(k, int) and not isinstance(k, bool)
    if not (is_int and (lo is None or (k >= lo and (hi is None or k <= hi)))):
        rule = ("an integer" if lo is None else f"an integer in {lo}..{hi}" if hi is not None
                else "a non-negative integer" if lo == 0 else f"an integer >= {lo}")
        raise IndexViolation(f"{name} must be {rule}, got {name}={k!r}")


def require_open(name, x, interval):
    """Raise OutOfDomain unless every value of x lies in the open interval,
    naming the first that does not (NaN included)."""
    a, b = interval
    arr = np.asarray(x, dtype=float)
    inside = (arr > a) & (arr < b)
    if not inside.all():
        bad = float(arr.flat[int(np.argmin(inside))])
        raise OutOfDomain(f"{name}={bad!r} outside the open interval {interval}")


def _finite(x):
    """math.isfinite, with a number whose float overflows counted as non-finite."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def json_number(v):
    """For JSON: ints, other Fractions as "p/q", floats, but +-inf and nan as "inf"/"-inf"/"nan"."""
    if isinstance(v, Fraction):
        return v.numerator if v.denominator == 1 else str(v)
    if isinstance(v, int):
        return v
    v = float(v)
    return v if math.isfinite(v) else str(v)


def from_json_number(v):
    """Inverse of json_number: "p/q" is read back as a Fraction, "inf"/"-inf"/"nan" as floats."""
    if v in ("inf", "-inf", "nan"):
        return float(v)
    return Fraction(v) if isinstance(v, str) and "/" in v else v


@dataclass(frozen=True)
class Family:
    kind: str
    alpha: object
    beta: object

    @property
    def spec(self):
        return SPECS[self.kind]

    @property
    def interval(self):
        return self.spec.interval

    @property
    def sigma_coeffs(self):
        return self.spec.sigma

    @property
    def sigma_lead(self):
        """Coefficient of s^2 in sigma (equals sigma''/2)."""
        return self.spec.sigma[2]

    @functools.cached_property
    def polys(self):
        """(sigma, sigma', tau) as Poly, built once per instance and kept on
        it, not in a module cache keyed by Family, so it goes with the family."""
        from .polynomials import Poly

        _, c1, c2 = self.sigma_coeffs
        return Poly(self.sigma_coeffs), Poly([c1, 2 * c2]), Poly([self.beta, self.alpha])

    @functools.cached_property
    def ray_memo(self):
        """riccati.gamma_rays by order m, filled on first use and kept on
        the instance for the reason polys is."""
        return {}

    @functools.cached_property
    def level_memo(self):
        """polynomials.poly_eigenfunction by level, filled on first use and
        kept on the instance for the reason polys is."""
        return {}

    # sigma, tau and their kin evaluate elementwise in floats; Fraction
    # parameters enter rounded, as Fraction-float arithmetic would round them
    def sigma(self, s):
        """c0 + c1 s + c2 s^2 over the kind's nonzero terms (no kind has both c1
        and c2): the same bits as all three terms at every finite s in its interval."""
        c0, c1, c2 = self.spec.sigma
        s = np.asarray(s, dtype=float)
        if not (c1 or c2):
            return np.full_like(s, c0)
        out = c1 * s if c1 else c2 * s * s
        return out + c0 if c0 else out

    def sigma_prime(self, s):
        c0, c1, c2 = self.spec.sigma
        return c1 + 2 * c2 * np.asarray(s, dtype=float)

    def tau(self, s):
        return float(self.alpha) * np.asarray(s, dtype=float) + float(self.beta)

    def sigma_ratios(self, s):
        """sigma'/sigma and (sigma'/sigma)' = sigma''/sigma - (sigma'/sigma)^2, formed
        as ratios: sigma^2 overflows once sigma passes 1e154."""
        sig = self.sigma(s)
        ratio = self.sigma_prime(s) / sig
        return ratio, 2.0 * self.sigma_lead / sig - ratio * ratio

    def kappa(self, s):
        return np.sqrt(self.sigma(s))

    def kappa_prime(self, s):
        return self.sigma_prime(s) / (2.0 * self.kappa(s))

    def contains(self, s):
        a, b = self.interval
        arr = np.asarray(s, dtype=float)
        return bool(np.all((arr > a) & (arr < b)))

    def require_inside(self, s):
        require_open("s", s, self.interval)

    def to_json(self):
        return {"kind": self.kind, "alpha": json_number(self.alpha),
                "beta": json_number(self.beta)}

    @classmethod
    def from_json(cls, obj):
        return make_family(obj["kind"], from_json_number(obj["alpha"]),
                           from_json_number(obj["beta"]))


def _require_real(**values):
    """Raise ParameterViolation naming a value that is no real number (a bool is none)."""
    for name, x in values.items():
        if isinstance(x, bool) or not isinstance(x, (int, float, Fraction, np.integer, np.floating)):
            raise ParameterViolation(f"{name} must be a real number, got {name}={x!r}")


def _check_constraints(kind, alpha, beta):
    if kind not in SPECS:
        raise ParameterViolation(f"unknown kind {kind!r}; expected one of {KINDS}")
    _require_real(alpha=alpha, beta=beta)
    if not (_finite(alpha) and _finite(beta)):
        raise ParameterViolation(f"alpha and beta must be finite, got alpha={alpha}, beta={beta}")
    spec = SPECS[kind]
    if not spec.admits(alpha, beta):
        raise ParameterViolation(
            f"kind {kind} requires {spec.constraint_text}, got alpha={alpha}, beta={beta}"
        )


def sample_points(fam, n):
    """n evenly spaced interior points of a moderate window."""
    return np.linspace(*fam.spec.sample_window, n)


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
                log_rho = fam.spec.log_weight(peak, float(alpha), float(beta))
                top = float(np.exp(np.log(fam.sigma(peak)) + log_rho))
            if not 0.0 < top < math.inf:
                raise BoundaryDecayFailure(
                    f"sigma*rho at its peak s={peak:.6g} is {top} in floating point "
                    f"for ({kind}, alpha={alpha}, beta={beta})"
                )
    return fam


def below_cutoff(fam, level):
    """level < Lambda, as alpha < 1 - 2*level: an int against alpha compares exactly."""
    if level < 0:
        return False
    if fam.sigma_lead <= 0:
        return True
    return fam.alpha < 1 - 2 * level


def cutoff(fam):
    """Lambda: infinity for sigma in {1, s, 1-s^2}, else (1-alpha)/2, exactly."""
    if fam.sigma_lead <= 0:
        return math.inf
    return Fraction(1 - rational(fam.alpha), 2)


def _shown(fam, x):
    """x as messages print it: a float when either parameter was given as one."""
    return float(x) if isinstance(fam.alpha, float) or isinstance(fam.beta, float) else x


def require_level(fam, level):
    """Raise IndexViolation unless level is a non-negative int, and
    CutoffExceeded unless it lies below the cutoff."""
    require_index("level", level)
    if not below_cutoff(fam, level):
        raise CutoffExceeded(f"level {level} is not below the cutoff {_shown(fam, cutoff(fam))}")


def eigenvalue(fam, level):
    """lambda_l = -(sigma''/2) l (l-1) - tau' l, exactly."""
    require_level(fam, level)
    return -fam.sigma_lead * level * (level - 1) - rational(fam.alpha) * level


def weight(fam, s):
    """Closed-form weight rho(s) = exp(log rho(s)), elementwise over any
    sequence; a float for a scalar s.

    Going through the logarithm turns extreme points into a clean overflow
    or underflow; a product of powers would give inf * 0 = NaN there.
    """
    out = sigma_m_rho(fam, 0, s)
    return out if out.ndim else float(out)


def sigma_m_rho(fam, m, s):
    """sigma^m * rho, the integrand of the cumulative weight I_m, elementwise.

    Where rho underflows to 0 the product is 0, however large sigma^m is.
    """
    fam.require_inside(s)
    return sigma_m_rho_inside(fam, m, s)


def sigma_m_rho_inside(fam, m, s):
    """sigma_m_rho at points known to be inside, such as quadrature nodes."""
    s = np.asarray(s, dtype=float)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        w = np.exp(fam.spec.log_weight(s, float(fam.alpha), float(fam.beta)))
        if m == 0:  # sigma^0 rho is rho, bit for bit
            return np.asarray(w)
        out = fam.sigma(s) ** m * w
    return np.where(w == 0.0, 0.0, out)


def sigma_potential(fam, m):
    """sigma v_m, exactly: m(m-2)/4 sigma'^2 + m/2 tau sigma'
    - (m(m-2) sigma_lead + m alpha) sigma, v_m from -sigma D^2 - tau D + v_m."""
    require_index("order", m)
    sig, sp, tau = fam.polys
    return ((sp * sp) * Fraction(m * (m - 2), 4) + (tau * sp) * Fraction(m, 2)
            - sig * (m * (m - 2) * fam.sigma_lead + m * rational(fam.alpha)))


def potential_term(fam, m, s):
    """Zeroth-order term v_m(s) of the m-th operator -sigma D^2 - tau D + v_m."""
    pot = sigma_potential(fam, m)  # refuses the order before the points
    fam.require_inside(s)
    return pot.eval_array(s) / fam.sigma(s)


def weight_power(fam):
    """Exact exponent k with rho = sigma^k, or None when no such k exists.

    Present exactly when tau degenerates: tau = beta for sigma = s, or
    tau = alpha*s (beta = 0) for the four quadratic sigmas.
    """
    power = fam.spec.power
    if power is None or (fam.alpha if power.tau == "beta" else fam.beta) != 0:
        return None
    return power.k(rational(fam.alpha), rational(fam.beta))


def _shift_denominator(fam, m):
    """2m + 2k + 1 for the pure-power weight rho = sigma^k, validated."""
    require_index("order", m)
    k = weight_power(fam)
    if k is None:
        raise NoWeightPower(f"({fam.kind}, beta={fam.beta}) has no pure-power weight")
    if not below_cutoff(fam, m + 1):
        raise CutoffExceeded(f"shift needs m+1 below the cutoff, got m={m}")
    den = 2 * m + 2 * k + 1
    if den == 0:
        raise DegenerateDenominator(f"2m + 2k + 1 = 0 for m={m}, k={_shown(fam, k)}")
    return den


def shift_constant(fam, m, delta):
    """c = delta / (2m + 2k + 1), exactly, with c*c finite as a float."""
    _require_real(delta=delta)
    den = _shift_denominator(fam, m)
    c = Fraction(delta) / den if _finite(delta) else math.nan
    if not (_finite(c) and _finite(c * c)):
        raise ParameterViolation(f"delta must give a finite shift constant, got delta={delta}")
    return c


def shifted_eigenvalue(fam, m, delta):
    """Constant-shift eigenvalue lambda_m - c^2, c = shift_constant(fam, m, delta).

    delta=None is the unshifted lambda_m.
    """
    if delta is None:
        return eigenvalue(fam, m)
    c = shift_constant(fam, m, delta)
    return eigenvalue(fam, m) - c * c
