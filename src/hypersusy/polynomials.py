"""Polynomial eigenfunctions and the associated special functions.

The level-l eigenfunction is built from the three-term coefficient
recurrence of sigma*p'' + tau*p' + lambda_l*p = 0, normalized so its l-th
derivative is exactly 1; the order-m associated function is then
kappa^m * (m-th derivative of the polynomial) with kappa = sqrt(sigma).
Coefficients are exact rationals (integer numerators over one common
denominator, read back as Fractions) for every family: a float parameter
enters as its exact binary rational.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest

import numpy as np

from . import families
from .errors import RecurrenceBreakdown
from .numerics import quad


class Poly:
    """Dense univariate polynomial with exact rational coefficients; index = power of s.

    Stored as integer numerators ``nums`` over one positive integer
    denominator ``den``, in lowest terms (gcd(den, *nums) == 1) and with no
    trailing zero numerator, so each value has one representation.
    Arithmetic then runs on Python ints: a sum costs one lcm, a product is
    an integer convolution, and each result is reduced by one gcd.  A float
    coefficient or factor enters as its exact binary rational Fraction(c).
    ``coeffs`` is the read API and yields Fractions; the float view is built
    once per polynomial, a coefficient beyond float range reading +-inf.
    """

    # Tuples, the argument tuple of a *-call included, are built from lists,
    # never from generators: a tuple filled from a generator grows by
    # resizing, and CPython then parks the freed tuples in per-size free
    # lists that fill to their cap (about 4 MB over a long exact run).
    __slots__ = ("nums", "den", "_flt")

    def __init__(self, coeffs=()):
        cs = [families.rational(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        # Fractions are reduced, so over the lcm the numerators share no
        # factor with it
        den = math.lcm(*[c.denominator for c in cs])
        self.nums = tuple([c.numerator * (den // c.denominator) for c in cs])
        self.den, self._flt = den, None

    @classmethod
    def _canonical(cls, nums, den):
        """sum_i nums[i] s^i / den, den > 0, in lowest terms."""
        n = len(nums)
        while n and not nums[n - 1]:
            n -= 1
        g = math.gcd(den, *nums[:n])
        p = cls.__new__(cls)
        if g == 1:
            p.nums, p.den = tuple(nums[:n]), den
        else:
            p.nums, p.den = tuple([x // g for x in nums[:n]]), den // g
        p._flt = None
        return p

    @property
    def coeffs(self):
        return tuple([Fraction(x, self.den) for x in self.nums])

    def _floats(self):
        if self._flt is None:
            self._flt = tuple([_quotient(x, self.den) for x in self.nums])
        return self._flt

    @property
    def degree(self):
        return len(self.nums) - 1

    @property
    def is_zero(self):
        return not self.nums

    def __eq__(self, other):
        return isinstance(other, Poly) and self.den == other.den and self.nums == other.nums

    def __hash__(self):
        return hash((self.nums, self.den))

    def __repr__(self):
        return f"Poly({list(self.coeffs)})"

    def _combine(self, other, sign):
        """self + sign * other."""
        den = math.lcm(self.den, other.den)
        fa, fb = den // self.den, sign * (den // other.den)
        pairs = zip_longest(self.nums, other.nums, fillvalue=0)
        return Poly._canonical([x * fa + y * fb for x, y in pairs], den)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        p = Poly.__new__(Poly)
        p.nums, p.den, p._flt = tuple([-x for x in self.nums]), self.den, None
        return p

    def __mul__(self, other):
        if isinstance(other, Poly):
            if self.is_zero or other.is_zero:
                return Poly()
            a, b = self.nums, other.nums
            out = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    out[i + j] += x * y
            return Poly._canonical(out, self.den * other.den)
        other = families.rational(other)
        return Poly._canonical([x * other.numerator for x in self.nums],
                               self.den * other.denominator)

    __rmul__ = __mul__

    def deriv(self, order=1):
        p = self
        for _ in range(order):
            p = Poly._canonical([i * x for i, x in enumerate(p.nums)][1:], p.den)
        return p

    def __call__(self, s):
        out = 0
        for c in reversed(self.coeffs if isinstance(s, (int, Fraction)) else self._floats()):
            out = out * s + c
        return out

    def eval_array(self, x):
        out = np.zeros_like(np.asarray(x, dtype=float))
        for c in reversed(self._floats()):
            out = out * x + c
        return out

    def max_abs(self):
        return max(map(abs, self._floats()), default=0.0)

    def to_json(self):
        return [str(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, items):
        return cls(items)


def _quotient(n, d):
    """n/d as a float, +-inf where it lies beyond float range."""
    try:
        return n / d
    except OverflowError:
        return math.inf if n > 0 else -math.inf


@dataclass(frozen=True)
class DifferentiableValue:
    """Value and first derivative at a point (elementwise at an array of points)."""

    value: float
    deriv: float


@dataclass(frozen=True)
class AssociatedFunction:
    """kappa^m(s) * poly(s) on the family interval."""

    family: families.Family
    l: int
    m: int
    poly: Poly

    def derivatives(self, s_arr):
        """f, f' and f'' on an array of interior points, all analytic.

        With f = kappa^m P and r = (kappa^m)'/kappa^m = m sigma'/(2 sigma):
        f' = kappa^m (P' + r P) and f'' = kappa^m (P'' + 2 r P' + (r^2 + r') P).
        """
        fam, m = self.family, self.m
        s = np.asarray(s_arr, dtype=float)
        fam.require_inside(s)
        r, r_p = (m / 2.0 * v for v in fam.sigma_ratios(s))
        q, qp, qpp = (self.poly.deriv(i).eval_array(s) for i in range(3))
        km = fam.sigma(s) ** (m / 2.0)
        return km * q, km * (qp + r * q), km * (qpp + 2.0 * r * qp + (r * r + r_p) * q)

    def eval(self, s):
        """Value and analytic s-derivative at a point inside the interval."""
        f, fp, _ = self.derivatives(np.array([float(s)]))
        return DifferentiableValue(float(f[0]), float(fp[0]))

    def values(self, s_arr):
        """Vectorized plain values (no derivative)."""
        return self.family.sigma(s_arr) ** (self.m / 2.0) * self.poly.eval_array(s_arr)

    def to_json(self):
        return {
            "family": self.family.to_json(),
            "l": self.l,
            "m": self.m,
            "coeffs": self.poly.to_json(),
        }


def poly_eigenfunction(fam, level):
    """Level-l polynomial from the downward coefficient recurrence.

    The substitution p = sum c_j s^j into sigma p'' + tau p' + lambda_l p = 0
    couples c_j to c_{j+1}, c_{j+2}; fixing the leading coefficient at 1/l!
    (so the l-th derivative is exactly 1) determines the rest.  A vanishing
    divisor lambda_l - lambda_j flags a degenerate parameter choice.  The
    recurrence scales sigma, alpha, beta by their common denominator and runs
    on integers: cs[j] is c_j's numerator over l! * divs[j] * ... * divs[l-1],
    with no gcd before the one canonical Poly at the end.

    Each level is built once per Family instance (Family.level_memo); a
    level that raises is not kept, so it raises on every call.
    """
    families.require_level(fam, level)
    if level not in fam.level_memo:
        fam.level_memo[level] = _recurrence(fam, level)
    return fam.level_memo[level]


def _recurrence(fam, level):
    tau = fam.polys[2]  # beta + alpha s, exactly: integer numerators over tau.den
    d, (beta, alpha) = tau.den, (*tau.nums, 0, 0)[:2]
    c0, c1, c2 = [c * d for c in fam.sigma_coeffs]
    lam = -c2 * level * (level - 1) - alpha * level  # d * lambda_l
    cs, divs = [0] * (level + 1), [1] * (level + 1)
    cs[level] = 1
    for j in range(level - 1, -1, -1):
        div = c2 * j * (j - 1) + alpha * j + lam
        if div == 0:
            raise RecurrenceBreakdown(
                f"lambda_{level} - lambda_{j} vanishes for ({fam.kind}, "
                f"alpha={fam.alpha}, beta={fam.beta})"
            )
        num = (j + 1) * (c1 * j + beta) * cs[j + 1]
        if j + 2 <= level:
            num += c0 * (j + 2) * (j + 1) * cs[j + 2] * divs[j + 1]
        cs[j], divs[j] = -num, div
    # over the common denominator l! * prod(divs), c_j gains divs[0] * ... * divs[j-1]
    scale = 1
    for j in range(level + 1):
        cs[j] *= scale
        scale *= divs[j]
    den = math.factorial(level) * scale
    return Poly._canonical(cs, den) if den > 0 else Poly._canonical([-x for x in cs], -den)


def ode_residual(fam, level, p):
    """sigma p'' + tau p' + lambda_l p as a polynomial (zero for solutions)."""
    sig, _, tau = fam.polys
    dp = p.deriv()
    return sig * dp.deriv() + tau * dp + families.eigenvalue(fam, level) * p


def associated_function(fam, level, order):
    """kappa^order * (order-th derivative of the level polynomial)."""
    families.require_index("order", order, 0, level)
    return AssociatedFunction(fam, level, order, poly_eigenfunction(fam, level).deriv(order))


# --- weighted norms and Gram matrices --------------------------------------

def _gram(fam, order, levels):
    """Packed Gram matrix of the order-m functions at the given levels.

    One tanh-sinh pass: the integrand evaluates sigma^m rho and each level
    polynomial once per node array and returns the upper-triangle products
    sigma^m rho p_i p_j as stacked rows.  An order that is not a
    non-negative int raises IndexViolation, even when no level is given.
    """
    families.require_index("order", order)
    polys = [associated_function(fam, l, order).poly for l in levels]
    iu, ju = np.triu_indices(len(polys))

    # where sigma^m rho is 0 the product is 0 no matter how large the
    # polynomial part has grown at the extreme quadrature nodes
    def f(s):
        weight = families.sigma_m_rho(fam, order, s)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            vals = np.array([p.eval_array(s) for p in polys])
            out = vals[iu] * vals[ju]
            out *= weight
        return np.where(weight == 0.0, 0.0, out)

    a, b = fam.interval
    g = np.zeros((len(polys), len(polys)))
    if polys:  # lmax < order leaves no level
        g[iu, ju] = g[ju, iu] = quad(f, a, b, tol=1e-13).value
    return g


def norm(fam, level, order):
    """Weighted L2 norm of the associated function: the root of a one-level Gram."""
    return math.sqrt(_gram(fam, order, [level])[0, 0])


def gram_matrix(fam, order, lmax):
    """Inner products of the order-m associated functions up to level lmax."""
    families.require_index("lmax", lmax, None)
    return _gram(fam, order, [l for l in range(lmax + 1) if l >= order])
