"""Polynomial eigenfunctions and the associated special functions.

The level-l eigenfunction is built from the three-term coefficient
recurrence of sigma*p'' + tau*p' + lambda_l*p = 0, normalized so its l-th
derivative is exactly 1; the order-m associated function is then
kappa^m * (m-th derivative of the polynomial) with kappa = sqrt(sigma).
Coefficients are exact whenever the family parameters are int/Fraction
(integer numerators over one common denominator, read back as Fractions),
plain floats otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest

import numpy as np

from . import families
from .errors import CutoffExceeded, IndexViolation, RecurrenceBreakdown
from .families import _is_exact
from .numerics import quad


class Poly:
    """Dense univariate polynomial; index = power of s.

    A polynomial whose coefficients are all int/Fraction is exact and is
    stored as integer numerators ``nums`` over one positive integer
    denominator ``den``, in lowest terms (gcd(den, *nums) == 1) and with no
    trailing zero numerator, so each value has one representation.  Exact
    arithmetic then runs on Python ints: a sum costs one lcm, a product is
    an integer convolution, and each result is reduced by one gcd.  Any
    other coefficient makes the polynomial float: ``nums`` holds the
    coefficients as given and ``den`` is None; an exact operand meeting a
    float one enters as its floats n/den, the same values Fraction
    arithmetic would give.  ``coeffs`` is the read API and yields Fractions
    for exact polynomials.
    """

    # Tuples, the argument tuple of a *-call included, are built from lists,
    # never from generators: a tuple filled from a generator grows by
    # resizing, and CPython then parks the freed tuples in per-size free
    # lists that fill to their cap (about 4 MB over a long exact run).
    __slots__ = ("nums", "den")

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        if all(_is_exact(c) for c in cs):
            # Fractions are reduced, so over the lcm the numerators share no
            # factor with it
            den = math.lcm(*[c.denominator for c in cs])
            self.nums = tuple([c.numerator * (den // c.denominator) for c in cs])
            self.den = den
        else:
            self.nums = tuple([float(c) if isinstance(c, Fraction) else c for c in cs])
            self.den = None

    @classmethod
    def _exact(cls, nums, den):
        """Canonical exact polynomial sum_i nums[i] s^i / den, den > 0."""
        n = len(nums)
        while n and not nums[n - 1]:
            n -= 1
        g = math.gcd(den, *nums[:n])
        p = cls.__new__(cls)
        if g == 1:
            p.nums, p.den = tuple(nums[:n]), den
        else:
            p.nums, p.den = tuple([x // g for x in nums[:n]]), den // g
        return p

    @property
    def coeffs(self):
        if self.den is None:
            return self.nums
        return tuple([Fraction(x, self.den) for x in self.nums])

    def _floats(self):
        if self.den is None:
            return self.nums
        return tuple([x / self.den for x in self.nums])

    @property
    def degree(self):
        return len(self.nums) - 1

    @property
    def is_zero(self):
        return not self.nums

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return False
        if self.den is not None and other.den is not None:
            return self.den == other.den and self.nums == other.nums
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Poly({list(self.coeffs)})"

    def _combine(self, other, sign):
        """self + sign * other."""
        if self.den is not None and other.den is not None:
            den = math.lcm(self.den, other.den)
            fa, fb = den // self.den, sign * (den // other.den)
            pairs = zip_longest(self.nums, other.nums, fillvalue=0)
            return Poly._exact([x * fa + y * fb for x, y in pairs], den)
        pairs = zip_longest(self._floats(), other._floats(), fillvalue=0)
        return Poly([x + y for x, y in pairs] if sign > 0 else [x - y for x, y in pairs])

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        p = Poly.__new__(Poly)
        p.nums, p.den = tuple([-x for x in self.nums]), self.den
        return p

    def __mul__(self, other):
        if isinstance(other, Poly):
            if self.is_zero or other.is_zero:
                return Poly()
            exact = self.den is not None and other.den is not None
            a, b = (self.nums, other.nums) if exact else (self._floats(), other._floats())
            out = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    out[i + j] += x * y
            return Poly._exact(out, self.den * other.den) if exact else Poly(out)
        if self.den is not None and _is_exact(other):
            return Poly._exact([x * other.numerator for x in self.nums],
                               self.den * other.denominator)
        if isinstance(other, Fraction):
            other = float(other)
        return Poly([c * other for c in self._floats()])

    __rmul__ = __mul__

    def deriv(self, order=1):
        p = self
        for _ in range(order):
            if p.den is None:
                p = Poly([i * c for i, c in enumerate(p.nums)][1:])
            else:
                p = Poly._exact([i * x for i, x in enumerate(p.nums)][1:], p.den)
        return p

    def __call__(self, s):
        out = 0
        for c in reversed(self.coeffs if _is_exact(s) else self._floats()):
            out = out * s + c
        return out

    def eval_array(self, x):
        out = np.zeros_like(np.asarray(x, dtype=float))
        for c in reversed(self._floats()):
            out = out * x + float(c)
        return out

    def max_abs(self):
        if self.den is not None:
            # n -> n/den is monotone, so the largest quotient is the quotient
            # of the largest numerator
            return max(map(abs, self.nums), default=0) / self.den
        return max((abs(float(c)) for c in self.nums), default=0.0)

    def to_json(self):
        return [str(c) if _is_exact(c) else float(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, items):
        cs = []
        for it in items:
            cs.append(Fraction(it) if isinstance(it, str) else float(it))
        return cls(cs)


def poly_divmod(num, den):
    """Long division num = q*den + r; exact for Fraction coefficients."""
    if den.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    n = list(num.coeffs)
    d = den.coeffs
    if len(n) < len(d):
        return Poly(), num
    q = [0] * (len(n) - len(d) + 1)
    lead = d[-1]
    for i in range(len(n) - len(d), -1, -1):
        c = n[i + len(d) - 1] / lead
        q[i] = c
        if c != 0:
            for j, dc in enumerate(d):
                n[i + j] -= c * dc
    return Poly(q), Poly(n[: len(d) - 1])


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
        sig, sp = fam.sigma(s), fam.sigma_prime(s)
        r = m * sp / (2.0 * sig)
        r_p = m * (2.0 * fam.sigma_lead * sig - sp * sp) / (2.0 * sig * sig)
        q, qp, qpp = (self.poly.deriv(i).eval_array(s) for i in range(3))
        km = sig ** (m / 2.0)
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
    exact lane scales sigma, alpha, beta by their common denominator and runs
    on integers: cs[j] is c_j's numerator over l! * divs[j] * ... * divs[l-1],
    with no gcd before the one canonical Poly at the end.
    """
    if not isinstance(level, int) or level < 0:
        raise CutoffExceeded(f"level must be a non-negative integer, got {level!r}")
    if not families.below_cutoff(fam, level):
        raise CutoffExceeded(f"level {level} is not below the cutoff {families.cutoff(fam)}")
    c0, c1, c2 = fam.sigma_coeffs
    alpha, beta = fam.alpha, fam.beta
    exact = fam.exact
    if exact:
        d = math.lcm(alpha.denominator, beta.denominator)
        c0, c1, c2 = c0 * d, c1 * d, c2 * d
        alpha = alpha.numerator * (d // alpha.denominator)
        beta = beta.numerator * (d // beta.denominator)
    lam = -c2 * level * (level - 1) - alpha * level  # lambda_l, times d in the exact lane
    cs, divs = [0] * (level + 1), [1] * (level + 1)
    cs[level] = 1 if exact else 1.0 / math.factorial(level)
    for j in range(level - 1, -1, -1):
        div = c2 * j * (j - 1) + alpha * j + lam
        if div == 0 or (not exact and abs(float(div)) < 1e-14):
            raise RecurrenceBreakdown(
                f"lambda_{level} - lambda_{j} vanishes for ({fam.kind}, "
                f"alpha={fam.alpha}, beta={fam.beta})"
            )
        num = (j + 1) * (c1 * j + beta) * cs[j + 1]
        if j + 2 <= level:
            num += c0 * (j + 2) * (j + 1) * cs[j + 2] * divs[j + 1]
        if exact:
            cs[j], divs[j] = -num, div
        else:
            cs[j] = -float(num) / float(div)
    if not exact:
        return Poly(cs)
    # over the common denominator l! * prod(divs), c_j gains divs[0] * ... * divs[j-1]
    scale = 1
    for j in range(level + 1):
        cs[j] *= scale
        scale *= divs[j]
    den = math.factorial(level) * scale
    return Poly._exact(cs, den) if den > 0 else Poly._exact([-x for x in cs], -den)


def ode_residual(fam, level, p):
    """sigma p'' + tau p' + lambda_l p as a polynomial (zero for solutions)."""
    sig, _, tau = fam.polys
    lam = families.eigenvalue(fam, level)
    return sig * p.deriv(2) + tau * p.deriv() + lam * p


def associated_function(fam, level, order):
    """kappa^order * (order-th derivative of the level polynomial)."""
    if not isinstance(order, int) or order < 0 or order > level:
        raise IndexViolation(f"order must satisfy 0 <= m <= l, got m={order}, l={level}")
    return AssociatedFunction(fam, level, order, poly_eigenfunction(fam, level).deriv(order))


# --- weighted norms and Gram matrices --------------------------------------

def _gram(fam, order, levels):
    """Packed Gram matrix of the order-m functions at the given levels.

    One tanh-sinh pass: the integrand evaluates sigma^m rho and each level
    polynomial once per node array and returns the upper-triangle products
    sigma^m rho p_i p_j as stacked rows.
    """
    polys = [poly_eigenfunction(fam, l).deriv(order) for l in levels]
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
    if order > level:
        raise IndexViolation(f"order must satisfy m <= l, got m={order}, l={level}")
    return math.sqrt(_gram(fam, order, [level])[0, 0])


def gram_matrix(fam, order, lmax):
    """Inner products of the order-m associated functions up to level lmax."""
    return _gram(fam, order, range(order, lmax + 1))
