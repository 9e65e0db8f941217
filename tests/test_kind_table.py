"""The per-kind table in families: its divergence rule and its consistency."""

import math
from fractions import Fraction

import numpy as np
import pytest

from hypersusy import families, riccati

H = Fraction(1, 2)


def former_endpoint_diverges(fam, m, endpoint):
    """The per-kind if-chain that the table-driven rule replaced."""
    al, be = float(fam.alpha), float(fam.beta)
    if fam.kind == families.CONST:
        return False
    if fam.kind == families.LINEAR:
        return endpoint == "upper" and al == 0
    if fam.kind == families.ONE_MINUS_S2:
        expo = m - (al + be) / 2.0 - 1.0 if endpoint == "upper" else m - (al - be) / 2.0 - 1.0
        return expo <= -1.0
    if fam.kind == families.S2_MINUS_ONE:
        if endpoint == "lower":
            return m + (al + be) / 2.0 - 1.0 <= -1.0
        return 2 * m + al - 2.0 >= -1.0
    if fam.kind == families.S2:
        if endpoint == "lower":
            return be == 0 and 2 * m + al - 2.0 <= -1.0
        return 2 * m + al - 2.0 >= -1.0
    return 2 * m + al - 2.0 >= -1.0


FREE = (-9, -4, -3, -5 * H, -2, -3 * H, -1, -H, 0, H, 1, 2, 3, 9 * H, 10)
STEPS = (0, H, -H, Fraction(1, 1024), -Fraction(1, 1024))


def boundary_points(kind, m):
    """(alpha, beta) on and next to each p = -1 line and each decay line."""
    pts = set()
    for m_coef, a2, b2, c, da, db in families.SPECS[kind].ends:
        target = 2 * (-1 - c - m_coef * m)
        for v in FREE:
            if b2:
                pts.add((v, Fraction(target - a2 * v) / b2))
            elif a2:
                pts.add((Fraction(target) / a2, v))
            if da or db:  # the exponential factor switches on along da*alpha + db*beta = 0
                pts.add((v, 0) if db else (0, v))
            pts.add((v, v))
    return {(al + d, be + e) for al, be in pts for d in STEPS for e in STEPS}


def lanes(al, be):
    """The point as ints (when integral) or halves, as floats, and nudged floats."""
    exact = tuple(int(v) if Fraction(v).denominator == 1 else Fraction(v) for v in (al, be))
    yield exact
    yield float(al), float(be)
    yield float(al) + 1e-9, float(be) - 1e-9
    yield float(al) * 1.1, float(be) * 0.7


@pytest.mark.parametrize("kind", families.KINDS)
def test_divergence_rule_matches_the_former_chain(kind):
    spec = families.SPECS[kind]
    checked = 0
    for m in range(5):
        for al0, be0 in boundary_points(kind, m):
            for al, be in lanes(al0, be0):
                if not spec.admits(al, be):
                    continue
                fam = families.Family(kind, al, be)
                for endpoint in ("lower", "upper"):
                    assert riccati._endpoint_diverges(fam, m, endpoint) == \
                        former_endpoint_diverges(fam, m, endpoint), (kind, al, be, m, endpoint)
                    checked += 1
    assert checked > 1000


def test_kinds_keep_their_order():
    assert families.KINDS == ("const", "linear", "one_minus_s2", "s2_minus_one", "s2",
                              "s2_plus_one")
    assert all(families.SPECS[k].kind == k for k in families.KINDS)


@pytest.mark.parametrize("kind", families.KINDS)
def test_record_is_consistent(kind):
    spec = families.SPECS[kind]
    fam = families.Family(kind, -3, 1)
    a, b = spec.interval
    lo, hi = spec.sample_window
    assert a < lo < hi < b
    assert a < spec.base_point < b
    xs = np.linspace(*spec.x_window, 33)
    spec.coords.require_inside(xs)
    s = spec.coords.s_of_x(xs)
    assert fam.contains(s)
    # the interval ends are where sigma vanishes or s is unbounded
    for end in spec.interval:
        assert math.isinf(end) or fam.sigma(end) == 0


# admissible parameters with no decaying exponential at some end
ENDPOINT_CASES = [
    ("linear", 0, 2.5), ("linear", -1, 0.5), ("one_minus_s2", -4, 1), ("one_minus_s2", -3, -2.5),
    ("s2_minus_one", -8, 10), ("s2_minus_one", -2.5, 0), ("s2", -3, 0), ("s2", -3, 2),
    ("s2_plus_one", -4, 1), ("s2_plus_one", -0.5, -3),
]


@pytest.mark.parametrize("kind,alpha,beta", ENDPOINT_CASES)
@pytest.mark.parametrize("m", [0, 2])
def test_endpoint_exponents_match_the_log_weight(kind, alpha, beta, m):
    """p of each End is the log-log slope of sigma^m rho from log_weight."""
    spec = families.SPECS[kind]
    fam = families.Family(kind, alpha, beta)
    for i, end in enumerate(spec.interval):
        m_coef, a2, b2, c, da, db = spec.ends[i]
        if da * alpha + db * beta < 0:
            continue
        if math.isinf(end):
            s1, s2 = math.copysign(1e6, end), math.copysign(1e7, end)
            d1, d2 = abs(s1), abs(s2)
        else:
            d1, d2 = 1e-6, 1e-7
            s1, s2 = (end + d1, end + d2) if i == 0 else (end - d1, end - d2)

        def log_integrand(s):
            return m * math.log(fam.sigma(s)) + spec.log_weight(s, float(alpha), float(beta))

        slope = (log_integrand(s1) - log_integrand(s2)) / (math.log(d1) - math.log(d2))
        p = m_coef * m + (a2 * alpha + b2 * beta) / 2 + c
        assert abs(slope - float(p)) < 1e-4, (i, slope, p)


def test_exact_and_float_families_keep_their_own_polynomials():
    exact, flt = families.Family("const", -2, 0), families.Family("const", -2.0, 0.0)
    assert exact == flt and hash(exact) == hash(flt)
    assert exact.polys[2].den is not None and flt.polys[2].den is None
    assert exact.polys is exact.polys
