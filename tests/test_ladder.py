import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hypersusy import families, ladder, riccati, verify
from hypersusy.errors import ContextMismatch, CutoffExceeded, IndexViolation
from hypersusy.ladder import (
    apply_hamiltonian,
    check_identities,
    check_recurrence,
    lower_order,
    make_context,
    raise_order,
)
from hypersusy.polynomials import AssociatedFunction, Poly, associated_function, poly_eigenfunction
from hypersusy.verify import FLOAT_MATRIX, TEST_MATRIX
import oracles
from oracles import (
    KappaForm,
    check_shifted_factorization,
    kappa_form,
    monomial_cases,
    reference_map,
    reference_report,
)


def matrix_families(rows=TEST_MATRIX):
    return [families.make_family(k, a, b) for k, a, b in rows]


def lmax_for(fam, cap=6):
    return max(l for l in range(cap + 1) if families.below_cutoff(fam, l))


def apply_map(ctx, op, j, p):
    """ladder's map op on the one slot kappa^j p, as a KappaForm of canonical Polys."""
    st = ladder._stencils(ctx)
    scale = st[0] ** (1 if op in ("raise", "lower") else 2) * p.den
    return kappa_form(ctx, ladder._apply(ctx, st, {}, op, {j: list(p.nums)}), scale)


def test_raise_annihilates_top():
    f = families.make_family("const", -2, 0)
    ctx = make_context(f, 2)
    out = raise_order(ctx, associated_function(f, 2, 2))
    assert out.poly.is_zero and out.m == 3


def test_raise_is_derivative():
    f = families.make_family("const", -2, 0)
    ctx = make_context(f, 0)
    out = raise_order(ctx, associated_function(f, 2, 0))
    assert out.poly.coeffs == (Fraction(0), Fraction(1))
    twice = raise_order(make_context(f, 1), out)
    assert twice.poly == associated_function(f, 2, 2).poly


def test_lower_scales_by_eigenvalue_gap():
    f = families.make_family("const", -2, 0)
    ctx = make_context(f, 0)
    out = lower_order(ctx, associated_function(f, 2, 1))
    assert out.poly == 4 * associated_function(f, 2, 0).poly


def test_lower_then_raise_round_trip():
    for fam in matrix_families():
        lmax = lmax_for(fam)
        for m in range(0, 2):
            if not families.below_cutoff(fam, m + 1):
                continue
            ctx = make_context(fam, m)
            for l in range(m + 1, lmax + 1):
                af = associated_function(fam, l, m)
                gap = families.eigenvalue(fam, l) - families.eigenvalue(fam, m)
                back = lower_order(ctx, raise_order(ctx, af))
                assert back.poly == gap * af.poly


def test_raising_chain_reconstructs_assoc():
    # applying the normalized lowering chain to the top function recovers
    # every associated function exactly
    for fam in matrix_families():
        lmax = min(4, lmax_for(fam))
        for l in range(1, lmax + 1):
            current = associated_function(fam, l, l)
            for m in range(l - 1, -1, -1):
                ctx = make_context(fam, m)
                gap = families.eigenvalue(fam, l) - families.eigenvalue(fam, m)
                lowered = lower_order(ctx, current)
                current = type(lowered)(fam, l, m, Fraction(1) / gap * lowered.poly)
                assert current.poly == associated_function(fam, l, m).poly


def test_hamiltonian_eigen_relation():
    for fam in matrix_families():
        lmax = lmax_for(fam)
        for m in range(0, 2):
            if not families.below_cutoff(fam, m + 1):
                continue
            ctx = make_context(fam, m)
            for l in range(m, lmax + 1):
                af = associated_function(fam, l, m)
                out = apply_hamiltonian(ctx, af)
                assert out.poly == families.eigenvalue(fam, l) * af.poly


@settings(max_examples=60, deadline=None)
@given(row=st.sampled_from(TEST_MATRIX + FLOAT_MATRIX), m=st.integers(min_value=0, max_value=2),
       coeffs=st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=20), max_size=9))
@example(row=TEST_MATRIX[0], m=1, coeffs=[Fraction(1, 3), -2, 0, Fraction(5, 7)])
def test_hamiltonian_is_h_on_any_polynomial(row, m, coeffs):
    # not only on level functions: sigma (H p - lambda_m p) is the oracle's
    # H_m - lambda_m slot on kappa^(m-2), formed by Poly composition
    fam = families.make_family(*row)
    assume(families.below_cutoff(fam, m + 1))
    p, lam = Poly(coeffs), families.eigenvalue(fam, m)
    got = apply_hamiltonian(make_context(fam, m), AssociatedFunction(fam, m, m, p))
    assert fam.polys[0] * (got.poly - p * lam) == oracles.reference_h_slot(fam, m, lam, m, p)


def test_hamiltonian_zero_mode():
    f = families.make_family("const", -2, 0)
    out = apply_hamiltonian(make_context(f, 0), associated_function(f, 0, 0))
    assert out.poly.is_zero


def test_hamiltonian_linear_family():
    f = families.make_family("linear", -1, 2)
    ctx = make_context(f, 1)
    af = associated_function(f, 3, 1)
    out = apply_hamiltonian(ctx, af)
    assert out.poly == 3 * af.poly  # lambda_3 = -alpha * 3


def test_identities_exact_zero():
    for fam in matrix_families():
        for m in range(0, 2):
            if not families.below_cutoff(fam, m + 1):
                continue
            rep = check_identities(make_context(fam, m), lmax_for(fam))
            assert rep["exact"] is True
            assert rep["max_residual"] == 0.0


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(("const", "linear", "one_minus_s2", "s2_minus_one", "s2_plus_one")),
    alpha=st.integers(min_value=-12, max_value=-6),
    beta=st.integers(min_value=0, max_value=5),
    m=st.integers(min_value=0, max_value=1),
)
def test_identities_exact_for_random_parameters(kind, alpha, beta, m):
    # any valid rational parameter set factorizes exactly, not just the matrix
    if kind == "linear":
        beta = beta + 1  # needs beta > 0
    if kind == "one_minus_s2" and not (alpha < beta < -alpha):
        return
    f = families.make_family(kind, alpha, beta)
    if not families.below_cutoff(f, m + 1):
        return
    rep = check_identities(make_context(f, m), min(3, lmax_for(f)))
    assert rep["max_residual"] == 0.0


@pytest.mark.parametrize("kind,alpha,beta", [
    ("const", -2, Fraction(1, 3)),
    ("linear", Fraction(-3, 2), Fraction(5, 2)),
    ("s2_minus_one", -70, 7),
])
def test_identities_exact_up_to_level_30(kind, alpha, beta):
    # the exact envelope: levels 1..30 at m=1, all four identities exactly 0
    f = families.make_family(kind, alpha, beta)
    rep = check_identities(make_context(f, 1), 30)
    assert rep["exact"] is True and rep["max_residual"] == 0
    assert len(rep["factor_low"]) == 30 and len(rep["intertwine_h"]) == 29


def test_identities_build_each_level_once(monkeypatch):
    # one polynomial per level, one set of stencils per call, and one band
    # table per (map, slot power) per call: a raises kappa^m and kappa^(m-2),
    # a+ kappa^(m-1) and kappa^(m+1), H_m kappa^m and H_(m+1) kappa^(m-1)
    # and kappa^(m+1), each on the call's one set of stencils
    calls = {"poly": [], "terms": [], "stencils": []}
    real_poly, real_terms, real_stencils = ladder.poly_eigenfunction, ladder._terms, ladder._stencils

    def counting_poly(fam, level):
        calls["poly"].append(level)
        return real_poly(fam, level)

    def counting_terms(ctx, st, op, j):
        calls["terms"].append((op, j))
        assert st is calls["stencils"][-1]
        return real_terms(ctx, st, op, j)

    def counting_stencils(ctx):
        calls["stencils"].append(real_stencils(ctx))
        return calls["stencils"][-1]

    monkeypatch.setattr(ladder, "poly_eigenfunction", counting_poly)
    monkeypatch.setattr(ladder, "_terms", counting_terms)
    monkeypatch.setattr(ladder, "_stencils", counting_stencils)
    for fam, m, lmax in ((families.make_family("const", -2, 0), 1, 7),
                         (families.make_family("s2_minus_one", -8, 10), 0, 3)):
        calls["poly"], calls["terms"], calls["stencils"] = [], [], []
        rep = check_identities(make_context(fam, m), lmax)
        assert calls["poly"] == list(range(m, lmax + 1)) and len(calls["stencils"]) == 1
        assert len(rep["factor_low"]) == lmax - m + 1
        want = [("raise", m), ("raise", m - 2), ("lower", m - 1), ("lower", m + 1),
                (m, m), (m + 1, m - 1), (m + 1, m + 1)]
        assert sorted(calls["terms"], key=repr) == sorted(want, key=repr)


def test_identities_exact_with_fraction_parameters():
    f = families.make_family("one_minus_s2", Fraction(-7, 2), Fraction(1, 2))
    rep = check_identities(make_context(f, 1), 5)
    assert rep["exact"] is True and rep["max_residual"] == 0.0
    g = families.make_family("s2_minus_one", Fraction(-15, 2), 9)
    rep = check_identities(make_context(g, 0), 3)
    assert rep["max_residual"] == 0.0


def test_identities_exact_for_float_parameters():
    # a float parameter is its exact binary rational: every identity is exactly 0
    for fam in matrix_families(FLOAT_MATRIX):
        for m in range(0, 2):
            if not families.below_cutoff(fam, m + 1):
                continue
            rep = check_identities(make_context(fam, m), lmax_for(fam))
            assert rep["exact"] is True and rep["max_residual"] == 0


def test_a_nan_residual_reaches_max_residual(monkeypatch):
    # (alpha, beta) = (-1e155, 1e155) overflowed floats, and is exact now; with a
    # mutated H the bands differ, so the levels are measured, and one NaN among
    # their residuals must still reach max_residual, where max() drops it
    ctx = make_context(families.make_family("s2_minus_one", -1e155, 1e155), 0)
    assert check_identities(ctx, 4)["max_residual"] == 0
    mutate_bands(monkeypatch, *MUTATIONS["h-v-constant"])
    real, calls = ladder.residual, []

    def nan_once(*args):
        calls.append(None)
        return math.nan if len(calls) == 3 else real(*args)

    monkeypatch.setattr(ladder, "residual", nan_once)
    rep = check_identities(ctx, 4)
    values = [r for name in ("factor_low", "factor_high", "intertwine_h", "intertwine_a")
              for r in rep[name].values()]
    assert sum(math.isnan(r) for r in values) == 1 and len(values) > 1
    assert any(r > 0 for r in values) and math.isnan(rep["max_residual"])


@pytest.mark.parametrize("lmax", [-1, 0, 1])
def test_identities_below_the_order_raise(lmax):
    # no level from m to lmax: the report had a max_residual of 0 and four
    # empty relations, a pass that checked nothing
    ctx = make_context(families.make_family("const", -2, 0), 2)
    with pytest.raises(IndexViolation, match=rf"^lmax must be an integer >= 2, got lmax={lmax}$"):
        check_identities(ctx, lmax)


def test_residual_is_zero_only_for_equal_forms():
    # a difference of 1e-400 relative rounds to 0.0 as a float; an exact check
    # against 0 must still see it
    sig = families.make_family("one_minus_s2", -4, 0).sigma_coeffs
    assert ladder.residual({0: [1]}, {0: [1]}, 1, sig) == 0.0
    big = 10 ** 400
    assert ladder.residual({0: [big]}, {0: [big + 1]}, big, sig) > 0.0
    # equal forms on different powers: kappa^2 = sigma = 1 - s^2 folds onto kappa^0
    assert ladder.residual({0: [1, 0, -1]}, {2: [1]}, 1, sig) == 0.0
    assert ladder.residual({0: [1, 0, -1]}, {2: [2]}, 1, sig) == 0.5


def test_identities_report_shape():
    f = families.make_family("const", -2, 0)
    rep = check_identities(make_context(f, 0), 3)
    assert "l=2,m=0" in rep["factor_low"]
    assert "l=2,m=1" in rep["factor_high"]
    import json

    json.dumps(rep)  # report must be JSON-serializable


def test_context_mismatch():
    f = families.make_family("const", -2, 0)
    g = families.make_family("const", -4, 0)
    ctx = make_context(f, 0)
    with pytest.raises(ContextMismatch):
        raise_order(ctx, associated_function(g, 1, 0))
    with pytest.raises(ContextMismatch):
        lower_order(ctx, associated_function(f, 2, 2))
    # an equal family given in floats is the same family, with the same polynomials
    twin = families.make_family("const", -2.0, 0.0)
    want = lower_order(ctx, associated_function(f, 2, 1))
    assert lower_order(ctx, associated_function(twin, 2, 1)) == want
    assert raise_order(make_context(twin, 0), associated_function(f, 1, 0)).poly == Poly([1])


def test_float_scaled_polynomial_lowers_exactly():
    # a float factor is its exact rational: lowering is linear in it exactly
    f = families.make_family("const", -2, 0)
    af, ctx = associated_function(f, 2, 1), make_context(f, 0)
    got = lower_order(ctx, AssociatedFunction(f, 2, 1, af.poly * 0.7))
    assert got.poly == Fraction(0.7) * lower_order(ctx, af).poly


def test_lowering_needs_m_below_l_below_cutoff():
    # hand-built order-(m+1) functions at levels associated_function refuses
    f = families.make_family("s2", -3, 2)  # cutoff 2
    for l in (0, 2):
        with pytest.raises(ContextMismatch, match="m < l < cutoff"):
            lower_order(make_context(f, 0), AssociatedFunction(f, l, 1, Poly([1])))


def test_context_needs_room_below_cutoff():
    f = families.make_family("s2", -3, 2)  # cutoff 2
    make_context(f, 0)
    with pytest.raises(CutoffExceeded):
        make_context(f, 1)


def test_kappa_form_derivative_is_product_rule():
    # at m = 0, raise sends kappa^j p to kappa^(j-1) [sigma p' + j (sigma'/2) p],
    # which is kappa (kappa^j p)'
    f = families.make_family("s2_plus_one", -4, 1)
    af = associated_function(f, 2, 1)
    form = apply_map(make_context(f, 0), "raise", af.m, af.poly)
    for s in (-1.3, 0.4, 2.2):
        assert abs(form.values(s) - float(f.kappa(s)) * af.eval(s).deriv) < 1e-12


# --- order recurrence --------------------------------------------------------

def test_recurrence_interior_and_boundary():
    # each case (l, m), 1 <= m <= l, lowers Phi_{l,m} at order m - 1: the
    # interior m < l and the boundary m = l alike hold exactly
    for fam in matrix_families():
        lmax = lmax_for(fam)
        for m in range(1, lmax + 1):
            rep = check_recurrence(make_context(fam, m - 1), lmax)
            assert rep == {f"l={l},m={m}": 0.0 for l in range(m, lmax + 1)}


def test_recurrence_hermite_l1_closed_form():
    f = families.make_family("const", -2, 0)
    assert check_recurrence(make_context(f, 0), 1) == {"l=1,m=1": 0.0}


@pytest.mark.parametrize("kind, alpha, beta", TEST_MATRIX + FLOAT_MATRIX)
def test_recurrence_is_exact_up_to_level_12(kind, alpha, beta):
    fam = families.make_family(kind, alpha, beta)
    lmax = lmax_for(fam, cap=12)
    for m in range(min(2, lmax - 1) + 1):
        rep = check_recurrence(make_context(fam, m), lmax)
        assert rep == {f"l={l},m={m + 1}": 0.0 for l in range(m + 1, lmax + 1)}


def test_recurrence_refuses_a_shifted_context():
    f = families.make_family("linear", 0, 2)
    with pytest.raises(ContextMismatch, match="shifted"):
        check_recurrence(make_context(f, 0, delta=2), 3)


# --- shifted (delta) variants -------------------------------------------------

def test_shift_zero_reduces_to_plain():
    f = families.make_family("one_minus_s2", -4, 0)
    ctx, plain_ctx = make_context(f, 0, delta=0), make_context(f, 0)
    af = associated_function(f, 2, 0)
    form = {0: list(af.poly.nums)}
    assert (ladder._apply(ctx, ladder._stencils(ctx), {}, "raise", form)
            == ladder._apply(plain_ctx, ladder._stencils(plain_ctx), {}, "raise", form))
    plain = raise_order(plain_ctx, af)
    diff = apply_map(ctx, "raise", 0, af.poly) - KappaForm(f, [(plain.m, plain.poly)])
    assert diff.max_abs() == 0.0


def test_shifted_factorization_coulomb_carrier():
    f = families.make_family("linear", 0, 2)
    ctx = make_context(f, 0, delta=2)
    rep = check_shifted_factorization(ctx)
    assert rep["max_residual"] == 0.0
    assert families.shifted_eigenvalue(f, 0, 2) == Fraction(-4, 9)


def test_shifted_factorization_all_power_families():
    cases = (
        ("linear", 0, 2, 2),
        ("one_minus_s2", -4, 0, 1),
        ("s2_minus_one", -4, 0, 1),
        ("s2", -5, 0, 1),
        ("s2_plus_one", -4, 0, 1),
    )
    for kind, a, b, delta in cases:
        f = families.make_family(kind, a, b)
        rep = check_shifted_factorization(make_context(f, 0, delta=delta))
        assert rep["max_residual"] == 0.0


def test_shifted_maps_agree_pointwise_with_deformation_module():
    # dual route: exact kappa-form algebra vs the pointwise first-order maps
    import math

    from hypersusy import riccati

    f = families.make_family("one_minus_s2", -4, 0)
    d = riccati.make_deformation(f, 0, math.inf, delta=1)
    ctx = make_context(f, 0, delta=1)
    af = associated_function(f, 2, 0)
    form = apply_map(ctx, "raise", af.m, af.poly)
    up = associated_function(f, 2, 1)
    form_low = apply_map(ctx, "lower", up.m, up.poly)

    for s in (-0.7, -0.2, 0.4, 0.85):
        got = riccati.apply_b(d, s, af.derivatives(s), "b").value
        assert abs(got - form.values(s)) < 1e-13
        got = riccati.apply_b(d, s, up.derivatives(s), "b_plus").value
        assert abs(got - form_low.values(s)) < 1e-13


def test_shifted_hamiltonian_offset_is_kappa_prime():
    # each context applies H - lambda_m, and the shifted lambda_m is
    # lambda_m - c^2: (H_shift - lambda_shift) - (H - lambda) = -delta kappa' + c^2
    f = families.make_family("one_minus_s2", -4, 0)
    ctx = make_context(f, 0, delta=1)
    c = float(ctx.shift_constant)
    u = Poly([Fraction(1), Fraction(2)])
    diff = apply_map(ctx, 0, 0, u) - apply_map(make_context(f, 0), 0, 0, u)
    for s in (-0.6, 0.1, 0.7):
        val = diff.values(s)
        expect = (-1.0 * float(f.kappa_prime(s)) + c * c) * (1.0 + 2.0 * s)
        assert abs(val - expect) < 1e-13


POWER_FAMILIES = (("one_minus_s2", -4, 0), ("s2_minus_one", -8, 0), ("s2", -5, 0),
                  ("s2_plus_one", -6, 0))


@pytest.mark.parametrize("kind,alpha,beta", POWER_FAMILIES)
@pytest.mark.parametrize("m", (0, 1))
def test_identities_exact_on_shifted_contexts(kind, alpha, beta, m):
    # the shifted maps satisfy all four relations with the shifted eigenvalue
    f = families.make_family(kind, alpha, beta)
    rep = check_identities(make_context(f, m, delta=Fraction(3, 2)), lmax_for(f))
    for name in ("factor_low", "factor_high", "intertwine_h", "intertwine_a"):
        assert rep[name] and all(r == 0 for r in rep[name].values())
    assert rep["max_residual"] == 0 and rep["exact"] is True


def test_single_slot_maps_reject_shifted_contexts():
    # a shifted map leaves two kappa parities, so it has no single-slot result
    f = families.make_family("one_minus_s2", -4, 0)
    ctx = make_context(f, 0, delta=1)
    assert ContextMismatch.exit_code == 2
    with pytest.raises(ContextMismatch):
        raise_order(ctx, associated_function(f, 2, 0))
    with pytest.raises(ContextMismatch):
        lower_order(ctx, associated_function(f, 2, 1))
    with pytest.raises(ContextMismatch):
        apply_hamiltonian(ctx, associated_function(f, 2, 0))
    raise_order(make_context(f, 0), associated_function(f, 2, 0))


def test_float_delta_enters_as_its_exact_rational():
    f = families.make_family("one_minus_s2", -4, 0)
    rep = check_identities(make_context(f, 1, delta=1.5), 4)
    assert rep == check_identities(make_context(f, 1, delta=Fraction(3, 2)), 4)
    assert rep["exact"] is True and rep["max_residual"] == 0
    # a non-dyadic delta is its binary rational, and factorizes exactly too
    ctx = make_context(f, 1, delta=0.1)
    assert ctx.shift_constant == Fraction(0.1) / families._shift_denominator(f, 1)
    assert check_identities(ctx, 4)["max_residual"] == 0


# --- guards on the closed-form maps -------------------------------------------

def unshifted_contexts():
    fams = matrix_families() + [families.make_family(*row) for row in POWER_FAMILIES]
    return [(make_context(f, m), lmax_for(f, cap=4)) for f in fams for m in (0, 1)
            if families.below_cutoff(f, m + 1)]


def shifted_contexts():
    return [make_context(families.make_family(*row), m, delta=Fraction(3, 2))
            for row in POWER_FAMILIES for m in (0, 1)]


# Each mutation adds one term to one map, (map, power shift, coefficient):
# the map also sends kappa^j p to kappa^(j + shift) coefficient * p, so one
# term of it is perturbed and nothing else.  "h" is H_k at both orders.
MUTATIONS = {
    # lower: -tau p becomes -2 tau p
    "lower-tau": ("lower", -1, lambda ctx: -ctx.family.polys[2]),
    # raise: (j - m) sigma'/2 p becomes (j - m + 1) sigma'/2 p
    "raise-j-minus-m": ("raise", -1, lambda ctx: ctx.family.polys[1] * Fraction(1, 2)),
    # H: the constant of v_m moves by one (u itself, kappa^j p = kappa^(j-2) sigma p)
    "h-v-constant": ("h", 0, lambda ctx: Poly([1])),
}
SHIFT_MUTATIONS = {
    # the first-order maps: c u becomes 2 c u
    "raise-c": ("raise", 0, lambda ctx: Poly([ctx.shift_constant])),
    "lower-c": ("lower", 0, lambda ctx: Poly([ctx.shift_constant])),
    # H: -delta kappa' u becomes -2 delta kappa' u
    "h-delta-kappa-prime": ("h", -1, lambda ctx: ctx.family.polys[1] * (-Fraction(ctx.delta) / 2)),
}


def _hit(target, op):
    return op == target or (target == "h" and op not in ("raise", "lower"))


def mutate_bands(monkeypatch, target, shift, coeff):
    """Add the term to ladder's maps: one more band, the coefficient's
    numerators over the map's scale factor (D, or D^2 for H)."""
    real = ladder._terms

    def mutated(ctx, st, op, j):
        terms = real(ctx, st, op, j)
        if _hit(target, op):
            factor = st[0] ** (2 if target == "h" else 1)
            scaled = [c * factor for c in coeff(ctx).coeffs] + [0, 0]
            assert all(c.denominator == 1 for c in scaled)
            row = [int(scaled[1]), int(scaled[0]), 0]
            terms = [*terms, (shift, 1, lambda k: row)]
        return terms

    monkeypatch.setattr(ladder, "_terms", mutated)


def mutate_reference(monkeypatch, target, shift, coeff):
    """Add the same term to the reference maps, on KappaForms."""
    real = oracles.reference_map

    def mutated(ctx, op, u):
        out = real(ctx, op, u)
        if _hit(target, op):
            extra = [(j + shift, coeff(ctx) * p) for j, p in u.terms.items()]
            out = KappaForm(ctx.family, [*out.terms.items(), *extra])
        return out

    monkeypatch.setattr(oracles, "reference_map", mutated)


def caught(monkeypatch, mutation, runs):
    """How many of the runs report a nonzero residual with the map mutated."""
    assert all(run()["max_residual"] == 0 for run in runs)
    mutate_bands(monkeypatch, *mutation)
    hits = sum(run()["max_residual"] > 0 for run in runs)
    monkeypatch.undo()
    return hits


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_identities_catch_a_mutated_term(monkeypatch, mutation):
    runs = [functools.partial(check_identities, ctx, lmax) for ctx, lmax in unshifted_contexts()]
    assert caught(monkeypatch, MUTATIONS[mutation], runs) >= 1


@pytest.mark.parametrize("mutation", sorted(SHIFT_MUTATIONS))
def test_shifted_factorization_catches_a_mutated_shift_term(monkeypatch, mutation):
    runs = [functools.partial(check_shifted_factorization, ctx) for ctx in shifted_contexts()]
    assert caught(monkeypatch, SHIFT_MUTATIONS[mutation], runs) >= 1


@pytest.mark.parametrize("mutation", sorted(MUTATIONS) + sorted(SHIFT_MUTATIONS))
def test_a_failing_relation_reports_the_reference_value(monkeypatch, mutation):
    # a relation whose two sides differ leaves the integer comparison for the
    # residual of lhs - rhs: equal, value for value, to that of the reference
    # maps on KappaForms with the same term added
    if mutation in MUTATIONS:
        mutation = MUTATIONS[mutation]
        runs = [(ctx, list(ladder._level_cases(ctx, lmax))) for ctx, lmax in unshifted_contexts()]
    else:
        mutation = SHIFT_MUTATIONS[mutation]
        runs = [(ctx, monomial_cases()) for ctx in shifted_contexts()]
    mutate_bands(monkeypatch, *mutation)
    mutate_reference(monkeypatch, *mutation)
    failing = 0
    for ctx, cases in runs:
        got = ladder._report(ctx, cases)
        assert list(got.items()) == list(reference_report(ctx, cases).items())
        failing += sum(r > 0 for name in ("factor_low", "factor_high", "intertwine_h",
                                          "intertwine_a") for r in got[name].values())
    assert failing >= 1


def test_identities_cost_per_level_is_pinned(monkeypatch):
    # a passing check_identities takes no gcd of its own, and its only Poly
    # products and canonical reductions are those of its one stencil build, so
    # they do not grow with lmax: the relations are decided on integer bands,
    # with no level derivative and no per-level form
    counts = {"mul": 0, "canonical": 0}
    real_mul, real_canonical = Poly.__mul__, Poly._canonical.__func__

    def counting_mul(self, other):
        counts["mul"] += 1
        return real_mul(self, other)

    def counting_canonical(cls, nums, den):
        counts["canonical"] += 1
        return real_canonical(cls, nums, den)

    def cost(call):
        counts["mul"] = counts["canonical"] = 0
        return call(), (counts["mul"], counts["canonical"])

    for fam, m, lmaxes in ((families.make_family("const", -2, 0), 1, (2, 7)),
                           (families.make_family("s2_minus_one", -8, 10), 0, (1, 4))):
        levels = {l: ladder.poly_eigenfunction(fam, l) for l in range(m, max(lmaxes) + 1)}
        ctx = make_context(fam, m)
        with monkeypatch.context() as mp:
            mp.setattr(ladder, "poly_eigenfunction", lambda fam, l: levels[l])
            mp.setattr(Poly, "__mul__", counting_mul)
            mp.setattr(Poly, "__rmul__", counting_mul)
            mp.setattr(Poly, "_canonical", classmethod(counting_canonical))
            _, stencil_cost = cost(lambda: ladder._stencils(ctx))
            runs = {lmax: cost(lambda: check_identities(ctx, lmax)) for lmax in lmaxes}
        assert stencil_cost[0] > 0
        for lmax, (rep, counted) in runs.items():
            assert rep["max_residual"] == 0 and len(rep["factor_low"]) == lmax - m + 1
            assert counted == stencil_cost


def per_level(ctx, lmax):
    """check_identities as the per-level measurement alone would report it."""
    return {**ladder._report(ctx, list(ladder._level_cases(ctx, lmax))), "exact": True}


@pytest.mark.parametrize("row", [(*row, 20, None) for row in TEST_MATRIX]
                         + [(*row, 12, None) for row in FLOAT_MATRIX]
                         + [(*row, 20, delta) for row in POWER_FAMILIES
                            for delta in (None, Fraction(3, 2), 0.7)],
                         ids=lambda row: f"{row[0]}({row[1]},{row[2]})" + (f"d={row[4]}" if row[4] else ""))
def test_identities_equal_the_per_level_report(monkeypatch, row):
    # the band decision returns, key for key and in the same order, what
    # measuring every level returns, without measuring them: each lmax from m
    # up to the cap, m <= 2
    *params, cap, delta = row
    fam = families.make_family(*params)
    for m in range(3):
        if families.below_cutoff(fam, m + 1):
            ctx = make_context(fam, m, delta)
            for lmax in range(m, lmax_for(fam, cap) + 1):
                want = per_level(ctx, lmax)
                with monkeypatch.context() as mp:
                    mp.setattr(ladder, "_report", lambda *args: pytest.fail("a passing call measured"))
                    got = check_identities(ctx, lmax)
                assert list(got.items()) == list(want.items())
                assert got["max_residual"] == 0.0


@pytest.mark.parametrize("mutation", sorted(MUTATIONS) + sorted(SHIFT_MUTATIONS))
def test_identities_equal_the_per_level_report_under_a_mutation(monkeypatch, mutation):
    # a mutated term makes some relations' bands differ; the report is then the
    # per-level one, value for value, and where the bands still agree, so do
    # all the levels
    if mutation in MUTATIONS:
        mutation, runs = MUTATIONS[mutation], unshifted_contexts()
    else:
        mutation = SHIFT_MUTATIONS[mutation]
        runs = [(ctx, lmax_for(ctx.family)) for ctx in shifted_contexts()]
    mutate_bands(monkeypatch, *mutation)
    failing = 0
    for ctx, lmax in runs:
        got = check_identities(ctx, lmax)
        assert list(got.items()) == list(per_level(ctx, lmax).items())
        failing += got["max_residual"] > 0
    assert failing >= 1


def edge_term(monkeypatch, target, j, degree):
    """Add to the map target on the slot kappa^j a term that reads only the
    input numerator of the given degree: out_(degree+1) += n_degree, on the
    map's first landing power (s^(degree+1), so no ground state absorbs it)."""
    real = ladder._terms

    def mutated(ctx, st, op, jj):
        terms = real(ctx, st, op, jj)
        if op == target and jj == j:
            terms = [*terms, (terms[0][0], 1, lambda k: [int(k == degree + 1), 0, 0])]
        return terms

    monkeypatch.setattr(ladder, "_terms", mutated)


@pytest.mark.parametrize("target", ["raise", "h", "lower"])
@pytest.mark.parametrize("fam_m_delta", [(("const", -2, 0), 1, None), (("s2_minus_one", -8, 10), 0, None),
                                         (("one_minus_s2", -4, 0), 1, Fraction(3, 2))],
                         ids=["const", "s2_minus_one", "one_minus_s2-shifted"])
def test_a_term_on_the_top_degree_fails_and_one_above_passes(monkeypatch, target, fam_m_delta):
    # with d = top level - m, raise and H_m on kappa^m only ever see slots of
    # degree <= d (u itself, or a+ w in factor_high and intertwine_h), and a+
    # on kappa^(m+1) only w, of degree <= d - 1: a term reading the top degree
    # must fail and one reading the degree above must pass, for the band
    # decision (which measures the levels only when the bands differ) and for
    # the per-level report alike; lmax = m + 1 leaves w only degree 0
    row, m, delta = fam_m_delta
    fam = families.make_family(*row)
    op, j, below = {"raise": ("raise", m, 0), "h": (m, m, 0), "lower": ("lower", m + 1, 1)}[target]
    measured, real_report = [], ladder._report

    def recording_report(*args):
        measured.append(None)
        return real_report(*args)

    for lmax in (m + 1, lmax_for(fam, 5)):
        ctx, top = make_context(fam, m, delta), lmax - m - below
        for degree, fails in ((top, True), (top + 1, False)):
            with monkeypatch.context() as mp:
                edge_term(mp, op, j, degree)
                want = per_level(ctx, lmax)
                mp.setattr(ladder, "_report", recording_report)
                measured.clear()
                got = check_identities(ctx, lmax)
            assert list(got.items()) == list(want.items())
            assert (want["max_residual"] > 0) is fails and measured == [None] * fails


def test_a_finite_gamma_context_is_refused():
    # the maps are the undeformed ones: at finite gamma b b+ is the partner
    # operator, not H_(m+1) - lambda_m, so no entry point may report on it
    f = families.make_family("const", -2, 0)
    ctx = riccati.make_deformation(f, 0, 2.0)
    calls = (lambda: check_identities(ctx, 3), lambda: check_recurrence(ctx, 3),
             lambda: raise_order(ctx, associated_function(f, 2, 0)),
             lambda: lower_order(ctx, associated_function(f, 2, 1)),
             lambda: apply_hamiltonian(ctx, associated_function(f, 2, 0)))
    for call in calls:
        with pytest.raises(ContextMismatch, match="gamma=2.0"):
            call()
    undeformed = riccati.make_deformation(f, 0, math.inf)
    assert check_identities(undeformed, 3)["max_residual"] == 0.0


# --- the banded maps against Poly composition -----------------------------------

def kernel_slots(fam, m):
    """The level polynomials' order-m parts up to verify._lmax, each with a
    slot that is no level polynomial."""
    for l in range(m, verify._lmax(fam) + 1):
        yield poly_eigenfunction(fam, l).deriv(m)
        yield Poly([Fraction(1, 3), -2, Fraction(5, 7)][:l + 1])


# of the exact rows only linear has stencils over D > 1; the fractional row
# takes its D = 2 from tau, and the shifted rows take c and delta/2 into D
@pytest.mark.parametrize("row", [(*row, None) for row in verify.TEST_MATRIX + verify.FLOAT_MATRIX
                                 + (("one_minus_s2", Fraction(-7, 2), Fraction(1, 2)),)]
                         + [(*row, delta) for row in POWER_FAMILIES for delta in (Fraction(3, 2), 0.7)],
                         ids=lambda row: f"{row[0]}({row[1]},{row[2]})" + (f"d={row[3]}" if row[3] else ""))
def test_kernels_match_poly_composition(row):
    *params, delta = row
    fam = families.make_family(*params)
    for m in verify._orders(fam):
        ctx = make_context(fam, m, delta)
        for p in kernel_slots(fam, m):
            # u sits at kappa^m, w at kappa^(m+1); the maps take them down to kappa^(m-3)
            for j in range(m - 3, m + 2):
                for op in ("raise", "lower", m, m + 1):
                    want = reference_map(ctx, op, KappaForm(fam, [(j, p)]))
                    assert apply_map(ctx, op, j, p).terms == want.terms
