import functools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersusy import families, ladder, verify
from hypersusy.errors import ContextMismatch, CutoffExceeded, DivisibilityFailure
from hypersusy.ladder import (
    KappaForm,
    apply_hamiltonian,
    check_identities,
    check_shifted_factorization,
    lower_order,
    make_context,
    raise_order,
    recurrence_residual,
)
from hypersusy.polynomials import AssociatedFunction, Poly, associated_function, poly_eigenfunction

MATRIX = (
    ("const", -2, 0),
    ("linear", -1, 1),
    ("one_minus_s2", -4, 1),
    ("s2_minus_one", -8, 10),
    ("s2", -3, 2),
    ("s2_plus_one", -4, 1),
)

FLOAT_MATRIX = (
    ("const", -2.2, 0.3),
    ("linear", -1.1, 1.2),
    ("one_minus_s2", -4.3, 0.9),
    ("s2_minus_one", -7.7, 10.1),
    ("s2", -3.1, 2.2),
    ("s2_plus_one", -4.1, 0.7),
)


def matrix_families(float_mode=False):
    rows = FLOAT_MATRIX if float_mode else MATRIX
    return [families.make_family(k, a, b) for k, a, b in rows]


def lmax_for(fam, cap=6):
    return max(l for l in range(cap + 1) if families.below_cutoff(fam, l))


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
                coeff = Fraction(1) / Fraction(gap) if fam.exact else 1.0 / gap
                current = type(lowered)(fam, l, m, coeff * lowered.poly)
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
    # one polynomial per level; H is applied to u, a u, w and a+ w only
    calls = {"poly": [], "h": 0}
    real_poly, real_h = ladder.poly_eigenfunction, ladder._apply_h

    def counting_poly(fam, level):
        calls["poly"].append(level)
        return real_poly(fam, level)

    def counting_h(*args):
        calls["h"] += 1
        return real_h(*args)

    monkeypatch.setattr(ladder, "poly_eigenfunction", counting_poly)
    monkeypatch.setattr(ladder, "_apply_h", counting_h)
    for fam, m, lmax in ((families.make_family("const", -2, 0), 1, 7),
                         (families.make_family("s2_minus_one", -8, 10), 0, 3)):
        calls["poly"], calls["h"] = [], 0
        rep = check_identities(make_context(fam, m), lmax)
        assert calls["poly"] == list(range(m, lmax + 1))
        assert len(rep["factor_low"]) == lmax - m + 1
        assert calls["h"] == 2 + 4 * (lmax - m)


def test_identities_exact_with_fraction_parameters():
    f = families.make_family("one_minus_s2", Fraction(-7, 2), Fraction(1, 2))
    rep = check_identities(make_context(f, 1), 5)
    assert rep["exact"] is True and rep["max_residual"] == 0.0
    g = families.make_family("s2_minus_one", Fraction(-15, 2), 9)
    rep = check_identities(make_context(g, 0), 3)
    assert rep["max_residual"] == 0.0


def test_identities_float_mode():
    for fam in matrix_families(float_mode=True):
        for m in range(0, 2):
            if not families.below_cutoff(fam, m + 1):
                continue
            rep = check_identities(make_context(fam, m), lmax_for(fam))
            assert rep["max_residual"] <= 1e-12


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
    # the float family compares equal to the exact one; the lane must match too
    with pytest.raises(ContextMismatch):
        lower_order(ctx, associated_function(families.make_family("const", -2.0, 0.0), 2, 1))
    with pytest.raises(ContextMismatch):
        raise_order(make_context(families.make_family("const", -2.0, 0.0), 0),
                    associated_function(f, 1, 0))


def test_float_polynomial_does_not_enter_an_exact_context():
    # a context has one lane; an exact family's function must carry exact coefficients
    f = families.make_family("const", -2, 0)
    af = associated_function(f, 2, 1)
    with pytest.raises(ContextMismatch, match="lane"):
        lower_order(make_context(f, 0), AssociatedFunction(f, 2, 1, af.poly * 0.7))


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


def test_sigma_division_guards_against_a_remainder(monkeypatch):
    # H lands on kappa^(m-2) sigma q; a stray kappa^(m-2) c s term leaves the
    # remainder c s on division by 1 - s^2.  The exact lane allows none, the
    # float lane 1e-10 of its largest coefficient.
    real = ladder._apply_h
    for alpha, beta, c, fails in ((-4, 1, Fraction(1, 10**30), True), (-4.3, 0.9, 1.0, True),
                                  (-4.3, 0.9, 1e-13, False)):
        f = families.make_family("one_minus_s2", alpha, beta)
        ctx, af = make_context(f, 1), associated_function(f, 2, 1)
        stray = KappaForm(f, [(-1, Poly([0, c]))])
        monkeypatch.setattr(ladder, "_apply_h", lambda ctx, m, u, d=stray: real(ctx, m, u) - d)
        if fails:
            with pytest.raises(DivisibilityFailure, match="remainder"):
                apply_hamiltonian(ctx, af)
        else:
            assert apply_hamiltonian(ctx, af).poly.degree == 1


def test_kappa_form_derivative_is_product_rule():
    # (kappa^j p)' = kappa^(j-2) [sigma p' + j (sigma'/2) p], slot by slot
    f = families.make_family("s2_plus_one", -4, 1)
    af = associated_function(f, 2, 1)
    polys = make_context(f, 1).ladder_polys
    form = KappaForm(f, [(j - 2, ladder._first_order(polys, p, j))
                         for j, p in KappaForm.from_assoc(af).terms.items()])
    for s in (-1.3, 0.4, 2.2):
        val = sum(float(f.sigma(s)) ** (j / 2.0) * float(p(s)) for j, p in form.terms.items())
        assert abs(val - af.eval(s).deriv) < 1e-12


# --- order recurrence --------------------------------------------------------

def test_recurrence_interior_and_boundary():
    rng = np.random.default_rng(3)
    for fam in matrix_families():
        lmax = lmax_for(fam)
        for l in range(1, lmax + 1):
            for m in range(1, l + 1):
                pts = families.sample_points(fam, 32, rng)
                assert recurrence_residual(fam, l, m, pts) <= 1e-10


def test_recurrence_hermite_l1_closed_form():
    f = families.make_family("const", -2, 0)
    assert recurrence_residual(f, 1, 1, np.linspace(-3, 3, 11)) <= 1e-14


# --- shifted (delta) variants -------------------------------------------------

def test_shift_zero_reduces_to_plain():
    f = families.make_family("one_minus_s2", -4, 0)
    ctx = make_context(f, 0, delta=0)
    af = associated_function(f, 2, 0)
    shifted = ladder._apply_raise(ctx, KappaForm.from_assoc(af))
    plain = raise_order(make_context(f, 0), af)
    diff = shifted - KappaForm.from_assoc(plain)
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
    form = ladder._apply_raise(ctx, KappaForm.from_assoc(af))
    up = associated_function(f, 2, 1)
    form_low = ladder._apply_lower(ctx, KappaForm.from_assoc(up))

    def value_at(kform, s):
        return sum(float(f.sigma(s)) ** (j / 2.0) * float(p(s)) for j, p in kform.terms.items())

    for s in (-0.7, -0.2, 0.4, 0.85):
        got = riccati.apply_b(d, s, af.derivatives(s), "b").value
        assert abs(got - value_at(form, s)) < 1e-13
        got = riccati.apply_b(d, s, up.derivatives(s), "b_plus").value
        assert abs(got - value_at(form_low, s)) < 1e-13


def test_shifted_hamiltonian_offset_is_kappa_prime():
    # each context applies H - lambda_m, and the shifted lambda_m is
    # lambda_m - c^2: (H_shift - lambda_shift) - (H - lambda) = -delta kappa' + c^2
    f = families.make_family("one_minus_s2", -4, 0)
    ctx = make_context(f, 0, delta=1)
    c = float(ctx.shift_constant)
    u = KappaForm(f, [(0, Poly([Fraction(1), Fraction(2)]))])
    shifted = ladder._apply_h(ctx, 0, u)
    plain = ladder._apply_h(make_context(f, 0), 0, u)
    diff = shifted - plain
    for s in (-0.6, 0.1, 0.7):
        val = sum(float(f.sigma(s)) ** (j / 2.0) * float(p(s)) for j, p in diff.terms.items())
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


def test_float_delta_leaves_the_exact_lane():
    f = families.make_family("one_minus_s2", -4, 0)
    rep = check_identities(make_context(f, 1, delta=1.5), 4)
    assert rep["exact"] is False and rep["max_residual"] <= 1e-12
    assert check_identities(make_context(f, 1, delta=Fraction(3, 2)), 4)["max_residual"] == 0


# --- guards on the closed-form maps -------------------------------------------

def unshifted_contexts():
    fams = matrix_families() + [families.make_family(*row) for row in POWER_FAMILIES]
    return [(make_context(f, m), lmax_for(f, cap=4)) for f in fams for m in (0, 1)
            if families.below_cutoff(f, m + 1)]


def shifted_contexts():
    return [make_context(families.make_family(*row), m, delta=Fraction(3, 2))
            for row in POWER_FAMILIES for m in (0, 1)]


def slot_form(ctx, u, power_shift, poly_of):
    """kappa^(j + power_shift) * poly_of(p) for each slot kappa^j p of u."""
    return KappaForm(ctx.family, [(j + power_shift, poly_of(p)) for j, p in u.terms.items()])


def plus(a, b):
    return KappaForm(a.family, [*a.terms.items(), *b.terms.items()])


# Each mutation changes one term of one map; the map stays a wrapper around
# the real one, so the term is perturbed and nothing else.
MUTATIONS = {
    # lower: -tau p becomes -2 tau p
    "lower-tau": ("_apply_lower", lambda real: lambda ctx, u: real(ctx, u) - slot_form(
        ctx, u, -1, lambda p: ctx.family.polys[2] * p)),
    # raise: (j - m) sigma'/2 p becomes (j - m + 1) sigma'/2 p
    "raise-j-minus-m": ("_apply_raise", lambda real: lambda ctx, u: plus(real(ctx, u), slot_form(
        ctx, u, -1, lambda p: ctx.family.polys[1] * p * Fraction(1, 2)))),
    # H: the constant of v_m moves by one
    "h-v-constant": ("_apply_h", lambda real: lambda ctx, m, u: plus(real(ctx, m, u), u)),
}
SHIFT_MUTATIONS = {
    # the first-order maps: c u becomes 2 c u
    "raise-c": ("_apply_raise", lambda real: lambda ctx, u: plus(
        real(ctx, u), slot_form(ctx, u, 0, lambda p: p * ctx.shift_constant))),
    "lower-c": ("_apply_lower", lambda real: lambda ctx, u: plus(
        real(ctx, u), slot_form(ctx, u, 0, lambda p: p * ctx.shift_constant))),
    # H: -delta kappa' u becomes -2 delta kappa' u
    "h-delta-kappa-prime": ("_apply_h", lambda real: lambda ctx, m, u: real(ctx, m, u) - slot_form(
        ctx, u, -1, lambda p: ctx.family.polys[1] * p * (ctx.delta / 2))),
}


def caught(monkeypatch, name, mutate, runs):
    """How many of the runs report a nonzero residual with the map mutated."""
    assert all(run()["max_residual"] == 0 for run in runs)
    monkeypatch.setattr(ladder, name, mutate(getattr(ladder, name)))
    hits = sum(run()["max_residual"] > 0 for run in runs)
    monkeypatch.undo()
    return hits


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_identities_catch_a_mutated_term(monkeypatch, mutation):
    runs = [functools.partial(check_identities, ctx, lmax) for ctx, lmax in unshifted_contexts()]
    assert caught(monkeypatch, *MUTATIONS[mutation], runs) >= 1


@pytest.mark.parametrize("mutation", sorted(SHIFT_MUTATIONS))
def test_shifted_factorization_catches_a_mutated_shift_term(monkeypatch, mutation):
    runs = [functools.partial(check_shifted_factorization, ctx) for ctx in shifted_contexts()]
    assert caught(monkeypatch, *SHIFT_MUTATIONS[mutation], runs) >= 1


def test_identities_cost_per_level_is_pinned(monkeypatch):
    # polynomial products (scalar ones included) and canonical reductions in
    # check_identities, levels built beforehand so only the ladder maps and
    # their context are counted; each map reduces each slot once, so a map
    # that builds its result twice adds reductions
    counts = {"mul": 0, "canonical": 0}
    real_mul, real_canonical = Poly.__mul__, Poly._canonical.__func__

    def counting_mul(self, other):
        counts["mul"] += 1
        return real_mul(self, other)

    def counting_canonical(cls, nums, den):
        counts["canonical"] += 1
        return real_canonical(cls, nums, den)

    for fam, m, lmax, pinned in ((families.make_family("const", -2, 0), 1, 7, (13, 114)),
                                 (families.make_family("s2_minus_one", -8, 10), 0, 4, (13, 81))):
        levels = {l: ladder.poly_eigenfunction(fam, l) for l in range(m, lmax + 1)}
        with monkeypatch.context() as mp:
            mp.setattr(ladder, "poly_eigenfunction", lambda fam, l: levels[l])
            mp.setattr(Poly, "__mul__", counting_mul)
            mp.setattr(Poly, "__rmul__", counting_mul)
            mp.setattr(Poly, "_canonical", classmethod(counting_canonical))
            counts["mul"] = counts["canonical"] = 0
            rep = check_identities(make_context(fam, m), lmax)
        assert rep["max_residual"] == 0 and len(rep["factor_low"]) == lmax - m + 1
        assert (counts["mul"], counts["canonical"]) == pinned


# --- the one-pass kernels against Poly composition ------------------------------

def reference_first_order(fam, p, e, with_tau):
    """sigma p' + (e sigma'/2 [+ tau]) p in Poly arithmetic."""
    sig, sp, tau = fam.polys
    g = sp * Fraction(1, 2) * e
    return sig * p.deriv() + ((g + tau) if with_tau else g) * p


def reference_h_slot(fam, k, lam, j, p):
    """sigma (v_k - lam) p - sigma q' - (j-2) sigma'/2 q - tau q, q = sigma p' + j sigma'/2 p."""
    q = reference_first_order(fam, p, j, False)
    return ((families.sigma_potential(fam, k) - fam.polys[0] * lam) * p
            - reference_first_order(fam, q, j - 2, True))


def assert_kernel_matches(got, want, exact):
    # == in the exact lane; in floats within 1e-15 of the largest coefficient
    if exact:
        assert got == want
    else:
        assert got.den is None or got.is_zero
        assert (got - want).max_abs() <= 1e-15 * want.max_abs()


def kernel_slots(fam, m):
    """The level polynomials' order-m parts up to verify._lmax, plus for a
    float family an exact slot, which enters the float context as its floats."""
    for l in range(m, verify._lmax(fam) + 1):
        yield poly_eigenfunction(fam, l).deriv(m)
        if not fam.exact:
            yield Poly([Fraction(1, 3), -2, Fraction(5, 7)][:l + 1])


# of the exact rows only linear has stencils over D > 1; the fractional row
# takes its D = 2 from tau
@pytest.mark.parametrize("row", verify.TEST_MATRIX + verify.FLOAT_MATRIX
                         + (("one_minus_s2", Fraction(-7, 2), Fraction(1, 2)),),
                         ids=lambda row: f"{row[0]}({row[1]},{row[2]})")
def test_kernels_match_poly_composition(row):
    fam = families.make_family(*row)
    for m in verify._orders(fam):
        ctx = make_context(fam, m)
        lam = families.eigenvalue(fam, m)
        for p in kernel_slots(fam, m):
            # u sits at kappa^m, w at kappa^(m+1); the maps take them down to kappa^(m-3)
            for j in range(m - 3, m + 2):
                for e, with_tau in ((j - m, False), (j + m - 1, True), (j, False), (j - 2, True)):
                    got = ladder._first_order(ctx.ladder_polys, p, e, with_tau)
                    assert_kernel_matches(got, reference_first_order(fam, p, e, with_tau),
                                          fam.exact)
                for k in (m, m + 1):
                    got = ladder._apply_h(ctx, k, KappaForm(fam, [(j, p)])).terms.get(j - 2, Poly())
                    assert_kernel_matches(got, reference_h_slot(fam, k, lam, j, p), fam.exact)
