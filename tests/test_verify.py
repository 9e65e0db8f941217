import pytest

from hypersusy import families, verify
from hypersusy.errors import NoConvergence

# The top level each suite checks: the largest l <= 6 below the cutoff
# (1 - alpha)/2 of the quadratic sigmas; the others have no cutoff.
TOP_LEVEL = {
    ("const", -2, 0): 6, ("linear", -1, 1): 6, ("one_minus_s2", -4, 1): 6,
    ("s2_minus_one", -8, 10): 4,  # cutoff 9/2
    ("s2", -3, 2): 1,  # cutoff 2
    ("s2_plus_one", -4, 1): 2,  # cutoff 5/2
    ("const", -2.2, 0.3): 6, ("linear", -1.1, 1.2): 6, ("one_minus_s2", -4.3, 0.9): 6,
    ("s2_minus_one", -7.7, 10.1): 4,  # cutoff 4.35
    ("s2", -3.1, 2.2): 2,  # cutoff 2.05
    ("s2_plus_one", -4.1, 0.7): 2,  # cutoff 2.55
}


def test_top_level_table_covers_both_matrices():
    assert set(TOP_LEVEL) == set(verify.TEST_MATRIX) | set(verify.FLOAT_MATRIX)
    for row, top in TOP_LEVEL.items():
        fam = families.make_family(*row)
        assert verify._lmax(fam) == top
        assert top < families.cutoff(fam) and (top == 6 or top + 1 >= families.cutoff(fam))


def row_of(fam):
    return (fam.kind, fam.alpha, fam.beta)


def test_algebra_suite_reaches_the_top_level(monkeypatch):
    reached = {}
    real = verify.ladder.check_identities

    def recording(ctx, lmax):
        rep = real(ctx, lmax)
        levels = [int(key.split(",")[0][2:]) for key in rep["factor_low"]]
        reached[(row_of(ctx.family), ctx.m)] = max(levels)
        return rep

    monkeypatch.setattr(verify.ladder, "check_identities", recording)
    assert verify.suite_algebra()["ok"]
    for row, top in TOP_LEVEL.items():
        fam = families.make_family(*row)
        orders = [m for m in (0, 1) if families.below_cutoff(fam, m + 1)]
        assert orders and all(reached[(row, m)] == top for m in orders)


def test_recurrence_suite_reaches_the_top_level():
    out = verify.suite_recurrence()
    assert out["ok"]
    for kind, alpha, beta in verify.TEST_MATRIX:
        levels = [int(key.split(",")[1][2:]) for key in out["details"] if key.startswith(kind + ",")]
        assert max(levels) == TOP_LEVEL[(kind, alpha, beta)]


@pytest.mark.parametrize("row", verify.TEST_MATRIX)
def test_orthogonality_suite_reaches_the_top_level(monkeypatch, row):
    grams = []
    real = verify.gram_matrix

    def recording(fam, order, lmax, *args):
        g = real(fam, order, lmax, *args)
        if row_of(fam) == row:
            grams.append((order, lmax, g.shape))
        return g

    monkeypatch.setattr(verify, "gram_matrix", recording)
    assert verify.suite_orthogonality()["ok"]
    top = TOP_LEVEL[row]
    assert grams == [(m, top, (top - m + 1,) * 2) for m in range(top + 1)]


def test_run_suite_reports_a_package_error_as_a_failed_suite(monkeypatch):
    def boom():
        raise NoConvergence("quadrature gave up")

    monkeypatch.setitem(verify._SUITES, "riccati", boom)
    out = verify.run_suite("riccati")
    assert out["ok"] is False and out["suite"] == "riccati"
    assert out["error"] == "NoConvergence: quadrature gave up"
