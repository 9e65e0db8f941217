"""Acceptance criteria, one test per criterion, run at the stated tolerances.

Each test prints a PASS line on success (visible with pytest -rA / -s).
Criterion 6 carries one blocked clause: the deep-well fixture with
(alpha, beta) = (-9, 1) asks the finite-difference oracle to find the
closed-form levels 9, 16, 21, but that parameter choice puts the level
functions outside L^2 (sqrt(kappa*rho)*Phi ~ x^-3.5 at the origin), so
those levels are not eigenvalues of the self-adjoint operator for any
grid.  The verbatim test is kept as a strict xfail; the companion tests
pin the same closed-form levels with the square-integrable choice
beta = 10 and assert that the oracle honestly reports the misses for
beta = 1.
"""

import math
import time

import pytest

from hypersusy import families, ladder, riccati, verify
from hypersusy.cli import main
from hypersusy.numerics import verify_spectrum
from oracles import check_shifted_factorization


def _stamp(name, t0, detail=""):
    print(f"PASS  {name}  ({time.perf_counter() - t0:.2f}s)  {detail}")


def test_criterion_1_algebraic_identities():
    t0 = time.perf_counter()
    rep = verify.suite_algebra()
    elapsed = time.perf_counter() - t0
    assert rep["ok"], rep["failures"]
    # int and float rows alike reach exactly 0
    assert rep["max_residual"] == 0.0 and rep["tol"] == {"max_residual": 0.0}
    for kind, alpha, beta in verify.TEST_MATRIX + verify.FLOAT_MATRIX:
        row = f"{kind}(alpha={alpha},beta={beta})"
        assert rep["details"][f"identities:{row},m=0"] == 0.0
        assert rep["details"][f"ode:{row},l=0"] == 0.0
    assert elapsed < 10.0
    _stamp("criterion 1: factorization + intertwining identities", t0, "residual=0")


def test_criterion_2_recurrence():
    t0 = time.perf_counter()
    rep = verify.suite_recurrence()
    elapsed = time.perf_counter() - t0
    assert rep["ok"], rep["failures"]
    assert rep["max_residual"] == 0.0 and rep["tol"] == {"max_residual": 0.0}
    assert elapsed < 5.0
    _stamp("criterion 2: three-term order recurrence", t0,
           f"max={rep['max_residual']:.2e}")


def test_criterion_3_orthogonality_and_norms():
    t0 = time.perf_counter()
    rep = verify.suite_orthogonality()
    elapsed = time.perf_counter() - t0
    assert rep["ok"], rep["failures"]
    assert rep["max_gram"] <= 1e-8
    assert rep["max_ratio"] <= 1e-7
    assert elapsed < 30.0
    _stamp("criterion 3: orthogonality + norm ratios", t0,
           f"gram<={rep['max_gram']:.2e}, ratio<={rep['max_ratio']:.2e}")


def test_criterion_4_riccati():
    t0 = time.perf_counter()
    rep = verify.suite_riccati()
    elapsed = time.perf_counter() - t0
    assert rep["ok"], rep["failures"]
    assert rep["max_residual"] <= 1e-9
    assert elapsed < 10.0
    _stamp("criterion 4: Riccati residuals", t0, f"max={rep['max_residual']:.2e}")


def test_criterion_5_golden_catalog():
    t0 = time.perf_counter()
    rep = verify.suite_catalog()
    elapsed = time.perf_counter() - t0
    assert rep["ok"], rep["failures"]
    # the worst deviation of V, W and the printed eigenvalue shorthand
    assert rep["max_deviation"] <= 1e-10
    assert elapsed < 5.0
    _stamp("criterion 5: ten-entry golden catalog", t0,
           f"max dev={rep['max_deviation']:.2e}")


def test_criterion_6_upper_spectrum_oscillator():
    t0 = time.perf_counter()
    fam = families.make_family("const", -2, 0)
    d = riccati.make_deformation(fam, 0, math.inf)
    rep = verify_spectrum(d, "upper", 4, -10.0, 10.0, 4000)
    assert rep.ok, rep.missing
    assert rep.targets == [2.0, 4.0, 6.0, 8.0]
    assert rep.max_residual <= 1e-3
    assert time.perf_counter() - t0 < 60.0
    _stamp("criterion 6a: oscillator upper spectrum", t0,
           f"residual<={rep.max_residual:.2e}")


@pytest.mark.xfail(
    strict=True,
    reason="(alpha=-9, beta=1) violates beta > -alpha: the order-1 level "
    "functions are not square-integrable, so the closed-form levels "
    "9, 16, 21 are not Dirichlet eigenvalues for any grid",
)
def test_criterion_6_upper_spectrum_deep_well_verbatim():
    fam = families.make_family("s2_minus_one", -9, 1)
    d = riccati.make_deformation(fam, 0, math.inf)
    rep = verify_spectrum(d, "upper", 3, 0.0045, 17.0, 4000, tol=5e-3)
    assert rep.ok, rep.missing
    assert rep.max_residual <= 5e-3


def test_criterion_6_deep_well_levels_in_normalizable_regime():
    # same closed-form targets l*(10-l), square-integrable parameter choice
    t0 = time.perf_counter()
    fam = families.make_family("s2_minus_one", -9, 10)
    d = riccati.make_deformation(fam, 0, math.inf)
    rep = verify_spectrum(d, "upper", 3, 0.0, 16.0, 4000, tol=5e-3)
    assert rep.targets == [9.0, 16.0, 21.0]
    assert rep.ok, rep.missing
    assert rep.max_residual <= 5e-3
    assert time.perf_counter() - t0 < 60.0
    _stamp("criterion 6b: deep-well spectrum (normalizable regime)", t0,
           f"residual<={rep.max_residual:.2e}")


def test_criterion_6_deep_well_carrier_reports_misses():
    # for beta = 1 the oracle must report the targets as missing rather
    # than hallucinate matches
    fam = families.make_family("s2_minus_one", -9, 1)
    d = riccati.make_deformation(fam, 0, math.inf)
    rep = verify_spectrum(d, "upper", 3, 0.0045, 17.0, 4000, tol=5e-3)
    assert rep.matched == []
    assert sorted(rep.missing) == [9.0, 16.0, 21.0]


def test_criterion_7_partner_spectrum():
    t0 = time.perf_counter()
    fam = families.make_family("const", -2, 0)
    rays = riccati.gamma_rays(fam, 0)
    assert rays.contains(2.0)  # 2 > sqrt(pi)/2 = 0.8862...
    d = riccati.make_deformation(fam, 0, 2.0)
    rep = verify_spectrum(d, "partner", 4, -10.0, 10.0, 4000)
    assert rep.ok, rep.missing
    assert rep.max_residual <= 1e-3
    # extras (the possible state near 0) are reported, never asserted
    assert isinstance(rep.extras, list)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _stamp("criterion 7: one-parameter partner spectrum", t0,
           f"residual<={rep.max_residual:.2e}, extras={rep.extras}")


def test_criterion_8_coulomb_shift():
    t0 = time.perf_counter()
    fam = families.make_family("linear", 0, 2)
    lam0 = families.shifted_eigenvalue(fam, 0, 2)
    assert float(lam0) == pytest.approx(-4.0 / 9.0, abs=1e-15)
    d = riccati.make_deformation(fam, 0, math.inf, delta=2)
    rep = verify_spectrum(d, "upper", 2, 0.002, 120.0, 6000, tol=5e-3)
    assert rep.targets == pytest.approx([-4.0 / 25.0, -4.0 / 49.0])
    assert rep.ok, rep.missing
    assert rep.max_residual <= 5e-3
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _stamp("criterion 8: Coulomb-type shifted spectrum", t0,
           f"residual<={rep.max_residual:.2e}")


def test_criterion_8_shifted_factorization_is_exact():
    fam = families.make_family("linear", 0, 2)
    rep = check_shifted_factorization(ladder.make_context(fam, 0, delta=2))
    assert rep["max_residual"] == 0.0


def test_criterion_9_verify_all_exit_zero(capsys):
    t0 = time.perf_counter()
    assert main(["verify", "--suite", "all"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 4
    _stamp("criterion 9: verify --suite all exits 0", t0)
