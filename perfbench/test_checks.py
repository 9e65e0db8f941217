"""Negative controls: each output check must flag a deliberately wrong result.

    python3 -m pytest perfbench -q
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from hypersusy import numerics, riccati  # noqa: E402


def _jobs(name, tmp_path, labels, seed=0):
    wl = workloads.make_workload(name, seed, tmp_path)
    rounds = wl.rounds()
    found = {}
    while len(found) < len(labels):
        for job in next(rounds):
            if job.label in labels and job.timed and job.label not in found:
                found[job.label] = job
    return [found[label] for label in labels]


def _run(job):
    outcome = workloads.execute(job)
    assert checks.check(job, outcome) == [], "the unperturbed result must pass"
    return outcome


@pytest.mark.parametrize("label", ["derive:const:m=0", "derive:s2_minus_one:m=1"])
def test_deformed_check_flags_cumulative_weight_off_by_1e_6(tmp_path, label):
    (job,) = _jobs("derive-deformed", tmp_path, [label])
    _run(job)
    spec = job.spec
    frame = checks.read_frame(spec)
    a, b, m, gamma = float(spec["alpha"]), float(spec["beta"]), spec["m"], spec["gamma"]
    bad = []
    for s, w in zip(frame["s"], frame["W"]):
        s, w = float(s), float(w)
        winf, _ = checks.w_inf(spec["kind"], a, b, m, s)
        sig = checks.sigma_tau(spec["kind"], a, b, s)[0]
        weight = math.sqrt(sig) * sig ** m * math.exp(checks.log_rho(spec["kind"], a, b, s))
        if w == winf:
            bad.append(w)
            continue
        i_m = weight / (w - winf) - gamma
        bad.append(winf + weight / (gamma + i_m * (1 + 1e-6)))
    frame["W"] = np.array(bad)
    assert any("I_m at" in p for p in checks.check_deformed(spec, frame))


def test_undeformed_check_flags_a_flipped_csv_digit(tmp_path):
    (job,) = _jobs("derive-undeformed", tmp_path, ["derive:const:m=0"])
    job.spec["fmt"], job.spec["svg"] = "csv", None
    job.spec["out"] = str(tmp_path / "frame.csv")
    job.argv = [a for a in job.argv if not a.startswith(("--out=", "--format=", "--svg="))]
    job.argv += [f"--out={job.spec['out']}", "--format=csv"]
    _run(job)
    path = Path(job.spec["out"])
    lines = path.read_text().splitlines()
    row = len(lines) // 2
    cells = lines[row].split(",")
    value = cells[-1]                                   # a psi_l entry
    digits = [k for k, ch in enumerate(value.split("e")[0]) if ch.isdigit()]
    lead = next(n for n, k in enumerate(digits) if value[k] != "0")
    i = digits[lead + 2]                                # third significant digit
    cells[-1] = value[:i] + str((int(value[i]) + 1) % 10) + value[i + 1:]
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    assert checks.check_undeformed(job.spec) != []


def test_undeformed_check_flags_one_ulp_in_json(tmp_path):
    (job,) = _jobs("derive-undeformed", tmp_path, ["derive:linear:m=1"])
    job.spec["fmt"], job.spec["svg"] = "json", None
    job.spec["out"] = str(tmp_path / "frame.json")
    job.argv = [a for a in job.argv if not a.startswith(("--out=", "--format=", "--svg="))]
    job.argv += [f"--out={job.spec['out']}", "--format=json"]
    _run(job)
    path = Path(job.spec["out"])
    raw = json.loads(path.read_text())
    raw["V_partner"][7] = float(np.nextafter(raw["V_partner"][7], np.inf))
    path.write_text(json.dumps(raw))
    assert any("V_partner[7]" in p for p in checks.check_undeformed(job.spec))


def test_svg_check_flags_a_missing_vertex(tmp_path):
    frame = {"x": np.linspace(0, 1, 5), "V_upper": np.ones(5), "V_partner": np.ones(5),
             "W": np.ones(5)}
    good = "M 0 0" + " L 1 1" * 4
    paths = "".join(f'<path d="{d}"/>' for d in (good, good, good[:-6]))
    path = tmp_path / "f.svg"
    path.write_text(f'<svg xmlns="http://www.w3.org/2000/svg">{paths}</svg>')
    assert checks.check_svg(path, frame) == ["svg path W has 4 vertices, want 5"]


def test_verify_check_flags_a_failed_report():
    job = workloads.Job("verify", {"suite": "algebra"}, ["verify", "--suite=algebra", "--json"])
    ok = workloads.Outcome(rc=0, stdout=json.dumps({"ok": True, "suite": "algebra"}))
    failed = workloads.Outcome(rc=0, stdout=json.dumps({"ok": False, "suite": "algebra"}))
    assert checks.check(job, ok) == []
    assert checks.check(job, failed) != []
    assert checks.check(job, workloads.Outcome(rc=1, stdout=ok.stdout)) != []


def test_algebra_check_flags_nonzero_residual_and_wrong_polynomial():
    spec = {"kind": "s2_plus_one", "alpha": -24, "beta": 1, "m": 1, "lmax": 8}
    job = workloads.Job("algebra", spec)
    outcome = _run(job)
    value = outcome.value
    value["report"]["max_residual"] = 1e-300
    assert checks.check(job, outcome) != []
    value["report"]["max_residual"] = 0.0
    p = value["polys"][5]
    value["polys"][5] = type(p)([p.coeffs[0] + 1] + list(p.coeffs[1:]))
    assert checks.check(job, outcome) == ["level 5: ode_residual is not zero"]


def test_probe_check_needs_the_expected_exit_code(tmp_path):
    wl = workloads.make_workload("derive-deformed", 0, tmp_path)
    probe = next(j for j in next(wl.rounds()) if not j.timed)
    outcome = workloads.execute(probe)
    assert checks.check(probe, outcome) == []
    outcome.rc = 0
    assert checks.check(probe, outcome) != []


def test_tracer_covers_imported_names_and_restores_them():
    tracer = tracing.Tracer()
    original = numerics.quad
    tracer.install()
    try:
        assert riccati.quad is not original and riccati.quad.__wrapped__ is original
        tracer.enter("bench.job")
        riccati.gamma_rays(riccati.families.make_family("const", -2, 0), 0)
        tracer.exit()
    finally:
        tracer.uninstall()
    assert riccati.quad is original and numerics.quad is original
    assert tracer.stats["numerics.quad"]["calls"] == 2
    assert tracer.stats["riccati.gamma_rays"]["calls"] == 1
    self_sum = sum(st["self_s"] for st in tracer.stats.values())
    assert self_sum == pytest.approx(tracer.root_seconds(), rel=1e-12)
