"""Output checks, run after each job and outside its timed region.

Each check returns a list of problems; an empty list means the output is
right.  The derive checks use closed forms written out here from the
package's documented formulas (sigma, tau, rho, the coordinate map and the
undeformed superpotential), and ``scipy.integrate.quad`` as a second
quadrature, so they do not trust the code under test.
"""

from __future__ import annotations

import json
import math
import random
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import numpy as np

from hypersusy import families, polynomials, riccati, schrodinger

# sigma = c0 + c1 s + c2 s^2 per kind
SIGMA = {
    "const": (1, 0, 0),
    "linear": (0, 1, 0),
    "one_minus_s2": (1, 0, -1),
    "s2_minus_one": (-1, 0, 1),
    "s2": (0, 0, 1),
    "s2_plus_one": (1, 0, 1),
}
# base point of the cumulative weight I_m (shifting it is shifting gamma)
BASE_POINT = {"const": 0.0, "linear": 1.0, "one_minus_s2": 0.0,
              "s2_minus_one": 2.0, "s2": 1.0, "s2_plus_one": 0.0}

NODES = 6            # seeded nodes per derive job for the pointwise checks
I_REL_TOL = 1e-9     # recovered I_m against scipy.integrate.quad
# a node is used only where rounding lets the check see an I_m error 20x
# smaller than 1e-6 relative, the size the negative control plants
I_RESOLVE = 5e-8
CSV_REL_TOL = 1e-11  # write_csv prints 12 significant digits


def s_of_x(kind, x):
    return {"const": lambda: x, "linear": lambda: x * x / 4.0,
            "one_minus_s2": lambda: math.cos(x), "s2_minus_one": lambda: math.cosh(x),
            "s2": lambda: math.exp(x), "s2_plus_one": lambda: math.sinh(x)}[kind]()


def log_rho(kind, a, b, s):
    if kind == "const":
        return a * s * s / 2.0 + b * s
    if kind == "linear":
        return (b - 1.0) * math.log(s) + a * s
    if kind == "one_minus_s2":
        return (-(a - b) / 2.0 - 1.0) * math.log1p(s) + (-(a + b) / 2.0 - 1.0) * math.log1p(-s)
    if kind == "s2_minus_one":
        return ((a - b) / 2.0 - 1.0) * math.log(s + 1.0) + ((a + b) / 2.0 - 1.0) * math.log(s - 1.0)
    if kind == "s2":
        return (a - 2.0) * math.log(s) - b / s
    return (a / 2.0 - 1.0) * math.log1p(s * s) + b * math.atan(s)


def sigma_tau(kind, a, b, s):
    c0, c1, c2 = SIGMA[kind]
    return c0 + c1 * s + c2 * s * s, c1 + 2 * c2 * s, a * s + b


def w_inf(kind, a, b, m, s):
    """Undeformed superpotential -tau/(2 kappa) - (m - 1/2) sigma'/(2 kappa), and
    the sum of the magnitudes of its terms (the scale of its rounding error)."""
    sig, sp, tau = sigma_tau(kind, a, b, s)
    kap = math.sqrt(sig)
    t1, t2 = tau / (2.0 * kap), (m - 0.5) * sp / (2.0 * kap)
    return -t1 - t2, abs(t1) + abs(t2)


def reference_cumulative_weight(kind, a, b, m, s):
    """I_m(s) from scipy's adaptive Gauss-Kronrod quadrature."""
    from scipy.integrate import quad

    def f(t):
        sig = sigma_tau(kind, a, b, t)[0]
        return sig ** m * math.exp(log_rho(kind, a, b, t))

    val, _ = quad(f, BASE_POINT[kind], s, epsabs=0.0, epsrel=1e-12, limit=400)
    return val


def _columns(spec):
    return ["x", "s", "V_upper", "V_partner", "W"] + [f"psi_{l}" for l in spec["levels"]]


def read_frame(spec):
    """Parse the job's CSV or JSON export back into float columns."""
    path = Path(spec["out"])
    if spec["fmt"] == "json":
        raw = json.loads(path.read_text())
        return {k: np.asarray(v, dtype=float) for k, v in raw.items()}
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(t) for t in ln.split(",")] for ln in lines[1:]], dtype=float)
    rows = rows.reshape(len(lines) - 1, len(header))
    return {name: rows[:, i] for i, name in enumerate(header)}


def _shape_problems(spec, frame):
    if list(frame) != _columns(spec):
        return [f"columns {list(frame)} != {_columns(spec)}"]
    bad = [k for k, v in frame.items() if v.shape != (spec["n"],)]
    return [f"column {k} has {frame[k].shape} values, want {spec['n']}" for k in bad]


def _grid(spec):
    """The requested x grid and s(x) on it, at full precision."""
    xs = np.linspace(float(spec["x_min"]), float(spec["x_max"]), spec["n"])
    return xs, np.array([s_of_x(spec["kind"], float(x)) for x in xs])


def _grid_problems(frame, xs, s_ref, rel):
    out = []
    if np.any(np.abs(frame["x"] - xs) > rel * np.abs(xs)):
        out.append("x column differs from the requested grid")
    if np.any(np.abs(frame["s"] - s_ref) > max(rel, 1e-13) * np.abs(s_ref)):
        out.append("s column differs from the coordinate map")
    return out


def check_deformed(spec, frame=None):
    """Recover I_m from W - W_inf = kappa sigma^m rho / (gamma + I_m) at seeded
    nodes and compare it with scipy.integrate.quad."""
    frame = read_frame(spec) if frame is None else frame
    xs, s_ref = _grid(spec)
    problems = _shape_problems(spec, frame) or _grid_problems(frame, xs, s_ref, 0.0)
    if problems:
        return problems
    kind, m, gamma = spec["kind"], spec["m"], spec["gamma"]
    a, b = float(spec["alpha"]), float(spec["beta"])
    eligible = []
    for s, w in zip(s_ref, frame["W"]):
        s, w = float(s), float(w)
        winf, scale = w_inf(kind, a, b, m, s)
        dw = w - winf
        lr = log_rho(kind, a, b, s)
        sig = sigma_tau(kind, a, b, s)[0]
        if dw == 0.0 or not math.isfinite(w):
            continue
        den = math.sqrt(sig) * sig ** m * math.exp(lr) / dw      # gamma + I_m
        i_rec = den - gamma
        # rounding in W, W_inf and rho, carried into the recovered I_m
        err = abs(den) * (8e-16 * (scale + abs(w)) / abs(dw) + 1e-15 * (1.0 + abs(lr)))
        if 10.0 * err <= I_RESOLVE * abs(i_rec):
            eligible.append((s, i_rec, err))
    if not eligible:
        return ["no grid node resolves I_m; the check cannot run"]
    rng = random.Random(spec["check_seed"])
    for s, i_rec, err in rng.sample(eligible, min(NODES, len(eligible))):
        i_ref = reference_cumulative_weight(kind, a, b, m, s)
        if abs(i_rec - i_ref) > I_REL_TOL * abs(i_ref) + 10.0 * err:
            problems.append(f"I_m at s={s:.6g}: recovered {i_rec!r}, scipy {i_ref!r}")
    return problems


def reference_frame(spec):
    """The undeformed frame recomputed in-process, for the file round trip."""
    fam = families.make_family(spec["kind"], spec["alpha"], spec["beta"])
    defm = riccati.make_deformation(fam, spec["m"], math.inf)
    return schrodinger.grid_frame(defm, _grid(spec)[0], spec["levels"])


def check_undeformed(spec, frame=None):
    """Round-trip the export, check x, s and W against closed forms, and the
    psi_l columns against the scalar ``schrodinger.wavefunction`` path."""
    frame = read_frame(spec) if frame is None else frame
    rel = CSV_REL_TOL if spec["fmt"] == "csv" else 0.0
    xs, s_ref = _grid(spec)
    problems = _shape_problems(spec, frame) or _grid_problems(frame, xs, s_ref, rel)
    if problems:
        return problems
    for name, ref in reference_frame(spec).items():
        got = frame[name]
        same = np.isfinite(ref) == np.isfinite(got)
        close = np.abs(got - ref) <= rel * np.abs(ref)
        ok = same & (close | ~np.isfinite(ref))
        if not np.all(ok):
            i = int(np.argmin(ok))
            problems.append(f"{name}[{i}] = {got[i]!r} does not round-trip {ref[i]!r}")
    kind, a, b, m = spec["kind"], float(spec["alpha"]), float(spec["beta"]), spec["m"]
    for i, s in enumerate(s_ref):
        winf, scale = w_inf(kind, a, b, m, float(s))
        if abs(frame["W"][i] - winf) > 1e-13 * scale + rel * abs(winf):
            problems.append(f"W[{i}] = {frame['W'][i]!r}, closed form {winf!r}")
            break
    fam = families.make_family(spec["kind"], spec["alpha"], spec["beta"])
    rng = random.Random(spec["check_seed"])
    rows = rng.sample(range(spec["n"]), NODES)
    for l in spec["levels"]:
        col = frame[f"psi_{l}"]
        scale = float(np.max(np.abs(col)))
        for i in rows:
            ref = schrodinger.wavefunction(fam, l, m + 1, float(xs[i]))
            if abs(col[i] - ref) > 1e-10 * scale + max(rel, 1e-12) * abs(ref):
                problems.append(f"psi_{l}[{i}] = {col[i]!r}, scalar path {ref!r}")
    if spec.get("svg"):
        problems += check_svg(spec["svg"], frame)
    return problems


def check_svg(path, frame):
    """Three polylines, one vertex per finite value of V_upper, V_partner, W."""
    try:
        root = ET.parse(path).getroot()
    except (OSError, ET.ParseError) as exc:
        return [f"svg unreadable: {exc}"]
    paths = [p.get("d", "") for p in root.iter("{http://www.w3.org/2000/svg}path")]
    if len(paths) != 3:
        return [f"svg has {len(paths)} paths, want 3"]
    out = []
    for d, name in zip(paths, ("V_upper", "V_partner", "W")):
        want = int(np.sum(np.isfinite(frame[name])))
        got = d.count(" L ") + 1 if d.startswith("M ") else 0
        if got != want:
            out.append(f"svg path {name} has {got} vertices, want {want}")
    return out


def check_verify(spec, outcome):
    try:
        report = json.loads(outcome.stdout)
    except json.JSONDecodeError as exc:
        return [f"verify --json printed no JSON: {exc}"]
    if report.get("suite") != spec["suite"]:
        return [f"report is for suite {report.get('suite')!r}"]
    if report.get("ok") is not True:
        return [f"suite {spec['suite']} not ok: {report.get('failures', report.get('error'))}"]
    return []


def check_algebra(spec, value):
    """Exact identities: residual exactly 0, every polynomial solves its ODE."""
    fam, lmax, report = value["family"], value["lmax"], value["report"]
    problems = []
    if report.get("exact") is not True:
        problems.append("identities were not checked in exact arithmetic")
    if report["max_residual"] != 0:
        problems.append(f"max_residual = {report['max_residual']!r}, want exactly 0")
    if len(report["factor_low"]) != lmax - spec["m"] + 1:
        problems.append(f"{len(report['factor_low'])} levels checked, want {lmax - spec['m'] + 1}")
    for l, p in enumerate(value["polys"]):
        if p.degree != l or p.coeffs[-1] != Fraction(1, math.factorial(l)):
            problems.append(f"level {l}: degree {p.degree}, lead {p.coeffs[-1]!r}")
        elif not polynomials.ode_residual(fam, l, p).is_zero:
            problems.append(f"level {l}: ode_residual is not zero")
    return problems


def check(job, outcome):
    """Problems with one job's result; the exit code is checked first."""
    if outcome.error is not None:
        return [f"raised {outcome.error}"]
    if job.op != "algebra" and outcome.rc != job.expect_rc:
        return [f"exit code {outcome.rc}, want {job.expect_rc}: {outcome.stderr.strip()[:200]}"]
    if job.op == "algebra":
        return check_algebra(job.spec, outcome.value)
    if job.op == "verify":
        return check_verify(job.spec, outcome)
    if job.expect_rc != 0:
        if Path(job.spec["out"]).exists():
            return ["a rejected request wrote its output file"]
        return [] if outcome.stderr.startswith("error:") else ["no error message on stderr"]
    if job.spec["gamma"] == math.inf:
        return check_undeformed(job.spec)
    return check_deformed(job.spec)
