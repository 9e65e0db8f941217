"""hypersusy benchmark: one client, closed loop, in-process jobs.

    python3 perfbench/run.py --workload derive-deformed --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; the package is imported from ``src/``
there and nowhere else.  With ``--trace 0`` the last stdout line holds the
end-to-end metrics named in BENCHMARK.json, with ``--trace 1`` the
per-layer ones, as one JSON object.  Lines above it give the environment,
the sample counts and, when tracing, the per-layer self-time table.  Files
go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import os

# pinned before numpy loads, here and in every child process
PINNED_THREADS = {var: "1" for var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
os.environ.update(PINNED_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_RUNS = 5      # timed fresh interpreters per run, after one that warms the caches
TAIL = 75           # job_p75_s: derive-deformed has ~44 jobs in a run, 10 beyond p75

_SETUP_CHILD = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import hypersusy
t1 = time.perf_counter()
sys.path.insert(0, {bench!r})
import workloads
workloads.make_workload({name!r}, {seed!r}, {work!r})
t2 = time.perf_counter()
print(json.dumps({{"import_s": t1 - t0, "plan_s": t2 - t1}}))
"""


def percentile(values, q):
    """Nearest-rank percentile: the smallest sample with q% of samples at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def measure_setup(name, seed, work):
    """import hypersusy plus the workload's set-up, each in a fresh interpreter."""
    code = _SETUP_CHILD.format(src=str(SRC), bench=str(BENCH), name=name, seed=seed, work=str(work))
    samples = []
    for _ in range(SETUP_RUNS + 1):
        done = subprocess.run([sys.executable, "-I", "-c", code], env=dict(os.environ),
                              capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(done.stdout.splitlines()[-1]))
    samples = samples[1:]
    return {
        "setup_s": statistics.median(s["import_s"] + s["plan_s"] for s in samples),
        "import_s": statistics.median(s["import_s"] for s in samples),
        "plan_s": statistics.median(s["plan_s"] for s in samples),
        "samples": samples,
    }


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else ref[5:]
    return ref


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(args):
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "hypersusy").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(), "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(), "threads_pinned": PINNED_THREADS,
    }


def _clear(work):
    for path in work.iterdir():
        path.unlink()


def measure(wl, seconds, tracer):
    """Closed loop over whole rounds until `seconds` have passed.

    With a tracer every round runs twice, traced and untraced in alternating
    order, so the overhead compares the same jobs.  Checks run between jobs,
    outside each job's timing, and never under the tracer.
    """
    import checks
    import workloads

    rounds = wl.rounds()
    warm = next(wl.rounds())[0]
    _clear(wl.workdir)
    workloads.execute(warm)
    records = []
    t0 = time.perf_counter()
    k = 0
    while time.perf_counter() - t0 < seconds:
        jobs = next(rounds)
        modes = [None] if tracer is None else ([True, False] if k % 2 == 0 else [False, True])
        for traced in modes:
            for job in jobs:
                _clear(wl.workdir)
                if traced:
                    tracer.install()
                    tracer.enter("bench.job")
                outcome = workloads.execute(job)
                if traced:
                    tracer.exit()
                    tracer.uninstall()
                problems = checks.check(job, outcome)
                records.append({"job": job, "seconds": outcome.seconds,
                                "problems": problems, "traced": traced})
        k += 1
    return records, time.perf_counter() - t0


def end_to_end(records, setup, peak_rss_mb):
    """Latency over timed jobs; expected-error probes only count as attempts."""
    timed = [r["seconds"] for r in records if r["job"].timed]
    values = {
        "setup_s": setup["setup_s"],
        "job_p50_s": percentile(timed, 50),
        f"job_p{TAIL}_s": percentile(timed, TAIL),
        "jobs_per_s": len(timed) / sum(timed),
        "peak_rss_mb": peak_rss_mb,
    }
    beyond = sum(1 for t in timed if t > values[f"job_p{TAIL}_s"])
    print(f"latency over {len(timed)} timed jobs: p50 {values['job_p50_s']:.4f} s, "
          f"p{TAIL} {values[f'job_p{TAIL}_s']:.4f} s ({beyond} beyond)")
    return values


def layer_metrics(tracer, records, setup, wanted):
    """Per-layer metrics, per traced job; spans never entered read as zero."""
    jobs = sum(1 for r in records if r["traced"])
    traced = [r["seconds"] for r in records if r["traced"] and r["job"].timed]
    untraced = [r["seconds"] for r in records if r["traced"] is False and r["job"].timed]
    values = {
        "trace.job_p50_s": percentile(traced, 50),
        "trace.untraced_job_p50_s": percentile(untraced, 50),
        "trace.spans": len(tracer) / jobs,
        "setup.import_s": setup["import_s"],
        "setup.plan_s": setup["plan_s"],
    }
    values["trace.overhead_s"] = values["trace.job_p50_s"] - values["trace.untraced_job_p50_s"]
    for name, st in tracer.stats.items():
        for stat, val in st.items():
            values[f"{name}.{stat}"] = val / jobs
    quad = tracer.stats.get("numerics.quad", {})
    values["numerics.quad.evals_per_call"] = quad.get("evals", 0) / quad["calls"] if quad else 0.0
    for name in wanted:
        if name.rsplit(".", 1)[0] in tracer.known_spans():
            values.setdefault(name, 0.0)
    return values


def print_layer_table(tracer, records, values, args):
    """Self time per span, each share given with its base; False if the
    self times do not add up to the traced jobs' time."""
    jobs = sum(1 for r in records if r["traced"])
    base = tracer.root_seconds()
    self_sum = sum(st["self_s"] for st in tracer.stats.values())
    print(f"per-layer self time, {args.workload} seed {args.seed}: {jobs} traced jobs; "
          f"base = their summed time {base:.4f} s ({base / jobs:.4f} s/job); "
          f"self times sum to {self_sum:.4f} s")
    print(f"{'span':<36}{'calls/job':>12}{'self s/job':>13}{'share':>9}")
    for name, st in sorted(tracer.stats.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{name:<36}{st['calls'] / jobs:>12.1f}{st['self_s'] / jobs:>13.6f}"
              f"{st['self_s'] / base:>9.1%}")
    print(f"tracing overhead: traced p50 {values['trace.job_p50_s']:.4f} s - untraced p50 "
          f"{values['trace.untraced_job_p50_s']:.4f} s = {values['trace.overhead_s']:+.4f} s")
    if abs(self_sum - base) > 1e-9 * base:
        print(f"FAIL self times sum to {self_sum!r} s, root spans to {base!r} s")
        return False
    return True


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hypersusy" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'hypersusy'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(SRC), str(BENCH)]
    import hypersusy
    import tracing
    import workloads

    if Path(hypersusy.__file__).resolve().parent != SRC / "hypersusy":
        print(f"error: imported hypersusy from {hypersusy.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: workload must be one of {workloads.WORKLOADS}", file=sys.stderr)
        return 2

    env = environment(args)
    print("env " + json.dumps(env))
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as work:
        setup = measure_setup(args.workload, args.seed, work)
        wl = workloads.make_workload(args.workload, args.seed, work)
        tracer = tracing.Tracer() if args.trace else None
        records, wall = measure(wl, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = [(r["job"].label, p) for r in records for p in r["problems"]]
    failed_jobs = sum(1 for r in records if r["problems"])
    probes = sum(1 for r in records if not r["job"].timed)
    print(f"jobs {len(records)} (expected-error probes {probes}) in {wall:.1f} s; "
          f"failed {failed_jobs}, fail_frac {failed_jobs / len(records):.4f}")
    for label, problem in failures[:10]:
        print(f"FAIL {label}: {problem}")
    if tracer is None:
        wanted = spec["end_to_end"]
        values = end_to_end(records, setup, peak_rss_mb)
        correct = failed_jobs == 0
    else:
        wanted = spec["per_layer"]
        values = layer_metrics(tracer, records, setup, [m["name"] for m in wanted])
        correct = failed_jobs == 0 and print_layer_table(tracer, records, values, args)
        (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(tracer.dump()))

    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            print(f"error: the benchmark does not compute {m['name']}", file=sys.stderr)
            return 2
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    result = {"correct": correct, "attempted": len(records), "failed": failed_jobs, "metrics": metrics}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"result": result, "env": env, "setup": setup, "failures": failures,
                    "all_values": values, "jobs": [(r["job"].label, r["seconds"], r["traced"])
                                                   for r in records]}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
