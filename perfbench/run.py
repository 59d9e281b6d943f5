"""shelldpg benchmark: adaptive DPG solves of shallow-shell problems.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all

Each repetition is a fresh `worker.py` process that sets up the problem
and runs one `adaptive_loop` from a seeded start mesh to the dof budget.
Repetitions run one after another, each on the next of the seed's start
meshes, until `--seconds` have passed; every figure is the median over
them.  With `--trace 0` a run also starts a few set-up-only processes
and prints the end-to-end metrics; with `--trace 1` it alternates
untraced and traced repetitions and prints the per-layer metrics.  The
last line of standard output is one JSON object: correct, attempted and
failed levels, metrics.

Every time is reported at the reference host speed: each process times
the fixed kernel of `calibrate.py` next to its measurement, and a run's
median times are scaled by `REFERENCE_S / median kernel time`.  The
shared hosts this runs on drift in speed by up to a factor of two over
minutes, far more than any bound; the scaled times do not.  The raw medians are
printed as well.
"""

import argparse
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from calibrate import REFERENCE_S  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 3
WORKER_TIMEOUT_S = 60

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "dofs_per_s": "1/s",
    "last_level_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "assembly.s": "s",
    "assembly.self_s": "s",
    "assembly.gram_s": "s",
    "assembly.b_s": "s",
    "assembly.load_s": "s",
    "assembly.gram_solve_s": "s",
    "assembly.gram_elements": "count",
    "assembly.b_elements": "count",
    "assembly.ndof": "count",
    "assembly.nnz": "count",
    "estimator.s": "s",
    "estimator.self_s": "s",
    "estimator.eta": "1",
    "estimator.effectivity": "ratio",
    "solver.s": "s",
    "solver.self_s": "s",
    "solver.ordering_s": "s",
    "solver.factor_s": "s",
    "solver.lu_solve_s": "s",
    "solver.lu_fill": "ratio",
    "solver.lu_solves": "count",
    "solver.cg_fallbacks": "count",
    "solver.backward_error": "1",
    "traces.dofmap_s": "s",
    "traces.pairings_s": "s",
    "mesh.refine_s": "s",
    "mesh.mark_s": "s",
    "mesh.levels": "count",
    "mesh.elements": "count",
    "polyquad.map_s": "s",
    "reference.s": "s",
    "reference.setup_s": "s",
    "reference.err_total": "1",
    "trace.overhead": "ratio",
}


class WorkerError(RuntimeError):
    pass


def worker(workload, *flags):
    """Run one worker process to completion; its JSON record."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload]
    proc = subprocess.run(cmd + list(flags), capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S, cwd=ROOT, env=os.environ)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:]
        raise WorkerError(tail[0] if tail else
                          f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment():
    """What the numbers depend on besides the code."""
    import numpy
    import scipy

    try:
        # a checkout that is not a repository must not report an enclosing one
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, env=env,
            text=True, capture_output=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def repetitions(name, seed, seconds, trace):
    """Solve repetitions within `seconds`: (untraced, traced).

    A repetition is not started when the median one so far would end
    past `seconds`; the first always runs.
    """
    plain, traced, took = [], [], []
    start = time.perf_counter()
    for rep in itertools.count():
        t = time.perf_counter()
        inst = ["--seed", str(seed), "--instance", str(rep)]
        # one backward-error check a run; traced ones report it per layer
        plain.append(worker(name, *inst,
                            *(["--no-backward-check"] if rep else [])))
        if trace:
            traced.append(worker(name, "--trace", *inst))
        took.append(time.perf_counter() - t)
        if time.perf_counter() - start + statistics.median(took) > seconds:
            return plain, traced


def speed(records):
    """Factor that takes the records' times to the reference host speed.

    The kernel times of the whole run go into one median: host speed
    drifts over minutes, while the spread of single kernel timings is
    fast noise that would otherwise add to every repetition's.
    """
    return REFERENCE_S / statistics.median(r["calibration_s"] for r in records)


def summarize(plain, traced, setups, trace):
    """Metrics of one run from its repetition records."""
    if trace:
        scale = speed(traced)
        metrics = {k: statistics.median(r["layers"][k] for r in traced)
                   * (scale if unit == "s" else 1.0)
                   for k, unit in PER_LAYER.items() if k != "trace.overhead"}
        metrics["trace.overhead"] = (
            statistics.median(r["solve_s"] for r in traced) * scale
            / (statistics.median(r["solve_s"] for r in plain) * speed(plain)))
        units = PER_LAYER
    else:
        scale = speed(plain)
        metrics = {
            "setup_s": statistics.median(r["setup_s"] for r in setups + plain)
            * speed(setups + plain),
            "solve_s": statistics.median(r["solve_s"] for r in plain) * scale,
            "dofs_per_s": statistics.median(r["ndofs"] / r["solve_s"]
                                            for r in plain) / scale,
            "last_level_s": statistics.median(r["last_level_s"] for r in plain)
            * scale,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        units = END_TO_END
    return {k: {"value": metrics[k], "unit": units[k]} for k in units}


def run_workload(name, seed, seconds, trace):
    """One benchmark run; prints the report and returns the result object."""
    setups = [] if trace else [worker(name, "--setup-only")
                               for _ in range(SETUP_SAMPLES)]
    plain, traced = repetitions(name, seed, seconds, trace)
    records = plain + traced
    broken = [r["error"] for r in records if r["error"]]
    good_plain = [r for r in plain if not r["error"]]
    good_traced = [r for r in traced if not r["error"]]
    if not good_plain or (trace and not good_traced):
        raise WorkerError(f"no complete repetition: {broken[0]}")
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    metrics = summarize(good_plain, good_traced, setups, trace)

    print(f"workload {name}  seed {seed}  seconds {seconds}  trace {int(trace)}")
    print(f"repetitions: {len(plain)} untraced, {len(traced)} traced, "
          f"{len(setups)} set-up only; figures are medians")
    final = good_plain[0]
    checked = [r for r in records if r.get("backward_error") is not None]
    print("levels: " + " ".join(str(lv["ndof"]) for lv in final["levels"])
          + " dofs")
    for key, m in metrics.items():
        print(f"  {key:26s} {m['value']:.6g} {m['unit']}")
    timed = good_traced if trace else good_plain
    print(f"  {'calibration_s':26s} {REFERENCE_S / speed(timed):.6g} s "
          f"(median kernel time; times above are raw x {REFERENCE_S:g} s / this)")
    if not trace:
        raw = {k: statistics.median(r[k] for r in good_plain)
               for k in ("solve_s", "last_level_s")}
        raw["setup_s"] = statistics.median(r["setup_s"] for r in setups + plain)
        print("  raw medians: " + " ".join(f"{k}={v:.4g} s"
                                           for k, v in raw.items()))
    if final.get("err_total") is not None:
        print(f"  {'err_total':26s} {final['err_total']:.6g} "
              "(final level, against the reference)")
    for r in checked[:1]:
        print(f"  {'backward_error':26s} {r['backward_error']:.3e} "
              f"(bound {WORKLOADS[name].tol:g})")
    print(f"  {'levels_failed':26s} {failed}/{attempted}")
    absent = sorted({a for r in good_traced for a in r.get("absent", [])})
    if absent:
        print("absent (metrics read 0): " + ", ".join(absent))
    for msg in broken:
        print(f"failed repetition: {msg}")
    print("checks: ndof increasing, eta finite and >= 0, fields finite, "
          "err_total finite, backward error <= tol: "
          + ("pass" if failed == 0 else f"{failed} level(s) failed"))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "shelldpg" / "__init__.py").is_file():
        print(f"error: no shelldpg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    print("env: " + " ".join(f"{k}={v}" for k, v in environment().items()))
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(result))
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
