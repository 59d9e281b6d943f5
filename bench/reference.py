"""Cost of the Fourier reference: per-call series time and per-level reuse.

    python3 bench/reference.py [--out BENCH_reference.json]
                               [--repeat 5] [--rounds 6] [--parent-src DIR]

Records, for the Fourier reference of the point-load benchmarks (d of
the adaptive-parabolic-k1 workload of `perfbench/workloads.py`, the
default truncation):

* `evaluate_s`: seconds per `FourierReference.evaluate` call at 600,
  1,700 and 4,400 random points, for each kind;
* `start_meshes`: one adaptive-parabolic-k1 run from each of its 16
  start meshes (`workloads.start_mesh`, seed 1), with the
  `make_evaluator` hook as `perfbench/worker.py` runs it.  Per level,
  the points the error rule asks for (25 per element) and the points
  the series was evaluated at; per run, `reference_s` (time in the
  hook), `solve_s` (the whole `adaptive_loop`) and their ratio.

Each time is the median, on one BLAS thread, over `--rounds` child
processes (and `--repeat` calls each for `evaluate_s`).  A child imports
`shelldpg` from a given `src` directory: this checkout's, and with
`--parent-src` also that of another checkout (say, one made with
`git clone` or `git archive` at the parent commit).  The two sides
alternate round by round, so that a drift in host speed reaches both.
"""

import os

if __name__ == "__main__":
    # pinned before numpy loads OpenBLAS, here and in the child processes
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import DEFAULT_SEED, WORKLOADS, start_mesh  # noqa: E402

WORKLOAD = "adaptive-parabolic-k1"
POINTS = (600, 1700, 4400)
KINDS = ("elliptic", "parabolic", "hyperbolic")
START_MESHES = 16


def call_times(fn, repeat):
    times = []
    for _ in range(repeat):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return times


def adaptive_runs(workload):
    """Per start mesh: points asked for and evaluated per level, and times."""
    from shelldpg import AdaptiveConfig, adaptive_loop, make_benchmark
    from shelldpg.reference import FourierReference, make_evaluator

    problem = make_benchmark(workload.benchmark, d=workload.d)
    cfg = AdaptiveConfig(k=workload.k, theta=workload.theta,
                         mode=workload.mode, max_dofs=workload.max_dofs,
                         max_levels=workload.max_levels, tol=workload.tol)
    evaluated = []
    series = FourierReference.evaluate

    def counting(self, x, y):
        evaluated[-1] += int(x.size)
        return series(self, x, y)

    FourierReference.evaluate = counting
    runs = []
    try:
        for j in range(START_MESHES):
            evaluator = make_evaluator(problem)
            levels, spent = [], []

            def hook(prob, mesh, fields):
                evaluated.append(0)
                t = time.perf_counter()
                extras = evaluator(prob, mesh, fields)
                spent.append(time.perf_counter() - t)
                levels.append({"nelems": mesh.ntriangles,
                               "points_requested": 25 * mesh.ntriangles,
                               "points_evaluated": evaluated[-1]})
                return extras

            mesh = start_mesh(problem, DEFAULT_SEED, j)
            t = time.perf_counter()
            adaptive_loop(problem, cfg, evaluator=hook, initial_mesh=mesh)
            solve_s = time.perf_counter() - t
            runs.append({"instance": j, "levels": levels,
                         "reference_s": sum(spent), "solve_s": solve_s})
    finally:
        FourierReference.evaluate = series
    return runs


def measure(repeat):
    """One round of every figure, with shelldpg on sys.path."""
    import numpy as np

    from shelldpg.reference import FourierReference

    w = WORKLOADS[WORKLOAD]
    rng = np.random.default_rng(0)
    evaluate_s = {}
    for kind in KINDS:
        ref = FourierReference(kind, w.d)
        evaluate_s[kind] = {}
        for n in POINTS:
            x, y = rng.uniform(-1.0, 1.0, (2, n))
            ref.evaluate(x, y)
            evaluate_s[kind][str(n)] = call_times(lambda: ref.evaluate(x, y),
                                                  repeat)
    return {"evaluate_s": evaluate_s, "start_meshes": adaptive_runs(w)}


def run_child(src, repeat):
    """`measure` in a fresh process importing shelldpg from `src`."""
    proc = subprocess.run(
        [sys.executable, __file__, "--child", str(src), "--repeat", str(repeat)],
        check=True, stdout=subprocess.PIPE, text=True)
    return json.loads(proc.stdout.splitlines()[-1])


def pooled(runs):
    """One result with the median over all rounds (and calls)."""
    out = runs[0]
    for kind, row in out["evaluate_s"].items():
        for n in row:
            row[n] = statistics.median(
                t for run in runs for t in run["evaluate_s"][kind][n])
    for j, case in enumerate(out["start_meshes"]):
        for key in ("reference_s", "solve_s"):
            case[key] = statistics.median(
                run["start_meshes"][j][key] for run in runs)
        case["reference_share"] = case["reference_s"] / case["solve_s"]
    levels = [lvl for case in out["start_meshes"] for lvl in case["levels"]]
    out["points"] = {
        key: sum(lvl[key] for lvl in levels)
        for key in ("points_requested", "points_evaluated")}
    return out


def print_summary(label, res):
    for kind, row in res["evaluate_s"].items():
        cells = "  ".join(f"{n:>5s} pts {t * 1e3:6.1f} ms" for n, t in row.items())
        print(f"{label:7s} {kind:11s} {cells}", flush=True)
    shares = [c["reference_share"] for c in res["start_meshes"]]
    pts = res["points"]
    print(f"{label:7s} points evaluated/requested {pts['points_evaluated']}"
          f"/{pts['points_requested']}, reference_s/solve_s "
          f"{min(shares):.2f}-{max(shares):.2f}", flush=True)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=str(ROOT / "BENCH_reference.json"))
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--rounds", type=int, default=6)
    ap.add_argument("--parent-src", help="src directory of another checkout "
                    "to measure next to this one")
    ap.add_argument("--child", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.child:
        sys.path.insert(0, args.child)
        print(json.dumps(measure(args.repeat)))
        return 0

    import numpy as np
    import scipy

    sides = {"change": ROOT / "src"}
    if args.parent_src:
        sides["parent"] = Path(args.parent_src).resolve()
    runs = {side: [] for side in sides}
    for r in range(args.rounds):
        for side in (sides if r % 2 == 0 else reversed(sides)):
            runs[side].append(run_child(sides[side], args.repeat))
    w = WORKLOADS[WORKLOAD]
    out = {
        "env": {"OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
                "nproc": os.cpu_count(), "python": platform.python_version(),
                "numpy": np.__version__, "scipy": scipy.__version__},
        "workload": WORKLOAD, "d": w.d, "seed": DEFAULT_SEED,
        "repeat": args.repeat,
        "rounds": args.rounds,
        "unit": "s, median over all rounds (and calls)",
    }
    for side in sides:
        out[side] = pooled(runs[side])
        print_summary(side, out[side])
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
