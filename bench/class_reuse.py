"""Jacobian-class kernels carried from one adaptive level to the next.

    python3 bench/class_reuse.py [--out BENCH_class_reuse.json] [--repeat 3]

Runs solve-estimate-mark-refine level by level, as `adaptive_loop`
does, on one BLAS thread, in two cases:

* the three benchmark workloads of `perfbench/workloads.py` (problem,
  k, d, refinement mode, Doerfler fraction and dof budget), each from
  all 16 of its start meshes;
* adaptive `point_parabolic` (k = 1, d = 1e-2, theta = 0.25) from the
  4-element rectangle until an assembly raises `AssemblyError`.

For every level it records the elements, the ndof, the Jacobian
classes (J and -J share one, `assembly.jacobian_classes`), the classes
built (those whose key the previous level's
normal equations do not hold) and the assembly seconds with
`previous=` the last level's normal equations and without it, each the
median of `--repeat` runs.  Per workload it also sums these over all
levels of all start meshes.
"""

import os

if __name__ == "__main__":
    # pinned before numpy loads OpenBLAS
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
for _path in (ROOT / "src", ROOT / "perfbench"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from shelldpg import (  # noqa: E402
    AssemblyError,
    assemble_normal_equations,
    dorfler_mark,
    initial_rectangle_mesh,
    make_benchmark,
    refine,
    solve,
)
from workloads import DEFAULT_SEED, WORKLOADS, start_mesh  # noqa: E402

STARTS = 16  # start meshes of a workload (`workloads.start_mesh`)
DEEP = ("point_parabolic", 1, 1e-2, 0.25)  # (benchmark, k, d, theta)
TOL = 1e-10  # solver tolerance, as in `AdaptiveConfig`


def median_time(fn, repeat):
    """Median seconds of `repeat` calls and the last call's result."""
    times = []
    for _ in range(repeat):
        t = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times), out


def run_levels(prob, k, mesh, mode, theta, max_dofs, max_levels, repeat):
    """Per-level records of one adaptive run and why it stopped early, if so."""
    levels, prev = [], None
    for level in itertools.count():
        try:
            fresh_s, _ = median_time(
                lambda: assemble_normal_equations(mesh, prob, k), repeat)
            previous_s, neq = median_time(
                lambda: assemble_normal_equations(mesh, prob, k, previous=prev),
                repeat)
        except AssemblyError as exc:
            return levels, f"level {level} ({mesh.ntriangles} elements): {exc}"
        known = set() if prev is None else {
            key.tobytes() for key in prev.elements.keys}
        keys = neq.elements.keys
        levels.append({
            "level": level, "elements": mesh.ntriangles, "ndof": neq.ndof,
            "classes": len(keys),
            "built": sum(key.tobytes() not in known for key in keys),
            "previous_s": previous_s, "fresh_s": fresh_s,
        })
        if level >= max_levels or neq.ndof >= max_dofs:
            return levels, None
        _, etas = solve(neq, TOL)
        if mode == "uniform":
            marked = np.arange(mesh.ntriangles)
        else:
            marked = dorfler_mark(etas, theta)
        mesh = refine(mesh, marked)
        prev = neq


def totals(levels):
    out = {key: sum(rec[key] for rec in levels)
           for key in ("classes", "built", "previous_s", "fresh_s")}
    out["levels"] = len(levels)
    out["previous_over_fresh"] = out["previous_s"] / out["fresh_s"]
    return out


def workload_case(w, repeat):
    prob = make_benchmark(w.benchmark, d=w.d)
    starts = []
    for instance in range(STARTS):
        mesh = start_mesh(prob, DEFAULT_SEED, instance)
        levels, _ = run_levels(prob, w.k, mesh, w.mode, w.theta, w.max_dofs,
                               w.max_levels, repeat)
        starts.append({"instance": instance, "levels": levels})
    case = {"benchmark": w.benchmark, "k": w.k, "d": w.d, "mode": w.mode,
            "theta": w.theta, "max_dofs": w.max_dofs, "seed": DEFAULT_SEED,
            "total": totals([rec for s in starts for rec in s["levels"]]),
            "starts": starts}
    print(f"{w.name:26s} {case['total']}", flush=True)
    return case


def deep_case(repeat):
    kind, k, d, theta = DEEP
    prob = make_benchmark(kind, d=d)
    levels, stop = run_levels(prob, k, initial_rectangle_mesh(prob.rect),
                              "adaptive", theta, float("inf"), 10**6, repeat)
    case = {"benchmark": kind, "k": k, "d": d, "mode": "adaptive",
            "theta": theta, "stop": stop, "total": totals(levels),
            "levels": levels}
    print(f"{kind} deep: {case['total']}\n  stop: {stop}", flush=True)
    return case


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=str(ROOT / "BENCH_class_reuse.json"))
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args(argv)

    out = {
        "env": {"OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
                "nproc": os.cpu_count(), "python": platform.python_version(),
                "numpy": np.__version__, "scipy": scipy.__version__},
        "repeat": args.repeat,
        "workloads": {name: workload_case(w, args.repeat)
                      for name, w in WORKLOADS.items()},
        "adaptive_point_parabolic": deep_case(args.repeat),
    }
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
