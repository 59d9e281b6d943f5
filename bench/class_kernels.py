"""Per-call time of the Jacobian-class kernel build.

    python3 bench/class_kernels.py [--out BENCH_class_kernels.json]
                                   [--repeat 5] [--rounds 6] [--parent-src DIR]

For the problem and k of each benchmark workload of
`perfbench/workloads.py`, it builds a uniform mesh with randomly moved
interior vertices that has at least 128 Jacobian classes, and times on
the lowest-index elements of the first 1, 8, 32 and 128 classes:

* `assembly.element_gram_batch`, the square-root rows of the Gram
  matrices of the test norm (on a checkout from before them, the Gram
  matrices);
* `assembly.element_b_batch`, the trial-to-test matrices, and
  `traces.edge_pairings`, the part of them on the skeleton;
* `assembly._class_kernels` over the batch's classes: the factor of the
  Gram matrix (one QR per diagonal block of its rows; on an older
  checkout, a Cholesky factor of the matrix), the field elimination and
  the load map of each class, in one stacked call.

Each figure is the median seconds per call, on one BLAS thread, over
`--rounds` child processes of `--repeat` calls each.  A child imports
`shelldpg` from a given `src` directory: this checkout's, and with
`--parent-src` also that of another checkout (say, one made with
`git clone` or `git worktree add` at the parent commit).  The two sides
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

from workloads import WORKLOADS  # noqa: E402

BATCHES = (1, 8, 32, 128)
JITTER = 0.2  # interior vertex moves, relative to the uniform mesh size


def call_times(fn, repeat):
    times = []
    for _ in range(repeat):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return times


def jittered_mesh(problem, nclasses):
    """Uniform NVB mesh of the problem's rectangle with its interior
    vertices moved at random, so that almost every element is a Jacobian
    class of its own; refined until it has `nclasses` classes."""
    import numpy as np

    from shelldpg.assembly import jacobian_classes
    from shelldpg.mesh import Mesh, initial_rectangle_mesh, refine

    x0, x1, y0, y1 = problem.rect
    mesh = initial_rectangle_mesh(problem.rect)
    rng = np.random.default_rng(0)
    while True:
        mesh = refine(mesh, np.arange(mesh.ntriangles))
        h = np.sqrt((x1 - x0) * (y1 - y0) / mesh.ntriangles)
        xy = mesh.vertices.copy()
        inner = ((xy[:, 0] > x0) & (xy[:, 0] < x1)
                 & (xy[:, 1] > y0) & (xy[:, 1] < y1))
        xy[inner] += JITTER * h * rng.uniform(-1.0, 1.0, (inner.sum(), 2))
        moved = Mesh(xy, mesh.triangles, rect=mesh.rect)
        _, reps, _, _ = jacobian_classes(moved)
        if len(reps) >= nclasses:
            return moved, reps


def measure(repeat):
    """Call times for every workload and batch size, with shelldpg on sys.path."""
    import numpy as np

    from shelldpg import assembly as asm
    from shelldpg.model import make_benchmark
    from shelldpg.traces import edge_pairings

    out = {}
    for name, w in WORKLOADS.items():
        prob = make_benchmark(w.benchmark, d=w.d)
        mesh, reps = jittered_mesh(prob, max(BATCHES))
        rows = {}
        for n in BATCHES:
            els = reps[:n]
            F = asm.element_gram_batch(mesh, prob, els)
            Bm = asm.element_b_batch(mesh, prob, w.k, els)

            def kernels():
                asm._class_kernels(F, Bm, els, np.arange(n))

            rows[str(n)] = {
                "gram_s": call_times(
                    lambda: asm.element_gram_batch(mesh, prob, els), repeat),
                "b_s": call_times(
                    lambda: asm.element_b_batch(mesh, prob, w.k, els), repeat),
                "pairings_s": call_times(
                    lambda: edge_pairings(mesh, w.k, els), repeat),
                "class_kernels_s": call_times(kernels, repeat),
            }
        out[name] = {"benchmark": w.benchmark, "k": w.k, "d": w.d,
                     "elements": mesh.ntriangles, "classes": len(reps),
                     "batches": rows}
    return out


def run_child(src, repeat):
    """`measure` in a fresh process importing shelldpg from `src`."""
    proc = subprocess.run(
        [sys.executable, __file__, "--child", str(src), "--repeat", str(repeat)],
        check=True, stdout=subprocess.PIPE, text=True)
    return json.loads(proc.stdout.splitlines()[-1])


def pooled_medians(runs):
    """One result with the median over all calls of all runs."""
    out = runs[0]
    for name, case in out.items():
        for n, row in case["batches"].items():
            for key in row:
                row[key] = statistics.median(
                    t for run in runs for t in run[name]["batches"][n][key])
    return out


def print_table(label, res):
    for name, case in res.items():
        for n, row in case["batches"].items():
            cells = "  ".join(f"{k[:-2]} {v * 1e3:7.2f} ms" for k, v in row.items())
            print(f"{label:7s} {name:26s} {n:>4s}  {cells}", flush=True)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=str(ROOT / "BENCH_class_kernels.json"))
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
    out = {
        "env": {"OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
                "nproc": os.cpu_count(), "python": platform.python_version(),
                "numpy": np.__version__, "scipy": scipy.__version__},
        "repeat": args.repeat,
        "rounds": args.rounds,
        "unit": "s per call, median over all rounds",
    }
    for side in sides:
        out[side] = pooled_medians(runs[side])
        print_table(side, out[side])
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
