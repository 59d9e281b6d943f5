"""Fill-reducing orderings of the trace system: nested dissection vs minimum degree.

    python3 bench/orderings.py [--out BENCH_orderings.json] [--repeat 3]
                               [--max-unknowns 60000]

For each case the script assembles the condensed trace system, scales
it symmetrically to a unit diagonal as `solve_spd` does, and times the
two factorizations `solver._factor` chooses between, on one BLAS thread:

* nd: `nested_dissection` on the dof coordinates, the permuted matrix,
  and SuperLU with the NATURAL column order;
* mmd: SuperLU with its multiple-minimum-degree order on A + A'.

Both run in symmetric mode with diagonal pivots.  Each time is the
median of `--repeat` runs of ordering + factorization; fill is
nnz(L + U) / nnz(A).  The cases are uniform `cyl_clamped` (k = 0)
meshes of 256, 1,024 and 4,096 elements, uniform `scordelis_lo` (k = 1)
meshes of 1,024 and 4,096 elements, and every level of two adaptive
runs, `point_parabolic` (k = 1) and `cyl_free` (k = 0, d = 1e-3), from
the 4-element rectangle with Doerfler marking, up to `--max-unknowns`
free traces; a run whose assembly fails ends there, and the output lists
it under `adaptive_stops`.  The output records the solver's
`ND_CROSSOVER` and the ordering it takes for each case.
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
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from shelldpg import (  # noqa: E402
    AssemblyError,
    assemble_normal_equations,
    dorfler_mark,
    element_estimators,
    initial_rectangle_mesh,
    make_benchmark,
    refine,
    solve_spd,
    solver,
)

UNIFORM = (  # (benchmark, k, d, elements)
    ("cyl_clamped", 0, None, 256),
    ("cyl_clamped", 0, None, 1024),
    ("cyl_clamped", 0, None, 4096),
    ("scordelis_lo", 1, None, 1024),
    ("scordelis_lo", 1, None, 4096),
)
ADAPTIVE = (  # (benchmark, k, d)
    ("point_parabolic", 1, None),
    ("cyl_free", 0, 1e-3),
)
MIN_UNKNOWNS = 200  # smaller levels factor in well under a millisecond
THETA = 0.25  # Doerfler fraction of the adaptive runs, as in `AdaptiveConfig`


def equilibrated(A):
    s = 1.0 / np.sqrt(A.diagonal())
    return (scipy.sparse.diags(s) @ A @ scipy.sparse.diags(s)).tocsr()


def order_and_factor(As, xy, ordering):
    """Seconds and fill of one ordering + factorization."""
    t = time.perf_counter()
    if ordering == "nd":
        perm = solver.nested_dissection(As, xy)
        lu = solver._splu(As[perm][:, perm].tocsc(), "NATURAL")
    else:
        lu = solver._splu(As.tocsc(), "MMD_AT_PLUS_A")
    seconds = time.perf_counter() - t
    return seconds, (lu.L.nnz + lu.U.nnz) / As.nnz


def measure(case, neq, repeat):
    As = equilibrated(neq.A)
    n = As.shape[0]
    case.update(n=n, nnz=int(As.nnz),
                solver_takes="nd" if n > solver.ND_CROSSOVER else "mmd")
    for ordering in ("nd", "mmd"):
        runs = [order_and_factor(As, neq.dof_xy, ordering) for _ in range(repeat)]
        case[f"{ordering}_s"] = statistics.median(r[0] for r in runs)
        case[f"{ordering}_fill"] = runs[0][1]
    case["mmd_over_nd"] = case["mmd_s"] / case["nd_s"]
    print(f"{case['case']:42s} n={n:6d} nnz={As.nnz:8d}  "
          f"nd {case['nd_s']:.4f} s fill {case['nd_fill']:.2f}  "
          f"mmd {case['mmd_s']:.4f} s fill {case['mmd_fill']:.2f}", flush=True)
    return case


def uniform_cases(repeat):
    for kind, k, d, elements in UNIFORM:
        prob = make_benchmark(kind, d=d)
        mesh = initial_rectangle_mesh(prob.rect)
        while mesh.ntriangles < elements:
            mesh = refine(mesh, np.arange(mesh.ntriangles))
        case = {"case": f"{kind} k={k} uniform {mesh.ntriangles}",
                "benchmark": kind, "k": k, "d": prob.d, "mode": "uniform",
                "elements": mesh.ntriangles}
        yield measure(case, assemble_normal_equations(mesh, prob, k), repeat)


def adaptive_cases(repeat, max_unknowns, stops):
    for kind, k, d in ADAPTIVE:
        prob = make_benchmark(kind, d=d)
        mesh = initial_rectangle_mesh(prob.rect)
        for level in itertools.count():
            try:
                neq = assemble_normal_equations(mesh, prob, k)
            except AssemblyError as exc:
                stops.append(f"{kind} k={k} level {level} "
                             f"({mesh.ntriangles} elements): {exc}")
                print(f"stopped: {stops[-1]}", flush=True)
                break
            n = neq.A.shape[0]
            if n > max_unknowns:
                break
            if n >= MIN_UNKNOWNS:
                case = {"case": f"{kind} k={k} adaptive level {level}",
                        "benchmark": kind, "k": k, "d": prob.d,
                        "mode": "adaptive", "elements": mesh.ntriangles,
                        "level": level}
                yield measure(case, neq, repeat)
            x = solve_spd(neq.A, neq.rhs, coords=neq.dof_xy)
            mesh = refine(mesh, dorfler_mark(element_estimators(neq, x), THETA))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=str(ROOT / "BENCH_orderings.json"))
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("--max-unknowns", type=int, default=60000)
    args = ap.parse_args(argv)

    stops = []
    cases = list(uniform_cases(args.repeat))
    cases += adaptive_cases(args.repeat, args.max_unknowns, stops)
    out = {
        "env": {"OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
                "nproc": os.cpu_count(), "python": platform.python_version(),
                "numpy": np.__version__, "scipy": scipy.__version__},
        "repeat": args.repeat,
        "ND_CROSSOVER": solver.ND_CROSSOVER,
        "cases": cases,
        "adaptive_stops": stops,
    }
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
