"""Elimination order of the free numbering against SuperLU's minimum degree on A.

    python3 bench/orderings.py [--out BENCH_orderings.json] [--repeat 5]
                               [--starts 4]

For every system below, the equilibrated trace matrix S A S (S =
diag(A)^-1/2) is taken as the assembly fills it (`NormalEquations.As`)
and read as CSC, as `solver.solve` hands it to SuperLU, and three calls
are timed, the median of `--repeat` interleaved repetitions:

* `order_s`: `assembly._entity_order`, the multiple minimum degree of
  the vertex graph that numbers the free traces (the assembly already
  makes this call; it is timed again here on its own);
* `factor_s`: `solver._splu` of S A S, which eliminates in that order;
* `mmd_s`: `scipy.sparse.linalg.splu(S A S, permc_spec="MMD_AT_PLUS_A")`
  with the same diagonal pivots and `SymmetricMode`, on S A S renumbered
  entity by entity in entity-index order: the numbering and the call of
  the solver before the free numbering carried the order, SuperLU's
  multiple minimum degree on the pattern of A itself run inside the
  factorization.  Its fill hardly depends on the numbering it starts
  from, but its time does: started from the elimination order of the
  free numbering it takes 1.6-2.5 times as long at 11k-14k unknowns.

With each: n, nnz(A), nnz(L) + nnz(U) of both factorizations, the fill
(that count over nnz(A)) and `ratio`, (order_s + factor_s) / mmd_s.

Cases:

* the three workloads of `perfbench/workloads.py`: every level of one
  `adaptive_loop` from each of the first `--starts` start meshes (seed
  1); times summed per run and averaged over the runs, fill ranges over
  all levels;
* `cyl_clamped` (k = 0, d = 1e-2) and `scordelis_lo` (k = 1, d = 0.25)
  on the uniform mesh of 4,096 elements;
* `point_parabolic` (k = 1, d = 1e-2), the mesh of adaptive level 12
  from the 4-element rectangle (theta = 0.25).
"""

import harness  # first: pins one BLAS thread before numpy loads

import argparse
import statistics
import sys
import time

sys.path.insert(0, str(harness.ROOT / "src"))

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from shelldpg import (
    AdaptiveConfig,
    adaptive_loop,
    assemble_normal_equations,
    initial_rectangle_mesh,
    make_benchmark,
    refine,
    solver,
)
from shelldpg.assembly import _entity_order
from workloads import DEFAULT_SEED, WORKLOADS, start_mesh

UNIFORM = (("cyl_clamped", 0, 1e-2), ("scordelis_lo", 1, 0.25))
UNIFORM_ELEMENTS = 4096
ADAPTIVE = ("point_parabolic", 1, 1e-2, 12)  # (benchmark, k, d, level)


def mmd_splu(M):
    return scipy.sparse.linalg.splu(M, permc_spec="MMD_AT_PLUS_A",
                                    diag_pivot_thresh=0.0,
                                    options={"SymmetricMode": True})


def lu_nnz(lu):
    return lu.L.nnz + lu.U.nnz


def timed(fn, *args):
    t = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t, out


def measure(mesh, problem, k, repeat):
    """The figures of one system (see the module docstring)."""
    neq = assemble_normal_equations(mesh, problem, k)
    As = scipy.sparse.csc_matrix((neq.As.data, neq.As.indices, neq.As.indptr),
                                 shape=neq.As.shape)
    free = np.flatnonzero(neq.index_map >= 0)
    by_index = neq.index_map[free[np.argsort(neq.dofmap.dof_entity[free],
                                             kind="stable")]]
    As_by_index = As[by_index][:, by_index].tocsc()
    As_by_index.sort_indices()
    times = {"order_s": [], "factor_s": [], "mmd_s": []}
    nnz = {}
    for r in range(repeat):
        for path in (("ours", "mmd") if r % 2 == 0 else ("mmd", "ours")):
            if path == "ours":
                dt, _ = timed(_entity_order, mesh)
                times["order_s"].append(dt)
                dt, lu = timed(solver._splu, As)
                times["factor_s"].append(dt)
            else:
                dt, lu = timed(mmd_splu, As_by_index)
                times["mmd_s"].append(dt)
            nnz.setdefault(path, lu_nnz(lu))
            del lu
    out = {"n": As.shape[0], "nnz": As.nnz, "lu_nnz": nnz["ours"],
           "mmd_lu_nnz": nnz["mmd"], "fill": nnz["ours"] / As.nnz,
           "mmd_fill": nnz["mmd"] / As.nnz}
    out.update({key: statistics.median(v) for key, v in times.items()})
    out["ratio"] = (out["order_s"] + out["factor_s"]) / out["mmd_s"]
    return out


def workload_case(w, starts, repeat):
    """Every level of `starts` runs of workload `w`, summed per run."""
    problem = make_benchmark(w.benchmark, d=w.d)
    cfg = AdaptiveConfig(k=w.k, theta=w.theta, mode=w.mode, max_dofs=w.max_dofs,
                         max_levels=w.max_levels, tol=w.tol)
    levels = []
    for j in range(starts):
        mesh = start_mesh(problem, DEFAULT_SEED, j)
        run = adaptive_loop(problem, cfg, initial_mesh=mesh)
        levels += [measure(rec.mesh, problem, w.k, repeat) for rec in run.levels]
    out = {"case": w.name, "runs": starts, "levels": len(levels),
           "n_max": max(lv["n"] for lv in levels)}
    for key in ("order_s", "factor_s", "mmd_s"):
        out[key + "_per_run"] = sum(lv[key] for lv in levels) / starts
    for key in ("fill", "mmd_fill"):
        out[key] = [min(lv[key] for lv in levels), max(lv[key] for lv in levels)]
    out["ratio"] = ((out["order_s_per_run"] + out["factor_s_per_run"])
                    / out["mmd_s_per_run"])
    out["per_level"] = levels
    return out


def uniform_case(benchmark, k, d, repeat):
    problem = make_benchmark(benchmark, d=d)
    mesh = initial_rectangle_mesh(problem.rect)
    while mesh.ntriangles < UNIFORM_ELEMENTS:
        mesh = refine(mesh, np.arange(mesh.ntriangles))
    return {"case": f"{benchmark} k={k} uniform {mesh.ntriangles}",
            "benchmark": benchmark, "k": k, "d": d, "elements": mesh.ntriangles,
            **measure(mesh, problem, k, repeat)}


def adaptive_case(benchmark, k, d, level, repeat):
    problem = make_benchmark(benchmark, d=d)
    cfg = AdaptiveConfig(k=k, max_levels=level, max_dofs=10**9)
    mesh = adaptive_loop(problem, cfg).levels[-1].mesh
    return {"case": f"{benchmark} k={k} adaptive level {level}",
            "benchmark": benchmark, "k": k, "d": d, "elements": mesh.ntriangles,
            **measure(mesh, problem, k, repeat)}


def show(case):
    t = case.get("order_s_per_run", case.get("order_s"))
    f = case.get("factor_s_per_run", case.get("factor_s"))
    m = case.get("mmd_s_per_run", case.get("mmd_s"))
    n = case.get("n_max", case.get("n"))
    print(f"{case['case']:38s} n {n:6d}  order {t * 1e3:8.2f} ms  factor "
          f"{f * 1e3:9.2f} ms  mmd {m * 1e3:9.2f} ms  ratio {case['ratio']:.3f}  "
          f"fill {case['fill']} vs {case['mmd_fill']}", flush=True)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=str(harness.ROOT / "BENCH_orderings.json"))
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--starts", type=int, default=4)
    args = ap.parse_args(argv)

    cases = []
    for w in WORKLOADS.values():
        cases.append(workload_case(w, args.starts, args.repeat))
        show(cases[-1])
    for benchmark, k, d in UNIFORM:
        cases.append(uniform_case(benchmark, k, d, args.repeat))
        show(cases[-1])
    cases.append(adaptive_case(*ADAPTIVE, args.repeat))
    show(cases[-1])
    harness.write(args.out, {"seed": DEFAULT_SEED, "repeat": args.repeat,
                             "unit": "s, median over interleaved repetitions",
                             "cases": cases})
    return 0


if __name__ == "__main__":
    sys.exit(main())
