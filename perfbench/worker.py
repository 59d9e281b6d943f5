"""One measured repetition of a workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --instance J
                                [--trace] [--no-backward-check]
    python3 perfbench/worker.py --workload NAME --setup-only

Times set-up (imports, `make_benchmark`, `make_evaluator`, the polyquad
cache fill) and one `adaptive_loop` from the seeded start mesh to the
dof budget, then checks the outputs outside the timed region and prints
one JSON object on the last line of standard output.  The calibration
kernel of `calibrate.py` is timed right after the solve (or the set-up),
so that `run.py` can report times at the reference host speed.
`run.py` starts this script once per repetition, so no cache outlives a
repetition.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402

if __name__ == "__main__":
    # pinned before numpy loads OpenBLAS; one thread measured the same as two
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from tracing import Tracer, self_time, total_time  # noqa: E402
from workloads import WORKLOADS, start_mesh  # noqa: E402


def set_up(workload):
    """Problem and evaluator as `cli.run` builds them, plus warm caches."""
    import shelldpg
    from shelldpg import assembly, polyquad

    if Path(shelldpg.__file__).resolve().parents[1] != ROOT / "src":
        raise ImportError(f"shelldpg imported from {shelldpg.__file__}, "
                          f"not from {ROOT / 'src'}")
    problem = shelldpg.make_benchmark(workload.benchmark, d=workload.d)
    t = time.perf_counter()
    evaluator = shelldpg.make_evaluator(problem)
    reference_setup_s = time.perf_counter() - t
    # the lru caches the element kernels and edge pairings fill on first use
    polyquad.triangle_rule(assembly.QUAD_DEGREE)
    for degree in (2, 3, 4):
        polyquad.triangle_basis(degree)
    polyquad.edge_rule(7)
    return problem, evaluator, reference_setup_s


def err_total(extras):
    keys = ("err_w", "err_u", "err_M", "err_N")
    if not all(k in extras for k in keys):
        return None
    return float(np.sqrt(sum(float(extras[k]) ** 2 for k in keys)))


def backward_error(problem, workload, level):
    """Normwise backward error of a level's solution, re-assembled."""
    import scipy.sparse.linalg
    from shelldpg.assembly import assemble_normal_equations

    neq = assemble_normal_equations(level.mesh, problem, workload.k)
    x = level.x
    res = float(np.linalg.norm(neq.A @ x - neq.rhs))
    scale = (float(np.linalg.norm(neq.rhs))
             + scipy.sparse.linalg.norm(neq.A) * float(np.linalg.norm(x)))
    return res / scale


def check_levels(levels):
    """Indices of levels that fail a per-level output check."""
    bad = set()
    for i, rec in enumerate(levels):
        if i and not rec.ndof > levels[i - 1].ndof:
            bad.add(i)
        if not (np.isfinite(rec.eta) and np.all(np.isfinite(rec.etas))
                and np.all(rec.etas >= 0.0)):
            bad.add(i)
        if not np.all(np.isfinite(rec.fields)):
            bad.add(i)
    return bad


def layer_metrics(tracer, out):
    """Per-layer figures of one traced repetition."""
    sp, cnt, last = tracer.spans, tracer.counts, tracer.last
    eta, err = out.get("eta"), out.get("err_total")
    return {
        "assembly.s": total_time(sp, "assemble"),
        "assembly.self_s": self_time(sp, "assemble"),
        "assembly.gram_s": total_time(sp, "gram"),
        "assembly.b_s": total_time(sp, "b"),
        "assembly.load_s": total_time(sp, "load"),
        "assembly.gram_solve_s": total_time(sp, "gram_solve"),
        "assembly.gram_elements": cnt["gram_elements"],
        "assembly.b_elements": cnt["b_elements"],
        "assembly.ndof": last.get("ndof", 0),
        "assembly.nnz": last.get("nnz", 0),
        "estimator.s": total_time(sp, "estimate"),
        "estimator.self_s": self_time(sp, "estimate"),
        "estimator.eta": eta or 0.0,
        "estimator.effectivity": eta / err if eta and err else 0.0,
        "solver.s": total_time(sp, "solve"),
        "solver.self_s": self_time(sp, "solve"),
        "solver.ordering_s": total_time(sp, "ordering"),
        "solver.factor_s": total_time(sp, "factor"),
        "solver.lu_solve_s": total_time(sp, "lu_solve"),
        "solver.lu_fill": last.get("lu_fill", 0.0),
        "solver.lu_solves": cnt["lu_solves"],
        "solver.cg_fallbacks": cnt["cg"],
        "solver.backward_error": out.get("backward_error") or 0.0,
        "traces.dofmap_s": total_time(sp, "dofmap", "bc"),
        "traces.pairings_s": total_time(sp, "pairings"),
        "mesh.refine_s": total_time(sp, "refine"),
        "mesh.mark_s": total_time(sp, "mark"),
        "mesh.levels": len(out["levels"]),
        "mesh.elements": out["levels"][-1]["nelems"] if out["levels"] else 0,
        "polyquad.map_s": total_time(sp, "geometry", "map", "basis"),
        "reference.s": out["reference_s"],
        "reference.setup_s": out["reference_setup_s"],
        "reference.err_total": err or 0.0,
    }


def run_once(workload, seed, instance, trace=False, backward_check=True):
    """Set up, solve once, check; returns the repetition's record.

    The backward-error check re-assembles the final level, which takes
    about a third of a solve; `run.py` makes it once per run.
    """
    from shelldpg import AdaptiveConfig, adaptive_loop

    problem, evaluator, reference_setup_s = set_up(workload)
    out = {"setup_s": time.perf_counter() - T0,
           "reference_setup_s": reference_setup_s}
    mesh = start_mesh(problem, seed, instance)
    cfg = AdaptiveConfig(k=workload.k, theta=workload.theta, mode=workload.mode,
                         max_dofs=workload.max_dofs,
                         max_levels=workload.max_levels, tol=workload.tol)
    stamps = []  # (entry, exit) of the evaluator hook, one per level

    def hook(prob, level_mesh, fields):
        entry = time.perf_counter()
        extras = evaluator(prob, level_mesh, fields)
        stamps.append((entry, time.perf_counter()))
        return extras

    tracer = Tracer() if trace else None
    error = None
    from calibrate import kernel_parts  # after set-up: imports not timed

    if tracer:
        tracer.install()
    t_start = time.perf_counter()
    try:
        result = adaptive_loop(problem, cfg, evaluator=hook, initial_mesh=mesh)
    except Exception as exc:  # a failed level is a measured outcome
        error, result = f"{type(exc).__name__}: {exc}", None
    finally:
        t_end = time.perf_counter()
        if tracer:
            tracer.restore()
    out["solve_s"] = t_end - t_start
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # after the peak is read: the kernel's arrays must not raise it
    out["calibration_parts"] = kernel_parts()
    out["calibration_s"] = sum(out["calibration_parts"])
    out["reference_s"] = sum(b - a for a, b in stamps)
    out["error"] = error

    levels = result.levels if result else []
    starts = [t_start] + [b for _, b in stamps[:-1]]
    out["levels"] = [
        {"ndof": rec.ndof, "nelems": rec.nelems, "eta": rec.eta,
         "seconds": stamps[i][0] - starts[i]}
        for i, rec in enumerate(levels)
    ]
    failed = check_levels(levels)
    if levels:
        final = levels[-1]
        out["eta"] = final.eta
        out["err_total"] = err_total(final.extras)
        out["last_level_s"] = out["levels"][-1]["seconds"]
        out["ndofs"] = sum(r.ndof for r in levels)
        if out["err_total"] is not None and not np.isfinite(out["err_total"]):
            failed.add(len(levels) - 1)
        if backward_check:
            out["backward_error"] = backward_error(problem, workload, final)
            if not out["backward_error"] <= workload.tol:
                failed.add(len(levels) - 1)
    # a raising level counts as attempted and failed
    out["attempted"] = len(levels) if result else len(stamps) + 1
    out["failed"] = len(failed) + (0 if result else 1)
    if tracer:
        out["layers"] = layer_metrics(tracer, out)
        out["absent"] = tracer.absent
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--instance", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--no-backward-check", action="store_true")
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.setup_only:
        _, _, reference_setup_s = set_up(workload)
        out = {"setup_s": time.perf_counter() - T0,
               "reference_setup_s": reference_setup_s}
        from calibrate import kernel_parts

        out["calibration_parts"] = kernel_parts()
        out["calibration_s"] = sum(out["calibration_parts"])
    else:
        if args.seed is None:
            ap.error("--seed is required unless --setup-only")
        out = run_once(workload, args.seed, args.instance, trace=args.trace,
                       backward_check=not args.no_backward_check)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
