"""First against second `adaptive_loop` of a process: the fixed cost of a fresh run.

    python3 bench/fresh_run.py [--out BENCH_fresh_run.json] [--parent-src DIR]

For each workload of `perfbench/workloads.py` and each of its 16 start
meshes (`workloads.start_mesh`, seed 1), a fresh child process sets up
as `perfbench/worker.py` does (imports, `make_benchmark`,
`make_evaluator` and the polyquad caches its `set_up` fills), then runs
`adaptive_loop` from the start mesh twice, each time with a fresh
`make_evaluator` hook.  Per run it records:

* `seconds`: the `time.perf_counter` time of the `adaptive_loop` call;
* `minflt`: the minor page faults of the process during it (`ru_minflt`);
* `maxrss_mb`: how far it raised the process's peak RSS (`ru_maxrss`).

Every benchmark repetition and every CLI run is a fresh process, and
pays what the first run pays: the lazy basis and reference tables, and
the first touch of the memory the run grows into.  The second run shows
what the same run costs once those are paid.  Each side reports, per
workload, the mean over the start meshes of each figure for the first
and the second run, and the runs themselves.  The start meshes are the
rounds of `harness.alternate`.
"""

import harness  # first: pins one BLAS thread before numpy loads

import argparse
import resource
import statistics
import sys
import time

from workloads import DEFAULT_SEED, WORKLOADS, start_mesh

START_MESHES = 16
FIGURES = ("seconds", "minflt", "maxrss_mb")


def two_runs(name, instance):
    """Set up as `perfbench/worker.py` does, then two timed runs."""
    import shelldpg
    from shelldpg import assembly, polyquad, traces

    w = WORKLOADS[name]
    problem = shelldpg.make_benchmark(w.benchmark, d=w.d)
    evaluator = shelldpg.make_evaluator(problem)
    polyquad.triangle_rule(assembly.QUAD_DEGREE)
    for degree in (2, 3, 4):
        polyquad.triangle_basis(degree)
    polyquad.edge_rule(traces.EDGE_RULE_DEGREE)
    cfg = shelldpg.AdaptiveConfig(k=w.k, theta=w.theta, mode=w.mode,
                                  max_dofs=w.max_dofs, max_levels=w.max_levels,
                                  tol=w.tol)
    mesh = start_mesh(problem, DEFAULT_SEED, instance)
    runs = []
    for run in range(2):
        if run:
            evaluator = shelldpg.make_evaluator(problem)
        before = resource.getrusage(resource.RUSAGE_SELF)
        t = time.perf_counter()
        shelldpg.adaptive_loop(problem, cfg, evaluator=evaluator, initial_mesh=mesh)
        seconds = time.perf_counter() - t
        after = resource.getrusage(resource.RUSAGE_SELF)
        runs.append({"seconds": seconds, "minflt": after.ru_minflt - before.ru_minflt,
                     "maxrss_mb": (after.ru_maxrss - before.ru_maxrss) / 1024.0})
    return runs


def summary(runs):
    """Mean of each figure over the start meshes, first and second run."""
    return {which: {f: statistics.fmean(r[i][f] for r in runs) for f in FIGURES}
            for i, which in enumerate(("first", "second"))}


def main(argv=None):
    ap = harness.parser(__doc__, str(harness.ROOT / "BENCH_fresh_run.json"))
    ap.add_argument("--workload", help=argparse.SUPPRESS)
    ap.add_argument("--instance", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        return harness.child(args.child, two_runs, args.workload, args.instance)

    out = {
        "seed": DEFAULT_SEED,
        "start_meshes": START_MESHES,
        "unit": "seconds: s per run; minflt: page faults per run; maxrss_mb: "
                "MB of peak RSS growth per run; means over the start meshes",
    }
    for name in WORKLOADS:
        runs = harness.alternate(__file__, args.parent_src, START_MESHES,
                                 lambda j: ("--workload", name, "--instance", j))
        for side in runs:
            s = summary(runs[side])
            out.setdefault(side, {})[name] = {**s, "runs": runs[side]}
            print(f"{side:7s} {name:26s} " + "  ".join(
                f"{which} {s[which]['seconds'] * 1e3:6.1f} ms "
                f"{s[which]['minflt']:6.0f} faults {s[which]['maxrss_mb']:5.1f} MB"
                for which in ("first", "second")), flush=True)
    harness.write(args.out, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
