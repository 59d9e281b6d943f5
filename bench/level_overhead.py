"""Fixed cost per adaptive level: phase shares, a large level, mesh code.

    python3 bench/level_overhead.py [--out BENCH_level_overhead.json]
                                    [--rounds 3] [--parent-src DIR]

Records, for each workload of `perfbench/workloads.py`, `phases`: one
`adaptive_loop` from each of the workload's 16 start meshes
(`workloads.start_mesh`, seed 1), with the `make_evaluator` hook as
`perfbench/worker.py` runs it, and `time.perf_counter` spans around the
SuperLU factorization of the trace system (`solver._splu`), the
fill-reducing order of the free numbering (`assembly._entity_order`,
which makes its own small `splu` call), the class kernels
(`assembly._class_kernels`), the scatter of the element matrices (the
CSR pattern from the mesh topology and its fill, `assembly._trace_pattern`
less the order, and `assembly._csr_fill`), the element residuals of the
solver's refinement steps and of its estimators
(`NormalEquations.residual`), the Gram rows and the B matrices
(`assembly.element_gram_batch`, `assembly.element_b_batch`), the rest
of `assembly._element_systems`, mesh refinement (`refine`, which builds
the new `Mesh`) and the reference hook.  The element matrices formed
for the fill (`ElementSystems.matrices`) count once, under the scatter,
whether `_csr_fill` forms them or takes them as an argument.  Seconds
per run and the share of the run's `adaptive_loop` time.

Once, `large_level`: the spans above (seconds, median over repetitions)
of one assembly of the uniform cyl_clamped mesh of 4,096 elements (k =
0, d = 1e-2) with every class carried over, followed by the 2
element-residual passes of a solve, and `held_bytes`, the bytes of the
arrays the resulting `NormalEquations` keeps (the data, indices and
indptr of S A S, s, rhs, index_map and every array of its `elements`).
The workloads stop below 1,000 elements, where costs that grow with the
element count hide.  The factorization is left out: it alone takes
most of a second at this size (`bench/orderings.py` times it).

Also once, `mesh`: the time of the `refine` call that makes a mesh of
16,384, 65,536 and 262,144 elements (uniform marks) and about 480,000
elements (10% of the 262,144 marked at random), and of `Mesh(...)` on
the vertices and triangles of each.

Times are raw `time.perf_counter` seconds, each the median over
`--rounds` rounds (`harness`).  Next to them each child records
`calibration_s`, the median time of the fixed host-speed kernel of
`perfbench/calibrate.py`, timed right after each block of measurements
(the mesh times, the large level, each workload's phases): the ratio
of the two sides' `calibration_s` shows how far the host speed drifted
between them.  The times are not scaled by it, since the kernel's own
spread can exceed that of the times it would scale; shares are ratios
within one run and compare across sides as they are.
"""

import harness  # first: pins one BLAS thread before numpy loads

import importlib
import statistics
import sys
import time
from collections import defaultdict

from calibrate import kernel_parts
from workloads import DEFAULT_SEED, WORKLOADS, start_mesh

START_MESHES = 16
LARGE_REPEAT = 5
# (module or class, attribute, phase); nested phases are subtracted from
# `element_systems` and `scatter` (`unnest`), and a call inside another
# of the same phase counts once.  A target the imported shelldpg lacks
# is skipped
SPANS = (
    ("shelldpg.solver", "_splu", "factor"),
    ("shelldpg.assembly", "_entity_order", "order"),
    ("shelldpg.assembly", "_class_kernels", "class_kernels"),
    ("shelldpg.assembly", "_trace_pattern", "scatter"),
    ("shelldpg.assembly", "_csr_fill", "scatter"),
    ("shelldpg.assembly.NormalEquations", "residual", "residual"),
    ("shelldpg.assembly", "element_gram_batch", "gram_b"),
    ("shelldpg.assembly", "element_b_batch", "gram_b"),
    ("shelldpg.assembly", "_element_systems", "element_systems"),
    ("shelldpg.assembly.ElementSystems", "matrices", "scatter"),
    ("shelldpg.estimator", "refine", "refine"),
)
MESH_SIZES = (16384, 65536, 262144, "random")
LARGE_ELEMENTS = 4096


def owner(dotted):
    """Module or class named by a dotted path."""
    mod, _, attr = dotted.rpartition(".")
    try:
        return importlib.import_module(dotted)
    except ImportError:
        return getattr(importlib.import_module(mod), attr)


def install_spans(acc):
    """Wrap every SPANS target so that its calls add to acc[phase]."""
    running = set()
    for where, attr, phase in SPANS:
        obj = owner(where)
        fn = getattr(obj, attr, None)
        if fn is None:
            continue

        def timed(*args, _fn=fn, _phase=phase, **kwargs):
            if _phase in running:
                return _fn(*args, **kwargs)
            running.add(_phase)
            t = time.perf_counter()
            try:
                return _fn(*args, **kwargs)
            finally:
                acc[_phase] += time.perf_counter() - t
                running.discard(_phase)

        setattr(obj, attr, timed)


def unnest(acc):
    """Take the phases timed inside others out of their enclosing phase."""
    acc["element_systems"] -= acc["class_kernels"] + acc["gram_b"]
    acc["scatter"] -= acc["order"]


def held_bytes(neq):
    """Bytes of the arrays that `neq` keeps."""
    import numpy as np

    arrays = [neq.As.data, neq.As.indices, neq.As.indptr, neq.s, neq.rhs,
              neq.index_map]
    for value in vars(neq.elements).values():
        arrays += value if isinstance(value, tuple) else [value]
    return sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))


def large_level(acc):
    """Median span seconds of a carried-over assembly and the 2 residual
    passes of a solve on a uniform mesh of LARGE_ELEMENTS elements."""
    import numpy as np

    from shelldpg import (assemble_normal_equations, initial_rectangle_mesh,
                          make_benchmark, refine)

    problem = make_benchmark("cyl_clamped", d=1e-2)
    mesh = initial_rectangle_mesh(problem.rect)
    while mesh.ntriangles < LARGE_ELEMENTS:
        mesh = refine(mesh, np.arange(mesh.ntriangles))
    carried = assemble_normal_equations(mesh, problem, 0)
    runs = []
    for _ in range(LARGE_REPEAT):
        acc.clear()
        neq = assemble_normal_equations(mesh, problem, 0, previous=carried)
        x = np.zeros(len(neq.rhs))
        for _ in range(2):
            neq.residual(x)
        unnest(acc)
        runs.append(dict(acc))
    return {"elements": mesh.ntriangles, "held_bytes": held_bytes(neq),
            "phases_s": {k: statistics.median(r[k] for r in runs) for k in runs[0]}}


def mesh_times():
    """`refine` into and `Mesh(...)` on meshes of growing size."""
    import numpy as np

    from shelldpg.mesh import Mesh, initial_rectangle_mesh, refine

    mesh = initial_rectangle_mesh((0.0, 2.0, 0.0, 1.0))
    rng = np.random.default_rng(0)
    out = {}
    for size in MESH_SIZES:
        if size == "random":
            marked = rng.choice(mesh.ntriangles, int(0.1 * mesh.ntriangles),
                                replace=False)
        else:
            while 4 * mesh.ntriangles < size:
                mesh = refine(mesh, np.arange(mesh.ntriangles))
            marked = np.arange(mesh.ntriangles)
        t = time.perf_counter()
        mesh = refine(mesh, marked)
        refine_s = time.perf_counter() - t
        t = time.perf_counter()
        Mesh(mesh.vertices, mesh.triangles, rect=mesh.rect)
        out[str(mesh.ntriangles)] = {"refine_s": refine_s,
                                     "mesh_s": time.perf_counter() - t}
    return out


def measure():
    """All figures of one round, with shelldpg on sys.path."""
    import shelldpg

    kernels = []
    out = {"workloads": {}, "mesh": mesh_times()}
    kernels.append(sum(kernel_parts()))

    acc = defaultdict(float)
    install_spans(acc)
    out["large_level"] = large_level(acc)
    kernels.append(sum(kernel_parts()))
    for name, w in WORKLOADS.items():
        problem = shelldpg.make_benchmark(w.benchmark, d=w.d)
        cfg = shelldpg.AdaptiveConfig(k=w.k, theta=w.theta, mode=w.mode,
                                      max_dofs=w.max_dofs,
                                      max_levels=w.max_levels, tol=w.tol)
        acc.clear()
        solve_s = 0.0
        for j in range(START_MESHES):
            mesh = start_mesh(problem, DEFAULT_SEED, j)
            evaluator = shelldpg.make_evaluator(problem)

            def hook(prob, level_mesh, fields, _ev=evaluator):
                t = time.perf_counter()
                try:
                    return _ev(prob, level_mesh, fields)
                finally:
                    acc["reference"] += time.perf_counter() - t

            t = time.perf_counter()
            shelldpg.adaptive_loop(problem, cfg, evaluator=hook, initial_mesh=mesh)
            solve_s += time.perf_counter() - t
        unnest(acc)
        acc["other"] = solve_s - sum(acc.values())
        kernels.append(sum(kernel_parts()))
        out["workloads"][name] = {
            "solve_s": solve_s / START_MESHES,
            "phases_s": {k: v / START_MESHES for k, v in sorted(acc.items())},
            "shares": {k: v / solve_s for k, v in sorted(acc.items())}}
    out["calibration_s"] = statistics.median(kernels)
    return out


def print_summary(label, res):
    for name, case in res["workloads"].items():
        shares = "  ".join(f"{k} {v:5.1%}" for k, v in case["shares"].items())
        print(f"{label:7s} {name:26s} solve {case['solve_s'] * 1e3:7.1f} ms",
              flush=True)
        print(f"{'':7s} {shares}", flush=True)
    large = "  ".join(f"{k} {v * 1e3:.2f} ms"
                      for k, v in res["large_level"]["phases_s"].items())
    print(f"{label:7s} {res['large_level']['elements']} elements, carried: {large}",
          flush=True)
    print(f"{label:7s} held by its NormalEquations: "
          f"{res['large_level']['held_bytes'] / 1e6:.1f} MB", flush=True)
    for n, row in res["mesh"].items():
        print(f"{label:7s} {n:>7s} elements  refine {row['refine_s']:7.3f} s  "
              f"Mesh {row['mesh_s']:7.3f} s", flush=True)
    print(f"{label:7s} calibration kernel {res['calibration_s']:.3f} s", flush=True)


def main(argv=None):
    ap = harness.parser(__doc__, str(harness.ROOT / "BENCH_level_overhead.json"))
    ap.add_argument("--rounds", type=int, default=3)
    args = ap.parse_args(argv)
    if args.child:
        return harness.child(args.child, measure)

    runs = harness.alternate(__file__, args.parent_src, args.rounds)
    out = {"seed": DEFAULT_SEED, "start_meshes": START_MESHES, "rounds": args.rounds,
           "unit": "s (per run for phases_s and solve_s), median over rounds"}
    for side in runs:
        out[side] = harness.median_tree(runs[side])
        print_summary(side, out[side])
    harness.write(args.out, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
