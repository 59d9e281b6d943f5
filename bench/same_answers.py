"""Same answers: every level of the benchmark runs against another checkout.

    python3 bench/same_answers.py --parent-src DIR [--out FILE] [--seed 1]

Runs `adaptive_loop` from the 16 start meshes (`workloads.start_mesh`)
of each workload of `perfbench/workloads.py`, with the workload's
problem, k, theta, refinement mode and dof budget, on this checkout and
on the one whose `src` is DIR.  Per level it records:

* `ndof` of both sides and whether the meshes are equal;
* `marked_equal`: whether the marked sets are equal;
* `eta_rel`: |eta - eta'| / eta' of the level's total estimator, and
  `etas_rel`: the largest |eta_T - eta_T'| over the elements divided by
  the largest eta_T';
* `fields_rel`: the largest difference of the element fields, per field
  (u1, u2, w, N, M) relative to that field's largest value, maximised
  over the fields; on unequal meshes it is not formed.

The primed values are DIR's.  It prints one summary line per workload
and writes the levels and the summary as JSON to `--out` (by default
`same_answers.json` in the working directory).
"""

import harness  # first: pins one BLAS thread before numpy loads

import sys
import tempfile

import numpy as np

from workloads import DEFAULT_SEED, WORKLOADS, start_mesh

START_MESHES = 16


def run_all(seed, outdir):
    """Every level of every run, with shelldpg on sys.path, into a new npz
    file in `outdir`; its path."""
    from shelldpg import AdaptiveConfig, adaptive_loop, make_benchmark

    arrays = {}
    for name, w in WORKLOADS.items():
        problem = make_benchmark(w.benchmark, d=w.d)
        cfg = AdaptiveConfig(k=w.k, theta=w.theta, mode=w.mode, max_dofs=w.max_dofs,
                             max_levels=w.max_levels, tol=w.tol)
        for inst in range(START_MESHES):
            run = adaptive_loop(problem, cfg,
                                initial_mesh=start_mesh(problem, seed, inst))
            for rec in run.levels:
                key = f"{name}/{inst}/{rec.level}/"
                arrays[key + "ndof"] = np.array(rec.ndof)
                arrays[key + "triangles"] = rec.mesh.triangles
                arrays[key + "etas"] = rec.etas
                arrays[key + "fields"] = rec.fields
                if rec.marked is not None:
                    arrays[key + "marked"] = np.sort(rec.marked)
    with tempfile.NamedTemporaryFile(suffix=".npz", dir=outdir, delete=False) as fh:
        np.savez(fh, **arrays)
    return fh.name


# field columns: u1, u2, w, N11, N12, N21, N22, M11, M12, M22
FIELDS = (slice(0, 2), slice(2, 3), slice(3, 7), slice(7, 10))


def compare_level(a, b, key):
    """The record of one level (see the module docstring)."""
    def rel(x, y):
        scale = np.abs(y).max()
        return float(np.abs(x - y).max() / scale) if scale > 0 else float(np.abs(x).max())

    mesh_equal = (a[key + "triangles"].shape == b[key + "triangles"].shape
                  and np.array_equal(a[key + "triangles"], b[key + "triangles"]))
    marked = key + "marked"
    row = {"ndof": int(a[key + "ndof"]), "ndof_other": int(b[key + "ndof"]),
           "mesh_equal": bool(mesh_equal),
           "marked_equal": (marked in a) == (marked in b) and (
               marked not in a or np.array_equal(a[marked], b[marked]))}
    eta, eta_b = np.linalg.norm(a[key + "etas"]), np.linalg.norm(b[key + "etas"])
    row["eta_rel"] = float(abs(eta - eta_b) / eta_b)
    if mesh_equal:
        row["etas_rel"] = rel(a[key + "etas"], b[key + "etas"])
        fa, fb = a[key + "fields"], b[key + "fields"]
        row["fields_rel"] = max(rel(fa[:, f], fb[:, f]) for f in FIELDS)
    return row


def main(argv=None):
    ap = harness.parser(__doc__, "same_answers.json")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = ap.parse_args(argv)
    if args.child:
        return harness.child(args.child, run_all, args.seed, args.out)
    if not args.parent_src:
        ap.error("--parent-src is required")

    with tempfile.TemporaryDirectory() as tmp:
        runs = harness.alternate(__file__, args.parent_src, 1,
                                 lambda r: ("--seed", args.seed, "--out", tmp))
        mine, other = np.load(runs["change"][0]), np.load(runs["parent"][0])
        levels = {}
        for key in sorted({k.rsplit("/", 1)[0] + "/" for k in mine.files}):
            if key + "ndof" in other:
                levels[key[:-1]] = compare_level(mine, other, key)
        missing = sorted({k.rsplit("/", 1)[0] for k in
                          set(mine.files) ^ set(other.files) if not k.endswith("marked")})

    summary = {}
    for name in WORKLOADS:
        rows = [r for k, r in levels.items() if k.startswith(name + "/")]
        summary[name] = {
            "levels": len(rows),
            "ndof_equal": all(r["ndof"] == r["ndof_other"] for r in rows),
            "marked_equal": all(r["marked_equal"] for r in rows),
            "eta_rel": max(r["eta_rel"] for r in rows),
            "etas_rel": max(r.get("etas_rel", 0.0) for r in rows),
            "fields_rel": max(r.get("fields_rel", 0.0) for r in rows),
        }
        s = summary[name]
        print(f"{name:26s} levels {s['levels']:4d}  ndof equal {s['ndof_equal']}  "
              f"marked equal {s['marked_equal']}  eta {s['eta_rel']:.1e}  "
              f"etas {s['etas_rel']:.1e}  fields {s['fields_rel']:.1e}")
    if missing:
        print(f"levels on one side only: {', '.join(missing)}")
    harness.write(args.out, {"seed": args.seed, "parent_src": str(args.parent_src),
                             "summary": summary, "levels_on_one_side": missing,
                             "levels": levels})
    return 0


if __name__ == "__main__":
    sys.exit(main())
