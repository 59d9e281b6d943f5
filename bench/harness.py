"""The A/B protocol of the scripts in bench/: this checkout against another.

Each script imports this module before anything else.  The import pins
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS to 1 before
numpy loads OpenBLAS, so every process of a measurement runs on one
BLAS thread, and puts `perfbench/` on `sys.path` for its workloads.

A script measures the `shelldpg` of this checkout and, with
`--parent-src DIR`, that of another checkout next to it.  DIR is the
`src` directory of that checkout, say of the parent commit unpacked
with `git archive <commit> | tar -x -C <dir>`.  Each side runs in a
fresh child process: the script itself, started with `--child SRC`,
imports `shelldpg` from SRC and prints its result as one JSON line.
Over the rounds of a measurement the sides alternate, this checkout
("change") first in even rounds and the other ("parent") first in odd
ones, so that a drift in host speed reaches both.

A script writes its figures as JSON to `--out`, after an `env` block of
what they depend on besides the code.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))


def parser(doc, out):
    """Options shared by the A/B scripts: `--out`, `--parent-src` and the
    hidden `--child`."""
    ap = argparse.ArgumentParser(description=doc.splitlines()[0])
    ap.add_argument("--out", default=out)
    ap.add_argument("--parent-src", help="src directory of another checkout "
                    "to measure next to this one")
    ap.add_argument("--child", help=argparse.SUPPRESS)
    return ap


def child(src, measure, *args):
    """In a child: `measure(*args)` with shelldpg imported from `src`,
    printed as one JSON line."""
    sys.path.insert(0, src)
    print(json.dumps(measure(*args)))
    return 0


def run_child(script, src, *args):
    """`script --child src *args` in a fresh process: the JSON it printed last."""
    proc = subprocess.run([sys.executable, str(script), "--child", str(src),
                           *map(str, args)], check=True, stdout=subprocess.PIPE,
                          text=True)
    return json.loads(proc.stdout.splitlines()[-1])


def alternate(script, parent_src, rounds, args=lambda r: ()):
    """Per side, the results of `rounds` children of `script`, round r
    passing `args(r)`; the parent side only with `parent_src`."""
    srcs = {"change": ROOT / "src"}
    if parent_src:
        srcs["parent"] = Path(parent_src).resolve()
    runs = {side: [] for side in srcs}
    for r in range(rounds):
        for side in (list(srcs) if r % 2 == 0 else list(srcs)[::-1]):
            runs[side].append(run_child(script, srcs[side], *args(r)))
    return runs


def median_tree(trees):
    """Leaf-by-leaf median of equally shaped nested dicts of numbers."""
    first = trees[0]
    if isinstance(first, dict):
        return {k: median_tree([t[k] for t in trees]) for k in first}
    return statistics.median(trees)


def write(path, out):
    """The `env` block and `out`, as JSON to `path`."""
    import numpy as np
    import scipy

    env = {"OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
           "nproc": os.cpu_count(), "python": platform.python_version(),
           "numpy": np.__version__, "scipy": scipy.__version__}
    Path(path).write_text(json.dumps({"env": env, **out}, indent=1) + "\n")
    print(f"wrote {path}")
