"""The scripts of bench/ start, and the A/B protocol they share holds."""

import importlib.util
import os
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
SCRIPTS = sorted(p.name for p in BENCH.glob("*.py") if p.name != "harness.py")

# a stand-in for a bench script's child: logs its --child SRC, then prints
# a line that is not its result and its argv as the JSON line of the result
CHILD = """import json, sys
with open(sys.argv[-1], "a") as fh:
    fh.write(sys.argv[2] + "\\n")
print("not the result")
print(json.dumps(sys.argv[1:]))
"""


@pytest.fixture
def harness(monkeypatch):
    """bench/harness.py, imported with its changes to the process undone."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setitem(os.environ, var, "1")
    spec = importlib.util.spec_from_file_location("harness", BENCH / "harness.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scripts_answer_help():
    assert SCRIPTS == ["fresh_run.py", "level_overhead.py", "orderings.py",
                       "same_answers.py"]
    procs = [subprocess.Popen([sys.executable, str(BENCH / name), "--help"],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True) for name in SCRIPTS]
    for name, proc in zip(SCRIPTS, procs):
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, (name, err)
        assert out.startswith(f"usage: {name}"), (name, out)


@pytest.mark.parametrize("parent", [True, False])
def test_sides_alternate_round_by_round(harness, tmp_path, parent):
    script = tmp_path / "child.py"
    script.write_text(CHILD)
    log = tmp_path / "order.log"
    parent_src = tmp_path / "parent" / "src"
    runs = harness.alternate(script, parent_src if parent else None, 4,
                             lambda r: ("--round", r, log))

    c, p = str(harness.ROOT / "src"), str(parent_src.resolve())
    # change first in even rounds, parent first in odd ones
    assert log.read_text().split() == ([c, p, p, c, c, p, p, c] if parent else [c] * 4)
    srcs = {"change": c, "parent": p} if parent else {"change": c}
    assert runs == {side: [["--child", src, "--round", str(r), str(log)]
                           for r in range(4)]
                    for side, src in srcs.items()}


@pytest.mark.parametrize("count", [4, 5])
def test_median_tree_is_the_median_leaf_by_leaf(harness, count):
    trees = [{"a": 0.5 * i * i - 3 * i, "b": {"c": float(7 % (i + 2)),
                                               "d": {"e": -1.0 / (i + 1)}}}
             for i in range(count)]
    median = harness.median_tree(trees)
    assert median == {
        "a": statistics.median(t["a"] for t in trees),
        "b": {"c": statistics.median(t["b"]["c"] for t in trees),
              "d": {"e": statistics.median(t["b"]["d"]["e"] for t in trees)}}}
