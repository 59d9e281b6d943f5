"""Tests of the benchmark's own code: metrics, tracing, failure without sources."""

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from calibrate import REFERENCE_S, kernel_parts  # noqa: E402
import worker  # noqa: E402
from tracing import TARGETS, Tracer, resolve, self_time, total_time  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def tiny(name):
    # large enough for two levels on most start meshes, small enough to be quick
    return dataclasses.replace(WORKLOADS[name], max_dofs=600)


def test_metric_names_and_units_match_benchmark_json():
    for key, table in (("end_to_end", run.END_TO_END),
                       ("per_layer", run.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in SPEC[key]} == table
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run_emits_every_metric(name):
    w = tiny(name)
    plain = worker.run_once(w, seed=1, instance=0)
    traced = worker.run_once(w, seed=1, instance=0, trace=True)
    setup = {"setup_s": plain["setup_s"], "calibration_s": plain["calibration_s"]}
    assert plain["error"] is None and traced["error"] is None
    assert plain["failed"] == 0 and plain["attempted"] == len(plain["levels"])
    ndofs = [lv["ndof"] for lv in plain["levels"]]
    assert ndofs == sorted(set(ndofs)) and ndofs[-1] >= w.max_dofs
    assert plain["backward_error"] <= w.tol
    for trace, table in ((False, run.END_TO_END), (True, run.PER_LAYER)):
        metrics = run.summarize([plain], [traced], [setup], trace)
        assert list(metrics) == list(table)
        for key, m in metrics.items():
            assert m["unit"] == table[key]
            assert isinstance(m["value"], (int, float)), key
    e2e = run.summarize([plain], [traced], [setup], False)
    assert all(m["value"] > 0 for m in e2e.values())
    layers = traced["layers"]
    assert layers["mesh.levels"] == len(ndofs)
    assert 0.0 <= layers["assembly.self_s"] <= layers["assembly.s"]
    assert (w.benchmark == "cyl_clamped") == (layers["reference.err_total"] == 0.0)


def test_traced_run_restores_every_wrapped_attribute():
    present = [(o, a) for o, a, _ in TARGETS if hasattr(resolve(o), a)]
    originals = {(o, a): getattr(resolve(o), a) for o, a in present}
    owned = {(o, a): a in vars(resolve(o)) for o, a in present}
    w = tiny("adaptive-freecyl-thin-k0")
    tracer = Tracer(TARGETS + (("shelldpg.estimator", "no_such_name", "x"),
                               ("shelldpg.no_such_module", "f", "y")))
    with tracer:
        for o, a in present:
            assert getattr(resolve(o), a) is not originals[o, a]
        problem, evaluator, _ = worker.set_up(w)
        from shelldpg import AdaptiveConfig, adaptive_loop

        adaptive_loop(problem, AdaptiveConfig(k=w.k, max_dofs=w.max_dofs),
                      evaluator=evaluator,
                      initial_mesh=worker.start_mesh(problem, 1, 0))
    assert tracer.absent[-2:] == ["shelldpg.estimator.no_such_name",
                                  "shelldpg.no_such_module.f"]
    assert tracer.spans and all(end is not None for _, _, end, _ in tracer.spans)
    for (o, a), original in originals.items():
        assert getattr(resolve(o), a) is original, f"{o}.{a}"
        assert (a in vars(resolve(o))) == owned[o, a]


def test_self_time_on_synthetic_span_tree():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 3.0, 6.0, 0],   # overlaps its sibling: covered once
        ["a", 2.0, 3.0, 1],   # nested repeat of "a"
        ["c", 8.0, 9.0, 0],
        ["root", 20.0, 21.0, -1],
    ]
    assert total_time(spans, "root") == 11.0
    assert self_time(spans, "root") == (10.0 - 6.0) + 1.0
    assert total_time(spans, "a") == 3.0
    assert self_time(spans, "a") == 2.0
    assert total_time(spans, "a", "b") == 6.0
    assert total_time(spans, "a", "root") == 11.0
    assert self_time(spans, "c") == 1.0
    assert total_time(spans, "missing") == 0.0


def test_times_are_scaled_to_the_reference_speed():
    # a host at half the reference speed: the kernel takes twice as long
    cal = 2.0 * REFERENCE_S
    rep = {"setup_s": 1.0, "solve_s": 4.0, "last_level_s": 2.0, "ndofs": 1000,
           "peak_rss_mb": 100.0, "calibration_s": cal}
    setup = {"setup_s": 1.0, "calibration_s": cal}
    metrics = {k: m["value"]
               for k, m in run.summarize([rep], [], [setup], False).items()}
    assert metrics == {"setup_s": 0.5, "solve_s": 2.0, "dofs_per_s": 500.0,
                       "last_level_s": 1.0, "peak_rss_mb": 100.0}
    assert all(0.0 < t < 10.0 for t in kernel_parts())


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload",
         SPEC["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
