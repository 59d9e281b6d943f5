"""Run the benchmark over several seeds and report medians and spreads.

    python3 perfbench/record.py [--seeds 10] [--workloads a,b] [--trace 0|1]
                                [--write]

Runs `run.py` once per workload and seed (seeds 1..N), in sequence, and
prints, per metric, the median, the quartiles from
`statistics.quantiles(values, n=4)` and the spread (q3 - q1) / median
next to the metric's bound from BENCHMARK.json.  `--write` stores the
figures, with the environment line, under "measured" in
perfbench/baseline.json and keeps the rest of that file.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

BASELINE = HERE / "baseline.json"


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    return lines[0], json.loads(lines[-1])


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write", action="store_true")
    args = ap.parse_args(argv)

    specs = bench["per_layer" if args.trace else "end_to_end"]
    measured, env = {}, None
    for name in args.workloads.split(","):
        runs = []
        for seed in range(1, args.seeds + 1):
            env, result = run(name, seed, bench["run_seconds"], args.trace)
            runs.append(result)
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} " + " ".join(
                      f"{k}={m['value']:.5g}" for k, m in result["metrics"].items()),
                  flush=True)
        measured[name] = {
            "correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "metrics": {},
        }
        for spec in specs:
            s = summary([r["metrics"][spec["name"]]["value"] for r in runs])
            measured[name]["metrics"][spec["name"]] = s
            bound = spec.get("bound")
            note = "" if bound is None else (
                f"bound {bound:.2f}  " + ("ok" if s["spread"] <= bound / 3
                                          else "ABOVE A THIRD OF THE BOUND"))
            print(f"  {spec['name']:26s} median {s['median']:.5g} "
                  f"q1 {s['q1']:.5g} q3 {s['q3']:.5g} "
                  f"spread {s['spread']:.3f}  {note}", flush=True)
    if args.write:
        base = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
        key = "per_layer" if args.trace else "end_to_end"
        base.setdefault("measured", {})[key] = {
            "environment": env, "seeds": list(range(1, args.seeds + 1)),
            "run_seconds": bench["run_seconds"], "workloads": measured}
        BASELINE.write_text(json.dumps(base, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
