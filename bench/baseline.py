"""Measure the baseline: ten seeds per workload plus one traced run each.

    python3 bench/baseline.py --out bench/BASELINE.json

Each run is a separate `bench/run.py` process, one for each of
BASELINE_SEEDS on every workload of BENCHMARK.json.  For every end-to-end
metric, setup_s included, it reports the median and the quartile spread (q3 - q1) / median
over the seeds, as `statistics.quantiles(values, n=4)` gives them, next to
a third of the metric's bound from BENCHMARK.json.  The traced run at the
default seed gives the per-layer figures and the tracing overhead
(untraced over traced tasks_per_s at the same seed, minus one).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import BASELINE_SEEDS, DEFAULT_SEED, HELD_OUT_SEED, ROOT

HERE = ROOT / "bench"

CONTEXT = ("Seed-commit figures from ROADMAP, context only and not benchmark metrics: "
           "tier-1 suite 151 s, acceptance criterion 8 on courant 79 s, criterion 5 46 s "
           "(2 CPUs, Python 3.11.7, numpy 2.4.6, scipy 1.17.1).")


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, check=True)
    lines = proc.stdout.strip().splitlines()
    block = json.loads(next(l for l in lines if l.startswith("run "))[4:])
    return {"run": block, **json.loads(lines[-1])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write the baseline JSON here")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = list(BASELINE_SEEDS)
    out = {"context": CONTEXT, "default_seed": DEFAULT_SEED,
           "held_out_seed": HELD_OUT_SEED, "seeds": seeds,
           "run_seconds": bench["run_seconds"], "workloads": {}}
    steady = True
    for workload in bench["workloads"]:
        name = workload["name"]
        results = [run(name, s, bench["run_seconds"], 0) for s in seeds]
        stats = {}
        for metric in bounds:
            values = [r["metrics"][metric]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            stats[metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                             "unit": results[0]["metrics"][metric]["unit"]}
            ok = spread < bounds[metric] / 3
            steady &= ok
            print(f"{name:10s} {metric:14s} median {med:10.5g}  spread {spread:.4f}  "
                  f"bound/3 {bounds[metric] / 3:.4f}  {'ok' if ok else 'WIDE'}", flush=True)
        traced = run(name, DEFAULT_SEED, bench["run_seconds"], 1)
        untraced = results[seeds.index(DEFAULT_SEED)]
        plain = untraced["metrics"]["tasks_per_s"]["value"]
        with_spans = traced["metrics"]["trace.tasks_per_s"]["value"]
        out["workloads"][name] = {
            "why": workload["why"],
            "round_tasks": results[0]["run"]["round_tasks"],
            "tail_percentile": results[0]["run"]["tail_percentile"],
            "all_correct": all(r["correct"] for r in results),
            "end_to_end": stats,
            "per_layer_default_seed": {k: v["value"] for k, v in traced["metrics"].items()},
            "tracing_overhead": {"tasks_per_s_untraced": plain, "tasks_per_s_traced": with_spans,
                                 "overhead": plain / with_spans - 1.0},
        }
        out["machine"] = {k: v for k, v in results[0]["run"].items()
                          if k in ("nproc", "cpu", "python", "numpy", "scipy", "blas",
                                   "blas_threads", "commit")}
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    print("steady" if steady else "not steady: a spread is at or above a third of its bound")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
