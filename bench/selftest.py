"""Self-test of the benchmark itself (takes a few minutes).

    python3 bench/selftest.py

1. The metric names run.py prints match BENCHMARK.json, in both modes.
2. Two traced runs of each workload at the default seed give exactly the same
   work counts (points, calls, unknowns, factor nonzeros, Gram tables...).
3. Perturbing one entry of each reproduce model's Gram table before its
   first solve makes tasks fail their oracle (fail ratio above 0), just as
   the same perturbation makes `boxproj check --perturb-gram` fail.
"""

from __future__ import annotations

import json
import subprocess
import sys

from run import DEFAULT_SEED, ROOT

HERE = ROOT / "bench"
PERTURBATION = 1e-3


def run(*args: str) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          stdout=subprocess.PIPE, text=True, cwd=ROOT, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seed = str(DEFAULT_SEED)
    problems = []

    for workload in [w["name"] for w in bench["workloads"]]:
        plain = run("--workload", workload, "--seed", seed, "--seconds", "1", "--trace", "0")
        first = run("--workload", workload, "--seed", seed, "--trace", "1")
        second = run("--workload", workload, "--seed", seed, "--trace", "1")
        for mode, result in (("end_to_end", plain), ("per_layer", first)):
            want = [m["name"] for m in bench[mode]]
            if list(result["metrics"]) != want:
                problems.append(f"{workload}: {mode} metrics differ from BENCHMARK.json")
        if not plain["correct"]:
            problems.append(f"{workload}: {plain['failed']} of {plain['attempted']} tasks failed")
        counts = [k for k, v in first["metrics"].items() if v["unit"] in ("count", "bytes")]
        for key in counts:
            a, b = first["metrics"][key]["value"], second["metrics"][key]["value"]
            if a != b:
                problems.append(f"{workload}: {key} differs between runs ({a} vs {b})")
        print(f"{workload}: {len(counts)} counts compared, "
              f"coverage {first['metrics']['trace.coverage']['value']:.4f}", flush=True)

    perturbed = run("--workload", "reproduce", "--seed", seed, "--seconds", "1",
                    "--perturb-gram", str(PERTURBATION))
    fail_ratio = perturbed["failed"] / perturbed["attempted"]
    print(f"reproduce with a perturbed Gram entry: fail ratio {fail_ratio:.3f}")
    if fail_ratio <= 0.0:
        problems.append("perturbed Gram table did not make any reproduce task fail")

    sys.path.insert(0, str(ROOT / "src"))
    from boxproj import checks
    battery = checks.run_battery(perturb_gram=PERTURBATION)
    if all(r.passed for r in battery):
        problems.append("check battery passed with a perturbed Gram table")

    for text in problems:
        print("FAIL " + text)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
