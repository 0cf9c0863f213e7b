"""Measure the benchmark's baseline: ten seeds per workload, then one traced run.

    python3 perfbench/baseline.py [--seeds 1-10] [--workloads a,b] [--out FILE]

Runs `run.py` exactly as an outside caller does, once per seed and workload
with `--trace 0`, and once per workload with `--trace 1` at the default
seed.  For every end-to-end metric it records the median, the quartiles
(`statistics.quantiles(values, n=4)`) and the spread (quartile distance over
the median) beside the metric's bound; for every per-layer metric the
traced value.  Every run must report `correct: true`.  The result is
written as JSON (default: `perfbench/baseline.json`).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from record import parse_seeds
from workloads import DEFAULT_SEED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=240)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: output check failed\n{proc.stdout}")
    env = next((json.loads(line[len("# env "):]) for line in lines if line.startswith("# env ")), {})
    return {"result": result, "env": env}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--out", default=str(HERE / "baseline.json"))
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    why = {w["name"]: w["why"] for w in spec["workloads"]}

    out = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        started = time.perf_counter()
        values: dict = {}
        for seed in seeds:
            run = run_once(workload, seed, spec["run_seconds"], 0)
            out["environment"] = run["env"]
            for name, m in run["result"]["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        end_to_end = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            end_to_end[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                "bound": bounds[name], "values": vals}
            flag = "" if name == "setup_s" or spread < bounds[name] / 3 else "  <-- over bound/3"
            print(f"{workload:12s} {name:14s} median {med:.6g} spread {spread:.4f} "
                  f"bound {bounds[name]}{flag}", flush=True)
        traced = run_once(workload, DEFAULT_SEED, spec["run_seconds"], 1)["result"]["metrics"]
        out["workloads"][workload] = {
            "why": why[workload],
            "end_to_end": end_to_end,
            "per_layer_at_default_seed": {k: v["value"] for k, v in traced.items()},
            "measured_s": time.perf_counter() - started,
        }
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
