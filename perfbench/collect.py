"""Run the benchmark over ten seeds per workload and write the baseline.

Usage (from the repository root):

    python3 perfbench/collect.py

Runs `perfbench/run.py` for seeds 1-10 on every workload of BENCHMARK.json,
one run at a time, with the run length from BENCHMARK.json.  For every
end-to-end metric it prints the median, the quartiles
(statistics.quantiles(n=4)) and the quartile spread as a share of the
median next to the metric's bound, and flags OVER BOUND when the spread
exceeds it.  It adds one traced run per workload (seed 1) and writes
everything, environment included, to perfbench/baseline.json.  The exit
code is 1 when any spread is over its bound.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SEEDS = range(1, 11)
TRACE_SEED = 1


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    with open(os.path.join(BENCH_DIR, "out", f"{workload}-seed{seed}-trace{trace}.json"),
              encoding="utf-8") as fh:
        result["environment"] = json.load(fh)["environment"]
    return result


def summarise(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else float("inf"),
            "values": values}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report: dict = {"run_seconds": spec["run_seconds"], "seeds": list(SEEDS), "workloads": {}}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            runs.append(run_once(spec, workload, seed, 0))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in runs[-1]["metrics"].items()), flush=True)
        entry = {"environment": runs[-1]["environment"], "end_to_end": {}}
        for name, bound in bounds.items():
            s = summarise([r["metrics"][name]["value"] for r in runs])
            s["unit"] = runs[0]["metrics"][name]["unit"]
            entry["end_to_end"][name] = s
            flag = "" if s["spread"] <= bound else "  OVER BOUND"
            ok = ok and not flag
            print(f"  {name:20s} median {s['median']:.6g} {s['unit']}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  spread {s['spread']:.4f} (bound {bound}){flag}")
        traced = run_once(spec, workload, TRACE_SEED, 1)
        entry["per_layer"] = traced["metrics"]
        entry["per_layer_seed"] = TRACE_SEED
        report["workloads"][workload] = entry
    with open(os.path.join(BENCH_DIR, "baseline.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
