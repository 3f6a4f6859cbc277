"""Run the benchmark over several seeds and summarise each metric.

Usage, from the root of a checkout:

    python3 perfbench/summarize.py --workloads train,classify,classify-large \
        --seeds 1,2,3,4,5,6,7,8,9,10 --seconds 30 [--trace] [--out FILE.json]

Runs one seed at a time, never two runs at once.  For every workload and
metric it prints the median, the first and third quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median.  With ``--out`` the
summary and every run's values are also written as JSON.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).with_name("run.py")


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1" if trace else "0"],
        capture_output=True, text=True, check=False,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr[-3000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else None
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "n": len(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    ns = parser.parse_args()
    seeds = [int(s) for s in ns.seeds.split(",")]
    doc: dict = {"seconds": ns.seconds, "trace": ns.trace, "seeds": seeds, "workloads": {}}
    for workload in ns.workloads.split(","):
        runs = []
        for seed in seeds:
            result = run_once(workload, seed, ns.seconds, ns.trace)
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"{workload} seed {seed}: incorrect result {result}")
            runs.append({name: m["value"] for name, m in result["metrics"].items()})
            print(workload, seed, json.dumps(runs[-1]), flush=True)
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        metrics = {}
        for name in runs[0]:
            metrics[name] = summarize([run[name] for run in runs])
            metrics[name]["unit"] = units[name]
            print(f"{workload} {name}: {json.dumps(metrics[name])}", flush=True)
        doc["workloads"][workload] = {"metrics": metrics, "runs": runs}
    if ns.out:
        Path(ns.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
