"""Run the benchmark on several seeds and report each metric's spread.

Usage (from the repository root):

    python3 perfbench/spread.py --workload NAME [--runs 10] [--first-seed 1]
                                [--seconds S] [--trace 0|1] [--save FILE]

The spread is the distance between the first and third quartiles of the
runs' values (``statistics.quantiles(values, n=4)``) as a share of their
median; BENCHMARK.json bounds it for every end-to-end metric.  --save
writes the runs and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def summarize(runs: list[dict]) -> dict:
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [med] * 3
        summary[name] = {"median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med if med else None,
                         "unit": runs[0]["metrics"][name]["unit"]}
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--save")
    args = parser.parse_args()
    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            args.seconds = json.load(fh)["run_seconds"]

    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        result["seed"] = seed
        result["info"] = json.loads(lines[-2])
        runs.append(result)
        print(json.dumps({"seed": seed, "correct": result["correct"],
                          **{k: v["value"] for k, v in result["metrics"].items()}}), flush=True)

    summary = summarize(runs)
    for name, s in summary.items():
        spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
        print(f"{name:48s} median {s['median']:.6g} {s['unit']:14s} "
              f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {spread}")
    if args.save:
        with open(args.save, "w") as fh:
            json.dump({"workload": args.workload, "seconds": args.seconds,
                       "trace": args.trace, "runs": runs, "summary": summary}, fh, indent=1)
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
