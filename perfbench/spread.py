#!/usr/bin/env python3
"""Runs the benchmark over several seeds and summarizes each metric.

    python3 perfbench/spread.py --workload serve --trace 0 --seeds 1 2 3 4 5 6 7 8 9 10

Run from the repository root. For every metric it prints the median, the
quartiles and the spread (interquartile distance over the median, as
statistics.quantiles(values, n=4) gives the quartiles); --json FILE also
writes the summary, with every run's stamp, as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys

COMMAND = [
    "cargo", "run", "--release", "--offline", "--quiet",
    "--manifest-path", "perfbench/Cargo.toml", "--",
]


def run_once(workload, seed, seconds, trace):
    args = COMMAND + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(args, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-4000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["stamp"], json.loads(lines[-1])


def summarize(values):
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "q1": median, "q3": median, "spread": 0.0}
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--json", help="also write the summary here")
    args = ap.parse_args()

    stamps, results = [], []
    for seed in args.seeds:
        stamp, result = run_once(args.workload, seed, args.seconds, args.trace)
        stamps.append(stamp)
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", file=sys.stderr, flush=True)

    names = list(results[0]["metrics"])
    summary = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        summary[name] = dict(summarize(values), unit=results[0]["metrics"][name]["unit"],
                             values=values)
        s = summary[name]
        print(f"{name:38s} {s['median']:14.6g} {s['unit']:6s} "
              f"q1 {s['q1']:12.6g} q3 {s['q3']:12.6g} spread {s['spread']:.4f}")
    out = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "seeds": args.seeds,
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": summary,
        "stamps": stamps,
    }
    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(out, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
