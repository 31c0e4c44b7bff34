#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs the benchmark on one or more workloads with several seeds and
prints, per end-to-end metric, the median and the spread (distance
between the first and third quartile, as a share of the median), next to
the metric's bound from BENCHMARK.json. Run from the repository root:

    python3 benchmark/steadiness.py --workloads serve_steady --seeds 1-10
    python3 benchmark/steadiness.py --seeds 1-10 --held-out 9001

`--held-out` adds one more seed per workload that is reported on its own
line and is never used to tune the benchmark.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {done.returncode}:\n"
                 f"{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed} failed its output checks: {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--held-out", type=int)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    worst = 0.0
    for workload in args.workloads.split(","):
        runs = [run_once(bench["command"], workload, s, args.seconds, 0)
                for s in seeds]
        print(f"== {workload} (seeds {args.seeds})")
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            worst = max(worst, spread / bound)
            print(f"  {name:>16} median {med:<14.6g} spread {spread:7.2%}"
                  f"  bound {bound:.0%}  values {[f'{v:.4g}' for v in values]}")
        if args.held_out is not None:
            held = run_once(bench["command"], workload, args.held_out,
                            args.seconds, 0)
            print(f"  held-out seed {args.held_out}: " + ", ".join(
                f"{k}={v:.6g}" for k, v in held.items()))
    print(f"largest spread as a share of its bound: {worst:.2f}")


if __name__ == "__main__":
    main()
