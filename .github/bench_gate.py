#!/usr/bin/env python3
"""Perf gate: the repository benchmark at the parent commit against the change.

    python3 .github/bench_gate.py PARENT_BIN CHANGE_BIN [--out PATH]

PARENT_BIN and CHANGE_BIN are `dbcast-benchmark` binaries built from the
parent commit and from the change. For every workload in BENCHMARK.json
the gate runs PAIRS parent/change pairs of SECONDS each at seed 1
without tracing, alternating which side runs first, then one traced run
on each side. The traced runs' per-layer values (BENCHMARK.json
`per_layer`) are reported side by side; they are never gated.

It fails when
  * any run of the change, traced or not, exits non-zero, prints no
    result line, or reports `correct != true` or `failed != 0`; or
  * an end-to-end metric is a regression on some workload: the change's
    median is worse than the parent's by more than that metric's
    BENCHMARK.json bound, and either the parent's own runs are steady
    (quartile spread within the bound) or every run of the change reads
    worse than every run of the parent.

A metric whose parent runs spread wider than its bound, with the two
sides' runs overlapping, is reported as unresolved: listed, not failed
and not passed. A workload or metric that the parent does not report
(one the change adds) is reported as new and not gated; its change runs
still have to be correct. Problems of parent runs are listed as notes.

Both sides run on one host, back to back, so the comparison holds no
figure recorded elsewhere. Every result line, the verdict table and the
per-layer table are written to the --out JSON file; both tables are also
printed.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10
# Shorter than BENCHMARK.json's run_seconds (20), which would make the
# gate run for half an hour; 2 s keeps it near three minutes.
SECONDS = 2
SEED = 1
SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def run(binary, workload, trace):
    """Runs one benchmark process; returns (result line or None, problems)."""
    cmd = [binary, "--workload", workload, "--seed", str(SEED),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    problems = []
    if proc.returncode != 0:
        problems.append(f"exit status {proc.returncode}: {proc.stderr.strip()[-400:]}")
    if not isinstance(result, dict):
        problems.append("no JSON result line on stdout")
        result = None
    else:
        if result.get("correct") is not True:
            problems.append(f"correct is {result.get('correct')!r}")
        if result.get("failed") != 0:
            problems.append(f"failed is {result.get('failed')!r}")
    return result, problems


def worse_by(metric, parent, change):
    """How much worse `change` is than `parent`, as a share of the parent's."""
    if parent == change:
        return 0.0
    if parent == 0:
        return float("inf")
    delta = (change - parent) / abs(parent)
    return delta if metric["better"] == "lower" else -delta


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def judge(metric, parent, change):
    """Verdict on one metric of one workload, from both sides' run values."""
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    spread = 0.0 if q3 == q1 else (q3 - q1) / abs(p_med) if p_med else float("inf")
    worse = worse_by(metric, p_med, c_med)
    bound = metric["bound"]
    all_better = all(worse_by(metric, p, c) < 0 for p in parent for c in change)
    all_worse = all(worse_by(metric, p, c) > 0 for p in parent for c in change)
    if spread <= bound:
        status = "ok" if worse <= bound else "REGRESSION"
    elif all_better:
        status = "ok"
    elif worse > bound and all_worse:
        status = "REGRESSION"
    else:
        status = "unresolved"
    return {
        "parent_median": p_med, "parent_quartiles": (q1, q3), "parent_spread": spread,
        "change_median": c_med, "change_quartiles": quartiles(change),
        "worse": worse, "status": status,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="dbcast-benchmark built at the parent commit")
    parser.add_argument("change", help="dbcast-benchmark built at the change")
    parser.add_argument("--out", default="bench_gate.json", help="JSON report path")
    args = parser.parse_args()

    runs, failures, notes, verdict, layers = [], [], [], [], []
    for workload in (w["name"] for w in SPEC["workloads"]):
        values = {"parent": {}, "change": {}}
        for pair in range(PAIRS):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                result, problems = run(getattr(args, side), workload, 0)
                runs.append({"workload": workload, "pair": pair, "side": side,
                             "trace": 0, "result": result, "problems": problems})
                where = f"{workload} pair {pair} {side}"
                (failures if side == "change" else notes).extend(
                    f"{where}: {p}" for p in problems)
                if problems:
                    continue
                for name, m in (result.get("metrics") or {}).items():
                    values[side].setdefault(name, []).append(m["value"])
            print(f"{workload}: pair {pair + 1}/{PAIRS} done", file=sys.stderr, flush=True)
        traced = {}
        for side in ("parent", "change"):
            result, problems = run(getattr(args, side), workload, 1)
            runs.append({"workload": workload, "pair": None, "side": side,
                         "trace": 1, "result": result, "problems": problems})
            (failures if side == "change" else notes).extend(
                f"{workload} traced {side}: {p}" for p in problems)
            traced[side] = (result or {}).get("metrics") or {}
        for metric in SPEC["per_layer"]:
            name = metric["name"]
            side_values = {side: traced[side].get(name, {}).get("value")
                           for side in ("parent", "change")}
            if side_values["parent"] is None and side_values["change"] is None:
                continue
            layers.append({"workload": workload, "metric": name, "unit": metric["unit"],
                           "better": metric["better"], **side_values})

        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            parent = values["parent"].get(name, [])
            change = values["change"].get(name, [])
            row = {"workload": workload, "metric": name, "unit": metric["unit"],
                   "better": metric["better"], "bound": metric["bound"]}
            if not change:
                failures.append(f"{workload} {name}: not reported by the change")
                continue
            if not parent:
                verdict.append({**row, "change_median": statistics.median(change),
                                "change_quartiles": quartiles(change), "status": "new"})
                continue
            row.update(judge(metric, parent, change))
            verdict.append(row)
            if row["status"] == "REGRESSION":
                failures.append(
                    f"{workload} {name}: change median {row['change_median']:.6g} is "
                    f"{row['worse']:.1%} worse than the parent's {row['parent_median']:.6g} "
                    f"(bound {metric['bound']:.0%}, parent spread "
                    f"{row['parent_spread']:.1%})")

    print(f"{'workload':<14}{'metric':<15}{'parent':>14}{'change':>14}"
          f"{'worse':>9}{'spread':>9}{'bound':>7}  verdict")
    for v in verdict:
        if v["status"] == "new":
            print(f"{v['workload']:<14}{v['metric']:<15}{'-':>14}"
                  f"{v['change_median']:>14.6g}{'':>25}  new, not gated")
            continue
        print(f"{v['workload']:<14}{v['metric']:<15}{v['parent_median']:>14.6g}"
              f"{v['change_median']:>14.6g}{v['worse']:>+9.1%}{v['parent_spread']:>9.1%}"
              f"{v['bound']:>7.0%}  {v['status']}")
    print(f"\n{'workload':<14}{'per layer (traced, not gated)':<33}{'parent':>14}"
          f"{'change':>14}{'worse':>9}")
    for v in layers:
        p, c = v["parent"], v["change"]
        if p == 0 and c == 0:
            continue  # a layer this workload does not run; kept in --out
        cells = [f"{x:>14.6g}" if x is not None else f"{'-':>14}" for x in (p, c)]
        worse = f"{worse_by(v, p, c):>+9.1%}" if None not in (p, c) and p != 0 else ""
        print(f"{v['workload']:<14}{v['metric']:<33}{''.join(cells)}{worse}")
    for n in notes:
        print(f"note: {n}")
    for f in failures:
        print(f"FAIL: {f}")
    unresolved = [f"{v['workload']} {v['metric']}" for v in verdict
                  if v["status"] == "unresolved"]
    passed = not failures
    print(f"gate: {'PASS' if passed else 'FAIL'}"
          + (f", unresolved: {', '.join(unresolved)}" if unresolved else "")
          + f" ({PAIRS} pairs x {SECONDS} s per workload, seed {SEED})")
    Path(args.out).write_text(json.dumps({
        "pairs": PAIRS, "seed": SEED, "seconds": SECONDS, "passed": passed,
        "failures": failures, "unresolved": unresolved, "notes": notes,
        "verdict": verdict, "per_layer": layers, "runs": runs,
    }, indent=1) + "\n")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
