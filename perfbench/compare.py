#!/usr/bin/env python3
"""Compares two sets of benchmark runs, metric by metric.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR
    python3 perfbench/compare.py RUNS_DIR            # one set: spread only

A set is a directory of result files named <workload>-seed<N>.json (or
<workload>-<anything>.json), each holding the output of one run; the last
line of each file is its result object. Runs pair up by seed when both
sides used the same seeds, else in sorted file order.

For every workload and end-to-end metric it prints each side's median and
quartiles (statistics.quantiles, n=4), the spread (interquartile range over
median) and the metric's bound from BENCHMARK.json, then a verdict:

  better      the change wins at least 9 of 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              interquartile range
  worse       the change's median is worse than the parent's by more than
              the bound
  unresolved  either side's spread is wider than the bound, and the change
              is neither better nor worse on every pair
  same        none of the above: within the bound

Exits 1 when any metric is worse or unresolved, else 0.
"""

import json
import pathlib
import re
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_set(directory):
    """{workload: {run_key: {metric: value}}} for one directory of runs."""
    runs = {}
    for path in sorted(pathlib.Path(directory).glob("*.json")):
        lines = [l for l in path.read_text().splitlines() if l.strip()]
        if not lines:
            continue
        result = json.loads(lines[-1])
        if not result.get("correct", False):
            print(f"warning: {path.name} reports correct=false", file=sys.stderr)
        workload = path.stem.split("-")[0]
        match = re.search(r"seed(\d+)", path.stem)
        key = int(match.group(1)) if match else path.stem
        runs.setdefault(workload, {})[key] = {
            name: m["value"] for name, m in result.get("metrics", {}).items()}
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, bound, higher_better):
    sign = 1 if higher_better else -1
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    p_spread = (p_q3 - p_q1) / p_med if p_med else float("inf")
    c_spread = (c_q3 - c_q1) / c_med if c_med else float("inf")
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    gap = sign * (c_med - p_med)
    if pairs and wins >= 0.9 * len(pairs) and gap > (p_q3 - p_q1):
        return "better"
    if p_med and -gap / abs(p_med) > bound:
        return "worse"
    if max(p_spread, c_spread) > bound and not (wins == len(pairs) or losses == len(pairs)):
        return "unresolved"
    return "same"


def paired(parent_runs, change_runs, metric):
    keys = sorted(set(parent_runs) & set(change_runs), key=str)
    if keys:
        return ([parent_runs[k][metric] for k in keys if metric in parent_runs[k] and metric in change_runs[k]],
                [change_runs[k][metric] for k in keys if metric in parent_runs[k] and metric in change_runs[k]])
    p = [parent_runs[k][metric] for k in sorted(parent_runs, key=str) if metric in parent_runs[k]]
    c = [change_runs[k][metric] for k in sorted(change_runs, key=str) if metric in change_runs[k]]
    n = min(len(p), len(c))
    return p[:n], c[:n]


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    parent = load_set(argv[1])
    change = load_set(argv[2]) if len(argv) == 3 else None
    status = 0
    for workload in sorted(parent):
        print(f"== {workload}")
        for name, spec in metrics.items():
            bound = spec["bound"]
            higher = spec["better"] == "higher"
            if change is None:
                values = [r[name] for r in parent[workload].values() if name in r]
                if not values:
                    continue
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / med if med else float("inf")
                flag = "ok" if spread <= bound else "TOO WIDE"
                if flag != "ok":
                    status = 1
                print(f"  {name:14s} n={len(values):2d} median {med:12.4f} "
                      f"[{q1:.4f}, {q3:.4f}] spread {spread:6.1%} "
                      f"bound {bound:.0%} {flag}")
                continue
            if workload not in change:
                continue
            p, c = paired(parent[workload], change[workload], name)
            if not p:
                continue
            v = verdict(p, c, bound, higher)
            if v in ("worse", "unresolved"):
                status = 1
            pq1, pmed, pq3 = quartiles(p)
            cq1, cmed, cq3 = quartiles(c)
            print(f"  {name:14s} parent {pmed:11.4f} [{pq1:.4f}, {pq3:.4f}]  "
                  f"change {cmed:11.4f} [{cq1:.4f}, {cq3:.4f}]  "
                  f"{(cmed - pmed) / pmed if pmed else 0:+7.1%}  "
                  f"bound {bound:.0%}  n={len(p)}  {v}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
