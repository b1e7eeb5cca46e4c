#!/usr/bin/env python3
"""A/B two micro_benchmarks builds in alternating slices.

Usage:
  scripts/ab_pairs.py PARENT_BIN CHANGE_BIN --filter REGEX [--pairs 20]
                      [--slice 1]

Runs PARENT_BIN and CHANGE_BIN (two builds of bench/micro_benchmarks) in
turn, one google-benchmark slice of about --slice seconds per matched row
per side, for --pairs pairs. The side that runs first alternates from pair
to pair, so drift in the host's speed lands on both sides alike. For each
row it prints both sides' median time per iteration, the median of the
per-pair ratios (change / parent; below 1 means the change is faster) with
their quartiles, and how many pairs favour each side.

Separate processes read a kernel or layer row with a spread far wider than
the gains they are asked to show; pairing slices a few seconds apart is
what lets such a row carry a claim (docs/KERNELS.md, "Measured").

Standard library only.
"""

import argparse
import json
import statistics
import subprocess
import sys

_NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def run_slice(binary, regex, slice_s):
    """One run of `binary` over the rows `regex` matches: {name: ns/iter}."""
    out = subprocess.run(
        [binary, "--benchmark_filter=" + regex,
         "--benchmark_min_time=" + str(slice_s),
         "--benchmark_format=json"],
        check=True, capture_output=True, text=True).stdout
    # The JSON report comes first; micro_benchmarks prints after it only
    # the summary tables whose names the filter selects.
    report, _ = json.JSONDecoder().raw_decode(out)
    rows = {}
    for row in report["benchmarks"]:
        if row.get("error_occurred") or row.get("run_type") == "aggregate":
            continue
        rows[row["name"]] = row["real_time"] * _NS_PER_UNIT[row["time_unit"]]
    return rows


def fmt_ns(ns):
    for unit, scale in (("s", 1e9), ("ms", 1e6), ("us", 1e3)):
        if ns >= scale:
            return "%.3f %s" % (ns / scale, unit)
    return "%.1f ns" % ns


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent_bin")
    parser.add_argument("change_bin")
    parser.add_argument("--filter", required=True,
                        help="google-benchmark --benchmark_filter regex")
    parser.add_argument("--pairs", type=int, default=20)
    parser.add_argument("--slice", type=float, default=1.0,
                        help="seconds per row per side per pair")
    args = parser.parse_args()

    times = {"parent": {}, "change": {}}
    bins = {"parent": args.parent_bin, "change": args.change_bin}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            for name, ns in run_slice(bins[side], args.filter,
                                      args.slice).items():
                times[side].setdefault(name, []).append(ns)
        print("pair %d/%d done (%s first)" % (pair + 1, args.pairs, order[0]),
              file=sys.stderr)

    names = [n for n in times["parent"] if n in times["change"]]
    if not names:
        sys.exit("no row ran on both sides; check --filter")
    print("%-40s %12s %12s %8s %13s %12s" % ("row", "parent", "change",
                                              "ratio", "ratio q1-q3",
                                              "pairs c/p/="))
    for name in names:
        parent, change = times["parent"][name], times["change"][name]
        n = min(len(parent), len(change))
        ratios = [change[i] / parent[i] for i in range(n)]
        change_wins = sum(1 for r in ratios if r < 1)
        parent_wins = sum(1 for r in ratios if r > 1)
        q1, _, q3 = (statistics.quantiles(ratios, n=4) if n > 1
                     else ratios * 3)
        print("%-40s %12s %12s %8.3f %6.3f-%.3f %6d/%d/%d" % (
            name, fmt_ns(statistics.median(parent)),
            fmt_ns(statistics.median(change)), statistics.median(ratios),
            q1, q3, change_wins, parent_wins, n - change_wins - parent_wins))


if __name__ == "__main__":
    main()
