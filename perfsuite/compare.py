#!/usr/bin/env python3
"""Compare two sets of bench_suite runs against the bounds in BENCHMARK.json.

    python3 perfsuite/compare.py --base A1.json A2.json ... \\
                                 --head B1.json B2.json ...

Each file is bench_suite --json output (all workloads, or one). Files
pair up in order: base[i] and head[i] are pair i and should use the same
seed, run alternately (base first in even pairs, head first in odd ones).
For every workload and end-to-end metric this prints each side's median
and quartiles and a verdict:

  better      the head wins at least 9 of 10 pairs (ties count for
              neither), there are at least 10 pairs, and the medians
              differ by more than the base runs' interquartile range;
  worse       the head median is worse than the base median by more
              than the metric's bound;
  unresolved  the interquartile range of either side is wider than the
              bound, unless every head run beats every base run;
  unchanged   otherwise.

Simulated metrics are deterministic for a seed, so for them any
difference within a same-seed pair is reported as "model changed".
The exit status is 1 when any verdict is "worse" or "model changed".
"""

import argparse
import json
import os
import statistics
import sys

SIMULATED = {"sim_p50_ns", "sim_p99_ns", "sim_p999_ns", "sim_achieved_mrps"}
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path):
    with open(path) as f:
        report = json.load(f)
    runs = report["workloads"] if "workloads" in report else [report]
    return {r["workload"]: r for r in runs}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread_text(q):
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def verdict(metric, pairs):
    """pairs: list of (base_run, head_run) workload reports."""
    name, bound = metric["name"], metric["bound"]
    higher = metric["better"] == "higher"
    base = [b["end_to_end"][name]["value"] for b, _ in pairs]
    head = [h["end_to_end"][name]["value"] for _, h in pairs]
    bq, hq = quartiles(base), quartiles(head)

    if name in SIMULATED:
        same_seed = [(b, h) for (rb, rh), b, h in zip(pairs, base, head)
                     if rb["seed"] == rh["seed"]]
        if any(b != h for b, h in same_seed):
            return bq, hq, "model changed"
        if len(same_seed) == len(pairs):
            return bq, hq, "unchanged"

    def beats(x, y):
        return x > y if higher else x < y

    wins = sum(beats(h, b) for b, h in zip(base, head))
    all_better = all(beats(h, b) for h in head for b in base)
    worse_by = (bq[1] - hq[1] if higher else hq[1] - bq[1]) / bq[1]
    spread = max(bq[2] - bq[0], hq[2] - hq[0]) / bq[1]
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and abs(hq[1] - bq[1]) > bq[2] - bq[0]):
        return bq, hq, "better"
    if spread > bound and not all_better:
        return bq, hq, "unresolved"
    if worse_by > bound:
        return bq, hq, "worse"
    return bq, hq, "unchanged"


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--head", nargs="+", required=True)
    parser.add_argument("--contract", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json"))
    args = parser.parse_args()
    if len(args.base) != len(args.head):
        parser.error("--base and --head need the same number of files")

    with open(args.contract) as f:
        contract = json.load(f)
    base = [load(p) for p in args.base]
    head = [load(p) for p in args.head]

    failing = 0
    print(f"{len(base)} pairs; median [q1, q3] per side")
    print(f"{'workload':<16} {'metric':<18} {'base':>34} {'head':>34} "
          f"{'change':>8}  verdict")
    for w in contract["workloads"]:
        pairs = [(b[w["name"]], h[w["name"]]) for b, h in zip(base, head)
                 if w["name"] in b and w["name"] in h]
        if not pairs:
            continue
        for metric in contract["end_to_end"]:
            bq, hq, v = verdict(metric, pairs)
            change = (hq[1] - bq[1]) / bq[1]
            failing += v in ("worse", "model changed")
            print(f"{w['name']:<16} {metric['name']:<18} "
                  f"{spread_text(bq):>34} {spread_text(hq):>34} "
                  f"{change:>+8.2%}  {v}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
