#!/usr/bin/env python3
"""Smoke test: every workload at 1/50 size, traced, against the contract.

    python3 perfsuite/smoke.py BENCH_SUITE BENCHMARK_JSON

Runs BENCH_SUITE --smoke --trace (every workload in its own child
process) and fails unless each workload passed its output checks and
reported exactly the end-to-end and per-layer metrics, with the units,
that BENCHMARK_JSON lists, so the contract and the program cannot
drift apart.
"""

import json
import subprocess
import sys


def main():
    suite, contract_path = sys.argv[1], sys.argv[2]
    with open(contract_path) as f:
        contract = json.load(f)
    out = "smoke.json"
    subprocess.run([suite, "--smoke", "--trace", "--seed=42",
                    f"--json={out}"], check=True)
    with open(out) as f:
        report = json.load(f)

    errors = []
    want_workloads = [w["name"] for w in contract["workloads"]]
    got_workloads = [w["workload"] for w in report["workloads"]]
    if got_workloads != want_workloads:
        errors.append(f"workloads {got_workloads} != {want_workloads}")
    for w in report["workloads"]:
        if not w["correct"]:
            errors.append(f"{w['workload']}: checks failed: {w['failures']}")
        for section in ("end_to_end", "per_layer"):
            want = {m["name"]: m["unit"] for m in contract[section]}
            got = {k: v["unit"] for k, v in w[section].items()}
            if got != want:
                errors.append(f"{w['workload']} {section}: "
                              f"missing {sorted(set(want) - set(got))}, "
                              f"extra {sorted(set(got) - set(want))}, "
                              f"units {[k for k in want if k in got and got[k] != want[k]]}")
    for e in errors:
        print(f"smoke: {e}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
