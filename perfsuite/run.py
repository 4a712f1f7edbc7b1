#!/usr/bin/env python3
"""Build bench_suite from source and run one workload of the benchmark.

    python3 perfsuite/run.py --workload herd-1n --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout. The build goes to
$CARGO_TARGET_DIR/perfsuite (default .bench_build/perfsuite); the first
run configures and builds, later runs only check that the build is up
to date. The suite's own metric lines are printed first; the last line
of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for --trace 0 and the per-layer metrics for
--trace 1. The exit status is non-zero when the build fails, the suite
fails, or an output check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    generated = os.path.exists(
        os.path.join(build_dir, "CMakeFiles", "cmake.check_cache"))
    if not generated:
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "bench_suite",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "bench_suite")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfsuite")
    try:
        suite = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 1

    result = os.path.join(build_dir, f"result-{args.workload}.json")
    if os.path.exists(result):
        os.remove(result)
    cmd = [suite, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--json={result}"]
    traced = args.trace == "1"
    if traced:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace", f"--trace-dir={traces}"]
    sys.stdout.flush()
    status = subprocess.run(cmd).returncode
    if not os.path.exists(result):
        print(f"run.py: bench_suite exited with status {status} and no "
              "result", file=sys.stderr)
        return status or 1

    with open(result) as f:
        report = json.load(f)
    correct = report["correct"] and status == 0
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["per_layer" if traced else "end_to_end"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
