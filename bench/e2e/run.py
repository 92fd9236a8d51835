#!/usr/bin/env python3
"""Runs one bench_e2e workload and prints its result as one JSON line.

    python3 bench/e2e/run.py --workload NAME --seed N [--seconds S] [--trace 0|1]

Run from the repository root. The first call builds bench_e2e (and the
library under src/) in Release into $CARGO_TARGET_DIR/e2e, default
.bench_build/e2e; later calls only rebuild what changed. The last line of
standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics BENCHMARK.json names, or with --trace 1 its
per-layer metrics. The benchmark's own table goes to standard error. The
exit status is 0 only when the run succeeded and every output check passed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures (once) and builds bench_e2e; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no library sources under {os.path.join(ROOT, 'src')}")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                       "--target", "bench_e2e"],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "bench_e2e")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {spec_path}: {e}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")

    build_root = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    binary = build(os.path.join(build_root, "e2e"))

    run_dir = os.path.join(build_root, "e2e-runs",
                           f"{args.workload}-{args.seed}-{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    result_path = os.path.join(run_dir, "result.json")
    command = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}", f"--json={result_path}",
               f"--workdir={os.path.join(run_dir, 'work')}"]
    if args.trace:
        # A traced run reports no setup_s, so one set-up is enough.
        command += [f"--trace={os.path.join(run_dir, 'trace.json')}",
                    "--setup-repeats=1"]
    try:
        proc = subprocess.run(command, stdout=sys.stderr,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"bench_e2e did not finish within {RUN_TIMEOUT_S} s")
    shutil.rmtree(os.path.join(run_dir, "work"), ignore_errors=True)
    try:
        with open(result_path) as f:
            result = json.load(f)
    except (OSError, ValueError):
        fail(f"bench_e2e exited {proc.returncode} without a result")

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for metric in spec[section]:
        measured = result[section].get(metric["name"])
        if measured is None or measured["unit"] != metric["unit"]:
            fail(f"metric {metric['name']} ({metric['unit']}) not reported")
        metrics[metric["name"]] = measured
    correct = bool(result["correct"]) and proc.returncode == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
