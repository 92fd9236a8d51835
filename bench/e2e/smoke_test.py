#!/usr/bin/env python3
"""Smoke test of bench_e2e: every workload in --smoke mode, traced.

    python3 smoke_test.py BENCH_E2E BENCHMARK.json WORK_DIR

Asserts that each run exits 0, reports every metric BENCHMARK.json names
with its unit, has failed_frac == 0, and writes a trace that parses and
whose spans account for their roots. Runs two workloads at a time.
"""

import json
import os
import shutil
import subprocess
import sys

PARALLEL = 2


def check(workload, proc, out_dir, spec):
    errors = []
    if proc.returncode != 0:
        errors.append(f"exited {proc.returncode}")
    try:
        with open(os.path.join(out_dir, f"{workload}.json")) as f:
            result = json.load(f)
        with open(os.path.join(out_dir, f"{workload}.trace.json")) as f:
            trace = json.load(f)
    except (OSError, ValueError) as e:
        return errors + [f"unreadable output: {e}"]
    for section in ("end_to_end", "per_layer"):
        for metric in spec[section]:
            got = result[section].get(metric["name"])
            if got is None or got["unit"] != metric["unit"]:
                errors.append(f"{section} metric {metric['name']} "
                              f"({metric['unit']}) missing")
    if result["failed"] != 0 or result["detail"]["failed_frac"]["value"] != 0:
        errors.append(f"failed {result['failed']} of {result['attempted']}")
    if not trace["replays"] or not trace["replays"][0]["spans"]:
        errors.append("trace holds no spans")
    if result["detail"]["trace.account_err_max"]["value"] > 0.01:
        errors.append("child spans exceed their root span by more than 1%")
    return errors


def main():
    binary, benchmark, out_dir = sys.argv[1:4]
    with open(benchmark) as f:
        spec = json.load(f)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    pending = [w["name"] for w in spec["workloads"]]
    failures = 0
    while pending:
        batch, pending = pending[:PARALLEL], pending[PARALLEL:]
        procs = []
        for workload in batch:
            log = open(os.path.join(out_dir, f"{workload}.log"), "w")
            procs.append((workload, log, subprocess.Popen(
                [binary, f"--workload={workload}", "--seed=1", "--smoke",
                 f"--json={os.path.join(out_dir, workload + '.json')}",
                 f"--trace={os.path.join(out_dir, workload + '.trace.json')}",
                 f"--workdir={os.path.join(out_dir, workload + '-work')}"],
                stdout=log, stderr=subprocess.STDOUT)))
        for workload, log, proc in procs:
            proc.wait()
            log.close()
            errors = check(workload, proc, out_dir, spec)
            failures += len(errors)
            for e in errors:
                print(f"{workload}: {e}")
            print(f"{workload}: {'ok' if not errors else 'FAILED'}")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
