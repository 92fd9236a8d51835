#!/usr/bin/env python3
"""Compares two sets of bench_e2e runs against BENCHMARK.json's bounds.

    python3 bench/e2e/compare.py BASE_DIR NEW_DIR [--benchmark BENCHMARK.json]
                                 [--claim METRIC:WORKLOAD ...]
    python3 bench/e2e/compare.py --selftest

Each directory holds run JSONs written by `bench_e2e --json=PATH`, any
number per workload. Runs are paired by file-name order within a workload,
so name them in the order they ran (base and new alternating).

For every workload (one row) and end-to-end metric the report gives each
side's median and quartiles and a verdict:
  ok          the new median is no worse than the base median by more than
              the metric's bound;
  REGRESSED   it is worse by more than the bound;
  unresolved  a side's run-to-run spread (interquartile range over median)
              exceeds the bound, unless every new run beats every base run.
A claim METRIC:WORKLOAD holds when there are at least 10 pairs, the new
side wins at least 9 of 10 of them (ties count for neither), and the
medians differ by more than the base side's interquartile range.

Exits 0 when nothing regressed, nothing is unresolved and every claim
holds; 1 otherwise.
"""

import argparse
import glob
import io
import json
import os
import statistics
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(HERE)),
                                 "BENCHMARK.json")
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(directory):
    """{workload: [run, ...]} in file-name order."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            run = json.load(f)
        runs.setdefault(run["workload"], []).append(run)
    return runs


def values(runs, metric):
    out = []
    for run in runs:
        for section in ("end_to_end", "per_layer", "detail"):
            if metric in run.get(section, {}):
                out.append(run[section][metric]["value"])
                break
    return out


def quartiles(vals):
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, statistics.median(vals), q3


def spread(vals):
    q1, med, q3 = quartiles(vals)
    return (q3 - q1) / abs(med) if med else 0.0


def better(a, b, lower):
    """True when value b is better than value a."""
    return b < a if lower else b > a


def verdict(base, new, metric):
    lower = metric["better"] == "lower"
    bound = metric.get("bound", 0.0)
    _, med_a, _ = quartiles(base)
    _, med_b, _ = quartiles(new)
    worse = (med_b - med_a) / abs(med_a) if med_a else 0.0
    if not lower:
        worse = -worse
    if spread(base) > bound or spread(new) > bound:
        best_base = min(base) if lower else max(base)
        worst_new = max(new) if lower else min(new)
        if not better(best_base, worst_new, lower):
            return "unresolved"
    return "REGRESSED" if worse > bound else "ok"


def claim_holds(base, new, metric):
    """The pairwise rule; returns (holds, explanation)."""
    lower = metric["better"] == "lower"
    pairs = list(zip(base, new))
    if len(pairs) < MIN_PAIRS:
        return False, f"{len(pairs)} pairs < {MIN_PAIRS}"
    wins = sum(1 for a, b in pairs if better(a, b, lower))
    q1, med_a, q3 = quartiles(base)
    gap = abs(statistics.median(new) - med_a)
    moved = better(med_a, statistics.median(new), lower)
    holds = wins >= WIN_SHARE * len(pairs) and moved and gap > (q3 - q1)
    return holds, (f"wins {wins}/{len(pairs)}, median gap {gap:.6g} vs "
                   f"base IQR {q3 - q1:.6g}")


def cell(vals):
    q1, med, q3 = quartiles(vals)
    return f"{med:.5g} [{q1:.5g}, {q3:.5g}]"


def compare(base_dir, new_dir, benchmark_path, claims, out=sys.stdout):
    with open(benchmark_path) as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base = load_runs(base_dir)
    new = load_runs(new_dir)
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in base or workload not in new:
            continue
        cells = []
        for metric in spec["end_to_end"]:
            a = values(base[workload], metric["name"])
            b = values(new[workload], metric["name"])
            if not a or not b:
                cells.append(f"{metric['name']}: missing")
                ok = False
                continue
            v = verdict(a, b, metric)
            ok = ok and v == "ok"
            cells.append(f"{metric['name']} {cell(a)} -> {cell(b)} {v}")
        print(f"{workload} (runs {len(base[workload])}/{len(new[workload])}): "
              + " | ".join(cells), file=out)
    for claim in claims:
        name, _, workload = claim.partition(":")
        if name not in metrics or workload not in base or workload not in new:
            print(f"claim {claim}: unknown metric or workload", file=out)
            ok = False
            continue
        holds, why = claim_holds(values(base[workload], name),
                                 values(new[workload], name), metrics[name])
        print(f"claim {claim}: {'holds' if holds else 'NOT MET'} ({why})",
              file=out)
        ok = ok and holds
    return ok


def selftest():
    spec = {
        "workloads": [{"name": "w", "why": ""}],
        "end_to_end": [
            {"name": "lat_ms", "unit": "ms", "better": "lower", "bound": 0.1},
            {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
        ],
        "per_layer": [],
    }

    def write(directory, lats, rates):
        os.makedirs(directory)
        for i, (lat, rate) in enumerate(zip(lats, rates)):
            run = {"workload": "w", "end_to_end": {
                "lat_ms": {"value": lat, "unit": "ms"},
                "rate": {"value": rate, "unit": "1/s"}}}
            with open(os.path.join(directory, f"run{i:02d}.json"), "w") as f:
                json.dump(run, f)

    steady = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0, 10.02]
    rate = [100.0 + d for d in (0.5, -0.5, 0.2, -0.2, 0.0, 0.3, -0.3, 0.1,
                                -0.1, 0.0)]
    cases = [
        # (name, new latencies, new rates, claims, expect ok, expect text)
        ("same", steady, rate, [], True, "lat_ms"),
        ("slower", [v * 1.2 for v in steady], rate, [], False, "REGRESSED"),
        ("noisy", [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0],
         rate, [], False, "unresolved"),
        ("faster", [v * 0.8 for v in steady], rate, ["lat_ms:w"], True,
         "holds"),
        ("few pairs", [v * 0.8 for v in steady[:5]], rate[:5], ["lat_ms:w"],
         False, "NOT MET"),
        ("lower rate", steady, [r * 0.8 for r in rate], [], False,
         "REGRESSED"),
    ]
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        spec_path = os.path.join(tmp, "BENCHMARK.json")
        with open(spec_path, "w") as f:
            json.dump(spec, f)
        write(os.path.join(tmp, "base"), steady, rate)
        for i, (name, lats, rates, claims, want_ok, want_text) in \
                enumerate(cases):
            new_dir = os.path.join(tmp, f"new{i}")
            write(new_dir, lats, rates)

            out = io.StringIO()
            got_ok = compare(os.path.join(tmp, "base"), new_dir, spec_path,
                             claims, out)
            if got_ok != want_ok or want_text not in out.getvalue():
                failures += 1
                print(f"selftest {name}: got ok={got_ok}\n{out.getvalue()}")
    print("selftest " + ("passed" if failures == 0 else f"{failures} failed"))
    return failures == 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", nargs="?")
    parser.add_argument("new", nargs="?")
    parser.add_argument("--benchmark", default=DEFAULT_BENCHMARK)
    parser.add_argument("--claim", action="append", default=[],
                        metavar="METRIC:WORKLOAD")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        sys.exit(0 if selftest() else 1)
    if not args.base or not args.new:
        parser.error("BASE_DIR and NEW_DIR are required")
    sys.exit(0 if compare(args.base, args.new, args.benchmark, args.claim)
             else 1)


if __name__ == "__main__":
    main()
