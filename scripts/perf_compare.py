#!/usr/bin/env python3
"""Compare a fresh bench --json run against the last committed
baseline entry (CI perf-smoke gate).

    perf_compare.py fresh_cluster.json --history BENCH_cluster.json
        --schema treegion-cluster-bench/v1 --metric reqs_per_s
        --max-regression 0.30

Usage: perf_compare.py FRESH_JSON --history HISTORY_JSON
                       --schema SCHEMA --metric FIELD
                       [--max-regression 0.20]

Absolute throughput depends on the machine, so per-config ratios are
normalized by the median ratio across configs (median_norm.py): the
median captures "how much faster/slower is this machine than the one
that recorded the baseline", and a config whose normalized ratio still
falls more than --max-regression below 1.0 has regressed relative to
its peers. A uniform slowdown of every config by construction cannot
trip the gate (it is indistinguishable from a slower machine).

Exit codes: 0 ok, 1 regression, 2 usage/schema error.
"""

import argparse
import json
import sys

from median_norm import normalize


def load_entry(obj, what, schema, metric):
    if obj.get("schema") != schema:
        sys.exit(f"error: {what}: schema {obj.get('schema')!r} != {schema!r}")
    try:
        configs = {c["name"]: c[metric] for c in obj["configs"]}
    except KeyError as e:
        sys.exit(f"error: {what}: config missing field {e}")
    if not configs:
        sys.exit(f"error: {what}: no configs")
    return configs


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("fresh", help="JSON file written by --json")
    ap.add_argument("--history", required=True)
    ap.add_argument("--schema", required=True,
                    help="required schema tag in both files")
    ap.add_argument("--metric", required=True,
                    help="per-config throughput field to compare")
    ap.add_argument("--max-regression", type=float, default=0.20,
                    help="fail when a normalized ratio drops more than "
                         "this fraction below 1.0 (default 0.20)")
    args = ap.parse_args()

    with open(args.fresh) as f:
        fresh = load_entry(json.load(f), args.fresh,
                           args.schema, args.metric)
    with open(args.history) as f:
        history = json.load(f)
    if not isinstance(history, list) or not history:
        sys.exit(f"error: {args.history} must be a non-empty array")
    base_entry = history[-1]
    base = load_entry(base_entry, f"{args.history}[-1]",
                      args.schema, args.metric)

    if set(fresh) != set(base):
        sys.exit(f"error: config mismatch: fresh {sorted(fresh)} vs "
                 f"baseline {sorted(base)}")

    median, norm = normalize({name: fresh[name] / base[name]
                              for name in base})
    floor = 1.0 - args.max_regression

    print(f"baseline: {base_entry.get('label')} "
          f"(median machine ratio {median:.2f}x)")
    print(f"{'config':<12}{'base':>10}{'fresh':>10}{'norm':>8}")
    failed = []
    for name in base:
        mark = ""
        if norm[name] < floor:
            failed.append(name)
            mark = "  << REGRESSION"
        print(f"{name:<12}{base[name]:>10.1f}{fresh[name]:>10.1f}"
              f"{norm[name]:>8.2f}{mark}")

    if failed:
        print(f"FAIL: {', '.join(failed)} regressed more than "
              f"{args.max_regression:.0%} vs the committed baseline")
        return 1
    print("OK: no config regressed past the gate")
    return 0


if __name__ == "__main__":
    sys.exit(main())
