#!/usr/bin/env python3
"""Self-test of the treegion benchmark.

    python3 perfbench/test_bench.py [--seconds 30] [--seed 5]

Run from the root of a checkout. For every workload it makes two
untraced and two traced runs on one seed through perfbench/run.py and
checks that:
  - layers.json maps exactly BENCHMARK.json's per-layer metrics;
  - every declared metric is printed once, with its unit, and finite;
  - every per-layer metric layers.json maps to the workload is measured
    (run.py fails the run when one is missing; here it must not read 0);
  - the run is correct and error_rate is 0;
  - speedup_geomean, code_expansion and every exact per-layer count
    repeat bit for bit across the two runs.
Exits non-zero on the first failed check.
"""

import argparse
import json
import math
import os
import subprocess
import sys

from run import expand, mapped_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXACT_END_TO_END = ("speedup_geomean", "code_expansion")


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    require(proc.returncode == 0 and lines,
            "%s trace=%d exited with %d" % (workload, trace, proc.returncode))
    require(lines[0].startswith("perfbench: workload=%s seed=%d"
                                % (workload, seed)),
            "the seed is not recorded in the output")
    return json.loads(lines[-1])


def require(ok, message):
    if not ok:
        print("FAIL: " + message)
        sys.exit(1)


def check_result(result, declared, label):
    require(set(result) == {"correct", "attempted", "failed", "metrics"},
            label + ": result keys")
    require(result["correct"], label + ": run not correct")
    require(result["attempted"] >= 1 and result["failed"] == 0,
            label + ": failed operations")
    metrics = result["metrics"]
    require(list(metrics) == [m["name"] for m in declared],
            label + ": metric set differs from BENCHMARK.json")
    for m in declared:
        value = metrics[m["name"]]
        require(value["unit"] == m["unit"], label + ": unit of " + m["name"])
        require(isinstance(value["value"], (int, float)) and
                math.isfinite(value["value"]),
                label + ": %s is not finite" % m["name"])
    if "error_rate" in metrics:
        require(metrics["error_rate"]["value"] == 0,
                label + ": error_rate is not 0")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    with open(os.path.join(HERE, "layers.json")) as f:
        layers = json.load(f)
    def expand_all(names):
        return expand(names, layers["schemes"], layers["ooo_configs"])

    mapped = [n for row in layers["rows"] for n in expand_all(row["metrics"])]
    declared = [m["name"] for m in benchmark["per_layer"]]
    require(sorted(mapped) == sorted(declared),
            "layers.json and BENCHMARK.json per_layer differ")
    exact = [n for row in layers["rows"]
             for n in expand_all(row["exact_metrics"])]
    workloads = {w["name"] for w in benchmark["workloads"]}
    require(set(layers["clients"]) == workloads,
            "layers.json client counts do not name every workload")
    require(set(layers["schemes_by_workload"]) == workloads and
            all(set(s) <= set(layers["schemes"])
                for s in layers["schemes_by_workload"].values()),
            "layers.json schemes_by_workload does not fit the workloads")

    for w in benchmark["workloads"]:
        name = w["name"]
        for trace, key, repeat in ((0, "end_to_end", EXACT_END_TO_END),
                                   (1, "per_layer", exact)):
            first = run(name, args.seed, args.seconds, trace)
            second = run(name, args.seed, args.seconds, trace)
            for i, result in enumerate((first, second)):
                check_result(result, benchmark[key],
                             "%s trace=%d run %d" % (name, trace, i + 1))
            if trace:
                # run.py already fails a run missing a mapped metric; a
                # mapped count, size or call time must also be above 0.
                for metric in mapped_metrics(layers, name):
                    value = first["metrics"][metric]
                    require(value["unit"] not in ("count", "KiB", "us", "ns")
                            or value["value"] > 0,
                            "%s: mapped metric %s reads 0" % (name, metric))
            for metric in repeat:
                a = first["metrics"][metric]["value"]
                b = second["metrics"][metric]["value"]
                require(a == b, "%s: %s differs across runs: %r vs %r"
                        % (name, metric, a, b))
        print("ok: " + name)
    print("all benchmark checks passed")


if __name__ == "__main__":
    main()
