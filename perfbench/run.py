#!/usr/bin/env python3
"""Build and run the treegion benchmark.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The first run configures and builds the
benchmark (and the treegion libraries from src/) under $CARGO_TARGET_DIR,
or .bench_build when that is unset; later runs only rebuild what changed.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are
BENCHMARK.json's end_to_end list, with --trace 1 its per_layer list.
perfbench/layers.json maps each per-layer metric to the workloads that
must report it; the others read 0 on a workload.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep", "farm-cold", "validate")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configure once, then build incrementally; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no treegion sources at " + os.path.join(ROOT, "src"))
    os.makedirs(build_dir, exist_ok=True)
    binary_dir = os.path.join(build_dir, "perfbench")
    with open(os.path.join(build_dir, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(binary_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", binary_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", binary_dir, "-j", jobs])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr).returncode != 0:
                fail("build failed: " + " ".join(step))
    return os.path.join(binary_dir, "perfbench")


def expand(names, schemes, configs):
    """Metric names with <s> replaced by each of schemes and <cfg> by
    each of configs."""
    out = []
    for name in names:
        if "<s>" in name:
            out += [name.replace("<s>", s) for s in schemes]
        elif "<cfg>" in name:
            out += [name.replace("<cfg>", c) for c in configs]
        else:
            out.append(name)
    return out


def mapped_metrics(layers, workload):
    """The per-layer metrics layers.json maps to workload."""
    names = set()
    for row in layers["rows"]:
        if workload in row["workloads"]:
            names.update(expand(row["metrics"],
                                layers["schemes_by_workload"][workload],
                                layers["ooo_configs"]))
    return names


def complete(result, benchmark, layers, workload, trace):
    """Check the printed metrics against BENCHMARK.json and, with trace,
    against the metrics layers.json maps to the workload; report the
    per-layer metrics not mapped to it as 0."""
    declared = benchmark["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    required = mapped_metrics(layers, workload) if trace else set(units)
    metrics = result["metrics"]
    if trace:
        metrics["error_rate"] = {
            "value": result["failed"] / max(result["attempted"], 1),
            "unit": units["error_rate"]}

    def wrong(message):
        print("perfbench: " + message, file=sys.stderr)
        result["correct"] = False

    for name, value in metrics.items():
        if units.get(name) != value["unit"]:
            wrong("undeclared metric or unit: %s (%s)"
                  % (name, value["unit"]))
        elif name not in required:
            wrong("metric %s is not mapped to %s" % (name, workload))
    for name, unit in units.items():
        if name in metrics:
            continue
        if name in required:
            wrong("missing metric " + name)
        metrics[name] = {"value": 0, "unit": unit}
    result["metrics"] = {m["name"]: metrics[m["name"]] for m in declared}
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT,
                                                           ".bench_build"))
    binary = build(build_dir)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    with open(os.path.join(HERE, "layers.json")) as f:
        layers = json.load(f)

    # The farms bind a Unix socket in the work directory; a relative
    # path keeps it under the 108-byte socket path limit.
    work_dir = os.path.relpath(build_dir, ROOT)
    command = [binary, "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", repr(args.seconds), "--trace",
               str(args.trace), "--work-dir", work_dir]
    try:
        run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=args.seconds + 120)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out")
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        fail("benchmark exited with code %d" % run.returncode)
    result = complete(json.loads(lines[-1]), benchmark, layers,
                      args.workload, args.trace)
    print("perfbench: workload=%s seed=%d seconds=%g trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
