#!/usr/bin/env python3
"""Check a perfbench result against the last committed entry.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 \
        --trace 0 | tail -n 1 > result.json
    perfbench_check.py result.json --workload sweep --seed 1 --trace 0

Run from any directory: BENCH_perfbench.json and BENCHMARK.json are
read from the checkout that holds this script. The run must be valid
(correct: true) and is compared with the last entry in
BENCH_perfbench.json that has the same workload, seed and trace flag.

Exact metrics must equal the entry's:

  - integer counts (region.regions.*, sched.ops.*, sched.ddg_edges.*,
    workloads.profile_dyn_ops, vliw.cycles) bit for bit;
  - speedup_geomean, code_expansion and ooo.ipc.* to 1e-9 relative,
    since libm may differ between machines.

Timing metrics (BENCHMARK.json unit us, ms, s, 1/s or Mcycle/s) must
not worsen past their bound relative to their peers. Each one's cost
ratio (fresh/entry when lower is better, entry/fresh when higher is)
is divided by the median cost ratio of the run (median_norm.py), which
cancels the speed of the machine; a metric whose normalized ratio
exceeds 1 + bound fails. End-to-end metrics take their own
BENCHMARK.json bound and per-layer metrics the end-to-end timing
bound. Values <= 0 (run.py reports a metric not mapped to the workload
as 0) and the metrics in UNGATED are not compared.

Exit codes: 0 ok, 1 mismatch, regression or invalid run, 2 usage or
history error.
"""

import argparse
import json
import os
import sys

from median_norm import normalize

COUNT_PREFIXES = ("region.regions.", "sched.ops.", "sched.ddg_edges.")
COUNT_NAMES = ("workloads.profile_dyn_ops", "vliw.cycles")
REAL_PREFIXES = ("ooo.ipc.",)
REAL_NAMES = ("speedup_geomean", "code_expansion")
REL_TOL = 1e-9
TIMING_UNITS = ("us", "ms", "s", "1/s", "Mcycle/s")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HISTORY = os.path.join(ROOT, "BENCH_perfbench.json")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")

# Timing metrics too unsteady to gate, keyed (workload, metric) with
# the reason; None stands for every workload, and a metric ending in
# "." for every metric it prefixes.
UNGATED = {
    (None, "service.other_ms"):
        "client latency minus the replayed layers; can read negative",
    (None, "setup_s"): "one sample per run",
    ("sweep", "workloads.profile_us"):
        "timed once per set-up, not per compile",
    (None, "sched.ddg_us."):
        "timed once per job in one probe pass, not averaged over the run",
    (None, "service.compile_ms_p50"):
        "measured inside the server under 2 clients, so it moves with "
        "contention the replayed stages do not see",
    (None, "service.queue_wait_ms_p50"): "queueing under 2 clients",
    (None, "service.queue_wait_ms_p99"): "queueing under 2 clients",
    ("farm-cold", "region.stats_us"): "2-3 us per call",
}


def ungated(workload, name):
    """True when UNGATED names @p name for @p workload."""
    for w, metric in UNGATED:
        if w in (None, workload) and (
                name == metric or
                (metric.endswith(".") and name.startswith(metric))):
            return True
    return False


def kind(name):
    """'count', 'real' or None (not an exact metric)."""
    if name in COUNT_NAMES or name.startswith(COUNT_PREFIXES):
        return "count"
    if name in REAL_NAMES or name.startswith(REAL_PREFIXES):
        return "real"
    return None


def baseline(history, workload, seed, trace):
    """The last entry recorded for (workload, seed, trace)."""
    matches = [e for e in history
               if e.get("workload") == workload and e.get("seed") == seed
               and e.get("trace") == trace]
    if not matches:
        sys.exit(f"error: no entry for workload={workload} seed={seed} "
                 f"trace={trace}")
    return matches[-1]


def timing_bounds(benchmark):
    """{metric: (better, bound)} for every timing metric declared."""
    end_to_end = [m for m in benchmark["end_to_end"]
                  if m["unit"] in TIMING_UNITS]
    layer_bound = {m["bound"] for m in end_to_end}
    if len(layer_bound) != 1:
        sys.exit(f"error: {BENCHMARK}: end-to-end timing bounds differ "
                 f"({sorted(layer_bound)}); per-layer metrics need one")
    bounds = {m["name"]: (m["better"], m["bound"]) for m in end_to_end}
    for m in benchmark["per_layer"]:
        if m["unit"] in TIMING_UNITS:
            bounds[m["name"]] = (m["better"], next(iter(layer_bound)))
    return bounds


def check_exact(want, got):
    """@return (number of exact metrics checked, failure lines)."""
    failures = []
    checked = 0
    for name, metric in sorted(want.items()):
        k = kind(name)
        if k is None:
            continue
        checked += 1
        if name not in got:
            failures.append(f"{name}: missing from the run")
            continue
        a, b = metric["value"], got[name]["value"]
        if k == "count":
            ok = a == b
        else:
            ok = abs(b - a) <= REL_TOL * max(abs(a), abs(b))
        if not ok:
            failures.append(f"{name}: {b!r} != {a!r}")
    return checked, failures


def check_timing(want, got, bounds, workload):
    """Print the normalized cost ratio of every gated timing metric.
    @return failure lines."""
    costs = {}
    for name, (better, _) in bounds.items():
        if ungated(workload, name):
            continue
        a = want.get(name, {}).get("value", 0)
        b = got.get(name, {}).get("value", 0)
        if a <= 0 or b <= 0:
            continue
        costs[name] = b / a if better == "lower" else a / b
    if not costs:
        return []
    median, norm = normalize(costs)
    print(f"  timing: {len(costs)} metrics, median cost ratio "
          f"{median:.3f} (fresh vs entry)")
    failures = []
    for name in sorted(costs):
        limit = 1.0 + bounds[name][1]
        mark = ""
        if norm[name] > limit:
            mark = "  << REGRESSION"
            failures.append(f"{name}: normalized cost {norm[name]:.3f} "
                            f"> {limit:.2f}")
        print(f"    {name:<32} {want[name]['value']:>12.4g} "
              f"{got[name]['value']:>12.4g} {norm[name]:>7.3f}{mark}")
    return failures


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("result", help="file holding run.py's last line")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    with open(args.result) as f:
        fresh = json.load(f)
    with open(HISTORY) as f:
        entry = baseline(json.load(f), args.workload, args.seed, args.trace)
    with open(BENCHMARK) as f:
        bounds = timing_bounds(json.load(f))
    want = entry["run"]["metrics"]
    got = fresh.get("metrics", {})

    failures = []
    if fresh.get("correct") is not True:
        failures.append("run is not valid (correct is not true)")
    checked, exact_failures = check_exact(want, got)
    failures += exact_failures
    print(f"perfbench_check: {args.workload} seed={args.seed} "
          f"trace={args.trace} vs entry {entry.get('label')!r} "
          f"({entry.get('commit')}): {checked} exact metrics")
    failures += check_timing(want, got, bounds, args.workload)
    for line in failures:
        print("  FAIL " + line)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
