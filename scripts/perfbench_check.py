#!/usr/bin/env python3
"""Check a perfbench result against the last committed entry.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 \
        --trace 0 | tail -n 1 > result.json
    perfbench_check.py result.json --workload sweep --seed 1 --trace 0

The run must be valid (correct: true). Its exact metrics must equal
those of the last entry in BENCH_perfbench.json (run from the repo
root) with the same workload, seed and trace flag:

  - integer counts (region.regions.*, sched.ops.*, sched.ddg_edges.*,
    workloads.profile_dyn_ops, vliw.cycles) bit for bit;
  - speedup_geomean, code_expansion and ooo.ipc.* to 1e-9 relative,
    since libm may differ between machines.

Timing metrics are not compared: they depend on the machine.

Exit codes: 0 ok, 1 mismatch or invalid run, 2 usage/history error.
"""

import argparse
import json
import sys

COUNT_PREFIXES = ("region.regions.", "sched.ops.", "sched.ddg_edges.")
COUNT_NAMES = ("workloads.profile_dyn_ops", "vliw.cycles")
REAL_PREFIXES = ("ooo.ipc.",)
REAL_NAMES = ("speedup_geomean", "code_expansion")
REL_TOL = 1e-9
HISTORY = "BENCH_perfbench.json"


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
    want = entry["run"]["metrics"]
    got = fresh.get("metrics", {})

    failures = []
    if fresh.get("correct") is not True:
        failures.append("run is not valid (correct is not true)")
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

    print(f"perfbench_check: {args.workload} seed={args.seed} "
          f"trace={args.trace} vs entry {entry.get('label')!r} "
          f"({entry.get('commit')}): {checked} exact metrics")
    for line in failures:
        print("  FAIL " + line)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
