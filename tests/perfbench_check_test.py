#!/usr/bin/env python3
"""Unit tests of scripts/perfbench_check.py's timing gate.

    python3 tests/perfbench_check_test.py

The runs are built from the last committed traced sweep and untraced
validate entries, so the metric names and units are the real ones.
"""

import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "scripts"))

import perfbench_check  # noqa: E402


def load(name):
    with open(os.path.join(ROOT, name)) as f:
        return json.load(f)


BOUNDS = perfbench_check.timing_bounds(load("BENCHMARK.json"))
HISTORY = load("BENCH_perfbench.json")


def entry_metrics(workload, trace):
    entry = perfbench_check.baseline(HISTORY, workload, 1, trace)
    return entry["run"]["metrics"]


def scaled(metrics, factor, names=None):
    """A copy of @p metrics with the values of @p names (every metric
    when None) multiplied by @p factor."""
    out = copy.deepcopy(metrics)
    for name, metric in out.items():
        if names is None or name in names:
            metric["value"] *= factor
    return out


def gate(want, got, workload):
    with contextlib.redirect_stdout(io.StringIO()):
        return perfbench_check.check_timing(want, got, BOUNDS, workload)


def failing(failures):
    return sorted(line.split(":")[0] for line in failures)


class TimingGate(unittest.TestCase):
    def test_every_timing_metric_has_a_bound(self):
        self.assertEqual(BOUNDS["ops_per_s"], ("higher", 0.25))
        self.assertEqual(BOUNDS["vliw.sim_mcycles_per_s"],
                         ("higher", 0.25))
        self.assertEqual(BOUNDS["analysis.liveness_us.tree"],
                         ("lower", 0.25))
        self.assertNotIn("speedup_geomean", BOUNDS)
        self.assertNotIn("workloads.profile_ns_per_op", BOUNDS)

    def test_the_entry_itself_passes(self):
        want = entry_metrics("sweep", 1)
        self.assertEqual(gate(want, want, "sweep"), [])

    def test_a_uniformly_slower_machine_passes(self):
        want = entry_metrics("sweep", 1)
        self.assertEqual(gate(want, scaled(want, 2.0), "sweep"), [])

    def test_one_slower_stage_fails_and_is_named(self):
        want = entry_metrics("sweep", 1)
        stage = {n for n in want if n.startswith("analysis.liveness_us.")}
        self.assertEqual(len(stage), 6)
        got = scaled(want, 1.3, stage)
        self.assertEqual(failing(gate(want, got, "sweep")), sorted(stage))
        self.assertEqual(gate(want, scaled(want, 1.2, stage), "sweep"), [])

    def test_a_throughput_drop_fails(self):
        want = entry_metrics("validate", 0)
        got = scaled(want, 0.7, {"ops_per_s"})
        self.assertEqual(failing(gate(want, got, "validate")),
                         ["ops_per_s"])

    def test_unmapped_and_ungated_metrics_are_skipped(self):
        want = entry_metrics("sweep", 1)
        got = scaled(want, 5.0, {"workloads.profile_us",
                                 "sched.ddg_us.slr"})
        self.assertEqual(gate(want, got, "sweep"), [])
        self.assertEqual(failing(gate(want, got, "farm-cold")),
                         ["workloads.profile_us"])
        zero = copy.deepcopy(want)
        zero["region.stats_us"]["value"] = 0
        self.assertEqual(gate(want, zero, "sweep"), [])
        self.assertEqual(gate(zero, scaled(want, 9.0, {"region.stats_us"}),
                              "sweep"), [])


class Invocation(unittest.TestCase):
    def test_runs_from_outside_the_checkout(self):
        # The history and the bounds come from the script's checkout,
        # the result file from the caller's directory.
        entry = perfbench_check.baseline(HISTORY, "validate", 1, 0)
        with tempfile.TemporaryDirectory() as work:
            with open(os.path.join(work, "result.json"), "w") as f:
                json.dump(entry["run"], f)
            done = subprocess.run(
                [sys.executable,
                 os.path.join(ROOT, "scripts", "perfbench_check.py"),
                 "result.json", "--workload", "validate", "--seed", "1",
                 "--trace", "0"],
                cwd=work, capture_output=True, text=True)
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)
        self.assertIn("perfbench_check: validate seed=1 trace=0",
                      done.stdout)


if __name__ == "__main__":
    unittest.main()
