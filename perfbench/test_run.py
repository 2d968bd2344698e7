#!/usr/bin/env python3
"""Self-tests of the benchmark harness.

    python3 perfbench/test_run.py

Checks the metric names and maps against BENCHMARK.json, the scheduler
arithmetic on a synthetic event list, the sweep verdict, and runs the
smoke mode: every workload at a tiny size through its gates (this builds
`eproc` and the probes first).
"""

import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


class MetricNames(unittest.TestCase):
    def setUp(self):
        self.bench = run.load_benchmark()

    def test_names_match_the_pattern_and_are_unique(self):
        names = [m["name"] for key in ("end_to_end", "per_layer") for m in self.bench[key]]
        names += [w["name"] for w in self.bench["workloads"]]
        for name in names:
            self.assertRegex(name, run.METRIC_NAME)
        self.assertEqual(len(names), len(set(names)))

    def test_workloads_match_the_harness(self):
        self.assertEqual({w["name"] for w in self.bench["workloads"]}, set(run.WORKLOADS))

    def test_every_layer_metric_is_mapped_to_an_end_to_end_metric(self):
        end_to_end = {m["name"] for m in self.bench["end_to_end"]}
        self.assertEqual({m["name"] for m in self.bench["per_layer"]}, set(run.LAYER_MAP))
        for metric, workload in run.LAYER_MAP.values():
            self.assertIn(metric, end_to_end | {None})
            self.assertIn(workload, set(run.WORKLOADS) | {"all", None})

    def test_result_line_refuses_a_missing_metric(self):
        declared = self.bench["end_to_end"]
        with self.assertRaises(run.HarnessError):
            run.result_line(run.Ops(), {"wall_s": 1.0}, declared)


def event(kind, t_ns, **fields):
    return {"event": kind, "t_ns": t_ns, **fields}


class ExecutorArithmetic(unittest.TestCase):
    def test_utilization_idle_and_straggler(self):
        s = 1_000_000_000
        completed = dict(trials=1, steps=1, gen_attempts=1)
        events = [
            event("run_started", 0, workers=2),
            event("graph_built", 0, gen_ns=s),
            event("block_claimed", 0, block=0, worker=0),
            event("block_claimed", 0, block=1, worker=1),
            event("block_completed", 2 * s, block=1, worker=1, gen_ns=s, walk_ns=s, **completed),
            event("block_claimed", 2 * s, block=2, worker=1),
            # A shared-mode block completes once per process; the last closes it.
            event("block_completed", 4 * s, block=2, worker=1, gen_ns=0, walk_ns=2 * s, **completed),
            event("block_completed", 5 * s, block=2, worker=1, gen_ns=0, walk_ns=s, **completed),
            event("block_completed", 8 * s, block=0, worker=0, gen_ns=0, walk_ns=8 * s, **completed),
            event("aggregation_merged", 9 * s, agg_ns=3_000_000),
            event("run_finished", 10 * s, wall_ns=10 * s, total_steps=7),
        ]
        m = run.executor_metrics(events)
        # busy: block 0 = 8 s, block 1 = 2 s, block 2 = 3 s -> 13 of 2 x 10 s.
        self.assertAlmostEqual(m["executor.utilization"], 0.65)
        self.assertAlmostEqual(m["executor.idle_s"], 7.0)
        self.assertAlmostEqual(m["executor.straggler_share"], 0.8)
        # gen: 1 s at setup + 1 s in block 1; walk: 12 s.
        self.assertAlmostEqual(m["executor.gen_share"], 2 / 14)
        self.assertAlmostEqual(m["executor.agg_ms"], 3.0)
        self.assertEqual(run.total_steps(events), 7)


class SweepVerdict(unittest.TestCase):
    def artifact(self, preferred):
        laws = [
            {"process": "e-process(uniform)", "series": "steps", "preferred": preferred},
            {"process": "e-process(uniform)", "series": "cover.c_e", "preferred": "c*n*ln(n)"},
        ]
        return json.dumps({"growth_laws": laws}).encode()

    def test_linear_steps_pass_and_anything_else_fails(self):
        self.assertTrue(run.prefers_linear(self.artifact("c*m")))
        self.assertTrue(run.prefers_linear(self.artifact("a+b*m")))
        self.assertFalse(run.prefers_linear(self.artifact("c*n*ln(n)")))
        self.assertFalse(run.prefers_linear(b"{}"))
        self.assertFalse(run.prefers_linear(b"not json"))


class Smoke(unittest.TestCase):
    def test_every_workload_passes_its_gates_at_a_tiny_size(self):
        with tempfile.TemporaryDirectory(dir=run.ROOT) as out:
            self.assertTrue(run.smoke(Path(out)))


if __name__ == "__main__":
    unittest.main()
