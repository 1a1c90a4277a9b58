"""Self-test of the benchmark harness at tiny input sizes.

Run from the repository root:  python3 perfbench/selftest.py

Checks that every metric is printed with its unit and every per-layer
metric names what it should move, that a wrong pinned expectation is
counted as a failure, that generator consumption time is attributed to
``search.enumerate_alternating``, that traced counts are deterministic
per seed, the item-tail rank, that the braid shapes equal those of the
acceptance sample, and that a second thread fails the background check.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
import threading
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import worker  # noqa: E402
import workloads  # noqa: E402
from metrics import item_stats, moves, spec  # noqa: E402
from tracer import Tracer  # noqa: E402

from rollercoaster import search  # noqa: E402


def bench(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """Run run.py at tiny sizes; returns (info line, result line)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def counts(metrics: dict) -> dict:
    return {
        name: entry["value"]
        for name, entry in metrics.items()
        if entry["unit"] == "count"
    }


class MetricsPrinted(unittest.TestCase):
    def test_every_metric_with_its_unit(self):
        for workload in workloads.WORKLOADS:
            for trace, table in enumerate(spec()):
                with self.subTest(workload=workload, trace=trace):
                    info, result = bench(workload, 1, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], info["problems"])
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(info["fail_ratio"], 0.0)
                    want = dict(table)
                    got = {name: entry["unit"] for name, entry in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for entry in result["metrics"].values():
                        self.assertIsInstance(entry["value"], (int, float))

    def test_every_layer_metric_names_what_it_should_move(self):
        unpaired = [name for name, _ in spec()[1] if moves(name) is None]
        self.assertEqual(unpaired, [])


class ItemStats(unittest.TestCase):
    def test_tail_leaves_ten_samples_beyond_it(self):
        # 100 items of 1..100 ms, each counted as 5 samples: the two
        # slowest items are the 10 samples beyond the tail
        stats = item_stats([i / 1000 for i in range(1, 101)], 5)
        self.assertEqual(stats["item_samples"], 500)
        self.assertEqual(stats["item_tail_pct"], 98.0)
        self.assertAlmostEqual(stats["item_tail_ms"], 98.0)
        self.assertAlmostEqual(stats["item_p50_ms"], 50.5)
        # six items of six samples each (conjecture): the fifth item
        self.assertAlmostEqual(item_stats([i / 1000 for i in range(1, 7)], 6)["item_tail_ms"], 5.0)
        self.assertAlmostEqual(item_stats([0.001, 0.003], 2)["item_tail_ms"], 3.0)


class BraidInputs(unittest.TestCase):
    def test_shapes_follow_the_acceptance_sample(self):
        inputs = workloads.BraidWorkload(7, tiny=True).describe()
        self.assertEqual(inputs["strands"], inputs["acceptance_strands"])
        self.assertEqual(inputs["letters"], inputs["acceptance_letters"])


class BackgroundActivity(unittest.TestCase):
    def test_a_second_thread_is_a_problem(self):
        self.assertIsNone(worker.background())
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            self.assertIn("2 threads", worker.background())
        finally:
            stop.set()
            thread.join()


class WrongExpectation(unittest.TestCase):
    def test_counted_in_fail_ratio(self):
        expected = copy.deepcopy(workloads.EXPECTED)
        expected["conjecture"]["values"]["4"] = 99
        expected["catalog"]["rows"][1][1] = 99
        for name in ("conjecture", "catalog"):
            with self.subTest(workload=name):
                workload = workloads.WORKLOADS[name](1, tiny=True, expected=expected[name])
                result = worker.timed(workload, 0.2)
                passes = len(result["pass_s"])
                self.assertEqual(result["failed"], passes)
                self.assertIn("pinned", result["problems"][0])
                self.assertGreater(result["failed"] / result["attempted"], 0)


class GeneratorAttribution(unittest.TestCase):
    def test_consumption_time_goes_to_the_generator(self):
        original = search.enumerate_alternating
        tracer = Tracer()
        tracer.install()
        try:
            start = time.perf_counter()
            found = list(search.enumerate_alternating(6))
            consumed = time.perf_counter() - start
            snap = tracer.snapshot()
        finally:
            tracer.uninstall()
        self.assertIs(search.enumerate_alternating, original)
        entry = snap["search.enumerate_alternating"]
        self.assertEqual(entry["calls"], 1)
        self.assertEqual(entry["yields"], len(found))
        self.assertGreater(entry["busy_s"], 0.8 * consumed)
        self.assertEqual(snap["search.enumerate_alternating.c6"]["yields"], len(found))
        # the work inside is attributed to its children, not to its self time
        self.assertGreater(snap["codes.is_reduced"]["calls"], 0)
        self.assertLess(entry["self_s"], entry["busy_s"])

    def test_nested_generator_counts_under_its_consumer(self):
        tracer = Tracer()
        tracer.install()
        try:
            search.a_min_warp(5)
            snap = tracer.snapshot()
        finally:
            tracer.uninstall()
        outer = snap["search.a_min_warp"]
        inner = snap["search.enumerate_alternating"]
        self.assertGreater(inner["busy_s"], 0)
        self.assertLessEqual(inner["busy_s"], outer["busy_s"])
        self.assertLess(outer["self_s"], outer["busy_s"] - inner["busy_s"] + 1e-3)


class Determinism(unittest.TestCase):
    def test_counts_repeat_and_only_braid_follows_the_seed(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                first = counts(bench(workload, 1, 1)[1]["metrics"])
                again = counts(bench(workload, 1, 1)[1]["metrics"])
                other = counts(bench(workload, 2, 1)[1]["metrics"])
                self.assertEqual(first, again)
                if workload == "braid":
                    self.assertNotEqual(first, other)
                else:
                    self.assertEqual(first, other)


if __name__ == "__main__":
    unittest.main()
