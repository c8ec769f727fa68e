#!/usr/bin/env python3
"""Smoke tests of the end-to-end benchmark on tiny inputs.

Run from the repository root:

    python3 perfbench/test_smoke.py

Each case runs perfbench/run.py --smoke (inputs scaled to ~2%) and checks
the result line against BENCHMARK.json: every end-to-end metric with
--trace 0, every per-layer metric with --trace 1, zero failed operations,
and the traced-run properties the benchmark promises.
"""

import json
import os
import pathlib
import subprocess
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PREDICTIONS = json.loads((HERE / "predictions.json").read_text())


def run(workload, trace, env=None):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, env=env, timeout=900)
    return done


class SmokeTest(unittest.TestCase):
    def result(self, workload, trace):
        done = run(workload, trace)
        self.assertEqual(done.returncode, 0, done.stderr[-3000:])
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], done.stderr[-3000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        return result["metrics"]

    def test_end_to_end_metrics(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                metrics = self.result(w["name"], 0)
                self.assertEqual(set(metrics),
                                 {m["name"] for m in SPEC["end_to_end"]})
                for m in SPEC["end_to_end"]:
                    self.assertEqual(metrics[m["name"]]["unit"], m["unit"])
                    self.assertGreater(metrics[m["name"]]["value"], 0)

    def test_per_layer_metrics(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                metrics = self.result(w["name"], 1)
                self.assertEqual(set(metrics),
                                 {m["name"] for m in SPEC["per_layer"]})
                for m in SPEC["per_layer"]:
                    self.assertEqual(metrics[m["name"]]["unit"], m["unit"])
                self.assertGreaterEqual(
                    metrics["trace.attributed_frac"]["value"], 0.95)
                sharded = w["name"] != "social-serial"
                for name in ("merge.cross_s", "merge.union_build_s",
                             "merge.union_edges", "shard1.busy_s"):
                    self.assertEqual(metrics[name]["value"] > 0, sharded,
                                     name)

    def test_predictions_cover_every_layer_metric(self):
        listed = [m for layer in PREDICTIONS["layers"]
                  for m in layer["metrics"]]
        self.assertEqual(sorted(listed),
                         sorted(m["name"] for m in SPEC["per_layer"]))
        workloads = {w["name"] for w in SPEC["workloads"]}
        end_to_end = {m["name"] for m in SPEC["end_to_end"]}
        for layer in PREDICTIONS["layers"]:
            for claim in layer["moves"] + layer["does_not_move"]:
                self.assertIn(claim["metric"], end_to_end)
                self.assertLessEqual(set(claim["workloads"]), workloads)

    def test_refuses_pinned_kernel(self):
        env = dict(os.environ, GPS_INTERSECT_KERNEL="merge")
        done = run("social-serial", 0, env)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
