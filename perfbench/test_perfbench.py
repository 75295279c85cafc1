#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py        # from the repository root

Each test runs perfbench/run.py with a short time budget (the first
one builds the harness) and checks the result line it prints.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (the benchmark's metric catalogue)

SMOKE_SECONDS = "1"


def bench(workload, trace, *extra, seed=7, cwd=ROOT, env=None):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", SMOKE_SECONDS, "--trace",
         str(trace), *extra],
        cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=900)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


_traced = {}


def traced(workload):
    """The per-layer metrics of one traced smoke run, cached."""
    if workload not in _traced:
        _traced[workload] = result(bench(workload, 1))
    return _traced[workload]


class Catalogue(unittest.TestCase):
    def test_benchmark_json_matches_run_py(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["end_to_end"]},
            run.END_TO_END)
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            run.PER_LAYER)
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]),
                         run.WORKLOADS)

    def test_every_paper_row_names_a_workload(self):
        for workload in run.WORKLOADS:
            self.assertTrue(run.load_refs(workload), workload)


class Smoke(unittest.TestCase):
    def test_every_end_to_end_metric_with_its_unit(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                proc = bench(workload, 0)
                res = result(proc)
                self.assertEqual(set(res), {"correct", "attempted",
                                            "failed", "metrics"})
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.assertGreaterEqual(res["attempted"], 1)
                self.assertEqual(
                    {k: v["unit"] for k, v in res["metrics"].items()},
                    run.END_TO_END)
                for name, m in res["metrics"].items():
                    self.assertGreater(m["value"], 0, name)
                self.assertIn("perfbench-record", proc.stdout)
                self.assertIn("fail_frac", proc.stdout)

    def test_every_per_layer_metric_and_identical_traced_outputs(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                res = traced(workload)
                # Traced outputs and stats must match the untraced ones
                # (checked in the harness and against earlier runs).
                self.assertTrue(res["correct"])
                self.assertEqual(
                    {k: v["unit"] for k, v in res["metrics"].items()},
                    run.PER_LAYER)


class LayerSplit(unittest.TestCase):
    def test_cache_walk_dominates_local_sweeps(self):
        m = traced("sim.paper")["metrics"]
        self.assertGreater(m["sweep.local.mem.self_share"]["value"], 0.5)
        self.assertEqual(m["sweep.local.noc.send.calls"]["value"], 0)

    def test_torus_send_is_the_largest_zone_on_remote_sweeps_and_fft(self):
        m = traced("sim.paper")["metrics"]
        for group, other in (("sweep.remote", "remote.point.self_s"),
                             ("fft", None)):
            with self.subTest(group=group):
                send = m[f"{group}.noc.send.self_s"]["value"]
                self.assertGreater(send, m[f"{group}.mem.self_s"]["value"])
                if other:
                    self.assertGreater(send, m[other]["value"])


class Failures(unittest.TestCase):
    def test_injected_wrong_answer_is_counted(self):
        res = result(bench("serve.plan", 0, "--inject-wrong", "3"))
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], 3)
        self.assertGreater(res["attempted"], 3)

    def test_fails_without_the_repository_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            proc = bench("sim.paper", 0, cwd=tmp, env=env)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
