#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

    python3 perfbench/test_perfbench.py          # everything (~1 min)
    python3 perfbench/test_perfbench.py -k Fast  # no workload runs

Covers the percentile rule, the digest and conservation checks, span self
time and point-line stripping (perfbench --selftest), the metric names
against BENCHMARK.json and perfbench/metrics.json, and the steadiness
tool's quartile and agreement arithmetic. The slow tests run every
workload for one second, untraced and traced, and check that each prints
exactly the metrics BENCHMARK.json declares, with their units.
"""

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import steady  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def catalogue():
    return json.loads((HERE / "metrics.json").read_text())


class FastNames(unittest.TestCase):
    def test_names_and_units_use_the_allowed_charsets(self):
        bench = benchmark()
        names = [w["name"] for w in bench["workloads"]]
        for group in ("end_to_end", "per_layer"):
            for m in bench[group]:
                names.append(m["name"])
                self.assertRegex(m["unit"], UNIT)
                self.assertIn(m["better"], ("lower", "higher"))
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)), "names are used once")

    def test_catalogue_covers_every_per_layer_metric(self):
        bench, cat = benchmark(), catalogue()["per_layer"]
        self.assertEqual(list(cat), [m["name"] for m in bench["per_layer"]])
        workloads = {w["name"] for w in bench["workloads"]}
        end_to_end = {e["name"] for e in bench["end_to_end"]}
        for name, entry in cat.items():
            self.assertEqual(set(entry) - {"unmoved"},
                             {"layer", "what", "moves"}, name)
            self.assertTrue(name.startswith(entry["layer"] + "."), name)
            for target in entry["moves"]:
                self.assertIn(target["workload"], workloads, name)
                self.assertIn(target["metric"], end_to_end, name)
            for workload in entry.get("unmoved", []):
                self.assertIn(workload, workloads, name)

    def test_bounds_follow_the_contract(self):
        bench = benchmark()
        bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
        self.assertIn("setup_s", bounds)
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_readme_names_every_end_to_end_metric(self):
        readme = (HERE / "README.md").read_text()
        for m in benchmark()["end_to_end"]:
            self.assertIn(m["name"], readme)


class FastSteadiness(unittest.TestCase):
    def test_quartile_spread(self):
        s = steady.summarize([1.0, 2.0, 3.0, 4.0, 5.0])
        self.assertEqual(s["median"], 3.0)
        self.assertEqual((s["q1"], s["q3"]), (1.5, 4.5))
        self.assertAlmostEqual(s["spread"], 1.0)

    def test_agreement_respects_direction(self):
        self.assertAlmostEqual(steady.worse_by(100.0, 110.0, "lower"), 0.10)
        self.assertAlmostEqual(steady.worse_by(100.0, 110.0, "higher"), -0.10)
        bench = {"end_to_end": [
            {"name": "op_p50_ms", "better": "lower", "bound": 0.1}]}
        first = {"workloads": {"w": [{"op_p50_ms": 10.0}] * 3}}
        same = {"workloads": {"w": [{"op_p50_ms": 10.5}] * 3}}
        slower = {"workloads": {"w": [{"op_p50_ms": 11.5}] * 3}}
        faster = {"workloads": {"w": [{"op_p50_ms": 8.5}] * 3}}
        self.assertTrue(steady.compare(first, same, bench))
        self.assertFalse(steady.compare(first, slower, bench))
        # Agreement is two-sided: a set much faster than the first is as
        # far from it as one much slower.
        self.assertFalse(steady.compare(first, faster, bench))


class FastBinary(unittest.TestCase):
    def test_binary_selftest(self):
        binary = run.build()
        proc = subprocess.run([str(binary), "--selftest"], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout)

    def test_binary_rejects_bad_arguments(self):
        binary = run.build()
        for args in (["--workload", "nope", "--seed", "1", "--seconds", "1",
                      "--trace", "0"],
                     ["--workload", "sweep_mc", "--seed", "1"]):
            proc = subprocess.run([str(binary)] + args, cwd=ROOT,
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True)
            self.assertEqual(proc.returncode, 2, args)
            self.assertEqual(proc.stdout, "", args)


class SlowWorkloads(unittest.TestCase):
    def run_workload(self, workload, trace):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", "5", "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_every_workload_prints_the_declared_metrics(self):
        bench = benchmark()
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in bench[group]}
            for w in bench["workloads"]:
                with self.subTest(workload=w["name"], trace=trace):
                    result = self.run_workload(w["name"], trace)
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)


if __name__ == "__main__":
    unittest.main()
