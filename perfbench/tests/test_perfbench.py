"""Self-tests that run the built benchmark and the compare mode.

Run through `python3 perfbench/run.py --self-test` (which builds first), from
the repository root.
"""
import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.dirname(HERE))

import compare  # noqa: E402
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    BENCH = json.load(_f)


def run_bench(workload, trace, seconds=1, seed=5):
    r = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    return r.returncode, r.stdout


class BenchmarkRuns(unittest.TestCase):
    results = {}

    @classmethod
    def setUpClass(cls):
        for w in BENCH["workloads"]:
            for trace in (0, 1):
                code, out = run_bench(w["name"], trace)
                cls.results[(w["name"], trace)] = (code, out)

    def last_json(self, workload, trace):
        code, out = self.results[(workload, trace)]
        self.assertEqual(code, 0, out[-3000:])
        return json.loads(out.strip().splitlines()[-1])

    def test_printed_metric_names_equal_benchmark_json(self):
        for w in BENCH["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                r = self.last_json(w["name"], trace)
                self.assertEqual(set(r), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(r["correct"])
                self.assertEqual(r["failed"], 0)
                self.assertGreaterEqual(r["attempted"], 1)
                want = {m["name"]: m["unit"] for m in BENCH[key]}
                got = {k: v["unit"] for k, v in r["metrics"].items()}
                self.assertEqual(got, want, f"{w['name']} trace={trace}")

    def test_pool_jobs_zero_at_one_lane(self):
        # Two lanes forking is pinned in selftest.cpp; every workload here
        # runs one lane.
        for w in BENCH["workloads"]:
            _, out = self.results[(w["name"], 1)]
            self.assertIn(" lanes=1 ", out)
            jobs = self.last_json(w["name"], 1)["metrics"][
                "runtime.pool_jobs_per_request"]["value"]
            self.assertEqual(jobs, 0, w["name"])

    def test_end_to_end_metrics_are_never_zero(self):
        for w in BENCH["workloads"]:
            for name, m in self.last_json(w["name"], 0)["metrics"].items():
                self.assertGreater(m["value"], 0, f"{w['name']} {name}")


class UnknownWorkload(unittest.TestCase):
    def test_unknown_workload_fails_without_a_result(self):
        code, out = run_bench("no_such_workload", 0)
        self.assertNotEqual(code, 0)
        self.assertNotIn('"correct"', out)


class BuildTree(unittest.TestCase):
    def test_tree_of_another_checkout_is_refused(self):
        os.makedirs(run.build_dir(), exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.build_dir()) as tmp:
            out = os.path.join(tmp, "perfbench")
            os.makedirs(out)
            with open(os.path.join(out, "CMakeCache.txt"), "w",
                      encoding="utf-8") as f:
                f.write("CMAKE_HOME_DIRECTORY:INTERNAL=/elsewhere/perfbench\n")
            self.assertEqual(run.cached_source(out), "/elsewhere/perfbench")
            saved = os.environ.get("CARGO_TARGET_DIR")
            os.environ["CARGO_TARGET_DIR"] = tmp
            try:
                self.assertIsNone(run.build("perfbench"))
            finally:
                if saved is None:
                    del os.environ["CARGO_TARGET_DIR"]
                else:
                    os.environ["CARGO_TARGET_DIR"] = saved


class CompareVerdicts(unittest.TestCase):
    def test_rules(self):
        parent = [100.0 + i % 3 for i in range(10)]
        self.assertEqual(compare.verdict(parent, [x * 0.8 for x in parent],
                                         "lower", 0.1)[0], "improved")
        self.assertEqual(compare.verdict(parent, [x * 1.3 for x in parent],
                                         "lower", 0.1)[0], "worse")
        self.assertEqual(compare.verdict(parent, list(parent), "lower", 0.1)[0],
                         "unchanged")
        self.assertEqual(compare.verdict(parent[:5], parent[:5], "lower", 0.1)[0],
                         "unresolved")
        noisy = [50.0, 150.0] * 5
        self.assertEqual(compare.verdict(noisy, list(reversed(noisy)), "lower",
                                         0.1)[0], "unresolved")
        self.assertEqual(compare.verdict(parent, [x * 1.3 for x in parent],
                                         "higher", None)[0], "improved")

    def test_compare_reads_saved_runs(self):
        def write(directory, i, value):
            line = {"correct": True, "attempted": 1, "failed": 0, "metrics": {
                m["name"]: {"value": value, "unit": m["unit"]}
                for m in BENCH["end_to_end"]}}
            with open(os.path.join(directory, f"w-{i:02d}.txt"), "w",
                      encoding="utf-8") as f:
                f.write(f"# workload=offline_long seed={i}\n{json.dumps(line)}\n")

        os.makedirs(run.build_dir(), exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.build_dir()) as tmp:
            p, c = os.path.join(tmp, "p"), os.path.join(tmp, "c")
            os.makedirs(p)
            os.makedirs(c)
            for i in range(10):
                write(p, i, 10.0 + (i % 2) * 0.01)
                write(c, i, 10.0 + (i % 2) * 0.01)
            bench = os.path.join(ROOT, "BENCHMARK.json")
            self.assertEqual(compare.compare(p, c, bench), 0)


if __name__ == "__main__":
    unittest.main()
