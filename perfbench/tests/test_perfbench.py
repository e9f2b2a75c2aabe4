"""The benchmark's own tests: every workload at toy scale.

Run from the root of a source checkout (they build and run the benchmark,
a few minutes from a warm build):

    python3 -m unittest discover -s perfbench/tests -v

Each workload must print every metric BENCHMARK.json names, with its unit,
in both the end-to-end and the traced run; and each correctness check must
fail, alone, when its expected answer is deliberately wrong.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import run  # noqa: E402  (the runner's own workload list)
sys.path.pop(0)

# The correctness checks of each mode, by the names the run reports.
CHECKS = {
    0: {run.ANSWERS_CHECK},
    1: {"catalog_answers", "publish_groups_match", "publish_rows_match", "service_answers",
        "stream_inserted", "tcp_answers_equal_service", "tcp_pongs", "tcp_served_every_line"},
}


def run_bench(workload, trace, tamper=None, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--scale", "toy"]
    if tamper:
        cmd += ["--tamper", tamper]
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=900)
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode()


def result_of(test, workload, trace, tamper=None):
    """The run's result line and the per-check outcomes it logged."""
    code, out, err = run_bench(workload, trace, tamper)
    test.assertEqual(code, 0, err[-3000:])
    result = json.loads(out.strip().splitlines()[-1])
    test.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
    test.assertIsInstance(result["attempted"], int)
    test.assertIsInstance(result["failed"], int)
    test.assertGreaterEqual(result["attempted"], 1)
    logged = [json.loads(line) for line in err.splitlines() if line.startswith('{"provenance"')]
    test.assertEqual(len(logged), 1, err[-3000:])
    return result, logged[0]["checks"]


class WorkloadTests(unittest.TestCase):
    def check_run(self, workload, trace, declared, positive):
        result, checks = result_of(self, workload, trace)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(checks, {name: True for name in CHECKS[trace]})
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for m in declared:
            printed = result["metrics"][m["name"]]
            self.assertEqual(printed["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(printed["value"]), m["name"])
            if positive:
                self.assertGreater(printed["value"], 0, m["name"])

    def wrong_expectation_fails(self, workload, trace):
        for name in sorted(CHECKS[trace]):
            with self.subTest(check=name):
                result, checks = result_of(self, workload, trace, tamper=name)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                expected = {other: other != name for other in CHECKS[trace]}
                self.assertEqual(checks, expected)


def add_workload_tests(workload):
    setattr(WorkloadTests, f"test_{workload}_end_to_end",
            lambda self: self.check_run(workload, 0, BENCH["end_to_end"], positive=True))
    setattr(WorkloadTests, f"test_{workload}_traced",
            lambda self: self.check_run(workload, 1, BENCH["per_layer"], positive=False))
    setattr(WorkloadTests, f"test_{workload}_end_to_end_check_fails_on_wrong_expectation",
            lambda self: self.wrong_expectation_fails(workload, 0))
    setattr(WorkloadTests, f"test_{workload}_traced_checks_fail_on_wrong_expectation",
            lambda self: self.wrong_expectation_fails(workload, 1))


for _workload in run.WORKLOADS:
    add_workload_tests(_workload)


class ContractTests(unittest.TestCase):
    def test_declared_workloads_are_the_runnable_ones(self):
        self.assertEqual({w["name"] for w in BENCH["workloads"]}, set(run.WORKLOADS))

    def test_tampering_an_unknown_check_fails_without_a_result(self):
        code, out, _ = run_bench("query_hot", 1, tamper="no_such_check")
        self.assertNotEqual(code, 0)
        self.assertEqual(out.strip(), "")

    def test_without_the_repository_it_fails_without_a_result(self):
        target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
        bare = os.path.join(target, "perfbench-tests", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in BENCH["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__", "target"))
        code, out, _ = run_bench("query_hot", 0, cwd=bare)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(code, 0)
        self.assertEqual(out.strip(), "")


if __name__ == "__main__":
    unittest.main()
