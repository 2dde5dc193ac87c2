"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json lists is emitted with its unit, that
the traced counts repeat exactly across two runs of one seed, that traced
self times fit inside the traced wall time, that a wrong pinned digest is
counted as a failure, and that the benchmark refuses to run without the
program's sources.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import unittest

import run

SEED = 12345   # no digest is pinned for it: the pins hold for the full-size workloads
TINY = {
    "float-small-sweep": {"round_size": 4, "pool": 2},
    "float-large-n": {"n": 120, "budgets": (60, 40)},
    "exact-verify-grid": {"budgets": (1, 2), "seed_pool": 1},
}
COUNT_SUFFIXES = (".calls", ".updates", ".rows", ".bytes", ".trials")


class BenchmarkSelfTest(unittest.TestCase):
    def test_end_to_end_metrics_all_emitted_nonzero(self):
        listed = run.load_metric_list("end_to_end")
        for name, params in TINY.items():
            with self.subTest(workload=name):
                values, checker, _ = run.measure(name, SEED, 0.05, params)
                self.assertEqual(checker.failures, [])
                metrics = run.emit(values, listed)
                self.assertEqual(list(metrics), [m for m, _ in listed])
                for metric, unit in listed:
                    self.assertEqual(metrics[metric]["unit"], unit)
                    self.assertGreater(metrics[metric]["value"], 0, metric)

    def test_traced_counts_repeat_and_self_time_fits(self):
        listed = run.load_metric_list("per_layer")
        for name, params in TINY.items():
            with self.subTest(workload=name):
                first, checker, info = run.measure_traced(name, SEED, params)
                second, _, _ = run.measure_traced(name, SEED, params)
                self.assertEqual(checker.failures, [])
                metrics = run.emit(first, listed)
                self.assertEqual(list(metrics), [m for m, _ in listed])
                counts = [m for m, _ in listed if m.endswith(COUNT_SUFFIXES)]
                self.assertEqual({m: first[m] for m in counts}, {m: second[m] for m in counts})
                self.assertLessEqual(info["traced_self_s_sum"],
                                     first["bench.traced_wall_s"] + 1e-9)

    def test_wrong_pinned_digest_is_a_failure(self):
        name = "exact-verify-grid"
        real = run.load_expectations
        run.load_expectations = lambda: {"digests": {name: {str(SEED): "0" * 64}}}
        try:
            values, checker, _ = run.measure(name, SEED, 0.01, TINY[name])
        finally:
            run.load_expectations = real
        self.assertEqual(checker.failed, 1)
        self.assertGreater(values["error_rate"], 0)

    def test_refuses_to_run_without_sources(self):
        bare = run.OUT / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, f"{run.HERE.name}/run.py", "--workload", "exact-verify-grid",
                 "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertFalse([line for line in proc.stdout.splitlines() if line.startswith("{")])


if __name__ == "__main__":
    unittest.main()
