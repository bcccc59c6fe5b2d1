"""Self-tests of the benchmark. Run from the repository root:

    python3 -m unittest discover -s perfbench/tests

They build the benchmark (like run.py does), run the C++ unit tests of the
stats and trace code, and check determinism: two runs with one seed repeat
every count exactly, and another seed gives other inputs. Each run is one
second long (at least 2000 timed op executions), so the suite takes a few
minutes.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("tree_propagate", "session_fanout", "replica_serve", "stale_recovery")

# Metrics that are counts of deterministic work: equal for equal seeds.
EXACT_END_TO_END = ("wire_bytes_per_op", "hit_ratio")
EXACT_PER_LAYER = (
    "sync.router_candidates_per_change", "sync.router_prune_ratio",
    "wire.frames_per_op", "wire.bytes_per_frame", "netio.frames_in",
    "netio.backpressure_pauses", "select.revolutions",
    "resync.reconcile_entries_shipped", "resync.full_reloads",
    "resync.reconcile_fallbacks", "resync.recover_bytes_vs_reload",
)


def run_workload(workload, seed, trace):
    """Runs one workload through run.py; returns (result JSON, inputs hash)."""
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise AssertionError(f"{workload} seed {seed} trace {trace} exited "
                             f"{out.returncode}:\n{out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    found = re.search(r"inputs_hash=([0-9a-f]+)", out.stdout)
    return json.loads(lines[-1]), found.group(1) if found else None


def values(result, names):
    return {name: result["metrics"][name]["value"] for name in names}


class StatsAndTraceUnitTests(unittest.TestCase):
    def test_unit_tests_pass(self):
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                            BUILD, "-DCMAKE_BUILD_TYPE=Release"], check=True,
                           capture_output=True)
        subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench_tests",
                        "-j", str(min(4, os.cpu_count() or 1))], check=True,
                       capture_output=True)
        result = subprocess.run([os.path.join(BUILD, "perfbench_tests")],
                                capture_output=True, text=True)
        self.assertEqual(result.returncode, 0, result.stdout[-4000:])


class DeterminismTests(unittest.TestCase):
    def test_same_seed_repeats_counts_and_other_seed_changes_inputs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first, hash_a = run_workload(workload, 101, 0)
                second, hash_b = run_workload(workload, 101, 0)
                other, hash_c = run_workload(workload, 202, 0)
                for result in (first, second, other):
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                self.assertEqual(hash_a, hash_b)
                self.assertNotEqual(hash_a, hash_c)
                self.assertEqual(values(first, EXACT_END_TO_END),
                                 values(second, EXACT_END_TO_END))

                traced_a, _ = run_workload(workload, 101, 1)
                traced_b, _ = run_workload(workload, 101, 1)
                self.assertEqual(values(traced_a, EXACT_PER_LAYER),
                                 values(traced_b, EXACT_PER_LAYER))


if __name__ == "__main__":
    unittest.main()
