#!/usr/bin/env python3
"""Unit tests for the check_speedup.py CI gate (stdlib unittest only).

Every speedup and accuracy gate in .github/workflows/ci.yml funnels
through check_speedup.py, so a silent bug there (a key lookup that never
fails, a tolerance check that passes vacuously) would green-light every
regression at once. These tests pin the gate's contract:

  * value lookup in both supported JSON shapes (bench-harness top-level
    fields and google-benchmark "benchmarks" lists, including the
    aggregates of a repeated run), the missing-key error, and the failure
    on an entry that reports an error;
  * the pass/fail ratio decision and the --key-b cross-file key;
  * the median of per-pair ratios over comma-separated lists of JSONs,
    and the error on lists of different lengths;
  * the --tolerance-json accuracy gate: within-bound pass, out-of-bound
    fail, mismatched key sets, and the no-matching-fields vacuous case.

Run directly (python3 scripts/check_speedup_test.py) or via ctest, which
registers it as scripts.check_speedup. The tests drive the script the
same way CI does — as a subprocess — so argument parsing and exit codes
are covered, not just the helper functions.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "check_speedup.py")


class CheckSpeedupTest(unittest.TestCase):
    def setUp(self):
        self._dir = tempfile.TemporaryDirectory()
        self.addCleanup(self._dir.cleanup)

    def write_json(self, name, doc):
        path = os.path.join(self._dir.name, name)
        with open(path, "w") as f:
            json.dump(doc, f)
        return path

    def run_gate(self, *args):
        """Runs the gate; returns (exit_code, combined_output)."""
        proc = subprocess.run(
            [sys.executable, SCRIPT] + [str(a) for a in args],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        return proc.returncode, proc.stdout

    # --- value lookup ---------------------------------------------------

    def test_top_level_field_ratio_passes(self):
        a = self.write_json("a.json", {"serve_ms": 100.0})
        b = self.write_json("b.json", {"serve_ms": 20.0})
        code, out = self.run_gate(a, b, "serve_ms", 2.0, "unit")
        self.assertEqual(code, 0, out)
        self.assertIn("ratio=5.00x", out)

    def test_ratio_below_minimum_fails(self):
        a = self.write_json("a.json", {"serve_ms": 100.0})
        b = self.write_json("b.json", {"serve_ms": 80.0})
        code, out = self.run_gate(a, b, "serve_ms", 2.0, "unit")
        self.assertEqual(code, 1, out)
        self.assertIn("::error::", out)

    def test_google_benchmark_list_lookup(self):
        doc = {"benchmarks": [
            {"name": "BM_Fit/0", "real_time": 10.0},
            {"name": "BM_Fit/1", "real_time": 50.0},
        ]}
        a = self.write_json("gb.json", doc)
        # Same file twice with --key-b: compares two entries of one report,
        # the shape the microbenchmark artifact step uses.
        code, out = self.run_gate(a, a, "BM_Fit/1", 2.0, "unit",
                                  "--key-b", "BM_Fit/0")
        self.assertEqual(code, 0, out)
        self.assertIn("ratio=5.00x", out)

    def test_median_lookup_in_aggregates_only_report(self):
        # The kernel gates' shape: --benchmark_repetitions with
        # --benchmark_report_aggregates_only, keyed on the medians.
        doc = {"benchmarks": []}
        for arm, median in (("0", 10.0), ("1", 35.0)):
            for stat, value in (("mean", median + 1), ("median", median),
                                ("stddev", 0.5), ("cv", 0.05)):
                doc["benchmarks"].append({
                    "name": f"BM_Fit/{arm}_{stat}", "run_type": "aggregate",
                    "aggregate_name": stat, "real_time": value})
        a = self.write_json("agg.json", doc)
        code, out = self.run_gate(a, a, "BM_Fit/1_median", 2.0, "unit",
                                  "--key-b", "BM_Fit/0_median")
        self.assertEqual(code, 0, out)
        self.assertIn("ratio=3.50x", out)

    def test_errored_entry_fails(self):
        # An arm that stops with an error reports it in the JSON; its
        # real_time is no timing and must not pass the gate.
        doc = {"benchmarks": [
            {"name": "BM_Fit/0", "real_time": 10.0},
            {"name": "BM_Fit/1", "real_time": 50.0, "error_occurred": True,
             "error_message": "production and reference differ"},
        ]}
        a = self.write_json("err.json", doc)
        code, out = self.run_gate(a, a, "BM_Fit/1", 2.0, "unit",
                                  "--key-b", "BM_Fit/0")
        self.assertEqual(code, 1, out)
        self.assertIn("::error::", out)
        self.assertIn("reported an error", out)

    def test_missing_key_is_an_error(self):
        a = self.write_json("a.json", {"serve_ms": 100.0})
        b = self.write_json("b.json", {"serve_ms": 20.0})
        code, out = self.run_gate(a, b, "no_such_key", 2.0, "unit")
        self.assertEqual(code, 1, out)
        self.assertIn("no top-level field or benchmark", out)

    def test_key_b_reads_a_different_field(self):
        # The retrain gate's shape: refit_ms from the baseline JSON
        # against rls_update_ms from the optimized JSON.
        a = self.write_json("a.json", {"refit_ms": 600.0})
        b = self.write_json("b.json", {"rls_update_ms": 100.0})
        code, out = self.run_gate(a, b, "refit_ms", 5.0, "unit",
                                  "--key-b", "rls_update_ms")
        self.assertEqual(code, 0, out)
        self.assertIn("ratio=6.00x", out)

    def test_non_positive_optimized_timing_is_an_error(self):
        a = self.write_json("a.json", {"serve_ms": 100.0})
        b = self.write_json("b.json", {"serve_ms": 0.0})
        code, out = self.run_gate(a, b, "serve_ms", 2.0, "unit")
        self.assertEqual(code, 1, out)
        self.assertIn("non-positive", out)

    # --- median of pairs ------------------------------------------------

    def pair_lists(self, timings):
        """Writes one google-benchmark JSON per side and pair; returns the
        two comma-separated lists, the SIMD gate's shape."""
        files_a, files_b = [], []
        for i, (a, b) in enumerate(timings):
            files_a.append(self.write_json(f"scalar_{i}.json", {
                "benchmarks": [{"name": "BM_NNFit/0", "real_time": a}]}))
            files_b.append(self.write_json(f"avx2_{i}.json", {
                "benchmarks": [{"name": "BM_NNFit/0", "real_time": b}]}))
        return ",".join(files_a), ",".join(files_b)

    def test_median_of_pairs_passes(self):
        # Ratios 1.2, 2.0 and 3.0: one pair under the bar, median 2.0.
        a, b = self.pair_lists([(12.0, 10.0), (20.0, 10.0), (30.0, 10.0)])
        code, out = self.run_gate(a, b, "BM_NNFit/0", 1.5, "unit")
        self.assertEqual(code, 0, out)
        self.assertIn("3 pairs, ratios 1.20, 2.00, 3.00, median=2.00x", out)

    def test_median_not_mean_of_pairs_decides(self):
        # Ratios 1.0, 1.4 and 5.0: the mean (2.47x) would pass, the median
        # (1.40x) does not.
        a, b = self.pair_lists([(10.0, 10.0), (14.0, 10.0), (50.0, 10.0)])
        code, out = self.run_gate(a, b, "BM_NNFit/0", 1.5, "unit")
        self.assertEqual(code, 1, out)
        self.assertIn("median=1.40x", out)
        self.assertIn("::error::", out)

    def test_pair_lists_of_different_lengths_are_an_error(self):
        a, b = self.pair_lists([(20.0, 10.0), (20.0, 10.0)])
        code, out = self.run_gate(a, b.split(",")[0], "BM_NNFit/0", 1.5,
                                  "unit")
        self.assertEqual(code, 1, out)
        self.assertIn("JSON_A lists 2 files, JSON_B 1", out)

    # --- --tolerance-json accuracy gate ---------------------------------

    def tolerance_pair(self, attr_b):
        a = self.write_json("tol_a.json",
                            {"serve_ms": 100.0, "attr_x": 1000.0,
                             "attr_y": 2000.0, "other": 7.0})
        b_doc = {"serve_ms": 20.0, "other": 99.0}
        b_doc.update(attr_b)
        return a, self.write_json("tol_b.json", b_doc)

    def test_tolerance_within_bound_passes(self):
        a, b = self.tolerance_pair({"attr_x": 1000.05, "attr_y": 2000.0})
        code, out = self.run_gate(a, b, "serve_ms", 2.0, "unit",
                                  "--tolerance-json", "attr_",
                                  "--rel-tol", 1e-4)
        self.assertEqual(code, 0, out)
        self.assertIn("2 'attr_' fields", out)

    def test_tolerance_out_of_bound_fails_even_when_ratio_passes(self):
        a, b = self.tolerance_pair({"attr_x": 1001.0, "attr_y": 2000.0})
        code, out = self.run_gate(a, b, "serve_ms", 2.0, "unit",
                                  "--tolerance-json", "attr_",
                                  "--rel-tol", 1e-4)
        self.assertEqual(code, 1, out)
        self.assertIn("attr_x", out)

    def test_tolerance_mismatched_key_sets_fail(self):
        a, b = self.tolerance_pair({"attr_x": 1000.0, "attr_z": 5.0})
        code, out = self.run_gate(a, b, "serve_ms", 2.0, "unit",
                                  "--tolerance-json", "attr_",
                                  "--rel-tol", 1e-4)
        self.assertEqual(code, 1, out)
        self.assertIn("key sets differ", out)
        self.assertIn("attr_y", out)
        self.assertIn("attr_z", out)

    def test_tolerance_no_matching_fields_is_not_vacuously_green(self):
        a = self.write_json("a.json", {"serve_ms": 100.0})
        b = self.write_json("b.json", {"serve_ms": 20.0})
        code, out = self.run_gate(a, b, "serve_ms", 2.0, "unit",
                                  "--tolerance-json", "attr_",
                                  "--rel-tol", 1e-4)
        self.assertEqual(code, 1, out)
        self.assertIn("vacuously", out)

    def test_tolerance_near_zero_fields_use_floored_denominator(self):
        # |b - a| / max(|a|, 1e-9 * max|a|): a tiny absolute wobble on a
        # near-zero entry must not explode the relative error while the
        # dominant entries agree.
        a = self.write_json("a.json", {"serve_ms": 100.0,
                                       "attr_big": 1e6, "attr_tiny": 0.0})
        b = self.write_json("b.json", {"serve_ms": 20.0,
                                       "attr_big": 1e6, "attr_tiny": 1e-8})
        code, out = self.run_gate(a, b, "serve_ms", 2.0, "unit",
                                  "--tolerance-json", "attr_",
                                  "--rel-tol", 1e-4)
        self.assertEqual(code, 0, out)


if __name__ == "__main__":
    unittest.main()
