"""Tests of the benchmark's Python side: the comparison rule on synthetic
series, the refusal to compare across machines, the expected-value gate, and
compare.py's handling of failed runs. The percentile rule and the seeded
input streams live in the C++ load generator and are covered by
orcobench_selftest (python3 orcobench/run.py --selftest runs both)."""

import json
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import benchlib  # noqa: E402
import compare  # noqa: E402


def fp(**overrides):
    base = {"cpu_model": "cpu", "logical_cores": 4, "simd_isa": "avx512",
            "compiler": "GNU 12.2.0", "build_type": "Release",
            "cold_store_fs": "ext4", "source": "git:aaa"}
    base.update(overrides)
    return base


class JudgeTest(unittest.TestCase):
    def test_clear_gain(self):
        parent = [100 + i for i in range(10)]
        change = [80 + i for i in range(10)]
        row = benchlib.judge(parent, change, "lower", 0.1)
        self.assertEqual(row["verdict"], "gain")
        self.assertEqual(row["wins"], 10)

    def test_eight_of_ten_wins_is_not_a_gain(self):
        parent = [100.0] * 10
        change = [90.0] * 8 + [110.0] * 2
        row = benchlib.judge(parent, change, "lower", 0.25)
        self.assertEqual(row["wins"], 8)
        self.assertNotEqual(row["verdict"], "gain")

    def test_ties_count_for_neither_side(self):
        parent = [100.0] * 10
        change = [100.0] * 9 + [90.0]
        row = benchlib.judge(parent, change, "lower", 0.1)
        self.assertEqual((row["wins"], row["losses"]), (1, 0))
        self.assertEqual(row["verdict"], "within bound")

    def test_gap_must_exceed_parent_spread(self):
        # Every pair won, but the medians sit inside the parent's IQR.
        parent = [100, 120, 140, 160, 180, 100, 120, 140, 160, 180]
        change = [p - 1 for p in parent]
        row = benchlib.judge(parent, change, "lower", 0.5)
        self.assertEqual(row["wins"], 10)
        self.assertNotEqual(row["verdict"], "gain")

    def test_higher_is_better(self):
        parent = [100 + i for i in range(10)]
        change = [130 + i for i in range(10)]
        self.assertEqual(benchlib.judge(parent, change, "higher", 0.1)["verdict"], "gain")
        self.assertEqual(benchlib.judge(change, parent, "higher", 0.1)["verdict"], "regression")

    def test_regression_beyond_bound(self):
        parent = [100 + 0.1 * i for i in range(10)]
        change = [120 + 0.1 * i for i in range(10)]
        self.assertEqual(benchlib.judge(parent, change, "lower", 0.1)["verdict"], "regression")
        self.assertEqual(benchlib.judge(parent, change, "lower", 0.25)["verdict"], "within bound")

    def test_unresolved_when_spread_wider_than_bound(self):
        parent = [60, 140, 80, 120, 100, 70, 130, 90, 110, 100]
        change = [p * 1.05 for p in parent]
        self.assertEqual(benchlib.judge(parent, change, "lower", 0.1)["verdict"], "unresolved")

    def test_wide_spread_but_every_change_run_better(self):
        parent = [200, 300, 250, 280, 220, 260, 240, 290, 210, 270]
        change = [100, 150, 120, 140, 110, 130, 125, 145, 105, 135]
        # A gain already: every pair won, medians far apart.
        self.assertEqual(benchlib.judge(parent, change, "lower", 0.1)["verdict"], "gain")
        # 9/10 wins, but the gap (60) is inside the parent IQR (65) and one
        # change run is worse than some parent run.
        change = [195] * 9 + [310]
        row = benchlib.judge(parent, change, "lower", 0.1)
        self.assertEqual(row["wins"], 9)
        self.assertEqual(row["verdict"], "unresolved")
        # Gap (46) inside the parent IQR (55), yet every change run beats
        # every parent run.
        parent = [100 + 10 * i for i in range(10)]
        row = benchlib.judge(parent, [99.0] * 10, "lower", 0.1)
        self.assertEqual(row["verdict"], "better")

    def test_rejects_unpaired_series(self):
        with self.assertRaises(ValueError):
            benchlib.judge([1.0, 2.0], [1.0], "lower", 0.1)


class FingerprintTest(unittest.TestCase):
    def test_same_machine_different_source_compares(self):
        benchlib.check_same_machine([fp(), fp(source="tree:bbb")])

    def test_refuses_different_machines(self):
        for key, value in [("cpu_model", "other"), ("logical_cores", 8),
                           ("simd_isa", "avx2"), ("compiler", "Clang 16"),
                           ("build_type", "Debug"), ("cold_store_fs", "tmpfs")]:
            with self.subTest(key=key):
                with self.assertRaises(benchlib.FingerprintMismatch):
                    benchlib.check_same_machine([fp(), fp(**{key: value})])



class ExpectedValuesTest(unittest.TestCase):
    EXPECTED = {"anchor.final_loss": {"value": 0.02, "rel_tol": 0.01},
                "anchor.uplink_bytes_per_sample": {"value": 512.625, "rel_tol": 0.0}}

    def detail(self, loss, uplink):
        return {"anchor.final_loss": {"value": loss, "unit": "loss"},
                "anchor.uplink_bytes_per_sample": {"value": uplink, "unit": "B"}}

    def test_within_tolerance_passes(self):
        self.assertEqual(benchlib.check_expected(self.detail(0.0201, 512.625),
                                                 self.EXPECTED), [])

    def test_moved_value_is_a_miss(self):
        self.assertEqual(benchlib.check_expected(self.detail(0.0203, 512.625),
                                                 self.EXPECTED), ["anchor.final_loss"])
        self.assertEqual(benchlib.check_expected(self.detail(0.02, 512.626),
                                                 self.EXPECTED),
                         ["anchor.uplink_bytes_per_sample"])

    def test_missing_or_nan_row_is_a_miss(self):
        detail = self.detail(float("nan"), 512.625)
        del detail["anchor.uplink_bytes_per_sample"]
        self.assertEqual(sorted(benchlib.check_expected(detail, self.EXPECTED)),
                         ["anchor.final_loss", "anchor.uplink_bytes_per_sample"])

    def test_committed_file_loads(self):
        expected = benchlib.load_expected()
        self.assertIn("paper_online_train", expected)
        for row in expected["paper_online_train"].values():
            self.assertGreaterEqual(row["rel_tol"], 0.0)


class CompareRunSideTest(unittest.TestCase):
    """compare.run_side never judges a stale result or a failed run."""

    def checkout(self, script):
        root = Path(tempfile.mkdtemp())
        self.addCleanup(shutil.rmtree, root)
        (root / "orcobench").mkdir()
        (root / "orcobench" / "run.py").write_text(script)
        results = root / ".bench_build" / "results"
        results.mkdir(parents=True)
        return root, results / "w-seed1-trace0.json"

    def test_stale_result_of_a_crashed_run_is_not_read(self):
        root, result = self.checkout("import sys\nsys.exit(1)\n")
        result.write_text(json.dumps({"correct": True}))
        with self.assertRaises(compare.RunFailed):
            compare.run_side("change", root, "w", 1, 1)
        self.assertFalse(result.exists())

    # The fake run.py runs in the checkout, so it writes the result relative
    # to it.
    WRITE = "import json\nopen('.bench_build/results/w-seed1-trace0.json', 'w').write(json.dumps(%r))\n"

    def test_failed_gate_fails_the_comparison(self):
        root, _ = self.checkout(self.WRITE % {
            "correct": False, "failed_checks": ["x"], "missing_metrics": []})
        with self.assertRaises(compare.RunFailed):
            compare.run_side("parent", root, "w", 1, 1)

    def test_correct_run_is_returned(self):
        root, _ = self.checkout(self.WRITE % {"correct": True})
        self.assertEqual(compare.run_side("parent", root, "w", 1, 1), {"correct": True})


if __name__ == "__main__":
    unittest.main()
