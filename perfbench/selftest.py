#!/usr/bin/env python3
"""Self-tests for the benchmark's own code (not part of the repository's
ctest):

    python3 perfbench/selftest.py

The checker's taxonomy on hand-made pairs, self-time arithmetic on a
synthetic span tree, and one tiny campaign end to end through the same
round, check and trace code the benchmark runs (builds like run.py).
"""

import copy
import json
import os
import shutil
import struct
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check  # noqa: E402
import run  # noqa: E402

C = check


def f64(x):
    return "%016x" % struct.unpack("<Q", struct.pack("<d", x))[0]


def f32(x):
    return "%08x" % struct.unpack("<I", struct.pack("<f", x))[0]


class Taxonomy(unittest.TestCase):
    def cls(self, a, b):
        return C.classify_printed(a, b)

    def test_sign_only_differences_agree(self):
        self.assertEqual(self.cls("0", "-0"), C.NONE)
        self.assertEqual(self.cls("nan", "-nan"), C.NONE)
        self.assertEqual(self.cls("inf", "-inf"), C.NONE)

    def test_numbers_compare_bit_for_bit(self):
        self.assertEqual(self.cls("1.5", "1.5"), C.NONE)
        self.assertEqual(self.cls("1.5", "1.5000000000000002"), C.NUM_NUM)
        self.assertEqual(self.cls("-2", "2"), C.NUM_NUM)

    def test_subnormal_is_a_number(self):
        self.assertEqual(self.cls("4.9406564584124654e-324", "0"), 5)  # Num, Zero
        self.assertEqual(self.cls("-0", "1.4012984643248171e-45"), 5)

    def test_class_pairs_are_unordered(self):
        cases = {("nan", "inf"): 0, ("nan", "0"): 1, ("nan", "3"): 2,
                 ("inf", "0"): 3, ("-inf", "7"): 4, ("0", "1e-300"): 5}
        for (a, b), want in cases.items():
            self.assertEqual(self.cls(a, b), want, (a, b))
            self.assertEqual(self.cls(b, a), want, (b, a))

    def test_bits_agree_with_printed(self):
        for a, b in [(0.0, -0.0), (float("nan"), -float("nan")), (1e-310, 0.0),
                     (float("inf"), 2.0), (1.0, 1.0000000000000002)]:
            want = C.classify_printed("%.17g" % a, "%.17g" % b)
            self.assertEqual(C.verdict_of_bits([f64(a), f64(b)], "FP64"), [C.NONE, want])
        # FP32: subnormal floats, and a float NaN vs Inf.
        self.assertEqual(C.verdict_of_bits([f32(1e-45), f32(0.0)], "FP32"), [C.NONE, 5])
        self.assertEqual(C.verdict_of_bits(["7fc00000", "ff800000"], "FP32"), [C.NONE, 0])
        self.assertEqual(C.verdict_of_bits(["7fc00000", "ffc00000"], "FP32"), [C.NONE, C.NONE])

    def test_outcome_signs(self):
        self.assertEqual(C.outcome_of_printed("-nan"), (C.NAN, True))
        self.assertEqual(C.outcome_of_printed("-0"), (C.ZERO, True))
        self.assertEqual(C.outcome_of_bits(0x8000000000000000, "FP64"), (C.ZERO, True))


class SelfTime(unittest.TestCase):
    def test_synthetic_tree(self):
        # root [0, 100) holds a [10, 40) and b [50, 90); a holds c [20, 30);
        # d [85, 95) overhangs b's end and only [85, 90) counts against b.
        spans = [(0, -1, "root", 0, 100), (1, 0, "a", 10, 40), (2, 1, "c", 20, 30),
                 (3, 0, "b", 50, 90), (4, 3, "d", 85, 95), (5, -1, "root", 200, 210)]
        got = run.self_times(spans)
        want = {"root": (100 - 30 - 40 + 10) * 1e-9, "a": 20e-9, "c": 10e-9,
                "b": 35e-9, "d": 10e-9}
        for k, v in want.items():
            self.assertAlmostEqual(got[k], v, places=15, msg=k)
        # Layers plus loop overhead add up to the roots' wall time.
        self.assertAlmostEqual(sum(got.values()) - got["d"] + 5e-9, 110e-9, places=15)

    def test_overlapping_children_counted_once(self):
        spans = [(0, -1, "p", 0, 10), (1, 0, "x", 1, 5), (2, 0, "y", 3, 8)]
        self.assertAlmostEqual(run.self_times(spans)["p"], 3e-9, places=15)


TINY = [
    run.Campaign("fp64", ["-P", "fp64"], 60, 7, 2),
    run.Campaign("fp32", ["-P", "fp32", "-F", run.WIDE_PLATFORMS], 30, 9, 4),
]


class TinyCampaign(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        cls.dir = os.path.join(run.BUILD, "selftest")
        shutil.rmtree(cls.dir, ignore_errors=True)
        os.makedirs(cls.dir)
        run.WORKLOADS["tiny"] = TINY

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.dir, ignore_errors=True)
        del run.WORKLOADS["tiny"]

    def test_end_to_end(self):
        rnd = run.Round(os.path.join(self.dir, "round"))
        os.makedirs(rnd.dir)
        outputs, triaged, bundles, campaign_s, _, facts = run.run_round("tiny", rnd, 3)
        self.assertIsNone(facts)
        problems, attempted, failed = run.check_round(outputs, triaged, bundles, 3, rnd.dir)
        self.assertEqual(problems, [])
        self.assertEqual(failed, 0)
        self.assertGreater(attempted, sum(c.comparisons for c in TINY))

        # The checker notices a wrong class in a record.
        with open(outputs[1].path) as f:
            report = json.load(f)
        bad = copy.deepcopy(report)
        rec = bad["records"][0]
        p = next(i for i, k in enumerate(rec["classes"]) if k != C.NONE)
        rec["classes"][p] = (rec["classes"][p] + 1) % C.CLASS_COUNT
        self.assertNotEqual(C.check_report(bad, 30, 9, 4), [])
        self.assertEqual(C.check_report(report, 30, 9, 4), [])

        problems, metrics = run.traced("tiny", os.path.join(self.dir, "traced"), 3,
                                       outputs, campaign_s, facts)
        self.assertEqual(problems, [])
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            declared = {m["name"]: m["unit"] for m in json.load(f)["per_layer"]}
        self.assertEqual({k: v["unit"] for k, v in metrics.items()}, declared)
        self.assertEqual(metrics["diff.comparisons"]["value"],
                         sum(c.comparisons for c in TINY))


if __name__ == "__main__":
    unittest.main()
