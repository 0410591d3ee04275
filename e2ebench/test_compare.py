"""Tests of the compare command's arithmetic (quartiles, verdicts), and that
tpc_e2e prints exactly the metrics BENCHMARK.json declares."""

import json
import os
import re
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from compare import quartiles, verdict  # noqa: E402


class MetricListTest(unittest.TestCase):
    def test_metric_lists_match_benchmark_json(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            spec = json.load(f)
        with open(os.path.join(HERE, "src", "main.cc")) as f:
            src = f.read()

        def names(array):
            body = re.search(array + r"\[\] = \{(.*?)\n\};", src, re.S).group(1)
            return re.findall(r'\{"([^"]+)", "([^"]+)"\}', body)

        e2e = names("kEndToEnd")
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], e2e)
        layers = names("kPerLayer") + [("trace.overhead." + n, u) for n, u in e2e]
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], layers)


class QuartilesTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        self.assertEqual(quartiles(list(range(1, 11))), (2.75, 5.5, 8.25))
        self.assertEqual(quartiles([4, 1, 3, 2]), (1.25, 2.5, 3.75))



class VerdictTest(unittest.TestCase):
    parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]

    def test_improved_needs_wins_and_a_gap(self):
        change = [x * 0.8 for x in self.parent]
        self.assertEqual(verdict(self.parent, change, "lower", 0.1),
                         ("improved", 1.0))
        # Higher-is-better metrics improve upwards.
        self.assertEqual(verdict(self.parent, [x * 1.2 for x in self.parent],
                                 "higher", 0.1)[0], "improved")

    def test_worse_beyond_the_bound(self):
        change = [x * 1.2 for x in self.parent]
        self.assertEqual(verdict(self.parent, change, "lower", 0.1)[0], "worse")

    def test_small_shift_is_no_worse(self):
        change = [x * 1.02 for x in self.parent]
        self.assertEqual(verdict(self.parent, change, "lower", 0.1)[0], "no worse")

    def test_ties_count_for_neither(self):
        self.assertEqual(verdict(self.parent, self.parent, "lower", 0.1),
                         ("no worse", 0.0))

    def test_needs_ten_pairs(self):
        with self.assertRaises(ValueError):
            verdict(self.parent[:1], [50], "lower", 0.1)
        with self.assertRaises(ValueError):
            verdict(self.parent[:9], self.parent[:9], "lower", 0.1)

    def test_noisy_parent_is_unresolved(self):
        noisy = [50, 150, 60, 140, 100, 100, 70, 130, 90, 110]
        change = [x * 1.05 for x in noisy]
        self.assertEqual(verdict(noisy, change, "lower", 0.1)[0], "unresolved")
        # ...unless every change run beats every parent run.
        self.assertEqual(verdict(noisy, [10] * 10, "lower", 0.1)[0], "improved")


if __name__ == "__main__":
    unittest.main()
