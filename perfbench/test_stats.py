"""Self-tests for the benchmark's own arithmetic, on synthetic inputs.

  python3 perfbench/test_stats.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from stats import (Span, children_of, cpu_util, fastest_per_frame,  # noqa: E402
                   frame_rate, nesting_errors, percentile, self_ns, spread_summary,
                   tail_percentile)


def span(i, start, end, parent=-1, frame=0, name="s"):
    return Span(i, name, start, end, parent, frame, 0)


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(100, 0, -1))  # order must not matter
        self.assertEqual(percentile(values, 0.50), 50)
        self.assertEqual(percentile(values, 0.99), 99)
        self.assertEqual(percentile(values, 1.0), 100)
        self.assertEqual(percentile(values, 0.0), 1)
        self.assertEqual(percentile([7.5], 0.5), 7.5)
        self.assertEqual(percentile([], 0.5), 0.0)

    def test_rank_is_not_thrown_off_by_float_rounding(self):
        # 0.99 * 700 is 692.999...; the nearest rank is still 693.
        self.assertEqual(percentile(list(range(1, 701)), 0.99), 693)

    def test_tail_needs_ten_beyond(self):
        self.assertEqual(tail_percentile(list(range(1, 1001)), 0.99), 990)
        # 999 samples: rank 990 would leave 9 beyond, so rank 989 is used.
        self.assertEqual(tail_percentile(list(range(1, 1000)), 0.99), 989)
        # 100 samples: p99 falls back to the 90th value.
        self.assertEqual(tail_percentile(list(range(1, 101)), 0.99), 90)
        self.assertEqual(tail_percentile(list(range(1, 11)), 0.99), 0.0)


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        parent = span(0, 0, 100)
        kids = [span(1, 10, 30, 0), span(2, 20, 50, 0)]
        self.assertEqual(self_ns(parent, kids), 60)

    def test_no_children(self):
        self.assertEqual(self_ns(span(0, 5, 25), []), 20)

    def test_child_clipped_to_parent(self):
        self.assertEqual(self_ns(span(0, 0, 100), [span(1, 90, 120, 0)]), 90)

    def test_frame_minus_admission(self):
        frame = span(0, 1000, 4000, name="step_frame")
        admission = span(1, 3500, 4000, 0, name="admission")
        kids = children_of([frame, admission])
        self.assertEqual(self_ns(frame, kids[0]), 2500)


class NestingTest(unittest.TestCase):
    def test_well_nested(self):
        spans = [span(0, 0, 100, frame=3), span(1, 10, 20, 0, frame=3),
                 span(2, 12, 18, 1, frame=3), span(3, 120, 130, frame=4)]
        self.assertEqual(nesting_errors(spans), [])

    def test_child_outside_parent(self):
        errors = nesting_errors([span(0, 0, 100), span(1, 90, 110, 0)])
        self.assertEqual(len(errors), 1)
        self.assertIn("not inside", errors[0])

    def test_child_of_another_frame(self):
        errors = nesting_errors([span(0, 0, 100, frame=1), span(1, 10, 20, 0, frame=2)])
        self.assertIn("frame", errors[0])

    def test_missing_or_later_parent(self):
        self.assertEqual(len(nesting_errors([span(0, 0, 10, parent=5)])), 1)
        self.assertEqual(len(nesting_errors([span(0, 0, 10, parent=1), span(1, 0, 20)])), 1)

    def test_backwards_span(self):
        self.assertIn("ends before", nesting_errors([span(0, 10, 5)])[0])


class RateTest(unittest.TestCase):
    def test_cpu_util(self):
        self.assertAlmostEqual(cpu_util(0.2, 15.8, 10.0, 2), 0.8)
        self.assertAlmostEqual(cpu_util(0.0, 20.0, 10.0, 2), 1.0)

    def test_frame_rate_counts_every_frame(self):
        frames = [1.0] * 1000
        self.assertAlmostEqual(frame_rate(frames), 1000.0)
        # One 4 s stall, as a branch-and-bound round takes, costs its full
        # share of the window.
        frames[731] = 4001.0
        self.assertAlmostEqual(frame_rate(frames), 200.0)

    def test_fastest_per_frame(self):
        # Three passes over four frames, laid end to end.
        frames = [1.0, 9.0, 3.0, 4.0,
                  1.5, 2.0, 3.0, 8.0,
                  1.2, 2.5, 2.9, 4.1]
        self.assertEqual(fastest_per_frame(frames, 3), [1.0, 2.0, 2.9, 4.0])
        self.assertEqual(fastest_per_frame(frames, 1), frames)
        with self.assertRaises(ValueError):
            fastest_per_frame(frames, 5)

    def test_spread_summary(self):
        s = spread_summary([10.0, 12.0, 8.0, 11.0, 9.0])
        # quantiles(n=4), exclusive method: 8.5 and 11.5 around median 10.
        self.assertEqual((s["q1"], s["median"], s["q3"]), (8.5, 10.0, 11.5))
        self.assertAlmostEqual(s["spread"], 0.3)


if __name__ == "__main__":
    unittest.main()
