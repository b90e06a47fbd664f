"""Tests of the benchmark's own pieces.

Run with:  python3 bench/test_bench.py
"""

from __future__ import annotations

import json
import statistics
import sys
import unittest
from fractions import Fraction
from pathlib import Path
from random import Random

sys.path.insert(0, str(Path(__file__).resolve().parent))

import mpmath  # noqa: E402

from core import min_samples, normalise, percentile  # noqa: E402
from exact import (  # noqa: E402
    close,
    conjugate_lu,
    eval_rendered,
    int_root,
    jordan,
    matmul,
    nonpower_root,
    poly_mul,
    rat_at,
    transpose,
    unit_lower,
    unit_triangular_inverse,
)
import radical_walk  # noqa: E402
import run  # noqa: E402
from layers import PROFILE_METRICS, STARTUP_METRICS, import_times  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_min_samples_leaves_ten_beyond(self):
        self.assertEqual(min_samples(90.0), 100)
        self.assertEqual(min_samples(95.0), 200)
        self.assertEqual(min_samples(99.0), 1000)
        for p in (90.0, 95.0, 98.0, 99.0, 99.9):
            n = min_samples(p)
            self.assertGreaterEqual(n * (100 - p) / 100, 10 - 1e-9)
            self.assertLess((n - 1) * (100 - p) / 100, 10)

    def test_interpolation_matches_statistics(self):
        rng = Random(3)
        for n in (2, 7, 100, 257):
            xs = [rng.random() for _ in range(n)]
            cuts = statistics.quantiles(xs, n=100, method="inclusive")
            for p in (10, 50, 90, 95, 99):
                self.assertAlmostEqual(percentile(xs, p), cuts[p - 1], places=12)
        self.assertEqual(percentile([5.0], 90), 5.0)


class Normalisation(unittest.TestCase):
    def test_ratio_to_reference(self):
        self.assertEqual(normalise(0.5, 0.25), 2.0)

    def test_machine_speed_cancels(self):
        # an operation and its reference slowed by the same factor read the same
        for slow in (1.0, 1.3, 2.0):
            self.assertAlmostEqual(normalise(0.170 * slow, 0.0011 * slow), 0.170 / 0.0011)

    def test_rejects_empty_reference(self):
        with self.assertRaises(ValueError):
            normalise(1.0, 0.0)


class LogRatioEvaluator(unittest.TestCase):
    def mp_value(self, text: str):
        with mpmath.workdps(50):
            if text == "inf":
                return mpmath.inf
            total = mpmath.mpf(0)
            for term in text.split(" + "):
                if "log(" not in term:
                    q = Fraction(term)
                    return mpmath.mpf(q.numerator) / q.denominator
                a, b = term[4:-1].split(")/log(")
                logs = []
                for power in (a, b):
                    base, _, exp = power.partition("^")
                    q = Fraction(base)
                    logs.append(int(exp or 1) * mpmath.log(mpmath.mpf(q.numerator) / q.denominator))
                total += logs[0] / logs[1]
            return total

    def test_against_mpmath(self):
        a = 10**80
        cases = [
            "3/2", "6", "0", "inf",
            "log(3)/log(2)",
            "log(27/8)/log(4)",
            f"log({a + 1})/log({a})",
            "log(1000001/1000000)/log(1000002/1000001)",
            "log(1000000000000001/1000000000000000)/log(2)",
            f"log({3**700})/log({2**1100 + 1})",
            "log(3)/log(2) + log(5)/log(4)",
            "log(2^3)/log(3^2)",
            "log(27/8^5)/log(10)",
        ]
        for text in cases:
            got = eval_rendered(text)
            want = self.mp_value(text)
            if want == mpmath.inf:
                self.assertEqual(got, float("inf"))
            else:
                self.assertTrue(close(got, float(want), 1e-12), (text, got, want))

    def test_rejects_unknown_text(self):
        with self.assertRaises(ValueError):
            eval_rendered("sqrt(2)")


class NonPowerRoot(unittest.TestCase):
    def brute(self, n: int):
        best = (n, 1)
        for r in range(2, int(n**0.5) + 2):
            e, m = 0, 1
            while m < n:
                m *= r
                e += 1
            if m == n and e > best[1]:
                best = (r, e)
        return best

    def test_small_integers_against_brute_force(self):
        self.assertEqual(nonpower_root(1), (1, 1))
        for n in range(2, 3000):
            self.assertEqual(nonpower_root(n), self.brute(n), n)

    def test_large_integers(self):
        self.assertEqual(nonpower_root(10**80), (10, 80))
        self.assertEqual(nonpower_root(6**64), (6, 64))
        self.assertEqual(nonpower_root(12**9), (12, 9))
        self.assertEqual(nonpower_root(2**61 - 1), (2**61 - 1, 1))
        n = 10**80 + 1
        r, e = nonpower_root(n)
        self.assertEqual(r**e, n)

    def test_int_root(self):
        rng = Random(5)
        for _ in range(200):
            n, k = rng.randrange(1, 1 << rng.randint(1, 400)), rng.randint(1, 12)
            r = int_root(n, k)
            self.assertTrue(r**k <= n < (r + 1) ** k)


class ExactHelpers(unittest.TestCase):
    def test_unimodular_conjugate_keeps_trace(self):
        rng = Random(7)
        for n in (2, 4, 6):
            j = jordan([(Fraction(1, 2), 2)] + [(Fraction(k + 1, 64), 1) for k in range(n - 2)])
            lower = unit_lower(n, [rng.choice((-2, -1, 1, 2)) for _ in range(n * (n - 1) // 2)])
            upper = transpose(unit_lower(n, [rng.choice((-2, 1)) for _ in range(n * (n - 1) // 2)]))
            a = conjugate_lu(lower, upper, j)
            self.assertEqual(sum(a[i][i] for i in range(n)), sum(j[i][i] for i in range(n)))
            inv = unit_triangular_inverse(lower, True)
            self.assertEqual(matmul(lower, inv), jordan([(1, 1)] * n))

    def test_rational_function_evaluation(self):
        # (1 + t) / t at t = 2 over F_5 is 3 * 2^-1 = 4
        self.assertEqual(rat_at((1, 1), (0, 1), 2, 5), 4)
        self.assertIsNone(rat_at((1,), (0, 1), 0, 5))

    def test_poly_mul(self):
        # (1 + t)(1 - t) = 1 - t^2 over F_5, constant term first
        self.assertEqual(poly_mul((1, 1), (1, 4), 5), (1, 0, 4))
        self.assertEqual(poly_mul((), (1, 2), 5), ())
        self.assertEqual(poly_mul((2,), (3,), 5), (1,))

    def test_batch_check_sees_what_evaluation_misses(self):
        p = 5
        x, y = ((1, 2), (1,)), ((3,), (2, 1))  # 1 + 2t and 3 / (2 + t)
        s = ((0, 0, 2), (2, 1))  # (1 + 2t)(2 + t) + 3 = 5 + 5t + 2t^2
        m = ((3, 1), (2, 1))  # 3(1 + 2t) = 3 + 6t
        i = ((3,), (3, 1))  # 1 / (1 + 2t), denominator made monic
        self.assertIsNone(radical_walk._check_batch(p, [(x, y)], [(s, m, i)]))
        # adding t^5 - t to the product's numerator changes no value on F_5
        bad = ((3, 0, 0, 0, 0, 1), (2, 1))
        self.assertIn("product", radical_walk._check_batch(p, [(x, y)], [(s, bad, i)]))


class ImportTimes(unittest.TestCase):
    def test_groups_exclude_each_other(self):
        text = "\n".join([
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |         mpmath.libmp",
            "import time:       200 |        300 |       mpmath",
            "import time:        50 |         50 |       fractions",
            "import time:       400 |        750 |     focalclass.exactnum",
            "import time:        70 |         70 |     focalclass.matexact",
            "import time:        10 |        830 |   focalclass",
            "import time:        20 |         20 |   argparse",
            "import time:        30 |        880 | focalclass.cli",
        ])
        got = import_times(text)
        self.assertEqual(got["mpmath"], 300)
        self.assertEqual(got["exactnum"], 450)
        self.assertEqual(got["matexact"], 70)
        self.assertEqual(got["cli"], 880 - 750 - 70)


class MetricNames(unittest.TestCase):
    """The metrics a run prints are exactly those BENCHMARK.json declares."""

    def fake_run(self):
        def rec(i):
            return {"name": f"op {i}", "seconds": 0.01 * (i + 1), "ref_s": 0.001,
                    "failed": False, "wrong": None, "note": None}
        records = [rec(i) for i in range(120)]
        return {
            "setups": [0.5, 0.4, 0.6],
            "rounds": [{"records": records, "maxrss_mb": 20.0}],
            "traced": [{"records": records, "maxrss_mb": 20.0,
                        "layers": {name: 1.0 for name in PROFILE_METRICS}}],
            "startup": {name: 1.0 for name in STARTUP_METRICS},
        }

    def declared(self, key):
        spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
        return {m["name"]: m["unit"] for m in spec[key]}

    def test_end_to_end(self):
        class W:
            TAIL = 90.0
        got = run.end_to_end(W, self.fake_run())
        self.assertEqual({k: u for k, (_, u) in got.items()}, self.declared("end_to_end"))
        self.assertAlmostEqual(got["latency_p50_ref"][0], 605.0)

    def test_per_layer(self):
        got = run.per_layer(self.fake_run())
        self.assertEqual({k: u for k, (_, u) in got.items()}, self.declared("per_layer"))
        self.assertAlmostEqual(got["trace.overhead"][0], 1.0)


if __name__ == "__main__":
    unittest.main()
