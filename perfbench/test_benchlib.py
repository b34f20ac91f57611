"""Tests for the benchmark's own logic.  Run: python3 -m unittest discover perfbench"""

import collections
import unittest

import benchlib

# pathalias -l unc over the paper's domain example (unc, duke, research, seismo,
# .edu = {.rutgers.edu}, .rutgers.edu = {caip}).
PAPER_ROUTES = (
    "unc\t%s\n"
    "research\tresearch!%s\n"
    "seismo\tresearch!seismo!%s\n"
    ".edu\tresearch!seismo!%s\n"
    "caip.rutgers.edu\tresearch!seismo!caip.rutgers.edu!%s\n"
    "duke\tduke!%s\n"
    "phs\tduke!phs!%s\n"
)


def step(p99_us=500.0, failed_ratio=0.0, backlog_s=0.0, late_ok=True):
    return {"p99_us": p99_us, "failed_ratio": failed_ratio, "backlog_s": backlog_s,
            "late_ok": late_ok}


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(benchlib.percentile(values, 50), 50)
        self.assertEqual(benchlib.percentile(values, 99), 99)
        self.assertEqual(benchlib.percentile(values, 100), 100)
        self.assertEqual(benchlib.percentile([7], 99), 7)

    def test_beyond_counts_samples_past_the_rank(self):
        self.assertEqual(benchlib.beyond(list(range(100)), 50), 50)
        self.assertEqual(benchlib.beyond(list(range(100)), 99), 1)
        self.assertEqual(benchlib.beyond(list(range(1000)), 99), 10)

    def test_publishes_only_with_ten_samples_beyond(self):
        self.assertIsNone(benchlib.publishable(list(range(100)), 99))
        self.assertIsNone(benchlib.publishable(list(range(999)), 99))
        self.assertEqual(benchlib.publishable(list(range(1000)), 99), 989)
        self.assertIsNone(benchlib.publishable([], 50))


class LadderTest(unittest.TestCase):
    def test_step_rule(self):
        self.assertTrue(benchlib.step_passes(step()))
        self.assertTrue(benchlib.step_passes(step(p99_us=benchlib.LADDER_P99_US)))
        self.assertFalse(benchlib.step_passes(step(p99_us=benchlib.LADDER_P99_US + 1)))
        self.assertFalse(benchlib.step_passes(step(p99_us=None)))
        self.assertFalse(benchlib.step_passes(step(failed_ratio=0.002)))
        self.assertFalse(benchlib.step_passes(step(backlog_s=0.5)))
        self.assertFalse(benchlib.step_passes(step(late_ok=False)))

    def test_stops_at_the_first_failing_step(self):
        steps = [(20_000, step()), (40_000, step()), (60_000, step(p99_us=5000.0)),
                 (80_000, step())]
        self.assertEqual(benchlib.max_passing_rate(steps), 40_000)

    def test_zero_when_the_first_step_fails(self):
        self.assertEqual(benchlib.max_passing_rate([(20_000, step(failed_ratio=1.0))]), 0)
        self.assertEqual(benchlib.max_passing_rate([]), 0)


class OracleTest(unittest.TestCase):
    routes = benchlib.parse_routes(PAPER_ROUTES)

    def test_exact_key(self):
        self.assertEqual(benchlib.lookup(self.routes, "caip.rutgers.edu"),
                         (benchlib.EXACT, "caip.rutgers.edu",
                          "research!seismo!caip.rutgers.edu!%s"))
        self.assertEqual(benchlib.lookup(self.routes, "unc"), (benchlib.EXACT, "unc", "%s"))

    def test_domain_suffix_walk_longest_first(self):
        # The paper: search topaz.rutgers.edu, then .rutgers.edu, then .edu.
        self.assertEqual(benchlib.lookup(self.routes, "topaz.rutgers.edu"),
                         (benchlib.SUFFIX, ".edu", "research!seismo!%s"))
        longer = dict(self.routes, **{".rutgers.edu": "research!seismo!rutgers!%s"})
        self.assertEqual(benchlib.lookup(longer, "topaz.rutgers.edu"),
                         (benchlib.SUFFIX, ".rutgers.edu", "research!seismo!rutgers!%s"))

    def test_misses(self):
        self.assertEqual(benchlib.lookup(self.routes, "ghost.example.com"),
                         (benchlib.MISS, "", ""))
        self.assertEqual(benchlib.lookup(self.routes, "nowhere"), (benchlib.MISS, "", ""))
        # Only dotted suffixes count: "edu" is not ".edu".
        self.assertEqual(benchlib.lookup(self.routes, "edu"), (benchlib.MISS, "", ""))


class GeneratorTest(unittest.TestCase):
    routes = benchlib.parse_routes(PAPER_ROUTES)

    def test_serve_requests_repeat_per_seed(self):
        first = benchlib.serve_requests(self.routes, 7, 200)
        self.assertEqual(first, benchlib.serve_requests(self.routes, 7, 200))
        self.assertNotEqual(first, benchlib.serve_requests(self.routes, 8, 200))

    def test_serve_mix_has_the_fixed_shares(self):
        requests = benchlib.serve_requests(self.routes, 7, 5000)
        widths = collections.Counter(len(r) for r in requests)
        self.assertEqual(set(widths), {1, benchlib.SERVE_FANOUT})
        self.assertAlmostEqual(widths[benchlib.SERVE_FANOUT] / len(requests),
                               benchlib.SERVE_FANOUT_SHARE, delta=0.005)
        statuses = collections.Counter(benchlib.lookup(self.routes, d)[0]
                                       for r in requests for d in r)
        total = sum(statuses.values())
        self.assertAlmostEqual(statuses[benchlib.EXACT] / total, benchlib.SERVE_EXACT_SHARE,
                               delta=0.02)
        self.assertAlmostEqual(statuses[benchlib.SUFFIX] / total, benchlib.SERVE_SUFFIX_SHARE,
                               delta=0.02)
        self.assertAlmostEqual(statuses[benchlib.MISS] / total,
                               1 - benchlib.SERVE_EXACT_SHARE - benchlib.SERVE_SUFFIX_SHARE,
                               delta=0.02)

    def test_edits_add_a_sentinel_behind_a_plain_host(self):
        files = {"a.map": "unc\tduke(DAILY), research(DEMAND)\nduke\tphs(HOURLY)\n",
                 "b.map": ".edu = {.rutgers.edu}\n"}
        edits = benchlib.plan_edits(files, self.routes, 1, 3, "t")
        self.assertEqual([e[2] for e in edits], ["bsenttx0", "bsenttx1", "bsenttx2"])
        for path, text, sentinel in edits:
            self.assertEqual(path, "a.map")
            self.assertIn("duke\t%s(HOURLY)\n" % sentinel, text)
        self.assertEqual(files["a.map"], edits[-1][1])


if __name__ == "__main__":
    unittest.main()
