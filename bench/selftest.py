"""Self-tests of the benchmark: its known answers, its percentile rule and
its metric list.  Run with `python3 bench/selftest.py` (stdlib unittest)."""

from __future__ import annotations

import json
import os
import random
import unittest

import answers as ka
import run
from spans import SWEEP, Tracer, pass_percentile, percentile, tail

if run.load_library() is None:
    raise SystemExit("selftest needs src/adicaut next to the benchmark")

from adicaut import DigitWord, block_extend, build_union, identity, parse_word, sanov_pair  # noqa: E402

from workloads import WORKLOADS  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        self.assertEqual(percentile([3, 1, 2], 0.5), (2, 1))
        self.assertEqual(percentile(range(1, 101), 0.9), (90, 10))
        self.assertEqual(percentile([7], 0.9), (7, 0))

    def test_p90_needs_ten_samples_beyond(self):
        self.assertEqual(tail([range(1, 101)]), (90, 0.9))
        # 99 samples leave only 9 above the p90 rank, so the median is reported
        self.assertEqual(tail([range(1, 100)]), (50, 0.5))
        self.assertEqual(tail([[5.0, 1.0, 3.0]]), (3.0, 0.5))
        # three passes of 41 leave 4 above the rank in each, 12 in all
        self.assertEqual(tail([range(1, 42)] * 3), (37, 0.9))
        self.assertEqual(tail([range(1, 42)] * 2), (21, 0.5))

    def test_pass_quantile_is_the_median_over_passes(self):
        passes = [[1, 2, 10], [1, 2, 30], [1, 2, 20], []]
        self.assertEqual(pass_percentile(passes, 0.9), (20, 0))
        self.assertEqual(pass_percentile(passes, 0.5), (2, 3))


class Spans(unittest.TestCase):
    def test_self_time_and_selection(self):
        tr = Tracer(enabled=True)
        tr.op = 0
        with tr.span("bench.op"):
            with tr.span("automaton.to_json", work=4):
                pass
        tr.op = SWEEP
        with tr.span("automaton.to_json", work=8):
            pass
        with tr.span("linalg.mod_div", work=2):
            pass
        self.assertEqual([s.work for s in tr.select("automaton.to_json")], [4])
        self.assertEqual([s.work for s in tr.select("linalg.mod_div")], [2])
        per_layer, total = tr.self_times()
        root = tr.spans[0]
        self.assertAlmostEqual(per_layer["bench"], root.duration - tr.spans[1].duration)
        self.assertGreaterEqual(total, root.duration)

    def test_disabled_tracer_records_nothing(self):
        tr = Tracer()
        with tr.span("cli.main", work=3):
            pass
        tr.gauge("automaton.json_mb", 1.0)
        self.assertEqual((tr.spans, tr.gauges), ([], {}))


class KnownAnswers(unittest.TestCase):
    def setUp(self):
        self.fam = ka.Family(3)
        self.aut = build_union(self.fam.mats, 2)

    def test_matrices_are_the_sanov_block_pair(self):
        for d in (3, 5, 6):
            self.assertEqual(list(ka.sanov_matrices(d)), block_extend([identity(d - 2)] * 2, list(sanov_pair())))
        self.assertEqual(ka.Family(6).states, 93312)
        self.assertEqual(ka.Family(5).transitions, 15552 * 32)

    def test_affine_maps(self):
        fam = self.fam
        self.assertEqual(fam.affine([ka.Translation(2, 7)]), (ka.identity(3), (0, 7, 0)))
        for j in (1, 2, 3):
            self.assertTrue(fam.is_identity(fam.ladder([0, 1, 0, 1], j)))
        self.assertFalse(fam.is_identity(fam.ladder([0, 1], 2) + [ka.Translation(2, 32)]))
        self.assertEqual(fam.witness(fam.ladder([0, 1], 2) + [ka.Translation(2, 32)])[0], 6)
        u = ((1, 1, 0), (0, 1, 1), (1, 0, 1))
        self.assertEqual(ka.decode(u, 2), (5, 3, 6))
        self.assertEqual(ka.encode((5, 3, 6), 2, 3), u)

    def test_queries_are_seeded_and_well_formed(self):
        a = ka.wp_queries(self.fam, ka.seeded(7, "queries"))
        self.assertEqual(a, ka.wp_queries(self.fam, ka.seeded(7, "queries")))
        self.assertNotEqual(a, ka.wp_queries(self.fam, ka.seeded(8, "queries")))
        self.assertEqual(len(a) % 2, 1)
        for q in a:
            self.assertEqual(q.identity, not q.family.startswith("deep"))
            if not q.identity:
                self.assertEqual(q.witness_length, int(q.family[len("deep_m"):]) + 1)

    def test_verdicts_match_the_library(self):
        cheap = [q for q in ka.wp_queries(self.fam, ka.seeded(1, "queries"))
                 if q.family in ("conjugation", "commutator", "deep_m4", "deep_m5", "mixed_k1")]
        cheap += ka.probe_queries(self.fam)
        for q in cheap:
            w = parse_word(self.aut, q.text)
            self.assertEqual(w.is_identity(), q.identity, q.text)
            self.assertEqual(len(w), q.length, q.text)

    def test_images_match_the_library(self):
        rng = random.Random(3)
        cases = ka.act_cases(self.fam, rng, count=9, max_power=40, min_length=4, max_length=40)
        cases += ka.oracle_samples(self.fam, rng, count=20)
        for c in cases:
            w = parse_word(self.aut, c.text)
            u = DigitWord(c.word, 2, 3)
            self.assertEqual(w.act(u).letters, c.expected, c.text)
            self.assertEqual(len(w) * len(u), c.steps, c.text)

    def test_inconsistent_inverse_is_refused(self):
        with self.assertRaises(ka.InconsistentAnswer):
            ka.inverse(((2, 0), (0, 1)))


class Manifest(unittest.TestCase):
    def test_benchmark_json_matches_the_runner(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        self.assertEqual(set(run.ALIASES), set(WORKLOADS))


if __name__ == "__main__":
    unittest.main()
