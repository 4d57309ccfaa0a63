#!/usr/bin/env python3
"""Self-checks of the benchmark's own arithmetic and tracing.

Run from the root of a checkout:

    python3 perfbench/selfcheck.py
"""
from __future__ import annotations

import unittest

import run
from tracer import Tracer, layer_totals


class SelfTimeTest(unittest.TestCase):
    def test_synthetic_nested_spans(self):
        # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 8];
        # a second b [11, 12] stands alone.
        spans = [
            ("a", 0.0, 10.0, -1, 0),
            ("b", 1.0, 4.0, 0, 0),
            ("c", 5.0, 9.0, 0, 0),
            ("d", 6.0, 8.0, 2, 0),
            ("b", 11.0, 12.0, -1, 1),
        ]
        totals = layer_totals(spans)
        self.assertEqual(totals["a"], (1, 10.0, 3.0))
        self.assertEqual(totals["b"], (2, 4.0, 4.0))
        self.assertEqual(totals["c"], (1, 4.0, 2.0))
        self.assertEqual(totals["d"], (1, 2.0, 2.0))
        self.assertEqual(layer_totals([]), {})

    def test_wrapped_calls_record_parents_and_ops(self):
        tracer = Tracer()
        inner = tracer.wrap("inner", lambda x: x + 1)
        outer = tracer.wrap("outer", lambda x: inner(inner(x)))
        tracer.op = 7
        self.assertEqual(outer(1), 3)
        names = [s[0] for s in tracer.spans]
        parents = [s[3] for s in tracer.spans]
        self.assertEqual(names, ["outer", "inner", "inner"])
        self.assertEqual(parents, [-1, 0, 0])
        self.assertTrue(all(s[4] == 7 for s in tracer.spans))
        calls, total, own = layer_totals(tracer.spans)["outer"]
        children = sum(s[2] - s[1] for s in tracer.spans[1:])
        self.assertEqual(calls, 1)
        self.assertAlmostEqual(own, total - children, places=12)

    def test_span_is_closed_when_the_call_raises(self):
        tracer = Tracer()

        def fail():
            raise ValueError("boom")

        with self.assertRaises(ValueError):
            tracer.wrap("fail", fail)()
        self.assertEqual(len(tracer.spans), 1)
        self.assertIsNotNone(tracer.spans[0])
        self.assertEqual(tracer._stack, [])


class PercentileTest(unittest.TestCase):
    def test_reported_only_with_ten_samples_beyond(self):
        self.assertIsNone(run.percentile(list(range(99)), 90))
        self.assertEqual(run.percentile(list(range(100)), 90), 89)
        self.assertIsNone(run.percentile(list(range(19)), 50))
        self.assertEqual(run.percentile(list(range(20)), 50), 9)
        self.assertIsNone(run.percentile([], 50))

    def test_order_of_samples_does_not_matter(self):
        samples = [float(x) for x in range(200)]
        self.assertEqual(run.percentile(samples[::-1], 90), 179.0)


class TracedOutputTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.wg = run.import_package()

    def sample_games(self):
        # one game of each Maker, Breaker and bias in the sweep, small boards
        items = run.sweep_inputs(self.wg, 0)
        wanted = ("n=20 connectivity/connectivity vs random",
                  "n=20 hamilton/hamilton vs camper",
                  "n=20 chase/connectivity vs delaying",
                  "n=20 connectivity/connectivity vs greedy",
                  "n=20 chase/connectivity vs isolating")
        return [next(i for i in items if i.label.startswith(w))
                for w in wanted]

    def test_traced_games_write_the_same_bytes(self):
        items = self.sample_games()
        plain = [run.play_game(self.wg, item) for item in items]
        tracer = Tracer()
        with tracer.installed(self.wg):
            traced = [run.play_game(self.wg, item) for item in items]
        for item, a, b in zip(items, plain, traced):
            self.assertIsNone(a.problem, item.label)
            self.assertEqual(a.output, b.output, item.label)
        names = {s[0] for s in tracer.spans}
        for layer in ("engine.apply_move", "engine.legal_moves",
                      "engine.degree_b", "monitors.observe",
                      "monitors.maker_edges_form_simple_path",
                      "strategies.maker", "strategies.breaker",
                      "transcript.dumps", "transcript.parse_transcript",
                      "runner.run_game", "runner.replay_transcript"):
            self.assertIn(layer, names)

    def test_traced_solve_gives_the_same_result(self):
        item = run.SolveItem("n=3", 3, 12, "connectivity",
                             self.wg.Player.MAKER, None)
        plain = run.run_solve(self.wg, item)
        tracer = Tracer()
        with tracer.installed(self.wg):
            traced = run.run_solve(self.wg, item)
        self.assertEqual(plain.output, traced.output)
        self.assertEqual(tracer.counts["oracle.solve.nodes"], plain.nodes)

    def test_originals_are_restored(self):
        wg = self.wg
        before = (wg.runner.apply_move, wg.engine.legal_moves,
                  wg.strategies.Policy.__call__,
                  wg.transcript.Transcript.dumps, wg.oracle.solve)
        with Tracer().installed(wg):
            self.assertIsNot(wg.runner.apply_move, before[0])
        after = (wg.runner.apply_move, wg.engine.legal_moves,
                 wg.strategies.Policy.__call__,
                 wg.transcript.Transcript.dumps, wg.oracle.solve)
        self.assertEqual(before, after)


class FrozenCorpusTest(unittest.TestCase):
    def test_golden_file_covers_the_default_sweep(self):
        wg = run.import_package()
        items = run.sweep_inputs(wg, 0)
        self.assertEqual(len(items), 113)
        self.assertTrue(all(item.frozen for item in items))
        self.assertEqual(len({item.label for item in items}), 113)


if __name__ == "__main__":
    unittest.main()
