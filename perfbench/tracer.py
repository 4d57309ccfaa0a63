"""Span tracing of the walkergames layers, installed from outside the package.

``Tracer.installed(wg)`` replaces a fixed set of module globals and
class attributes of an imported ``walkergames`` package with wrappers
that record one span per call, and restores the originals on exit.
Nothing inside the package changes, and nothing is traced outside the
``with`` block.

A span is the tuple (name, start, end, parent, op): the layer name, its
``perf_counter`` interval, the index of the enclosing span (-1 at top
level) and the id of the game or solve it belongs to. Spans stay in
memory; ``layer_totals`` folds them into calls, total time and self
time per layer, where self time is a span's duration minus the time its
direct children cover.

Wrappers are never handed to ``run_game(policies=...)``: the policy
layer is traced by patching ``Policy.__call__`` on the class, so
``run_game`` still builds and inspects its own policies.
"""
from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(int)   # counters kept beside the spans
        self.op = -1                           # id stamped on new spans
        self._stack: list = []

    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(int)
        self._stack.clear()

    def wrap(self, name: str, fn, count=None):
        """``fn`` recorded as span ``name``; ``count(counts, args, result)``
        may add counters after each call that returns."""
        stack = self._stack

        def traced(*args, **kwargs):
            spans = self.spans
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    @contextmanager
    def installed(self, wg):
        """Trace the layers of the imported package ``wg`` inside the block."""
        engine, strategies, monitors = wg.engine, wg.strategies, wg.monitors
        runner, transcript, oracle = wg.runner, wg.transcript, wg.oracle
        targets = [
            (runner, "apply_move", "engine.apply_move", None),
            (engine, "legal_moves", "engine.legal_moves", _count_generated),
            (strategies, "legal_moves", "engine.legal_moves", _count_generated),
            (strategies, "degree_b", "engine.degree_b", None),
            (monitors, "degree_b", "engine.degree_b", None),
            (monitors, "breaker_edges_all_touch_maker",
             "monitors.breaker_edges_all_touch_maker", None),
            (monitors, "position_unvisited_degree",
             "monitors.position_unvisited_degree", None),
            (monitors, "tainted_unvisited_count",
             "monitors.tainted_unvisited_count", None),
            (monitors, "maker_edges_form_simple_path",
             "monitors.maker_edges_form_simple_path", None),
            (monitors.MonitorSuite, "observe", "monitors.observe", None),
            (transcript.Transcript, "dumps", "transcript.dumps",
             _count_dumped_bytes),
            (transcript, "parse_transcript", "transcript.parse_transcript",
             _count_parsed_bytes),
            (runner, "run_game", "runner.run_game", None),
            (runner, "replay_transcript", "runner.replay_transcript", None),
            (oracle, "solve", "oracle.solve", _count_nodes),
            (oracle, "cross_validate", "oracle.cross_validate", None),
        ]
        saved = []
        try:
            for owner, attr, name, count in targets:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, count))
            policy = strategies.Policy
            original = policy.__dict__["__call__"]
            saved.append((policy, "__call__", original))
            setattr(policy, "__call__",
                    self._policy_call(original, engine.Player.MAKER))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _policy_call(self, original, maker):
        """``Policy.__call__`` traced as strategies.maker or
        strategies.breaker, by the policy's player."""
        as_maker = self.wrap("strategies.maker", original)
        as_breaker = self.wrap("strategies.breaker", original)

        def __call__(policy, state):
            if policy.player is maker:
                return as_maker(policy, state)
            return as_breaker(policy, state)

        return __call__


def _count_generated(counts, args, result):
    counts["engine.legal_moves.generated"] += len(result)


def _count_dumped_bytes(counts, args, result):
    counts["transcript.dumps.bytes"] += len(result.encode())


def _count_parsed_bytes(counts, args, result):
    counts["transcript.parse_transcript.bytes"] += len(args[0].encode())


def _count_nodes(counts, args, result):
    counts["oracle.solve.nodes"] += result.nodes


def layer_totals(spans) -> dict:
    """{name: (calls, total_s, self_s)} over a list of spans."""
    child_s = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    calls: dict = defaultdict(int)
    total: dict = defaultdict(float)
    own: dict = defaultdict(float)
    for index, (name, start, end, _, _) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        own[name] += end - start - child_s[index]
    return {name: (calls[name], total[name], own[name]) for name in calls}
