"""Tests for the guarantee monitors: predicates, arming, gating, and
violation detection on synthetic deviant play."""
from __future__ import annotations

import itertools
import random

import pytest

from conftest import (
    build_state,
    random_maker_states,
    successor,
    traversing_deviant_maker,
)

from walkergames.engine import (
    Bias,
    Move,
    MoveKind,
    Player,
    apply_move,
    degree_b,
    legal_moves,
    new_game,
)
from walkergames.monitors import (
    CHECK_NAMES,
    FIRST_VISIT_DEGREE_LIMIT,
    CheckStats,
    MonitorSuite,
    breaker_edges_all_touch_maker,
    first_visited,
    maker_edges_form_simple_path,
    position_unvisited_degree,
    tainted_unvisited_count,
)
from walkergames.runner import GameConfig, _record_fields, run_game
from walkergames.strategies import MAKERS, make_policy
from walkergames.transcript import Header, MoveRecord


def _suite(n=20, maker="chase", bias=(1, 1), first=Player.BREAKER, n0=20,
           monitors=True):
    return MonitorSuite(Header(
        n=n, bias=bias, first_player=first.value, maker=maker,
        breaker="random", goal="connectivity", seed=0, move_cap=10 * n,
        n0=n0, monitors=monitors, strict=False))


def _observe(suite, before, player, move, index=0):
    """Play ``move`` on a copy of ``before``, feed the suite its record
    and the state it left, and return that state."""
    after = successor(before, player, move)
    rnd, name, origin, target = _record_fields(before, player, move)
    suite.observe(MoveRecord(index, rnd, name, move.kind.value, origin,
                             target), after)
    return after


def _observe_maker_move(suite, before, move):
    return _observe(suite, before, Player.MAKER, move)


class TestPredicates:
    def test_untouched_breaker_edge_is_reported(self):
        state = build_state(10, maker_edges=[(0, 1)],
                            breaker_edges=[(0, 2), (5, 6)],
                            maker_pos=1, breaker_pos=6)
        assert breaker_edges_all_touch_maker(state) == (5, 6)

    def test_touching_breaker_edges_pass(self):
        state = build_state(10, maker_edges=[(0, 1), (1, 2)],
                            breaker_edges=[(0, 5), (2, 6)],
                            maker_pos=2, breaker_pos=6)
        assert breaker_edges_all_touch_maker(state) is None

    def test_position_degree_counts_only_unvisited(self):
        state = build_state(10, maker_edges=[(0, 1), (1, 2)],
                            breaker_edges=[(2, 0), (2, 5), (2, 6)],
                            maker_pos=2, breaker_pos=6)
        # Edges 2-5 and 2-6 aim at unvisited vertices; 2-0 does not.
        assert position_unvisited_degree(state) == 2

    def test_tainted_count(self):
        state = build_state(10, maker_edges=[(0, 1)],
                            breaker_edges=[(0, 5), (6, 7)],
                            maker_pos=1, breaker_pos=7)
        assert tainted_unvisited_count(state) == 3

    @pytest.mark.parametrize("edges,ok", [
        ([], True),
        ([(0, 1)], True),
        ([(0, 1), (1, 2), (2, 3)], True),
        ([(0, 1), (1, 2), (1, 3)], False),          # branch at 1
        ([(0, 1), (1, 2), (2, 0)], False),          # cycle, no endpoints
        ([(0, 1), (1, 2), (4, 5)], False),          # two components
    ])
    def test_simple_path_recognition(self, edges, ok):
        state = build_state(8, maker_edges=edges,
                            maker_pos=edges[-1][1] if edges else None)
        assert maker_edges_form_simple_path(state) is ok

    def test_pursuit_window_lengths(self):
        assert 20 - MAKERS["chase"].pursuit_left == 17
        assert 20 - MAKERS["connectivity"].pursuit_left == 16
        assert 20 - MAKERS["hamilton"].pursuit_left == 16


class TestArming:
    def test_armed_in_the_covered_setting(self):
        assert _suite().armed is True

    @pytest.mark.parametrize("kw", [
        dict(maker="random"),
        dict(bias=(1, 2)),
        dict(first=Player.MAKER),
        dict(n=19),
    ])
    def test_uncovered_settings_stay_dormant(self, kw):
        base = dict(n=20, maker="chase", bias=(1, 1), first=Player.BREAKER)
        base.update(kw)
        suite = _suite(**base)
        assert suite.armed is False

    def test_disabled_suite_is_dormant(self):
        assert _suite(monitors=False).armed is False

    def test_dormant_suite_records_nothing(self):
        suite = _suite(maker="random")
        state = new_game(20, Bias(1, 1), Player.BREAKER)
        _observe(suite, state, Player.BREAKER, Move.place(3, 7))
        report = suite.report()
        assert report["armed"] is False
        assert report["clean"] is True
        for name in CHECK_NAMES:
            assert report["checks"][name]["evaluated"] == 0


class TestViolationDetection:
    def test_untouched_breaker_edge_flagged_at_round_end(self):
        suite = _suite()
        before = build_state(20, maker_edges=[(0, 1)], breaker_edges=[(5, 6)],
                             maker_pos=1, breaker_pos=6, to_move=Player.MAKER)
        _observe_maker_move(suite, before, Move.claim(2))
        stats = suite.checks["breaker_edges_touch_maker"]
        assert stats.violations == 1
        assert stats.first_violation_round == 2
        assert suite.report()["clean"] is False

    def test_position_degree_flagged_at_round_end(self):
        suite = _suite()
        before = build_state(20, maker_edges=[(0, 1)],
                             breaker_edges=[(2, 7), (2, 8)],
                             maker_pos=1, breaker_pos=8, to_move=Player.MAKER)
        _observe_maker_move(suite, before, Move.claim(2))
        assert suite.checks["position_unvisited_degree"].violations == 1

    def test_prereply_degree_over_two_flagged(self):
        suite = _suite()
        before = build_state(20, maker_edges=[(0, 1)],
                             breaker_edges=[(1, 5), (1, 6)],
                             maker_pos=1, breaker_pos=7,
                             to_move=Player.BREAKER)
        _observe(suite, before, Player.BREAKER, Move.claim(1))
        stats = suite.checks["prereply_unvisited_degree"]
        assert stats.evaluated == 1
        assert stats.violations == 1

    def test_prereply_degree_two_needs_opponent_parked_there(self):
        suite = _suite()
        # No recorded round end at the Maker's seat: degree 2 violates.
        before = build_state(20, maker_edges=[(0, 1)],
                             breaker_edges=[(1, 5)],
                             maker_pos=1, breaker_pos=6,
                             to_move=Player.BREAKER)
        _observe(suite, before, Player.BREAKER, Move.claim(1))
        assert suite.checks["prereply_unvisited_degree"].violations == 1

    def test_prereply_degree_two_allowed_after_round_ending_there(self):
        suite = _suite()
        # A completed round with the opponent ending at 2 licenses a
        # later pre-reply degree of exactly 2 from seat 2.
        round_end = build_state(20, maker_edges=[(0, 1)],
                                breaker_edges=[(2, 7)],
                                maker_pos=1, breaker_pos=2,
                                to_move=Player.MAKER)
        _observe_maker_move(suite, round_end, Move.claim(2))
        assert suite._prev_round_breaker_end == 2

        before = build_state(20, maker_edges=[(0, 1), (1, 2)],
                             breaker_edges=[(2, 7)],
                             maker_pos=2, breaker_pos=8,
                             to_move=Player.BREAKER, round=2)
        _observe(suite, before, Player.BREAKER, Move.claim(2))
        stats = suite.checks["prereply_unvisited_degree"]
        assert stats.violations == 0
        assert stats.evaluated == 1

    def test_tainted_limit_flagged_at_round_end(self):
        suite = _suite()
        before = build_state(20, maker_edges=[(0, 1)],
                             breaker_edges=[(5, 6), (7, 8)],
                             maker_pos=1, breaker_pos=8, to_move=Player.MAKER)
        _observe_maker_move(suite, before, Move.claim(2))
        assert suite.checks["tainted_unvisited_limit"].violations == 1

    def test_first_visit_degree_flagged_and_tracked(self):
        suite = _suite()
        hub_edges = [(9, k) for k in range(10, 17)]
        before = build_state(20, maker_edges=[(0, 1)], breaker_edges=hub_edges,
                             maker_pos=1, breaker_pos=16, to_move=Player.MAKER)
        _observe_maker_move(suite, before, Move.claim(9))
        stats = suite.checks["first_visit_degree"]
        assert stats.violations == 1
        assert suite.max_first_visit_degree == 7
        assert suite.max_first_visit_degree > FIRST_VISIT_DEGREE_LIMIT

    def test_traversal_in_window_breaks_one_edge_per_move(self):
        suite = _suite()
        before = build_state(20, maker_edges=[(0, 1)],
                             maker_pos=1, breaker_pos=5, to_move=Player.MAKER)
        _observe_maker_move(suite, before, Move.traverse(0))
        stats = suite.checks["path_shape"]
        assert stats.violations == 1
        assert "not one per move" in stats.detail

    def test_branching_claim_breaks_path_shape(self):
        suite = _suite()
        before = build_state(20, maker_edges=[(0, 1), (1, 2), (2, 3)],
                             maker_pos=3, breaker_pos=5, to_move=Player.MAKER)
        _observe_maker_move(suite, before, Move.claim(1))
        stats = suite.checks["path_shape"]
        assert stats.violations == 1
        assert "simple path" in stats.detail

    def test_pass_entries_are_indexed(self):
        # The records start at index 5, so a suite that counted its own
        # calls would list other entries.
        suite = _suite()
        state = build_state(20, maker_edges=[(0, 1)], maker_pos=1,
                            breaker_pos=5, to_move=Player.MAKER)
        _observe(suite, state, Player.MAKER, Move.claim(2), index=5)
        for index in (6, 7):
            suite.observe(MoveRecord(index, state.round, "maker", "pass",
                                     state.maker_pos, None), state)
        assert suite.report()["pass_entries"] == [6, 7]


class TestGatingInstants:
    def test_round_end_checks_skip_small_remainders(self):
        suite = _suite()
        # Two unvisited vertices: the endgame is underway, round-end
        # checks must skip rather than evaluate.
        edges = [(i, i + 1) for i in range(17)]
        before = build_state(20, maker_edges=edges, breaker_edges=[(18, 19)],
                             maker_pos=17, breaker_pos=19, to_move=Player.MAKER)
        _observe_maker_move(suite, before, Move.claim(18))
        for name in ("breaker_edges_touch_maker", "position_unvisited_degree",
                     "tainted_unvisited_limit"):
            assert suite.checks[name].evaluated == 0
            assert suite.checks[name].skipped == 1
            assert suite.checks[name].violations == 0

    def test_prereply_skips_first_round(self):
        suite = _suite()
        state = new_game(20, Bias(1, 1), Player.BREAKER)
        _observe(suite, state, Player.BREAKER, Move.place(3, 7))
        stats = suite.checks["prereply_unvisited_degree"]
        assert stats.evaluated == 0
        assert stats.skipped == 1

    def test_prereply_skips_after_pursuit_phase(self):
        suite = _suite(maker="connectivity")
        # Maker has made 17 moves: beyond the connectivity pursuit
        # window of n-4 = 16.
        edges = [(i, i + 1) for i in range(17)]
        before = build_state(20, maker_edges=edges, maker_pos=17,
                             breaker_pos=5, to_move=Player.BREAKER, round=3)
        _observe(suite, before, Player.BREAKER, Move.claim(19))
        stats = suite.checks["prereply_unvisited_degree"]
        assert stats.evaluated == 0
        assert stats.skipped == 1

    def test_first_visit_outside_window_skips(self):
        suite = _suite()
        edges = [(i, i + 1) for i in range(17)]
        before = build_state(20, maker_edges=edges, maker_pos=17,
                             breaker_pos=5, to_move=Player.MAKER)
        # Move 18 > n-3 = 17: visits no longer evaluated.
        _observe_maker_move(suite, before, Move.claim(18))
        assert suite.checks["first_visit_degree"].evaluated == 0
        assert suite.checks["first_visit_degree"].skipped == 1
        assert suite.checks["path_shape"].skipped == 1



def _scan_untouched_breaker_edge(state):
    """Reference: the first Breaker edge with both ends unvisited."""
    for a, b in state.breaker_edges:
        if a in state.unvisited and b in state.unvisited:
            return (a, b)
    return None


class TestTaintedShortcut:
    """``breaker_edges_all_touch_maker`` skips its scan when fewer than
    two unvisited vertices touch Breaker edges; it must return what the
    full scan returns."""

    def test_single_tainted_vertex_has_no_untouched_edge(self):
        state = build_state(10, maker_edges=[(0, 1)],
                            breaker_edges=[(0, 5), (1, 5)], maker_pos=1,
                            breaker_pos=5)
        assert tainted_unvisited_count(state) == 1
        assert breaker_edges_all_touch_maker(state) is None

    def test_two_tainted_vertices_are_scanned(self):
        apart = build_state(10, maker_edges=[(0, 1), (1, 2)],
                            breaker_edges=[(0, 5), (2, 3)],
                            maker_pos=2, breaker_pos=3)
        joined = build_state(10, maker_edges=[(0, 1), (1, 2)],
                             breaker_edges=[(0, 5), (5, 3)],
                             maker_pos=2, breaker_pos=3)
        assert tainted_unvisited_count(apart) == 2
        assert breaker_edges_all_touch_maker(apart) is None
        assert breaker_edges_all_touch_maker(joined) == (3, 5)

    @pytest.mark.parametrize("breaker", ["random", "greedy"])
    @pytest.mark.parametrize("bias", [(1, 1), (1, 2), (2, 1)])
    @pytest.mark.parametrize("first", list(Player))
    def test_matches_full_scan_along_played_games(self, breaker, bias, first):
        found = 0
        for state in random_maker_states(breaker, bias, first):
            expected = _scan_untouched_breaker_edge(state)
            found += expected is not None
            assert breaker_edges_all_touch_maker(state) == expected
        assert found > 0


class TestMoveDerivation:
    """``observe`` reads the mover and the round before the move from the
    move's record, and ``first_visited`` reads the vertices a Maker move
    first visited from the state after it. In the setting the suite arms
    for, (1:1) with the Breaker first, these must be what the state
    before gives."""

    @pytest.mark.parametrize("n", [20, 30])
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_the_state_before_each_move(self, n, seed):
        rng = random.Random(seed)
        state = new_game(n, Bias(1, 1), Player.BREAKER)
        kinds = set()
        for _ in range(4 * n):
            before = state.copy()
            move = rng.choice(legal_moves(state, state.to_move))
            rnd, name, _, _ = _record_fields(state, before.to_move, move)
            apply_move(state, before.to_move, move)
            assert name == before.to_move.value
            assert rnd == before.round
            if before.to_move is not Player.MAKER:
                continue
            visited = first_visited(state, move.kind.value)
            assert sorted(visited) == sorted(before.unvisited
                                             - state.unvisited)
            kinds.add((move.kind, len(visited)))
        # Placements visit two vertices, claims one or none, traversals none.
        assert {(MoveKind.PLACE, 2), (MoveKind.CLAIM, 1), (MoveKind.CLAIM, 0),
                (MoveKind.TRAVERSE, 0)} <= kinds


class TestIncrementalPathShape:
    """``path_shape`` decides the Maker's path by counting the vertices
    her walk has visited; its verdicts must be those of the full
    predicate on every evaluated move."""

    def test_matches_full_predicate_in_random_play(self):
        n = 20
        window = n - 3
        traversals = shape_breaks = 0
        for seed in range(30):
            # Armed on the Maker id alone; the moves come from random play.
            suite = _suite(n=n, maker="chase")
            reference = CheckStats()
            maker = make_policy(Player.MAKER, "random", seed)
            breaker = make_policy(Player.BREAKER, "random", seed)
            state = new_game(n, Bias(1, 1), Player.BREAKER)
            while state.maker_moves < window + 2:
                player = state.to_move
                move = (maker if player is Player.MAKER else breaker)(state)
                after = _observe(suite, state, player, move)
                maker_moved = (player is Player.MAKER
                               and move.kind is not MoveKind.PASS)
                if maker_moved and after.maker_moves > window:
                    reference.skipped += 1
                elif maker_moved:
                    reference.evaluated += 1
                    traversals += move.kind is MoveKind.TRAVERSE
                    if len(after.maker_edges) != after.maker_moves:
                        reference.violate(state.round + 1, "count")
                    elif not maker_edges_form_simple_path(after):
                        shape_breaks += 1
                        reference.violate(state.round + 1, "shape")
                state = after
            got = suite.checks["path_shape"]
            assert ((got.evaluated, got.skipped, got.violations,
                     got.first_violation_round)
                    == (reference.evaluated, reference.skipped,
                        reference.violations, reference.first_violation_round))
        # The sample must reach both kinds of violation: traversals,
        # which break one edge per move, and claims that branch or close
        # the path, which the vertex count must catch.
        assert traversals > 0
        assert shape_breaks > 0


class ReferenceSuite(MonitorSuite):
    """The suite's checks as three methods that call the standalone
    predicates, one check at a time: the form ``MonitorSuite.observe``
    was flattened from. ``TestFlatObserve`` holds the two to the same
    counts."""

    def observe(self, record, state):
        if not self.armed:
            return
        kind = record.kind
        if kind == "pass":
            self.pass_entries.append(record.index)
        if record.player == "breaker":
            self._prereply_check(state, record.round)
            return
        round_1b = record.round + 1
        if kind != "pass":
            self._maker_move_checks(state, round_1b, kind)
        self._round_completed_checks(state, round_1b)

    def _maker_move_checks(self, state, round_1b, kind):
        in_pursuit_window = state.maker_moves <= self.header.n - 3
        stats = self.checks["first_visit_degree"]
        for v in first_visited(state, kind):
            if not in_pursuit_window:
                stats.skipped += 1
                continue
            stats.evaluated += 1
            d = degree_b(state, v)
            if (self.max_first_visit_degree is None
                    or d > self.max_first_visit_degree):
                self.max_first_visit_degree = d
            if d > FIRST_VISIT_DEGREE_LIMIT:
                self._violate(
                    stats, round_1b,
                    f"vertex {v} first visited with opponent degree {d}")

        stats = self.checks["path_shape"]
        if not in_pursuit_window:
            stats.skipped += 1
            return
        stats.evaluated += 1
        if len(state.maker_edges) != state.maker_moves:
            self._violate(
                stats, round_1b,
                f"move {state.maker_moves} left {len(state.maker_edges)} "
                "claimed edges, not one per move")
        elif state.n - len(state.unvisited) != state.maker_moves + 1:
            self._violate(
                stats, round_1b,
                f"claimed edges after move {state.maker_moves} do not form "
                "a simple path")

    def _prereply_check(self, state, round_before):
        stats = self.checks["prereply_unvisited_degree"]
        if (state.maker_pos is None
                or len(state.unvisited) < 2
                or state.maker_moves > self._pursuit_limit
                or round_before < 1):
            stats.skipped += 1
            return
        stats.evaluated += 1
        w = state.maker_pos
        d = position_unvisited_degree(state)
        if d > 2:
            self._violate(
                stats, round_before + 1,
                f"degree {d} from position {w} into the unvisited set "
                "before the reply")
        elif d == 2 and self._prev_round_breaker_end != w:
            self._violate(
                stats, round_before + 1,
                f"degree 2 from position {w} but the previous round ended "
                f"with the opponent at {self._prev_round_breaker_end}")

    def _round_completed_checks(self, state, round_1b):
        gate = len(state.unvisited) > 2

        stats = self.checks["breaker_edges_touch_maker"]
        if gate:
            stats.evaluated += 1
            bad = breaker_edges_all_touch_maker(state)
            if bad is not None:
                self._violate(
                    stats, round_1b,
                    f"opponent edge {bad} has both endpoints unvisited")
        else:
            stats.skipped += 1

        stats = self.checks["position_unvisited_degree"]
        if gate and state.maker_pos is not None:
            stats.evaluated += 1
            d = position_unvisited_degree(state)
            if d > 1:
                self._violate(
                    stats, round_1b,
                    f"degree {d} from position {state.maker_pos} into the "
                    "unvisited set at round end")
        else:
            stats.skipped += 1

        stats = self.checks["tainted_unvisited_limit"]
        if gate:
            stats.evaluated += 1
            t = tainted_unvisited_count(state)
            if t > 2:
                self._violate(
                    stats, round_1b,
                    f"{t} unvisited vertices touch opponent edges")
        else:
            stats.skipped += 1

        self._prev_round_breaker_end = state.breaker_pos


def _tally(suite):
    """Everything a suite has scored so far."""
    return ({name: vars(stats) for name, stats in suite.checks.items()},
            suite.max_first_visit_degree, suite.pass_entries,
            suite.has_violations())


class TestFlatObserve:
    """``MonitorSuite.observe`` states every check inline; after every
    move it must have scored what ``ReferenceSuite`` scores. A random
    Maker judged as pursuit breaches every check, so this reaches the
    violation paths that honest games never do. The greedy Breaker,
    which claims from one seat, builds the Breaker degree that the
    ``first_visit_degree`` check rejects."""

    def test_matches_the_reference_after_every_move(self):
        seen = {name: [0, 0, 0] for name in CHECK_NAMES}
        for n, seed in itertools.product((20, 24, 30), range(9)):
            # Armed on the Maker id alone; the moves come from the policies.
            maker_id = ("chase", "connectivity", "hamilton")[seed % 3]
            breaker_id = ("random", "greedy", "camper")[seed // 3]
            suite = _suite(n=n, maker=maker_id)
            reference = ReferenceSuite(suite.header)
            assert suite.armed
            maker = make_policy(Player.MAKER, "random", seed)
            breaker = make_policy(Player.BREAKER, breaker_id, seed)
            state = new_game(n, Bias(1, 1), Player.BREAKER)
            for index in range(6 * n):
                player = state.to_move
                move = (maker if player is Player.MAKER else breaker)(state)
                rnd, name, origin, target = _record_fields(state, player,
                                                           move)
                record = MoveRecord(index, rnd, name, move.kind.value,
                                    origin, target)
                apply_move(state, player, move)
                suite.observe(record, state)
                reference.observe(record, state)
                assert _tally(suite) == _tally(reference), (n, seed, index)
            for name, stats in suite.checks.items():
                for i, count in enumerate((stats.evaluated, stats.skipped,
                                           stats.violations)):
                    seen[name][i] += count
        # Every check was evaluated, skipped and breached in the sample.
        assert all(all(counts) for counts in seen.values()), seen


class TestViolationCount:
    """The suite keeps a running violation count, so ``has_violations``
    reads one number; after every move it must agree with the checks."""

    GAMES = [
        # (label, config, a factory for the Maker's policy, or None for
        # the configured one)
        ("clean", GameConfig(n=24, maker="connectivity", breaker="greedy",
                             seed=11), None),
        ("deviant", GameConfig(n=20, maker="chase", breaker="random",
                               seed=4, move_cap=30),
         traversing_deviant_maker),
        # Random play judged as pursuit breaks several checks.
        ("random-as-chase", GameConfig(n=20, maker="chase",
                                       breaker="random", seed=3),
         lambda: make_policy(Player.MAKER, "random", 3)),
    ]

    @pytest.mark.parametrize("label,config,maker", GAMES,
                             ids=[g[0] for g in GAMES])
    def test_count_agrees_with_the_checks_after_every_move(
            self, label, config, maker, monkeypatch):
        real = MonitorSuite.observe
        seen = []

        def observe(suite, record, state):
            real(suite, record, state)
            seen.append((suite.has_violations(),
                         any(s.violations for s in suite.checks.values())))

        monkeypatch.setattr(MonitorSuite, "observe", observe)
        policies = None
        if maker is not None:
            policies = (maker(), make_policy(Player.BREAKER, config.breaker,
                                             config.seed))
        result = run_game(config, policies=policies)
        assert seen and all(fast == full for fast, full in seen)
        violated = {fast for fast, _ in seen}
        if label == "clean":
            assert violated == {False}
            assert result.monitor_report["clean"] is True
        else:
            assert violated == {False, True}
            assert result.monitor_report["clean"] is False
            kinds = sum(1 for c in result.monitor_report["checks"].values()
                        if c["violations"])
            assert kinds >= (2 if label == "random-as-chase" else 1)


class TestRunnerIntegration:
    def test_honest_games_are_clean_and_exercised(self):
        for maker, goal in (("connectivity", "connectivity"),
                            ("hamilton", "hamilton")):
            for breaker in ("random", "greedy", "camper"):
                config = GameConfig(n=24, maker=maker, breaker=breaker,
                                    goal=goal, seed=11)
                result = run_game(config)
                assert result.winner == "maker"
                report = result.monitor_report
                assert report["armed"] is True
                assert report["clean"] is True
                for name in CHECK_NAMES:
                    assert report["checks"][name]["evaluated"] > 0, (
                        f"{name} never evaluated vs {breaker}")

    def test_deviant_maker_is_caught(self):
        config = GameConfig(n=20, maker="chase", breaker="random", seed=4,
                            move_cap=30)
        deviant = traversing_deviant_maker()
        breaker = make_policy(Player.BREAKER, "random", 4)
        result = run_game(config, policies=(deviant, breaker))
        report = result.monitor_report
        assert report["clean"] is False
        assert report["checks"]["path_shape"]["violations"] > 0

    def test_strict_mode_stops_at_first_violation(self):
        config = GameConfig(n=20, maker="chase", breaker="random", seed=4,
                            move_cap=300, strict=True)
        deviant = traversing_deviant_maker()
        breaker = make_policy(Player.BREAKER, "random", 4)
        result = run_game(config, policies=(deviant, breaker))
        assert result.winner == "none"
        assert result.reason == "monitor"
        # Aborted immediately: the Maker made the offending move and no
        # more.
        assert result.final_state.maker_moves == 2

    def test_unmonitored_run_reports_nothing(self):
        config = GameConfig(n=20, maker="connectivity", breaker="random",
                            seed=2, monitors=False)
        result = run_game(config)
        assert result.monitor_report is None
        assert result.winner == "maker"
