"""Tests for the guarantee monitors: predicates, arming, gating, and
violation detection on synthetic deviant play."""
from __future__ import annotations

import pytest

from conftest import build_state, traversing_deviant_maker

from walkergames import monitors
from walkergames.engine import (
    Bias,
    Move,
    MoveKind,
    Player,
    apply_move,
    new_game,
)
from walkergames.monitors import (
    CHECK_NAMES,
    FIRST_VISIT_DEGREE_LIMIT,
    CheckStats,
    MonitorSuite,
    breaker_edges_all_touch_maker,
    maker_edges_form_simple_path,
    position_unvisited_degree,
    pursuit_move_limit,
    tainted_unvisited_count,
)
from walkergames.runner import GameConfig, run_game
from walkergames.strategies import make_policy


def _suite(n=20, maker="chase", bias=(1, 1), first=Player.BREAKER, **kw):
    return MonitorSuite(n, maker, Bias(*bias), first, **kw)


def _observe_maker_move(suite, before, move):
    after = apply_move(before, Player.MAKER, move)
    suite.observe(before, move, after)
    return after


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
        assert pursuit_move_limit("chase", 20) == 17
        assert pursuit_move_limit("connectivity", 20) == 16
        assert pursuit_move_limit("hamilton", 20) == 16


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
        assert _suite(enabled=False).armed is False

    def test_dormant_suite_records_nothing(self):
        suite = _suite(maker="random")
        state = new_game(20, Bias(1, 1), Player.BREAKER)
        after = apply_move(state, Player.BREAKER, Move.place(3, 7))
        suite.observe(state, Move.place(3, 7), after)
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
        assert suite.first_violation()[0] == "breaker_edges_touch_maker"
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
        after = apply_move(before, Player.BREAKER, Move.claim(1))
        suite.observe(before, Move.claim(1), after)
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
        after = apply_move(before, Player.BREAKER, Move.claim(1))
        suite.observe(before, Move.claim(1), after)
        assert suite.checks["prereply_unvisited_degree"].violations == 1

    def test_prereply_degree_two_allowed_after_round_ending_there(self):
        suite = _suite()
        # A completed round with the opponent ending at 2 licenses a
        # later pre-reply degree of exactly 2 from seat 2.
        round_end = build_state(20, maker_edges=[(0, 1)],
                                breaker_edges=[(2, 7)],
                                maker_pos=1, breaker_pos=2,
                                to_move=Player.MAKER)
        after = _observe_maker_move(suite, round_end, Move.claim(2))
        assert suite._prev_round_breaker_end == 2

        before = build_state(20, maker_edges=[(0, 1), (1, 2)],
                             breaker_edges=[(2, 7)],
                             maker_pos=2, breaker_pos=8,
                             to_move=Player.BREAKER, round=2)
        after = apply_move(before, Player.BREAKER, Move.claim(2))
        suite.observe(before, Move.claim(2), after)
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
        before = build_state(20, maker_edges=[(0, 1), (1, 2)],
                             maker_pos=1, breaker_pos=5, to_move=Player.MAKER)
        _observe_maker_move(suite, before, Move.claim(7))
        stats = suite.checks["path_shape"]
        assert stats.violations == 1
        assert "simple path" in stats.detail

    def test_pass_entries_are_indexed(self):
        suite = _suite()
        state = build_state(20, maker_edges=[(0, 1)], maker_pos=1,
                            breaker_pos=5, to_move=Player.MAKER)
        suite.observe(state, Move.claim(2),
                      apply_move(state, Player.MAKER, Move.claim(2)))
        suite.observe(state, Move.pass_(), state)
        assert suite.pass_entries == [1]


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
        after = apply_move(state, Player.BREAKER, Move.place(3, 7))
        suite.observe(state, Move.place(3, 7), after)
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
        after = apply_move(before, Player.BREAKER, Move.claim(19))
        suite.observe(before, Move.claim(19), after)
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



class TestIncrementalPathShape:
    """``path_shape`` keeps the Maker's path incrementally; its verdicts
    must be those of the full predicate on every evaluated move."""

    def _count_fallbacks(self, monkeypatch) -> list:
        calls = []

        def counted(state):
            calls.append(state.maker_moves)
            return maker_edges_form_simple_path(state)
        monkeypatch.setattr(monitors, "maker_edges_form_simple_path", counted)
        return calls

    def test_matches_full_predicate_in_random_play(self, monkeypatch):
        fallbacks = self._count_fallbacks(monkeypatch)
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
                after = apply_move(state, player, move)
                suite.observe(state, move, after)
                maker_moved = (player is Player.MAKER
                               and move.kind is not MoveKind.PASS)
                if maker_moved and after.maker_moves > window:
                    reference.miss()
                elif maker_moved:
                    reference.hit()
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
        # The sample must reach the moves the constant-time check does
        # not accept: traversals, which break one edge per move, and
        # claims that branch or close the path, which the full
        # predicate decides.
        assert traversals > 0
        assert shape_breaks > 0
        assert len(fallbacks) >= shape_breaks

    def test_honest_pursuit_never_falls_back(self, monkeypatch):
        fallbacks = self._count_fallbacks(monkeypatch)
        result = run_game(GameConfig(n=24, maker="connectivity",
                                     breaker="greedy", seed=3))
        assert result.monitor_report["checks"]["path_shape"]["evaluated"] > 0
        assert fallbacks == []


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
