"""Unit and property tests for the Maker and Breaker policies."""
from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    all_candidate_moves,
    build_state,
    pass_only_states,
    random_maker_states,
    random_playout_states,
    recomputed_breaker_touched,
    recomputed_degrees,
)

from walkergames import cli, strategies
from walkergames.engine import (
    BREAKER_OWNED,
    FREE,
    MAKER_OWNED,
    Bias,
    GameState,
    IllegalMoveError,
    Move,
    MoveKind,
    Player,
    apply_move,
    connectivity_won,
    degree_b,
    legal_moves,
    new_game,
)
from walkergames.monitors import maker_edges_form_simple_path
from walkergames.runner import (
    GameConfig,
    _move_from_record,
    replay_transcript,
    run_game,
)
from walkergames.strategies import (
    BREAKER_IDS,
    MAKER_IDS,
    MAKERS,
    ScriptError,
    StrategyAssertionError,
    StrategyMemory,
    _best_unvisited_target,
    camper_breaker_move,
    chase_move,
    connectivity_maker_move,
    delaying_breaker_move,
    find_free_triple,
    find_pivot,
    greedy_breaker_move,
    hamilton_maker_move,
    isolating_breaker2_move,
    make_policy,
    moves_to_script,
    parse_script,
    random_walker_move,
    script_line,
    scripted_move,
)


def _played(n, *moves, bias=(1, 1), first=Player.BREAKER):
    state = new_game(n, Bias(*bias), first)
    for mv in moves:
        apply_move(state, state.to_move, mv)
    return state


class TestChaseOpening:
    def test_opens_where_opponent_ended(self):
        # Breaker's placement ends at 7; partner is the lowest vertex of
        # opponent degree zero.
        state = _played(10, Move.place(3, 7))
        mem = StrategyMemory()
        assert chase_move(state, mem) == Move.place(7, 0)
        assert mem.path_order == [7, 0]

    def test_partner_skips_opponent_degree(self):
        # Vertex 0 carries a Breaker edge, so the partner is 1.
        state = _played(10, Move.place(0, 7))
        mem = StrategyMemory()
        assert chase_move(state, mem) == Move.place(7, 1)

    def test_maker_first_default_opening(self):
        state = new_game(8, Bias(1, 1), Player.MAKER)
        mem = StrategyMemory()
        assert chase_move(state, mem) == Move.place(0, 1)
        assert mem.path_order[0] == 0

    def test_walled_start_takes_the_first_legal_placement(self):
        # At (1:5) the Breaker ends his first turn on 0 owning every edge
        # there, so no placement can start where he stands.
        state = _played(4, Move.place(1, 0), Move.claim(2), Move.traverse(0),
                        Move.claim(3), Move.traverse(0), bias=(1, 5))
        assert state.to_move is Player.MAKER and state.breaker_pos == 0
        mem = StrategyMemory()
        assert connectivity_maker_move(state, mem) == Move.place(1, 2)
        assert mem.path_order == [1, 2]


class TestChasePriorities:
    def test_rule1_prefers_larger_opponent_degree(self):
        # Breaker edge 2-3 sits inside the unvisited set; degree 2 > 1.
        state = build_state(
            10,
            maker_edges=[(0, 9)],
            breaker_edges=[(2, 5), (2, 3)],
            maker_pos=0,
            breaker_pos=3,
        )
        mem = StrategyMemory()
        assert chase_move(state, mem) == Move.claim(2)

    def test_rule1_equal_degrees_take_lowest(self):
        state = build_state(
            10,
            maker_edges=[(0, 9)],
            breaker_edges=[(4, 6)],
            maker_pos=0,
            breaker_pos=6,
        )
        mem = StrategyMemory()
        assert chase_move(state, mem) == Move.claim(4)

    def test_rule1_takes_the_free_endpoint(self):
        # w-2 is the Breaker's, so the claim lands on 3 despite its
        # smaller opponent degree.
        state = build_state(
            10,
            maker_edges=[(0, 9)],
            breaker_edges=[(0, 2), (2, 3)],
            maker_pos=0,
            breaker_pos=3,
        )
        mem = StrategyMemory()
        assert chase_move(state, mem) == Move.claim(3)

    def test_rule2_zero_degrees_take_lowest_index(self):
        state = build_state(
            7,
            maker_edges=[(0, 1), (1, 2), (2, 3)],
            maker_pos=3,
            breaker_pos=0,
        )
        mem = StrategyMemory()
        assert chase_move(state, mem) == Move.claim(4)

    def test_rule2_maximizes_opponent_degree(self):
        # Breaker edge 0-5 touches a visited vertex, so rule 1 does not
        # fire; among {4,5,6} vertex 5 has the largest opponent degree.
        state = build_state(
            7,
            maker_edges=[(0, 1), (1, 2), (2, 3)],
            breaker_edges=[(0, 5)],
            maker_pos=3,
            breaker_pos=0,
        )
        mem = StrategyMemory()
        assert chase_move(state, mem) == Move.claim(5)

    def test_blocked_with_three_unvisited_raises(self):
        state = build_state(
            8,
            maker_edges=[(0, 1), (1, 2), (2, 3), (3, 4)],
            breaker_edges=[(4, 5), (4, 6), (4, 7)],
            maker_pos=4,
            breaker_pos=7,
        )
        with pytest.raises(StrategyAssertionError) as err:
            chase_move(state, StrategyMemory())
        payload = err.value.to_json()
        assert payload["round"] == state.round
        assert "free edge" in payload["expectation"]
        assert payload["snapshot"]["n"] == 8


class TestConnectivityCloser:
    def test_delegates_to_chase_while_far_from_done(self):
        state = _played(10, Move.place(3, 7))
        assert connectivity_maker_move(state, StrategyMemory()) == Move.place(7, 0)

    def test_endgame_prefers_reachable_target(self):
        # Last three: {5,6,7}. The Breaker sits at 6 and owns w-5 and
        # w-6, so the direct claim goes to 7.
        state = build_state(
            10,
            maker_edges=[(0, 1), (1, 2), (2, 3), (3, 4), (4, 8), (8, 9)],
            breaker_edges=[(9, 5), (9, 6)],
            maker_pos=9,
            breaker_pos=6,
        )
        mem = StrategyMemory()
        assert connectivity_maker_move(state, mem) == Move.claim(7)
        assert mem.stage == 2

    def test_endgame_targets_breaker_seat_first(self):
        # All three direct edges free: the opponent's seat is claimed
        # first.
        state = build_state(
            10,
            maker_edges=[(0, 1), (1, 2), (2, 3), (3, 4), (4, 8), (8, 9)],
            maker_pos=9,
            breaker_pos=6,
        )
        assert connectivity_maker_move(state, StrategyMemory()) == Move.claim(6)

    def test_blocked_final_vertex_routes_through_pivot(self):
        # One vertex left, direct edge taken: hop to the lowest-index
        # recorded-path vertex with both connecting edges free, then
        # finish from there.
        path = [0, 1, 2, 3, 4, 8, 9]
        mem = StrategyMemory()
        mem.path_order = list(path)
        state = build_state(
            10,
            maker_edges=[(0, 1), (1, 2), (2, 3), (3, 4), (4, 8), (8, 9),
                         (9, 6), (6, 7)],
            breaker_edges=[(7, 5)],
            maker_pos=7,
            breaker_pos=5,
        )
        assert connectivity_maker_move(state, mem) == Move.claim(0)
        follow = build_state(
            10,
            maker_edges=[(0, 1), (1, 2), (2, 3), (3, 4), (4, 8), (8, 9),
                         (9, 6), (6, 7), (7, 0)],
            breaker_edges=[(7, 5)],
            maker_pos=0,
            breaker_pos=5,
        )
        assert connectivity_maker_move(follow, mem) == Move.claim(5)

    def test_blocked_with_three_left_raises(self):
        state = build_state(
            10,
            maker_edges=[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)],
            breaker_edges=[(6, 7), (6, 8), (6, 9)],
            maker_pos=6,
            breaker_pos=9,
        )
        with pytest.raises(StrategyAssertionError):
            connectivity_maker_move(state, StrategyMemory())

    def test_game_won_relocates_legally(self):
        state = build_state(
            4,
            maker_edges=[(0, 1), (1, 2), (2, 3)],
            maker_pos=3,
            breaker_pos=0,
        )
        move = connectivity_maker_move(state, StrategyMemory())
        assert move in legal_moves(state, Player.MAKER)

    # A one-move look-ahead Breaker found this line: it sits on the last
    # unvisited vertex and claims the edge to the closer's first pivot,
    # which forces a second pivot. The Maker wins in 32 moves, one past
    # the n+1 bound, so ``run`` exits 1. Strict: once the closer is
    # mended this test fails, and the marker has to go.
    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the closer's second pivot breaks n+1")
    def test_n30_lookahead_script_stays_within_n_plus_1(self, tmp_path):
        script = tmp_path / "b30.txt"
        script.write_text(
            "P 2 3;C 1;C 2;C 4;C 0;C 6;C 1;C 8;C 0;C 10;C 1;C 12;C 0;C 14;"
            "C 1;C 16;C 0;C 18;C 1;C 20;C 0;C 22;C 1;C 5;C 25;C 26;C 28;"
            "C 29;C 26;T 29;C 1;C 9".replace(";", "\n") + "\n")
        assert cli.main(["run", "--n", "30", "--maker", "connectivity",
                         "--breaker", "scripted", "--breaker-script",
                         str(script), "--out", str(tmp_path / "g.jsonl")]) == 0


class TestFindPivot:
    def test_empty_opponent_graph_gives_lowest(self):
        state = build_state(12, maker_edges=[(i, i + 1) for i in range(9)],
                            maker_pos=9)
        assert find_pivot(state, 10, 11, list(range(10))) == 0

    def test_first_unblocked_path_vertex(self):
        state = build_state(
            12,
            maker_edges=[(i, i + 1) for i in range(9)],
            breaker_edges=[(10, 0), (10, 1), (10, 2)],
            maker_pos=9,
        )
        assert find_pivot(state, 10, 11, list(range(10))) == 3

    def test_endpoints_never_returned(self):
        # 0 is an endpoint and the 0-1 edge is already owned, so the
        # first claimable pivot is 2.
        state = build_state(12, maker_edges=[(i, i + 1) for i in range(9)],
                            maker_pos=9)
        assert find_pivot(state, 0, 11, list(range(10))) == 2

    def test_no_candidate_raises(self):
        state = build_state(
            6,
            maker_edges=[(0, 1), (1, 2)],
            breaker_edges=[(4, 0), (4, 1), (4, 2)],
            maker_pos=2,
        )
        with pytest.raises(StrategyAssertionError):
            find_pivot(state, 4, 5, [0, 1, 2])

    def test_matches_exhaustive_scan_under_degree_budget(self):
        # Opponent degree sum 16 over a 50-vertex recorded path cannot
        # block every pivot; the returned vertex always matches an
        # independent scan.
        import random as rnd
        path = list(range(50))
        a, b = 50, 51
        for seed in range(20):
            gen = rnd.Random(seed)
            blocked = []
            for _ in range(16):
                end = a if gen.random() < 0.5 else b
                v = gen.randrange(50)
                if (min(end, v), max(end, v)) not in [tuple(sorted(e)) for e in blocked]:
                    blocked.append((end, v))
            state = build_state(52, maker_edges=[(i, i + 1) for i in range(49)],
                                breaker_edges=blocked, maker_pos=49)
            got = find_pivot(state, a, b, path)
            expect = min(v for v in path
                         if v not in (a, b)
                         and state.is_free(a, v) and state.is_free(v, b))
            assert got == expect


class TestFindFreeTriple:
    def _ring_state(self, n, cycle, breaker_edges=()):
        maker = [(cycle[i], cycle[(i + 1) % len(cycle)]) for i in range(len(cycle))]
        return build_state(n, maker_edges=maker, breaker_edges=breaker_edges,
                           maker_pos=cycle[0])

    def test_empty_opponent_graph_gives_first_triple(self):
        cycle = list(range(1, 13))
        state = self._ring_state(14, cycle)
        assert find_free_triple(state, cycle, frozenset({0})) == (1, 2, 3)

    def test_blocked_prefix_shifts_the_window(self):
        cycle = list(range(1, 13))
        blocked = [(0, cycle[i]) for i in range(6)]
        state = self._ring_state(14, cycle, blocked)
        got = find_free_triple(state, cycle, frozenset({0}))
        assert got == (cycle[6], cycle[7], cycle[8])

    def test_forbidden_and_avoided_members_skip_the_triple(self):
        cycle = list(range(1, 13))
        state = self._ring_state(14, cycle)
        got = find_free_triple(state, cycle, frozenset({0, 1}),
                               avoid=frozenset({2}))
        assert got == (3, 4, 5)

    def test_high_degree_hub_is_skipped(self):
        # Vertex 2 reaches opponent degree n/3; triples containing it
        # are rejected even with no edge toward the target.
        cycle = list(range(1, 13))
        hub_edges = [(2, v) for v in (7, 8, 9, 10)]
        state = self._ring_state(12, cycle[:11] + [0], hub_edges)
        cyc = cycle[:11] + [0]
        got = find_free_triple(state, cyc, frozenset())
        assert 2 not in got
        assert got == (3, 4, 5)

    def test_randomized_states_return_verified_clean_triples(self):
        import random as rnd
        n = 60
        cycle = list(range(1, n - 1))
        for seed in range(10):
            gen = rnd.Random(seed)
            edges = set()
            while len(edges) < 30:
                a, b = gen.sample(range(n), 2)
                edges.add((min(a, b), max(a, b)))
            maker = {(cycle[i], cycle[(i + 1) % len(cycle)]) for i in range(len(cycle))}
            edges -= {tuple(sorted(e)) for e in maker}
            state = build_state(n, maker_edges=sorted(maker),
                                breaker_edges=sorted(edges), maker_pos=1)
            forbidden = frozenset({0, n - 1})
            triple = find_free_triple(state, cycle, forbidden)
            i = cycle.index(triple[0])
            assert triple == (cycle[i], cycle[(i + 1) % len(cycle)],
                              cycle[(i + 2) % len(cycle)])
            for t in triple:
                assert t not in forbidden
                for f in forbidden:
                    assert state.owner(t, f) != BREAKER_OWNED

    def test_entry_hub_falls_back_to_a_clear_middle(self):
        # Opponent edges from the entry vertex 1 touch every triple, so
        # the first scan fails. The rescan needs only the middle's edge
        # to 1 clear: (3, 4, 5) has it, (2, 3, 4) does not.
        cycle = list(range(1, 13))
        hub = [(1, v) for v in (3, 5, 7, 9, 11)]
        state = self._ring_state(14, cycle, hub)
        with pytest.raises(StrategyAssertionError):
            find_free_triple(state, cycle, frozenset({0, 1}))
        assert find_free_triple(state, cycle, frozenset({0}), entry=1) == (3, 4, 5)


class TestHamiltonStages:
    def test_tail_entry_requires_clean_start_edge(self):
        # Entering the tail skips 0 because the 3-0 edge belongs to the
        # opponent; 1 keeps the closing edge clean.
        mem = StrategyMemory()
        mem.stage = 2
        mem.path_order = list(range(3, 12))
        mem.designated["tail"] = []
        state = build_state(
            12,
            maker_edges=[(i, i + 1) for i in range(3, 11)],
            breaker_edges=[(3, 0)],
            maker_pos=11,
            breaker_pos=0,
        )
        assert hamilton_maker_move(state, mem) == Move.claim(1)
        assert mem.designated["tail"] == [1]

    def test_tail_closes_to_start_when_free(self):
        mem = StrategyMemory()
        mem.stage = 2
        mem.path_order = list(range(3, 12))
        mem.designated["tail"] = [1]
        state = build_state(
            12,
            maker_edges=[(i, i + 1) for i in range(3, 11)] + [(11, 1)],
            breaker_edges=[(3, 0)],
            maker_pos=1,
            breaker_pos=0,
        )
        assert hamilton_maker_move(state, mem) == Move.claim(3)
        assert mem.stage == 3
        assert mem.cycle_order == list(range(3, 12)) + [1]

    def test_absorb_relocates_when_opponent_camps_on_last_vertex(self):
        cycle = [2, 3, 4, 5, 6, 7, 8, 9, 1]
        ring = [(cycle[i], cycle[(i + 1) % len(cycle)]) for i in range(len(cycle))]
        mem = StrategyMemory()
        mem.stage = 3
        mem.cycle_order = list(cycle)
        mem.designated.update(phase="ready", relocated=False, last_spliced=None)
        state = build_state(10, maker_edges=ring, maker_pos=1, breaker_pos=0)
        assert hamilton_maker_move(state, mem) == Move.traverse(9)
        assert mem.designated["relocated"] is True

    def test_absorb_splices_through_a_clean_triple(self):
        cycle = [2, 3, 4, 5, 6, 7, 8, 9, 1]
        ring = [(cycle[i], cycle[(i + 1) % len(cycle)]) for i in range(len(cycle))]
        mem = StrategyMemory()
        mem.stage = 3
        mem.cycle_order = list(cycle)
        mem.designated.update(phase="ready", relocated=False, last_spliced=None)
        state = build_state(10, maker_edges=ring, maker_pos=1, breaker_pos=5)
        # Chord to the middle of the first clean triple (2,3,4).
        assert hamilton_maker_move(state, mem) == Move.claim(3)
        assert mem.designated["phase"] == "chorded"

        grab = build_state(10, maker_edges=ring + [(1, 3)],
                           maker_pos=3, breaker_pos=5)
        assert hamilton_maker_move(grab, mem) == Move.claim(0)
        assert mem.designated["phase"] == "grabbed"

        close = build_state(10, maker_edges=ring + [(1, 3), (3, 0)],
                            maker_pos=0, breaker_pos=5)
        assert hamilton_maker_move(close, mem) == Move.claim(2)
        assert mem.cycle_order == [2, 0, 3, 4, 5, 6, 7, 8, 9, 1]
        assert mem.stage == 4

    def test_spliced_cycle_certifies_when_closed(self):
        # The rethreaded order from the previous scenario is a Hamilton
        # cycle of the final Maker graph.
        from walkergames.engine import hamilton_won
        cycle = [2, 3, 4, 5, 6, 7, 8, 9, 1]
        ring = [(cycle[i], cycle[(i + 1) % len(cycle)]) for i in range(len(cycle))]
        done = build_state(10, maker_edges=ring + [(1, 3), (3, 0), (0, 2)],
                           maker_pos=2, breaker_pos=5)
        assert hamilton_won(done, [2, 0, 3, 4, 5, 6, 7, 8, 9, 1])


    def test_breaker_hub_at_the_maker_position_does_not_stop_absorption(self):
        # This seed once raised the pigeonhole assertion: the random
        # Breaker's edges at the Maker's position tainted every triple.
        result = run_game(GameConfig(n=20, maker="hamilton", goal="hamilton",
                                     breaker="random", seed=1635666842))
        assert result.assertion is None
        assert (result.winner, result.reason) == ("maker", "goal")
        assert result.maker_move_count <= 20 + 6
        replay_transcript(result.transcript)


class TestHamiltonSmallBoards:
    # The splice step's pigeonhole count needs room: on boards of 6 to
    # 17 vertices the strategy's assertion can fire, and the gated n+6
    # bound holds from n = 20. A scan of seeds 0 to 999 against the
    # random and delaying Breakers, both first players, found the
    # assertion at every n from 12 to 17 and at none from 18 to 23;
    # the n = 16 and 17 games below are two of its five failures there.
    # Strict: once the strategy handles one of these games, its test
    # fails and its marker has to go.
    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the splice step's triple search fails at n=14")
    def test_n14_greedy_within_n_plus_6(self, tmp_path):
        assert cli.main(["run", "--n", "14", "--maker", "hamilton",
                         "--goal", "hamilton", "--breaker", "greedy",
                         "--out", str(tmp_path / "g.jsonl")]) == 0

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the splice step's triple search fails at n=16")
    def test_n16_random_seed486_within_n_plus_6(self, tmp_path):
        assert cli.main(["run", "--n", "16", "--maker", "hamilton",
                         "--goal", "hamilton", "--breaker", "random",
                         "--seed", "486",
                         "--out", str(tmp_path / "g.jsonl")]) == 0

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the splice step's triple search fails at n=17")
    def test_n17_delaying_maker_first_seed300_within_n_plus_6(self, tmp_path):
        assert cli.main(["run", "--n", "17", "--maker", "hamilton",
                         "--goal", "hamilton", "--breaker", "delaying",
                         "--first", "maker", "--seed", "300",
                         "--out", str(tmp_path / "g.jsonl")]) == 0


class TestDelayingBreaker:
    def test_pair_jump_prefers_free_edge(self):
        mem = StrategyMemory()
        mem.designated["usize"] = 3
        state = build_state(
            10,
            maker_edges=[(0, 1), (1, 2), (2, 3), (3, 5), (5, 6), (6, 8), (8, 9)],
            breaker_edges=[(2, 6)],
            maker_pos=9,
            breaker_pos=2,
            to_move=Player.BREAKER,
            first_player=Player.MAKER,
        )
        assert delaying_breaker_move(state, mem) == Move.claim(4)
        assert mem.designated["pair"] == [4, 7]

    def test_pair_jump_from_inside_claims_pair_edge(self):
        mem = StrategyMemory()
        mem.designated["usize"] = 3
        state = build_state(
            10,
            maker_edges=[(0, 1), (1, 2), (2, 3), (3, 5), (5, 6), (6, 8), (8, 9)],
            breaker_edges=[(2, 4)],
            maker_pos=9,
            breaker_pos=4,
            to_move=Player.BREAKER,
            first_player=Player.MAKER,
        )
        assert delaying_breaker_move(state, mem) == Move.claim(7)

    def test_final_vertex_gets_fenced(self):
        mem = StrategyMemory()
        mem.designated["usize"] = 2
        mem.designated["pair"] = [4, 7]
        state = build_state(
            10,
            maker_edges=[(0, 1), (1, 2), (2, 3), (3, 5), (5, 6), (6, 8), (8, 9),
                         (9, 4)],
            breaker_edges=[(2, 4)],
            maker_pos=4,
            breaker_pos=4,
            to_move=Player.BREAKER,
            first_player=Player.MAKER,
        )
        assert delaying_breaker_move(state, mem) == Move.claim(7)

    def test_rows_bind_their_wander_policy(self):
        # Eight vertices are unvisited, so both rows wander, each with
        # the policy its row binds.
        state = build_state(
            10,
            maker_edges=[(0, 1)],
            breaker_edges=[(5, 6)],
            maker_pos=1,
            breaker_pos=6,
            to_move=Player.BREAKER,
            first_player=Player.MAKER,
        )
        wanders = {name: make_policy(Player.BREAKER, name, 0)(state)
                   for name in ("delaying", "delaying-greedy")}
        assert wanders == {
            "delaying": make_policy(Player.BREAKER, "random", 0)(state),
            "delaying-greedy": greedy_breaker_move(state, StrategyMemory()),
        }
        assert wanders["delaying"] != wanders["delaying-greedy"]


class TestIsolatingBreaker:
    def test_first_decision_fences_highest_untouched(self):
        state = build_state(10, maker_edges=[(0, 1)], maker_pos=1,
                            to_move=Player.BREAKER, bias=(1, 2),
                            first_player=Player.MAKER)
        mem = StrategyMemory()
        assert isolating_breaker2_move(state, mem) == Move.place(1, 9)
        assert mem.designated["target"] == 9

    def test_at_fence_blocks_makers_position(self):
        mem = StrategyMemory()
        mem.designated["target"] = 9
        state = build_state(10, maker_edges=[(0, 1), (1, 4)],
                            breaker_edges=[(1, 9)], maker_pos=4, breaker_pos=9,
                            to_move=Player.BREAKER, bias=(1, 2),
                            first_player=Player.MAKER)
        assert isolating_breaker2_move(state, mem) == Move.claim(4)

    def test_away_from_fence_walks_home(self):
        mem = StrategyMemory()
        mem.designated["target"] = 9
        state = build_state(10, maker_edges=[(0, 1), (1, 4)],
                            breaker_edges=[(1, 9), (4, 9)], maker_pos=4,
                            breaker_pos=4, to_move=Player.BREAKER, bias=(1, 2),
                            first_player=Player.MAKER)
        assert isolating_breaker2_move(state, mem) == Move.traverse(9)

    def test_blocked_edge_substitutes_adjacent_fence_edge(self):
        mem = StrategyMemory()
        mem.designated["target"] = 9
        state = build_state(10, maker_edges=[(0, 1), (1, 2)],
                            breaker_edges=[(4, 9), (2, 9)], maker_pos=2,
                            breaker_pos=9, to_move=Player.BREAKER, bias=(1, 2),
                            first_player=Player.MAKER)
        # 9-2 already owned; the substitute prefers a vertex the Maker
        # can walk to along her own edges.
        assert isolating_breaker2_move(state, mem) == Move.claim(1)

    def test_full_game_keeps_fence_unvisited(self):
        from walkergames.runner import GameConfig, run_game
        config = GameConfig(n=10, maker="chase", breaker="isolating",
                            goal="connectivity", bias=(1, 2),
                            first_player=Player.MAKER, seed=0, monitors=False)
        result = run_game(config)
        assert result.winner == "breaker"
        assert 9 in result.final_state.unvisited

    def test_maker_on_fence_is_never_claimed_toward(self):
        # Outside (1:2) the Maker can reach the protected vertex; standing
        # there with her, the fence must not claim the loop 9-9.
        mem = StrategyMemory()
        mem.designated["target"] = 9
        state = build_state(10, maker_edges=[(0, 1), (1, 9)],
                            breaker_edges=[(2, 9)], maker_pos=9, breaker_pos=9,
                            to_move=Player.BREAKER,
                            first_player=Player.MAKER)
        move = isolating_breaker2_move(state, mem)
        assert move in legal_moves(state, Player.BREAKER)

    def test_single_bias_game_seed_27_plays_legally(self):
        config = GameConfig(n=20, maker="connectivity", breaker="isolating",
                            seed=27)
        result = run_game(config)
        assert (result.winner, result.reason) == ("maker", "goal")
        assert result.maker_move_count <= 21
        replay_transcript(result.transcript)

    @pytest.mark.parametrize("bias", [(1, 1), (2, 1)])
    def test_bias_sweep_plays_legally(self, bias):
        for n in (8, 13):
            for first in (Player.MAKER, Player.BREAKER):
                for maker in ("chase", "connectivity"):
                    for seed in range(3):
                        config = GameConfig(n=n, maker=maker,
                                            breaker="isolating", bias=bias,
                                            first_player=first, seed=seed)
                        result = run_game(config)
                        assert result.assertion is None
                        assert result.winner == "maker"
                        assert result.maker_move_count <= n + 1
                        replay_transcript(result.transcript)


class TestCamperBreaker:
    def test_opens_camping_at_zero(self):
        state = _played(8, Move.place(5, 6), first=Player.MAKER)
        mem = StrategyMemory()
        assert camper_breaker_move(state, mem) == Move.place(1, 0)
        assert mem.designated["camp"] == 0

    def test_fans_out_to_lowest_unvisited(self):
        mem = StrategyMemory()
        mem.designated["camp"] = 0
        state = build_state(8, maker_edges=[(5, 6)], breaker_edges=[(0, 1)],
                            maker_pos=6, breaker_pos=0, to_move=Player.BREAKER,
                            first_player=Player.MAKER)
        assert camper_breaker_move(state, mem) == Move.claim(2)

    def test_walks_back_to_camp(self):
        mem = StrategyMemory()
        mem.designated["camp"] = 0
        state = build_state(8, maker_edges=[(5, 6)],
                            breaker_edges=[(0, 1), (0, 2)], maker_pos=6,
                            breaker_pos=2, to_move=Player.BREAKER,
                            first_player=Player.MAKER)
        assert camper_breaker_move(state, mem) == Move.traverse(0)


class TestScripts:
    def test_round_trip(self):
        moves = [Move.place(0, 1), Move.claim(2), Move.traverse(0), Move.pass_()]
        assert parse_script(moves_to_script(moves)) == moves

    def test_comments_and_blanks_ignored(self):
        text = "\n# opening\nP 0 1  # stand at 1\n\nC 2\n"
        assert parse_script(text) == [Move.place(0, 1), Move.claim(2)]

    @pytest.mark.parametrize("bad", ["Q 3", "P 0", "C x", "T", "X 1", "P 0 1 2"])
    def test_malformed_lines_raise_with_line_number(self, bad):
        with pytest.raises(ScriptError) as err:
            parse_script("P 0 1\n" + bad + "\n")
        assert "line 2" in str(err.value)

    def test_exhausted_script_raises(self):
        mem = StrategyMemory()
        mem.designated.update(script=[Move.place(0, 1)], cursor=1)
        state = _played(6, Move.place(0, 1), Move.place(2, 3))
        with pytest.raises(ScriptError) as err:
            scripted_move(state, mem)
        assert "exhausted" in str(err.value)

    def test_illegal_entry_named(self):
        mem = StrategyMemory()
        mem.designated.update(script=[Move.claim(1)], cursor=0)
        state = new_game(6, Bias(1, 1), Player.BREAKER)
        with pytest.raises(ScriptError) as err:
            scripted_move(state, mem)
        assert "entry 1" in str(err.value)

    def test_scripted_policy_requires_script(self):
        with pytest.raises(ScriptError):
            make_policy(Player.BREAKER, "scripted", 0)


class TestRegistry:
    def test_unknown_ids_rejected(self):
        with pytest.raises(ValueError):
            make_policy(Player.MAKER, "camper", 0)
        with pytest.raises(ValueError):
            make_policy(Player.BREAKER, "hamilton", 0)

    def test_seed_streams_are_disjoint(self):
        maker = make_policy(Player.MAKER, "random", 5)
        breaker = make_policy(Player.BREAKER, "random", 5)
        assert maker.memory.rng_seed == 11
        assert breaker.memory.rng_seed == 10

    def test_pursuit_based_ids(self):
        pursuit = {m for m, spec in MAKERS.items() if spec.pursuit}
        assert pursuit == {"chase", "connectivity", "hamilton"}

    def test_same_seed_same_move(self):
        state = new_game(9, Bias(1, 1), Player.BREAKER)
        a = make_policy(Player.BREAKER, "random", 3)(state)
        b = make_policy(Player.BREAKER, "random", 3)(state)
        assert a == b


def _step_policies(n, maker_id, breaker_id, seed, bias=(1, 1),
                   first=Player.BREAKER, max_plies=None):
    """Drive a game move by move, checking every policy choice is legal.

    Returns (final state, assertion or None).
    """
    state = new_game(n, Bias(*bias), first)
    policies = {
        Player.MAKER: make_policy(Player.MAKER, maker_id, seed),
        Player.BREAKER: make_policy(Player.BREAKER, breaker_id, seed),
    }
    budget = max_plies if max_plies is not None else 12 * n
    for _ in range(budget):
        policy = policies[state.to_move]
        try:
            move = policy(state)
        except StrategyAssertionError as exc:
            return state, exc
        assert move in legal_moves(state, state.to_move), (
            f"{policy.name} proposed {move} illegally")
        apply_move(state, state.to_move, move)
        if maker_id in ("chase", "connectivity") and connectivity_won(state):
            break
        if maker_id == "hamilton" and policies[Player.MAKER].memory.stage == 4:
            break
    return state, None


class TestPolicyLegality:
    MAKERS = [m for m in MAKER_IDS if m != "scripted"]
    BREAKERS = [b for b in BREAKER_IDS if b not in ("scripted", "isolating")]

    @pytest.mark.parametrize("maker", MAKERS)
    @pytest.mark.parametrize("breaker", BREAKERS)
    def test_single_bias_matrix_plays_legally(self, maker, breaker):
        for seed in (0, 1):
            first = Player.MAKER if breaker.startswith("delaying") else Player.BREAKER
            state, assertion = _step_policies(20, maker, breaker, seed, first=first)
            assert assertion is None, f"assertion at n=20: {assertion}"

    @pytest.mark.parametrize("maker", MAKERS)
    def test_double_bias_isolating_plays_legally(self, maker):
        # Pursuit-based Makers may hit their guarantee assertions here:
        # those guarantees are proven for single bias only. Every move
        # before that must still be legal (checked inside the driver).
        for seed in (0, 1):
            state, assertion = _step_policies(
                14, maker, "isolating", seed, bias=(1, 2),
                first=Player.MAKER, max_plies=200)
            if assertion is not None:
                assert MAKERS[maker].pursuit

    def test_pursuit_keeps_a_simple_path(self):
        state = new_game(20, Bias(1, 1), Player.BREAKER)
        maker = make_policy(Player.MAKER, "chase", 3)
        breaker = make_policy(Player.BREAKER, "random", 3)
        plies = {Player.MAKER: maker, Player.BREAKER: breaker}
        while state.unvisited and state.maker_moves <= 17:
            mover = state.to_move
            apply_move(state, mover, plies[mover](state))
            if mover is Player.MAKER and state.maker_moves <= 17:
                assert maker_edges_form_simple_path(state)
                assert len(state.maker_edges) == state.maker_moves

    def test_hamilton_cycle_order_is_always_maker_owned(self):
        state = new_game(20, Bias(1, 1), Player.BREAKER)
        maker = make_policy(Player.MAKER, "hamilton", 5)
        breaker = make_policy(Player.BREAKER, "greedy", 5)
        plies = {Player.MAKER: maker, Player.BREAKER: breaker}
        for _ in range(12 * 20):
            mover = state.to_move
            apply_move(state, mover, plies[mover](state))
            cyc = maker.memory.cycle_order
            if mover is Player.MAKER and cyc:
                for i, v in enumerate(cyc):
                    w = cyc[(i + 1) % len(cyc)]
                    assert state.owner(v, w) == MAKER_OWNED
            if maker.memory.stage == 4:
                break
        assert maker.memory.stage == 4


# ---------------------------------------------------------------------------
# The tainted-set shortcuts against the full scans they replace
# ---------------------------------------------------------------------------

def _scan_best_unvisited(state, v, deg):
    """Reference: every unvisited u != v with a free edge from v, best by
    (highest opponent degree, lowest index). ``deg`` lists the Breaker
    degrees, recomputed from the claimed-edge lists."""
    best = None
    for u in state.unvisited:
        if u != v and state.is_free(v, u):
            key = (-deg[u], u)
            if best is None or key < best:
                best = key
    return None if best is None else best[1]


def _scan_chase(state, deg):
    """Reference pursuit choice from full scans; None where chase_move
    would relocate or raise."""
    w = state.maker_pos
    unvisited = state.unvisited
    for a, b in reversed(state.breaker_edges):
        if a in unvisited and b in unvisited:
            ends = [e for e in (a, b) if state.is_free(w, e)]
            if ends:
                return Move.claim(max(ends, key=lambda e: (deg[e], -e)))
    target = _scan_best_unvisited(state, w, deg)
    return None if target is None else Move.claim(target)


def _scan_greedy(state, deg):
    """Reference greedy Breaker move from one scan of every vertex."""
    pos = state.breaker_pos
    best = None
    traverse = None
    for t in range(state.n):
        if t == pos:
            continue
        o = state.owner(pos, t)
        if o == FREE:
            key = (0 if t in state.unvisited else 1, -deg[t], t)
            if best is None or key < best[0]:
                best = (key, t)
        elif o == BREAKER_OWNED and traverse is None:
            traverse = t
    if best is not None:
        return Move.claim(best[1])
    if traverse is not None:
        return Move.traverse(traverse)
    return Move.pass_()


class TestTaintedShortcuts:
    @pytest.mark.parametrize("breaker", ["random", "greedy"])
    @pytest.mark.parametrize("bias", [(1, 1), (1, 2), (2, 1)])
    @pytest.mark.parametrize("first", list(Player))
    def test_match_full_scans_along_played_games(self, breaker, bias, first):
        most_tainted = 0
        for state in random_maker_states(breaker, bias, first):
            n = state.n
            most_tainted = max(
                most_tainted,
                len(state.unvisited & recomputed_breaker_touched(state)))
            deg = recomputed_degrees(state)[1]
            # The target is asked for from a placed walker's position,
            # which is touched: visited, or an end of a Breaker edge.
            untouched = state.unvisited - state.tainted
            for v in range(n):
                if v in untouched:
                    continue
                assert (_best_unvisited_target(state, v)
                        == _scan_best_unvisited(state, v, deg)), (v, state)
            if state.breaker_pos is not None:
                assert (greedy_breaker_move(state, StrategyMemory())
                        == _scan_greedy(state, deg))
            if state.maker_pos is not None:
                expected = _scan_chase(state, deg)
                if expected is not None:
                    assert chase_move(state, StrategyMemory()) == expected
            visited = set(range(n)) - state.unvisited
            for x in range(n):
                opponents = {t for t in range(n) if t != x
                             and state.owner(x, t) == BREAKER_OWNED}
                for restrict in (state.unvisited, state.unvisited - {x},
                                 visited, visited | {x}):
                    assert (degree_b(state, x, restrict)
                            == len(opponents & restrict))
        assert most_tainted >= 5

    def test_untouched_fallback_skips_the_origin(self):
        # The only tainted vertex, 0, is the Breaker's seat, and the edge
        # to it from the Maker's seat 6 is his: from either seat the
        # target is the lowest untouched vertex, which a seat, being
        # touched, never is.
        state = build_state(8, maker_edges=[(4, 5), (5, 6)],
                            breaker_edges=[(0, 4), (0, 6)], maker_pos=6,
                            breaker_pos=0)
        assert _best_unvisited_target(state, 0) == 1
        assert _best_unvisited_target(state, 6) == 1

    def test_tainted_vertex_beats_lower_untouched_ones(self):
        state = build_state(8, maker_edges=[(0, 1)],
                            breaker_edges=[(6, 7), (5, 7)],
                            maker_pos=1, breaker_pos=5)
        assert _best_unvisited_target(state, 1) == 7
        # From 7 both tainted neighbours are the Breaker's: fall back.
        assert _best_unvisited_target(state, 7) == 2


def _reference_best_unvisited(state, v):
    """``_best_unvisited_target`` as it was before the engine kept its
    untouched-vertex cursor: the same tainted scan, then the lowest
    unvisited, untainted vertex other than ``v``."""
    best = None
    for u in state.tainted:
        if state.is_free(v, u):
            key = (-degree_b(state, u), u)
            if best is None or key < best:
                best = key
    if best is not None:
        return best[1]
    rest = state.unvisited - state.tainted - {v}
    return min(rest) if rest else None


class TestCursorTarget:
    """The cursor dropped the old ``- {v}`` exclusion, since the position
    asked from is never untouched. Every call that play makes must still
    give the old answer."""

    @pytest.mark.parametrize("breaker", ["random", "greedy", "delaying",
                                         "camper"])
    @pytest.mark.parametrize("maker,goal", [("connectivity", "connectivity"),
                                            ("hamilton", "hamilton"),
                                            ("chase", "connectivity")])
    def test_every_call_in_play_gives_the_reference_answer(
            self, maker, goal, breaker, monkeypatch):
        real = strategies._best_unvisited_target
        calls, from_cursor = [], []

        def recorded(state, v):
            got = real(state, v)
            calls.append((got, _reference_best_unvisited(state, v), v,
                          state.round))
            if got is not None and got not in state.tainted:
                from_cursor.append(got)
            return got

        monkeypatch.setattr(strategies, "_best_unvisited_target", recorded)
        for n in (20, 50):
            for seed in range(3):
                run_game(GameConfig(n=n, maker=maker, breaker=breaker,
                                    goal=goal, seed=seed))
        assert calls
        assert [c for c in calls if c[0] != c[1]] == []
        assert from_cursor  # some answers were untouched vertices



# ---------------------------------------------------------------------------
# First legal moves against the scans that nth_move replaced
# ---------------------------------------------------------------------------

def _scan_first_placement(state):
    """Reference greedy placement: the first free edge by (low, high)."""
    for s in range(state.n):
        for t in range(s + 1, state.n):
            if state.is_free(s, t):
                return Move.place(s, t)
    return Move.pass_()


def _scan_camper_at_camp(state):
    """Reference camper move with its camp at the Breaker's position: the
    lowest unvisited vertex it can claim, else the lowest vertex it can
    claim, else the lowest traversal, else pass."""
    camp = state.breaker_pos
    for u in sorted(state.unvisited):
        if u != camp and state.is_free(camp, u):
            return Move.claim(u)
    for t in range(state.n):
        if t != camp and state.is_free(camp, t):
            return Move.claim(t)
    for t in range(state.n):
        if t != camp and state.owner(camp, t) == BREAKER_OWNED:
            return Move.traverse(t)
    return Move.pass_()


def _scan_isolating_at_fence(state):
    """Reference isolating move standing on its protected vertex z, the
    Breaker's position: block the Maker, else claim the fence edge she
    reaches most easily, else the lowest traversal, else pass."""
    z = state.breaker_pos
    mpos = state.maker_pos
    if mpos is not None and mpos != z and state.is_free(z, mpos):
        return Move.claim(mpos)
    best = None
    for v in range(state.n):
        if v == z or not state.is_free(z, v):
            continue
        reach_by_walk = mpos is not None and state.owner(v, mpos) == MAKER_OWNED
        reach_by_claim = mpos is not None and state.is_free(v, mpos)
        key = (0 if reach_by_walk else 1, 0 if reach_by_claim else 1, v)
        if best is None or key < best[0]:
            best = (key, v)
    if best is not None:
        return Move.claim(best[1])
    for v in range(state.n):
        if v != z and state.owner(z, v) == BREAKER_OWNED:
            return Move.traverse(v)
    return Move.pass_()


def _breaker_to_move_states():
    """States with the Breaker to move: from random-Maker games against
    the random and camper Breakers, then the pass-only positions."""
    for breaker in ("random", "camper"):
        for bias in ((1, 1), (1, 2)):
            for first in Player:
                for state in random_maker_states(breaker, bias, first):
                    if state.to_move is Player.BREAKER:
                        yield state
    for state in pass_only_states():
        if state.to_move is Player.BREAKER:
            yield state


class TestFirstLegalScans:
    def test_policies_match_the_scans_nth_move_replaced(self):
        fallbacks = {"camper": set(), "isolating": set()}
        for state in _breaker_to_move_states():
            # Every board is also posed as a placement: the same rows,
            # with the Breaker not yet placed.
            unplaced = dataclasses.replace(state, breaker_pos=None)
            assert (greedy_breaker_move(unplaced, StrategyMemory())
                    == _scan_first_placement(unplaced)), unplaced
            pos = state.breaker_pos
            if pos is None:
                continue
            mem = StrategyMemory()
            mem.designated["camp"] = pos
            move = camper_breaker_move(state, mem)
            assert move == _scan_camper_at_camp(state), state
            if move.target not in state.unvisited:
                fallbacks["camper"].add(move.kind)
            mem = StrategyMemory()
            if state.maker_pos is None:
                # The fence is fixed only once the Maker has placed;
                # until then the policy makes the first legal move.
                move = isolating_breaker2_move(state, mem)
                assert move == legal_moves(state, Player.BREAKER)[0], state
                assert "target" not in mem.designated
                continue
            mem.designated["target"] = pos
            move = isolating_breaker2_move(state, mem)
            assert move == _scan_isolating_at_fence(state), state
            if move.kind is not MoveKind.CLAIM:
                fallbacks["isolating"].add(move.kind)
        assert fallbacks == {
            "camper": {MoveKind.CLAIM, MoveKind.TRAVERSE, MoveKind.PASS},
            "isolating": {MoveKind.TRAVERSE, MoveKind.PASS},
        }


BIASES = [(1, 1), (1, 2), (2, 1)]
playouts = dict(seed=st.integers(0, 10_000), n=st.integers(3, 9),
                steps=st.integers(0, 60), bias=st.sampled_from(BIASES),
                first=st.sampled_from(list(Player)))


def _odd_candidates(n):
    """Script entries beyond ``all_candidate_moves``: vertices off the
    board and placement loops."""
    return ([Move.claim(n), Move.claim(-1), Move.traverse(n), Move.traverse(-1),
             Move.place(n, 0), Move.place(0, n), Move.place(-1, 0)]
            + [Move.place(v, v) for v in range(n)])


def _scripted_accepts(state, move):
    mem = StrategyMemory()
    mem.designated.update(script=[move], cursor=0)
    try:
        chosen = scripted_move(state, mem)
    except ScriptError as err:
        assert str(err) == (f"script entry 1 ({script_line(move)}) is illegal "
                            f"for {state.to_move.value} here")
        assert mem.designated["cursor"] == 0
        return False
    assert chosen == move and mem.designated["cursor"] == 1
    return True


class TestListFreeChoices:
    """The random and scripted policies choose as they did from the list."""

    @settings(max_examples=120, deadline=None)
    @given(rng_seed=st.integers(0, 2 ** 32), **playouts)
    def test_counted_draw_matches_choice_from_the_list(self, rng_seed, seed,
                                                       n, steps, bias, first):
        *_, state = random_playout_states(n, seed, steps, bias, first)
        memory = StrategyMemory(rng_seed=rng_seed)
        listed = random.Random(rng_seed)
        for _ in range(3):
            move = random_walker_move(state, memory)
            assert move == listed.choice(legal_moves(state, state.to_move))
            assert memory.rng.getstate() == listed.getstate()

    @pytest.mark.parametrize("index", range(len(pass_only_states())))
    def test_counted_draw_when_only_pass(self, index):
        state = pass_only_states()[index]
        memory, listed = StrategyMemory(rng_seed=index), random.Random(index)
        assert random_walker_move(state, memory) == Move.pass_()
        listed.choice([Move.pass_()])
        assert memory.rng.getstate() == listed.getstate()

    @settings(max_examples=60, deadline=None)
    @given(**playouts)
    def test_scripted_acceptance_matches_list_membership(self, seed, n, steps,
                                                         bias, first):
        *_, state = random_playout_states(n, seed, steps, bias, first)
        legal = set(legal_moves(state, state.to_move))
        for move in all_candidate_moves(n) + _odd_candidates(n):
            assert _scripted_accepts(state, move) == (move in legal), move

    @pytest.mark.parametrize("index", range(len(pass_only_states())))
    def test_scripted_pass_accepted_only_when_nothing_else_is(self, index):
        state = pass_only_states()[index]
        for move in all_candidate_moves(state.n) + _odd_candidates(state.n):
            assert _scripted_accepts(state, move) == (move == Move.pass_())


class TestNoListsAfterPlacement:
    """The random and scripted policies list no moves, placements
    included: they count and index them. Only ``_relocate`` lists."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """One entry per ``legal_moves`` call: whether both had placed."""
        from walkergames import engine, strategies
        calls = []

        def counting(original):
            def wrapper(state, player):
                calls.append(None not in (state.maker_pos, state.breaker_pos))
                return original(state, player)
            return wrapper

        for module in (engine, strategies):
            monkeypatch.setattr(module, "legal_moves",
                                counting(module.legal_moves))
        return calls

    @pytest.mark.parametrize("bias", BIASES)
    @pytest.mark.parametrize("first", list(Player))
    def test_random_maker_against_scripted_breaker(self, calls, bias,
                                                   first):
        # The scripted Breaker replays the random Breaker's moves of the
        # same game, so both games run to the same end.
        config = GameConfig(n=12, maker="random", breaker="random", seed=4,
                            bias=bias, first_player=first, move_cap=40)
        played = run_game(config)
        script = moves_to_script([
            _move_from_record(rec) for rec in played.transcript.entries
            if rec.player == "breaker"])
        calls.clear()
        scripted = run_game(dataclasses.replace(
            config, breaker="scripted", breaker_script=script))
        assert scripted.transcript.dumps().splitlines()[1:] == \
            played.transcript.dumps().splitlines()[1:]
        assert calls == []

    @pytest.mark.parametrize("maker", ["connectivity", "hamilton", "random"])
    @pytest.mark.parametrize("first", list(Player))
    def test_random_breaker(self, calls, maker, first):
        config = GameConfig(n=12, maker=maker, breaker="random",
                            goal="hamilton" if maker == "hamilton" else "connectivity",
                            seed=2, first_player=first, move_cap=40)
        result = run_game(config)
        assert result.final_state.maker_moves > 2
        assert calls == []
