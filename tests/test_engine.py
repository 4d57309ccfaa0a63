"""Rules engine tests: legality, bookkeeping, goal predicates."""
from __future__ import annotations

import copy
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    all_candidate_moves,
    build_state,
    edge_codes,
    pass_only_states,
    random_playout_states,
    reference_legal_moves,
    recomputed_breaker_touched,
    recomputed_degrees,
    recomputed_unvisited,
    successor,
)
from walkergames.engine import (
    BREAKER_OWNED,
    FREE,
    _SELF,
    Bias,
    GameState,
    MAX_N,
    IllegalMoveError,
    MalformedCertificateError,
    Move,
    MoveKind,
    Player,
    apply_move,
    check_move,
    connectivity_won,
    count_moves,
    degree_b,
    degree_m,
    edge_count,
    edge_index,
    hamilton_won,
    legal_moves,
    lowest_untouched,
    new_game,
    nth_move,
    snapshot,
)
from walkergames.oracle import cross_validate, solve_from_state
from walkergames.strategies import StrategyMemory, scripted_move

BIASES = [(1, 1), (1, 2), (2, 1)]


def _play(state, *moves):
    for mv in moves:
        apply_move(state, state.to_move, mv)
    return state


class TestEdgeIndexing:
    def test_indices_cover_range_once(self):
        for n in (3, 4, 7, 12):
            seen = {edge_index(n, a, b)
                    for a in range(n) for b in range(a + 1, n)}
            assert seen == set(range(edge_count(n)))

    def test_symmetric(self):
        assert edge_index(9, 2, 7) == edge_index(9, 7, 2)


class TestNewGame:
    @pytest.mark.parametrize("n", [MAX_N + 1, 10 ** 12])
    def test_boards_above_the_ceiling_are_refused(self, n):
        with pytest.raises(ValueError, match=f"at most {MAX_N} vertices"):
            new_game(n)


class TestLegalMoves:
    def test_twelve_placements_on_four_vertices(self):
        state = new_game(4)
        moves = legal_moves(state, Player.BREAKER)
        assert len(moves) == 12  # 2 directions for each of the 6 edges
        assert all(m.kind is MoveKind.PLACE for m in moves)
        assert moves[0] == Move.place(0, 1)

    def test_placement_excludes_taken_edges(self):
        state = _play(new_game(4), Move.place(0, 1))
        maker_moves = legal_moves(state, Player.MAKER)
        assert Move.place(0, 1) not in maker_moves
        assert Move.place(1, 0) not in maker_moves
        assert len(maker_moves) == 10

    def test_claims_then_traversals_ascending(self):
        state = _play(new_game(5), Move.place(0, 1), Move.place(4, 2))
        state = _play(state, Move.claim(3))  # breaker now at 3
        moves = legal_moves(state, Player.MAKER)  # maker stands at 2
        kinds = [m.kind for m in moves]
        assert kinds == sorted(kinds, key=lambda k: k is MoveKind.TRAVERSE)
        claim_targets = [m.target for m in moves if m.kind is MoveKind.CLAIM]
        assert claim_targets == sorted(claim_targets)
        assert Move.traverse(4) in moves  # her own placement edge

    def test_fully_blocked_player_gets_exactly_pass(self):
        # Synthetic dead end: the maker stands at 0 with every incident
        # edge the opponent's and no own edge anywhere.
        state = build_state(3, breaker_edges=[(0, 1), (0, 2)], maker_pos=0,
                            breaker_pos=2)
        assert legal_moves(state, Player.MAKER) == [Move.pass_()]
        apply_move(state, Player.MAKER, Move.pass_())
        assert state.passes == 1
        assert state.to_move is Player.BREAKER

    def test_pass_only_when_nothing_legal(self):
        # A player with any own edge can always walk it, so no pass.
        state = new_game(3, Bias(1, 2), Player.BREAKER)
        state = _play(state, Move.place(0, 1), Move.claim(2))   # breaker owns 0-1, 1-2
        state = _play(state, Move.place(0, 2))                  # maker takes the last edge
        state = _play(state, Move.traverse(1), Move.traverse(0))
        # Breaker's turn ended back at 0; maker at 2 owns 0-2: can walk.
        assert legal_moves(state, Player.MAKER) == [Move.traverse(0)]

    def test_wrong_player_rejected(self):
        state = new_game(4)
        with pytest.raises(IllegalMoveError) as err:
            legal_moves(state, Player.MAKER)
        assert err.value.rule == "wrong-player"


class TestApplyMove:
    def test_placement_sets_position_and_ownership(self):
        state = _play(new_game(5), Move.place(3, 1))
        assert state.breaker_pos == 1
        assert state.owner(1, 3) == BREAKER_OWNED
        assert state.to_move is Player.MAKER

    def test_traverse_changes_no_ownership(self):
        state = _play(new_game(4), Move.place(0, 1), Move.place(2, 3))
        before_rows = [bytes(row) for row in state.rows]
        state = _play(state, Move.traverse(0))  # breaker walks 1 -> 0
        assert [bytes(row) for row in state.rows] == before_rows
        assert state.breaker_pos == 0

    def test_claim_by_maker_shrinks_unvisited(self):
        state = _play(new_game(5), Move.place(0, 1), Move.place(1, 2))
        assert state.unvisited == {0, 3, 4}
        state = _play(state, Move.claim(4), Move.claim(3))
        # breaker claimed 1-4 (no visit change), maker claimed 2-3
        assert state.unvisited == {0, 4}

    def test_opponent_edge_not_traversable(self):
        state = _play(new_game(4), Move.place(0, 1), Move.place(2, 3))
        state = _play(state, Move.claim(3))  # breaker claims 1-3, stands at 3
        # Maker at 3: edge 1-3 is the breaker's, walking it is illegal.
        with pytest.raises(IllegalMoveError) as err:
            apply_move(state, Player.MAKER, Move.traverse(1))
        assert err.value.rule == "opponent-edge"

    def test_claiming_own_or_opponent_edge_rejected(self):
        state = _play(new_game(4), Move.place(0, 1), Move.place(2, 3))
        state = _play(state, Move.claim(2))  # breaker claims 1-2, stands at 2
        # Maker at 3: 2-3 is her own edge, 1-3 is free, 0-3 is free.
        with pytest.raises(IllegalMoveError) as err:
            apply_move(state, Player.MAKER, Move.claim(2))
        assert err.value.rule == "own-edge"
        # Walk her own edge to 2, then try to claim the breaker's 1-2.
        state = _play(state, Move.traverse(2), Move.traverse(1))
        with pytest.raises(IllegalMoveError) as err:
            apply_move(state, Player.MAKER, Move.claim(1))
        assert err.value.rule == "opponent-edge"

    def test_pass_with_moves_available_rejected(self):
        state = new_game(4)
        with pytest.raises(IllegalMoveError) as err:
            apply_move(state, Player.BREAKER, Move.pass_())
        assert err.value.rule == "pass-with-moves"

    def test_loop_rejected(self):
        state = new_game(4)
        with pytest.raises(IllegalMoveError) as err:
            apply_move(state, Player.BREAKER, Move.place(2, 2))
        assert err.value.rule == "loop"

    def test_round_advances_when_turn_wraps(self):
        state = new_game(4)  # breaker first
        assert state.round == 0
        state = _play(state, Move.place(0, 1))
        assert state.round == 0  # mid-round
        state = _play(state, Move.place(1, 2))
        assert state.round == 1  # wrapped back to the first player

    def test_biased_turn_gives_two_moves(self):
        state = new_game(5, Bias(1, 2), Player.BREAKER)
        assert state.moves_left_in_turn == 2
        state = _play(state, Move.place(0, 1))
        assert state.to_move is Player.BREAKER
        assert state.moves_left_in_turn == 1
        state = _play(state, Move.claim(2))
        assert state.to_move is Player.MAKER

    def test_loop_queries_name_no_edge(self):
        state = new_game(5)
        assert not state.is_free(2, 2)
        state = _play(state, Move.place(3, 4))
        for v in range(5):
            assert state.owner(v, v) == _SELF
            assert not state.is_free(v, v)


def _frozen(state):
    """Every field of a state, by its name in ``GameState.__slots__``, as
    a value that later writes to the state leave as it is."""
    return {name: copy.deepcopy(getattr(state, name))
            for name in GameState.__slots__}


class TestInPlaceContract:
    """``apply_move`` advances its state in place only once the whole
    move is valid; ``copy()`` makes an independent state; the callers
    that only look at a position leave it unchanged."""

    REJECTED = {
        # test id: (rule, position builder, player, move)
        "wrong-player": ("wrong-player", lambda: new_game(4), Player.MAKER,
                         Move.place(0, 1)),
        "wrong-kind": ("wrong-kind", lambda: _play(new_game(4), Move.place(0, 1)),
                       Player.MAKER, Move.claim(2)),
        "out-of-range": ("out-of-range", lambda: new_game(4), Player.BREAKER,
                         Move.place(0, 4)),
        # A bool would be written as JSON true, which no reader accepts,
        # and a float indexes no edge row.
        "bool-vertex": ("out-of-range", lambda: new_game(4), Player.BREAKER,
                        Move.place(True, 3)),
        "float-vertex": ("out-of-range",
                         lambda: _play(new_game(4), Move.place(0, 1),
                                       Move.place(2, 3)),
                         Player.BREAKER, Move.claim(2.0)),
        "loop": ("loop", lambda: new_game(4), Player.BREAKER, Move.place(2, 2)),
        "opponent-edge": ("opponent-edge",
                          lambda: _play(new_game(4), Move.place(0, 1),
                                        Move.place(2, 3), Move.claim(3)),
                          Player.MAKER, Move.traverse(1)),
        "own-edge": ("own-edge",
                     lambda: _play(new_game(4), Move.place(0, 1),
                                   Move.place(2, 3), Move.claim(2)),
                     Player.MAKER, Move.claim(2)),
        "unclaimed-edge": ("unclaimed-edge",
                           lambda: _play(new_game(4), Move.place(0, 1),
                                         Move.place(2, 3)),
                           Player.BREAKER, Move.traverse(2)),
        "pass-with-moves": ("pass-with-moves", lambda: new_game(4),
                            Player.BREAKER, Move.pass_()),
        # A kind must be a MoveKind, not the str that equals one: it
        # would otherwise be judged by the wrong rule, or played.
        "str-kind-claim": ("wrong-kind",
                           lambda: _play(new_game(5), Move.place(0, 1),
                                         Move.place(2, 3)),
                           Player.BREAKER, Move("claim", None, 4)),
        "str-kind-traverse": ("wrong-kind",
                              lambda: _play(new_game(5), Move.place(0, 1),
                                            Move.place(2, 3)),
                              Player.BREAKER, Move("traverse", None, 0)),
        "str-kind-unplaced": ("wrong-kind", lambda: new_game(4),
                              Player.BREAKER, Move("claim", None, 1)),
    }

    @pytest.mark.parametrize("rule,build,player,move", REJECTED.values(),
                             ids=REJECTED.keys())
    def test_rejected_move_leaves_the_state_untouched(self, rule, build,
                                                      player, move):
        state = build()
        before = state.copy()
        with pytest.raises(IllegalMoveError) as err:
            apply_move(state, player, move)
        assert err.value.rule == rule
        assert _frozen(state) == _frozen(before)

    @pytest.mark.parametrize("bias", BIASES)
    @pytest.mark.parametrize("seed", range(3))
    def test_check_move_returns_the_origin(self, seed, bias):
        """``check_move`` returns the vertex a legal move leaves from: a
        placement's start, else the mover's position, and None for a
        pass; and it changes nothing."""
        rng = random.Random(seed)
        state = new_game(6, Bias(*bias))
        kinds = set()
        for _ in range(40):
            player = state.to_move
            move = rng.choice(legal_moves(state, player))
            frozen = _frozen(state)
            origin = check_move(state, player, move)
            assert _frozen(state) == frozen
            if move.kind is MoveKind.PASS:
                assert origin is None
            elif move.kind is MoveKind.PLACE:
                assert origin == move.start
            else:
                assert origin == state.position(player)
            kinds.add(move.kind)
            apply_move(state, player, move)
        assert {MoveKind.PLACE, MoveKind.CLAIM} <= kinds

    @pytest.mark.parametrize("bias", BIASES)
    @pytest.mark.parametrize("seed", range(3))
    def test_copy_shares_no_mutable_container(self, seed, bias):
        *_, state = random_playout_states(7, seed, 12, bias)
        twin = state.copy()
        assert _frozen(twin) == _frozen(state)
        assert twin.rows is not state.rows
        for v in range(state.n):
            assert twin.rows[v] is not state.rows[v]
        for name in ("unvisited", "tainted", "maker_edges", "breaker_edges"):
            assert getattr(twin, name) is not getattr(state, name), name
        # Playing on, and writing into, the copy leaves the source as it was.
        frozen = _frozen(state)
        rng = random.Random(seed)
        for _ in range(20):
            apply_move(twin, twin.to_move,
                       rng.choice(legal_moves(twin, twin.to_move)))
        twin.rows[0][1] = twin.rows[1][0] = FREE
        twin.unvisited.add(99)
        twin.tainted.add(99)
        twin.maker_edges.append((0, 99))
        twin.breaker_edges.append((0, 99))
        assert _frozen(state) == frozen

    def test_scripted_move_leaves_the_state_unchanged(self):
        state = _play(new_game(6), Move.place(0, 1), Move.place(2, 3))
        frozen = _frozen(state)
        mem = StrategyMemory(designated={
            "script": [Move.claim(4), Move.claim(5)], "cursor": 0})
        assert scripted_move(state, mem) == Move.claim(4)
        assert _frozen(state) == frozen

    def test_cross_validate_leaves_its_initial_state_unchanged(self):
        state = _play(new_game(4), Move.place(0, 1))
        frozen = _frozen(state)
        result = solve_from_state(state, "connectivity", move_cap=12)
        assert result.pv
        assert cross_validate(result, initial=state)
        assert _frozen(state) == frozen


class TestDegrees:
    def test_degree_examples(self):
        state = _play(new_game(6), Move.place(0, 1), Move.place(2, 3))
        state = _play(state, Move.claim(2), Move.claim(4))  # b: 0-1, 1-2; m: 2-3, 3-4
        assert degree_b(state, 1) == 2
        assert degree_b(state, 1, {0}) == 1
        assert degree_b(state, 1, {4, 5}) == 0
        assert degree_m(state, 3) == 2
        assert degree_b(state, 5) == 0

    def test_restrict_excludes_self(self):
        state = _play(new_game(4), Move.place(0, 1))
        assert degree_b(state, 0, {0, 1}) == 1

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(3, 9),
           steps=st.integers(0, 40), x=st.integers(0, 8),
           mask=st.integers(0, 2 ** 9 - 1), with_x=st.booleans())
    def test_restricted_degree_matches_brute_force(self, seed, n, steps, x,
                                                   mask, with_x):
        *_, state = random_playout_states(n, seed, steps)
        x %= n
        restrict = {t for t in range(n) if mask >> t & 1}
        if with_x:
            restrict.add(x)
        expected = sum(1 for t in restrict
                       if t != x and state.owner(x, t) == BREAKER_OWNED)
        assert degree_b(state, x, restrict) == expected


class TestGoals:
    def test_connectivity_exact_moment(self):
        state = new_game(3)
        state = _play(state, Move.place(0, 1), Move.place(1, 2))
        assert not connectivity_won(state)
        state = _play(state, Move.traverse(0), Move.claim(0))
        assert connectivity_won(state)

    def test_hamilton_certificate_accepts_cycle(self):
        # Maker rings 0-1-2-3-0 while the breaker oscillates on a chord.
        state = new_game(4, Bias(1, 1), Player.MAKER)
        state = _play(state, Move.place(0, 1), Move.place(2, 0))
        state = _play(state, Move.claim(2), Move.traverse(2))
        state = _play(state, Move.claim(3), Move.traverse(0))
        state = _play(state, Move.claim(0))
        assert hamilton_won(state, [0, 1, 2, 3])
        assert hamilton_won(state, [2, 3, 0, 1])  # rotation irrelevant
        assert hamilton_won(state)  # search agrees

    def test_hamilton_certificate_rejects_non_cycle(self):
        state = new_game(4, Bias(1, 1), Player.MAKER)
        state = _play(state, Move.place(0, 1), Move.place(3, 2))
        assert not hamilton_won(state, [0, 1, 2, 3])

    def test_malformed_certificates_raise(self):
        state = new_game(4, Bias(1, 1), Player.MAKER)
        state = _play(state, Move.place(0, 1), Move.place(3, 2))
        for bad in ([0, 1, 2], [0, 1, 2, 2], [0, 1, 2, 9], [0, 1, 2, True]):
            with pytest.raises(MalformedCertificateError):
                hamilton_won(state, bad)

    def test_search_limit_enforced(self):
        state = new_game(21)
        with pytest.raises(ValueError):
            hamilton_won(state)


def _assert_placed_mover_can_move(state):
    """A placed walker owns the edge it arrived by, so it can always
    traverse it and never has to pass."""
    player = state.to_move
    if state.position(player) is not None:
        assert count_moves(state, player) >= 1


class TestRecomputation:
    @pytest.mark.parametrize("first", list(Player))
    @pytest.mark.parametrize("bias", BIASES)
    @pytest.mark.parametrize("seed", range(6))
    def test_incremental_fields_match_recomputation(self, seed, bias, first):
        for state in random_playout_states(8, seed, 40, bias, first):
            unvisited = recomputed_unvisited(state)
            touched = recomputed_breaker_touched(state)
            assert state.unvisited == unvisited
            assert state.tainted == unvisited & touched
            _assert_placed_mover_can_move(state)
            dm, db = recomputed_degrees(state)
            assert [degree_m(state, v) for v in range(state.n)] == dm
            assert [degree_b(state, v) for v in range(state.n)] == db

    @pytest.mark.parametrize("first", list(Player))
    @pytest.mark.parametrize("bias", BIASES)
    @pytest.mark.parametrize("seed", range(6))
    def test_cursor_is_the_lowest_untouched_vertex(self, seed, bias, first):
        # Each playout state is a copy, so copy() is checked with it.
        for state in random_playout_states(8, seed, 40, bias, first):
            for s in (state, state.copy()):
                expected = min(s.unvisited - s.tainted, default=s.n)
                assert s.untouched_low == expected
                assert lowest_untouched(s) == expected

    def test_cursor_reads_on_from_a_lazy_start(self):
        # A state built field by field starts its cursor at 0; the query
        # reads on from there and leaves the field as it was.
        state = build_state(8, maker_edges=[(0, 1)],
                            breaker_edges=[(2, 5)], maker_pos=1,
                            breaker_pos=5)
        assert state.untouched_low == 0
        assert lowest_untouched(state) == 3
        assert state.untouched_low == 0
        apply_move(state, Player.MAKER, Move.claim(3))
        assert state.untouched_low == 4
        full = build_state(4, maker_edges=[(0, 1), (1, 2), (2, 3)],
                           maker_pos=3)
        assert lowest_untouched(full) == 4

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(3, 9),
           steps=st.integers(0, 60), bias=st.sampled_from(BIASES),
           first=st.sampled_from(list(Player)))
    def test_rows_agree_with_claimed_edges_on_playouts(self, seed, n, steps,
                                                       bias, first):
        for state in random_playout_states(n, seed, steps, bias, first):
            assert state.tainted == (recomputed_unvisited(state)
                                     & recomputed_breaker_touched(state))
            _assert_placed_mover_can_move(state)
            rows = state.rows
            codes = edge_codes(state)
            assert len(rows) == n
            for v in range(n):
                assert len(rows[v]) == n
                assert rows[v][v] == _SELF
                for t in range(v + 1, n):
                    assert rows[v][t] == rows[t][v]
                    assert rows[v][t] == codes.get((v, t), FREE)

    def test_unvisited_never_grows(self):
        prev = None
        for state in random_playout_states(9, 3, steps=60):
            if prev is not None:
                assert state.unvisited <= prev
            prev = set(state.unvisited)

    def test_snapshot_is_json_compatible(self):
        import json
        for state in random_playout_states(6, 1, steps=10):
            json.dumps(snapshot(state))


class TestLegalityProperties:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(3, 7),
           steps=st.integers(0, 30))
    def test_legal_moves_sound_and_complete(self, seed, n, steps):
        *_, state = random_playout_states(n, seed, steps)
        player = state.to_move
        legal = legal_moves(state, player)
        legal_set = set(legal)
        assert len(legal) == len(legal_set)
        for mv in all_candidate_moves(n):
            try:
                successor(state, player, mv)
                ok = True
            except IllegalMoveError:
                ok = False
            assert ok == (mv in legal_set), (mv, state)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_playouts_deterministic(self, seed):
        def trail(s):
            rng = random.Random(s)
            state = new_game(6)
            out = []
            for _ in range(30):
                mv = rng.choice(legal_moves(state, state.to_move))
                out.append(str(mv))
                apply_move(state, state.to_move, mv)
            return out

        assert trail(seed) == trail(seed)


def _assert_counted_queries_match_list(state):
    player = state.to_move
    legal = legal_moves(state, player)
    assert legal == reference_legal_moves(state, player)
    count = count_moves(state, player)
    assert count == (0 if legal == [Move.pass_()] else len(legal))
    assert [nth_move(state, player, k) for k in range(len(legal))] == legal
    for k in (-1, len(legal)):
        with pytest.raises(IndexError):
            nth_move(state, player, k)
    for query in (count_moves, lambda s, p: nth_move(s, p, 0)):
        with pytest.raises(IllegalMoveError) as err:
            query(state, player.other)
        assert err.value.rule == "wrong-player"


class TestCountedMoves:
    """``legal_moves`` lists what a plain scan of the claimed edges finds, and
    ``count_moves`` and ``nth_move`` answer what it lists."""

    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(3, 9),
           steps=st.integers(0, 60), bias=st.sampled_from(BIASES),
           first=st.sampled_from(list(Player)))
    def test_agree_with_legal_moves_on_playouts(self, seed, n, steps, bias,
                                                first):
        *_, state = random_playout_states(n, seed, steps, bias, first)
        _assert_counted_queries_match_list(state)

    @pytest.mark.parametrize("index", range(len(pass_only_states())))
    def test_agree_with_legal_moves_when_only_pass(self, index):
        state = pass_only_states()[index]
        assert count_moves(state, state.to_move) == 0
        _assert_counted_queries_match_list(state)

    def test_pass_accepted_when_only_pass(self):
        for state in pass_only_states():
            apply_move(state, state.to_move, Move.pass_())
            assert state.passes == 1
