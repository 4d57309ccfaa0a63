"""Exact-solver tests.

The expected small-board values here were derived with the independent
engine-driven reference in conftest (and are re-checked against it in
the agreement tests):

* 3 vertices, connectivity, Breaker moving first: Maker wins with 2
  moves; Maker moving first: prevented forever;
* 3 vertices, Hamilton cycle, either order: prevented forever (the
  board has exactly as many edges as the cycle needs);
* 4 vertices, connectivity, either order: Maker wins with 4 moves;
* 4 vertices, Hamilton cycle, either order: prevented forever;
* 5 vertices, connectivity, at the default cap of 50: Maker wins with
  5 moves moving second and 6 moving first;
* 5 vertices, Hamilton cycle, either order: prevented.
"""
from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import random
import sys
from collections import Counter

import pytest

from conftest import (
    INF,
    brute_force_value,
    build_state,
    random_playout_states,
    relabel_state,
)

from walkergames.engine import (
    GOALS,
    Bias,
    Move,
    Player,
    connectivity_won,
    hamilton_won,
    legal_moves,
    new_game,
)
from walkergames.oracle import (
    ORACLE_MAX_N,
    OracleLimitError,
    SolveResult,
    _bit_rows,
    _goal_tables,
    _internal_from_state,
    _relabellings,
    _Solver,
    cross_validate,
    oracle_moves,
    solve,
    solve_from_state,
)


class TestFrozenSmallValues:
    def test_three_vertices_connectivity_breaker_first(self):
        result = solve(3, "connectivity", Player.BREAKER)
        assert result.outcome == "maker"
        assert result.maker_moves_to_win == 2
        assert cross_validate(result)

    def test_three_vertices_connectivity_maker_first_prevented(self):
        result = solve(3, "connectivity", Player.MAKER, move_cap=10)
        assert result.outcome == "breaker"
        assert result.maker_moves_to_win is None
        assert cross_validate(result)

    @pytest.mark.parametrize("first", [Player.BREAKER, Player.MAKER])
    def test_three_vertices_hamilton_prevented(self, first):
        result = solve(3, "hamilton", first)
        assert result.outcome == "breaker"
        assert result.maker_moves_to_win is None
        assert cross_validate(result)

    @pytest.mark.parametrize("first", [Player.BREAKER, Player.MAKER])
    def test_four_vertices_connectivity_maker_wins_in_four(self, first):
        result = solve(4, "connectivity", first, move_cap=12)
        assert result.outcome == "maker"
        assert result.maker_moves_to_win == 4
        assert cross_validate(result)

    @pytest.mark.parametrize("first", [Player.BREAKER, Player.MAKER])
    def test_four_vertices_hamilton_prevented(self, first):
        result = solve(4, "hamilton", first, move_cap=12)
        assert result.outcome == "breaker"
        assert result.maker_moves_to_win is None
        assert cross_validate(result)

    def test_bad_breaker_reply_loses_in_two(self):
        # Maker opens 0-1; a Breaker placement claiming 0-2 leaves 1-2
        # free, so one more claim finishes: two Maker moves in total.
        state = new_game(3, Bias(1, 1), Player.MAKER)
        from walkergames.engine import apply_move
        apply_move(state, Player.MAKER, Move.place(0, 1))
        apply_move(state, Player.BREAKER, Move.place(2, 0))
        result = solve_from_state(state, "connectivity", move_cap=10)
        assert result.outcome == "maker"
        assert result.maker_moves_to_win == 1
        assert state.maker_moves + result.maker_moves_to_win == 2
        assert cross_validate(result, initial=state)


class TestBruteForceAgreement:
    @pytest.mark.parametrize("goal", ["connectivity", "hamilton"])
    @pytest.mark.parametrize("first", [Player.BREAKER, Player.MAKER])
    def test_full_boards_small(self, goal, first):
        for n, cap in ((3, 30), (4, 12)):
            result = solve(n, goal, first, move_cap=cap)
            reference = brute_force_value(new_game(n, Bias(1, 1), first),
                                          goal, cap)
            if reference >= INF:
                assert result.outcome == "breaker"
                assert result.maker_moves_to_win is None
            else:
                assert result.outcome == "maker"
                assert result.maker_moves_to_win == reference
            assert cross_validate(result)

    def test_four_vertices_connectivity_breaker_first_cross_replays(self):
        result = solve(4, "connectivity", Player.BREAKER, move_cap=12)
        assert result.outcome in ("maker", "breaker")
        assert cross_validate(result)

    def test_midgame_positions_agree(self):
        cap = 16
        checked = 0
        for seed in range(8):
            for state in itertools.islice(
                    random_playout_states(4, seed, 6), 2, None, 2):
                result = solve_from_state(state, "connectivity", move_cap=cap)
                reference = brute_force_value(
                    state, "connectivity", max(cap - state.maker_moves, 0))
                if reference >= INF:
                    assert result.outcome == "breaker", state
                else:
                    assert result.outcome == "maker"
                    assert result.maker_moves_to_win == reference
                checked += 1
        assert checked >= 16

    def test_hamilton_midgame_positions_agree(self):
        # Random play leaves some boards where the Maker closes a cycle,
        # so the Hamilton goal and dead tables are checked on both sides.
        wins = checked = 0
        for seed in range(40):
            for first in (Player.BREAKER, Player.MAKER):
                for state in itertools.islice(
                        random_playout_states(4, seed, 12, first=first),
                        4, None, 2):
                    result = solve_from_state(
                        state, "hamilton", move_cap=state.maker_moves + 6)
                    reference = brute_force_value(state, "hamilton", 6)
                    if reference >= INF:
                        assert result.outcome == "breaker", state
                    else:
                        assert result.maker_moves_to_win == reference, state
                        assert cross_validate(result, initial=state)
                        wins += 1
                    checked += 1
        assert checked == 400 and wins >= 5


class TestBudgetIndependence:
    """A value v found at one budget is the value at every budget of at
    least v, and every smaller budget is prevention: what lets the memo
    drop the budget from its key."""

    @staticmethod
    def _midgame_states():
        for seed in range(6):
            for first in (Player.BREAKER, Player.MAKER):
                yield from itertools.islice(
                    random_playout_states(4, seed, 8, first=first), 2, None, 3)

    @pytest.mark.parametrize("goal", ["connectivity", "hamilton"])
    def test_value_at_one_cap_fixes_every_cap(self, goal):
        finite = 0
        for state in self._midgame_states():
            values = {}
            for budget in range(0, 13):
                result = solve_from_state(
                    state, goal, move_cap=state.maker_moves + budget)
                values[budget] = result.maker_moves_to_win
                if budget <= 5:
                    reference = brute_force_value(state, goal, budget)
                    assert values[budget] == (
                        None if reference >= INF else reference), (state, budget)
            v = values[12]
            if v is None:
                assert set(values.values()) == {None}
                continue
            finite += 1
            for budget, value in values.items():
                assert value == (v if budget >= v else None), (state, budget)
        if goal == "connectivity":
            assert finite >= 10

    @pytest.mark.parametrize("goal", ["connectivity", "hamilton"])
    def test_one_memo_answers_budgets_in_any_order(self, goal):
        rng = random.Random(4)
        varied = 0
        for state in self._midgame_states():
            position = _internal_from_state(state)
            fresh = {b: _Solver(4, goal, 10 ** 6).value(*position, b)
                     for b in range(0, 11)}
            varied += len(set(fresh.values())) > 1
            shared = _Solver(4, goal, 10 ** 6)
            order = list(range(0, 11)) * 2
            rng.shuffle(order)
            for b in order:
                assert shared.value(*position, b) == fresh[b], (state, b)
        if goal == "connectivity":
            assert varied >= 10


class TestEveryLineEnds:
    """The solver needs no repetition guard: a Maker to move who has only
    a pass is won or dead, so every expanded Maker ply spends budget and
    a principal variation from budget b has at most 2b + 1 moves."""

    @staticmethod
    def _positions(n, rng):
        for seed in range(4):
            for first in (Player.BREAKER, Player.MAKER):
                yield from random_playout_states(n, seed, 2 * n, first=first)
        pairs = list(itertools.combinations(range(n), 2))
        seats = [None] + list(range(n))
        for _ in range(40):
            owners = rng.choices("mbf", weights=(1, rng.randint(1, 8), 1),
                                 k=len(pairs))
            yield build_state(
                n,
                maker_edges=[e for e, o in zip(pairs, owners) if o == "m"],
                breaker_edges=[e for e, o in zip(pairs, owners) if o == "b"],
                maker_pos=rng.choice(seats), breaker_pos=rng.choice(seats),
                to_move=rng.choice((Player.MAKER, Player.BREAKER)))

    def test_pass_only_makers_are_won_or_dead_and_lines_are_short(self):
        rng = random.Random(27)
        checked = stuck = solved = 0
        for n in (3, 4, 5):
            positions = list(self._positions(n, rng))
            for goal in GOALS:
                won, dead = _goal_tables(n, goal, _bit_rows(n))
                for state in positions:
                    checked += 1
                    mm, bm, *_ = _internal_from_state(state)
                    if (state.to_move is Player.MAKER
                            and oracle_moves(state) == [Move.pass_()]):
                        stuck += 1
                        assert won[mm] or dead[bm], state
                for state in positions[::16 if n == 5 else 3]:
                    for budget in range(1, 8):
                        result = solve_from_state(
                            state, goal, move_cap=state.maker_moves + budget)
                        assert len(result.pv) <= 2 * budget + 1, (state, goal)
                        solved += 1
        assert checked >= 300 and stuck >= 20 and solved >= 500


class TestGoalTables:
    """``dead`` is ``won`` read through the complement: the Breaker's
    edges rule the goal out for good exactly when the Maker, given every
    other edge, would still miss it."""

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_dead_matches_the_engine_on_the_complement(self, n):
        pairs = list(itertools.combinations(range(n), 2))
        bit = _bit_rows(n)
        tables = {goal: _goal_tables(n, goal, bit) for goal in GOALS}
        engine_won = {"connectivity": connectivity_won,
                      "hamilton": hamilton_won}
        for bm in range(1 << len(pairs)):
            theirs = [(a, b) for a, b in pairs if bit[a][b] & bm]
            state = build_state(
                n, maker_edges=[e for e in pairs if e not in theirs],
                breaker_edges=theirs)
            for goal, (_, dead) in tables.items():
                assert dead[bm] == (not engine_won[goal](state)), (goal, bm)

    def test_dead_matches_the_star_and_cycle_constructions_at_n6(self):
        """The Breaker's edges rule connectivity out when they hold every
        edge at some vertex, and the Hamilton game when they meet every
        Hamilton cycle."""
        n = 6
        bit = _bit_rows(n)
        size = 1 << n * (n - 1) // 2
        stars = [sum(row) for row in bit]
        cycles = {sum(bit[c[i]][c[i - 1]] for i in range(n))
                  for c in itertools.permutations(range(n))}
        assert len(cycles) == math.factorial(n - 1) // 2
        reference = {
            "connectivity": [any(m & s == s for s in stars)
                             for m in range(size)],
            "hamilton": [all(m & c for c in cycles) for m in range(size)],
        }
        for goal in GOALS:
            _, dead = _goal_tables(n, goal, bit)
            assert list(map(bool, dead)) == reference[goal], goal


class TestGeneratorAgreement:
    def test_matches_engine_legal_moves_on_playouts(self):
        for n in (3, 4, 5):
            for seed in range(6):
                for state in random_playout_states(n, seed, 8):
                    assert oracle_moves(state) == legal_moves(state, state.to_move)


class TestCapBehavior:
    def test_cap_monotonicity(self):
        # 2 Maker moves are needed; any cap of at least 2 stays a Maker
        # win and caps below flip to prevention, never the reverse.
        outcomes = [solve(3, "connectivity", Player.BREAKER, move_cap=cap).outcome
                    for cap in (1, 2, 3, 10, 30)]
        assert outcomes == ["breaker", "maker", "maker", "maker", "maker"]
        first_maker = outcomes.index("maker")
        assert all(o == "maker" for o in outcomes[first_maker:])

    def test_capped_result_cross_validates(self):
        result = solve(3, "connectivity", Player.BREAKER, move_cap=1)
        assert result.outcome == "breaker"
        assert cross_validate(result)


class TestSymmetry:
    def test_relabeling_preserves_values(self):
        rng = random.Random(9)
        states = [s for n in (4, 5) for seed in (0, 1)
                  for s in itertools.islice(
                      random_playout_states(n, seed, 5), 2, None, 2)]
        assert {s.n for s in states} == {4, 5}
        for state in states:
            base = solve_from_state(state, "connectivity", move_cap=16)
            perm = list(range(state.n))
            rng.shuffle(perm)
            relabeled = relabel_state(state, perm)
            mirrored = solve_from_state(relabeled, "connectivity",
                                        move_cap=16)
            assert mirrored.outcome == base.outcome
            assert mirrored.maker_moves_to_win == base.maker_moves_to_win
            assert cross_validate(mirrored, initial=relabeled)

    @pytest.mark.parametrize("goal", ["connectivity", "hamilton"])
    def test_unplaced_and_shared_positions_replay(self, goal):
        # Canonical keys cover a walker not yet placed (-1) and both
        # walkers on one vertex; the variation is read back through them.
        rng = random.Random(5)
        seen = {"unplaced": 0, "shared": 0}
        for seed in range(12):
            for first in (Player.BREAKER, Player.MAKER):
                for state in random_playout_states(5, seed, 10, first=first):
                    if (state.maker_pos is None) != (state.breaker_pos is None):
                        kind = "unplaced"
                    elif (state.maker_pos is not None
                          and state.maker_pos == state.breaker_pos):
                        kind = "shared"
                    else:
                        continue
                    seen[kind] += 1
                    base = solve_from_state(state, goal)
                    assert cross_validate(base, initial=state)
                    perm = list(range(5))
                    rng.shuffle(perm)
                    relabeled = relabel_state(state, perm)
                    mirrored = solve_from_state(relabeled, goal)
                    assert (mirrored.maker_moves_to_win
                            == base.maker_moves_to_win)
                    assert cross_validate(mirrored, initial=relabeled)
        assert seen["unplaced"] >= 10 and seen["shared"] >= 10


class TestCrossValidation:
    def _solved(self):
        return solve(3, "connectivity", Player.BREAKER)

    def test_random_subpositions_all_pass(self):
        count = 0
        for seed in range(25):
            for state in itertools.islice(
                    random_playout_states(4, seed, 8), 2, None, 2):
                result = solve_from_state(state, "connectivity", move_cap=16)
                assert cross_validate(result, initial=state)
                count += 1
        assert count >= 100

    def test_illegal_injected_move_fails(self):
        result = self._solved()
        broken = dataclasses.replace(
            result, pv=(Move.claim(0),) + result.pv[1:])
        assert cross_validate(broken) is False

    def test_flipped_outcome_fails(self):
        result = self._solved()
        for broken in (
            dataclasses.replace(result, outcome="breaker",
                                maker_moves_to_win=None),
            dataclasses.replace(result, maker_moves_to_win=3),
        ):
            assert cross_validate(broken) is False

    def test_truncated_variation_fails(self):
        result = self._solved()
        broken = dataclasses.replace(result, pv=result.pv[:1])
        assert cross_validate(broken) is False


class TestLimitsAndErrors:
    def test_board_size_cap(self):
        with pytest.raises(ValueError):
            solve(ORACLE_MAX_N + 1, "connectivity", Player.BREAKER)

    def test_unknown_goal(self):
        with pytest.raises(ValueError):
            solve(3, "perfect-matching", Player.BREAKER)

    def test_biased_positions_rejected(self):
        state = new_game(4, Bias(1, 2), Player.BREAKER)
        with pytest.raises(ValueError):
            solve_from_state(state, "connectivity")

    def test_node_budget_overflow_raises(self):
        # The limit is taken from the solve itself, so it stays one node
        # short however much the search is pruned.
        nodes = solve(4, "connectivity", Player.BREAKER).nodes
        with pytest.raises(OracleLimitError):
            solve(4, "connectivity", Player.BREAKER, node_limit=nodes - 1)
        assert solve(4, "connectivity", Player.BREAKER,
                     node_limit=nodes).nodes == nodes

    def test_recursion_overflow_is_a_limit_error(self, monkeypatch):
        limits = []

        def too_deep(*args):
            limits.append(sys.getrecursionlimit())
            raise RecursionError

        monkeypatch.setattr(_Solver, "value", too_deep)
        limit = sys.getrecursionlimit()
        with pytest.raises(OracleLimitError, match="search too deep"):
            solve(3, "connectivity", Player.BREAKER)
        assert limits and limits[0] >= 100_000
        assert sys.getrecursionlimit() == limit

    def test_mid_turn_positions_rejected(self):
        state = new_game(4, Bias(1, 1), Player.BREAKER)
        state.moves_left_in_turn = 2
        with pytest.raises(ValueError, match="turn boundary"):
            solve_from_state(state, "connectivity")

    def test_prevention_still_carries_a_variation(self):
        result = solve(3, "connectivity", Player.MAKER, move_cap=10)
        assert len(result.pv) > 0
        assert result.pv[0].kind.value == "place"

    def test_result_serializes(self):
        import json
        result = solve(3, "connectivity", Player.BREAKER)
        blob = json.dumps(result.to_json())
        assert '"outcome": "maker"' in blob


class TestRelabellings:
    """``_relabellings`` builds each renaming once and files it under
    the seat groups whose positions it sends to labels 0 and 1."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_each_group_holds_its_seats_renamings_in_order(self, n):
        bit = _bit_rows(n)
        groups = _relabellings(n, bit)
        perms = list(itertools.permutations(range(n)))  # vertex -> label
        assert [len(row) for row in groups] == [n + 1] * (n + 1)
        filed = Counter()
        for mpos in range(-1, n):
            for bpos in range(-1, n):
                tag, cmpos, cbpos, renamings = groups[mpos + 1][bpos + 1]
                fixed = list(dict.fromkeys(v for v in (mpos, bpos) if v >= 0))
                assert cmpos == (0 if mpos >= 0 else -1)
                assert cbpos == (fixed.index(bpos) if bpos >= 0 else -1)
                assert tag == ((cmpos + 1) * 3 + cbpos + 1) * 2
                want = [p for p in perms
                        if all(p[v] == i for i, v in enumerate(fixed))]
                assert len(want) == math.factorial(n - len(fixed))
                got = [tuple(sorted(range(n), key=label.__getitem__))
                       for _, _, label in renamings]
                assert got == want
                filed.update(id(r) for r in renamings)
        # One renaming per permutation, each in exactly five groups.
        assert len(filed) == len(perms)
        assert set(filed.values()) == {5}

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_tables_rename_every_edge_set(self, n):
        """lo and hi send the bits of actual edges {label[c], label[d]}
        to those of canonical edges {c, d}."""
        bit = _bit_rows(n)
        half = n * (n - 1) // 4
        pairs = list(itertools.combinations(range(n), 2))
        rng = random.Random(n)
        for lo, hi, label in _relabellings(n, bit)[0][0][3]:
            for chosen in [[p] for p in pairs] + [rng.sample(pairs, 3)]:
                m = sum(bit[label[c]][label[d]] for c, d in chosen)
                assert (lo[m & (1 << half) - 1] | hi[m >> half]
                        == sum(bit[c][d] for c, d in chosen))


class TestFiveVertexSmoke:
    def test_full_solve_completes_and_replays(self):
        result = solve(5, "connectivity", Player.BREAKER, move_cap=6)
        assert result.outcome == "maker"
        assert result.maker_moves_to_win == 5
        assert result.nodes > 0
        assert cross_validate(result)

    @pytest.mark.parametrize("goal,first,value", [
        ("connectivity", Player.MAKER, 6),
        ("connectivity", Player.BREAKER, 5),
        ("hamilton", Player.MAKER, None),
        ("hamilton", Player.BREAKER, None),
    ])
    def test_default_cap_solves_and_replays(self, goal, first, value):
        result = solve(5, goal, first)
        assert result.move_cap == 50
        assert result.maker_moves_to_win == value
        assert result.outcome == ("breaker" if value is None else "maker")
        assert 0 < result.memo <= result.nodes
        assert cross_validate(result)


class TestFrozenOutputs:
    # sha256 of the 16 solves' sorted-key JSON, one line each, in the
    # order below; it pins every value, node count, memo size and
    # principal variation.
    DIGEST = "7980c91a0a010d6d0eb5e59d0e313e289c6045baa95ac8fb3b157c57d2a0208d"

    def test_sixteen_solves_are_byte_identical(self):
        results = [solve(n, goal, first, move_cap=cap)
                   for n, cap in [(3, None), (4, None), (5, 6), (5, None)]
                   for goal in GOALS
                   for first in (Player.MAKER, Player.BREAKER)]
        assert all(cross_validate(r) for r in results)
        assert sum(r.nodes for r in results) == 3409
        text = "\n".join(json.dumps(r.to_json(), sort_keys=True)
                         for r in results)
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGEST
