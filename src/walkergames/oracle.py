"""Exact minimax solver for tiny boards.

Computes, for boards of at most five vertices with one move per side
per turn, the optimal number of Maker moves to reach the goal within a
move cap, or the fact that the opponent prevents it. The Maker
minimizes her number of non-pass moves; the Breaker maximizes it.

The search is a finite-horizon minimax: positions are memoized
together with the remaining Maker-move budget, and a position with no
budget left scores as prevention. Exceeding the cap counting as a
Breaker win is sound because a walker game that drags on repeats
positions, and repetition gains the Maker nothing. Keying values by
(position, budget) keeps them independent of how the search reached a
node, so the memo is exact. The only play that never consumes budget
is an all-pass standoff (possible solely while a player has no edges
and no free edge exists); a repetition guard scores those lines as
prevention directly.

The optimal move stored with each value yields a principal variation
that ``cross_validate`` replays through the real engine, move by legal
move, to confirm the claimed outcome.

The solver uses its own compact move generator, ordered identically to
the engine's (placements in lexicographic order, then claims, then
traversals, each by ascending target, pass only when nothing else is
legal). ``oracle_moves`` exposes that generator on engine states so
tests can check the two agree everywhere.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import permutations
from typing import Optional

from .engine import (
    BREAKER_OWNED,
    FREE,
    GOALS,
    MAKER_OWNED,
    Bias,
    GameState,
    IllegalMoveError,
    Move,
    Player,
    apply_move,
    connectivity_won,
    edge_index,
    hamilton_won,
    new_game,
)

ORACLE_MAX_N = 5
_INF = 10 ** 9


class OracleLimitError(RuntimeError):
    """The solver exceeded its node or table budget."""


@dataclass(frozen=True)
class SolveResult:
    n: int
    goal: str
    first_player: str
    move_cap: int
    outcome: str                        # "maker" | "breaker"
    maker_moves_to_win: Optional[int]   # None when the goal is prevented
    nodes: int
    pv: tuple                           # principal variation, engine Moves

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "goal": self.goal,
            "first_player": self.first_player,
            "move_cap": self.move_cap,
            "outcome": self.outcome,
            "maker_moves_to_win": self.maker_moves_to_win,
            "nodes": self.nodes,
            "pv": [str(m) for m in self.pv],
        }


def _hamilton_cycle_masks(n: int, eidx) -> tuple:
    masks = []
    for perm in permutations(range(1, n)):
        if perm[0] > perm[-1]:
            continue  # each cycle once, not once per direction
        cyc = (0,) + perm
        mask = 0
        for i in range(n):
            mask |= 1 << eidx[cyc[i]][cyc[(i + 1) % n]]
        masks.append(mask)
    return tuple(masks)


class _Solver:
    """A position is (own, mpos, bpos, to_move): the engine's edge codes
    as bytes, the two positions (-1 before placement) and the mover as
    the edge code it claims with (``Player.owns``)."""

    def __init__(self, n: int, goal: str, node_limit: int):
        if n < 3 or n > ORACLE_MAX_N:
            raise ValueError(
                f"exact solving supports 3 <= n <= {ORACLE_MAX_N}, got {n}")
        if goal not in GOALS:
            raise ValueError(f"unknown goal {goal!r}")
        self.n = n
        self.goal = goal
        self.node_limit = node_limit
        self.nodes = 0
        self.memo: dict = {}
        self.onpath: set = set()
        self.eidx = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                if a != b:
                    self.eidx[a][b] = edge_index(n, a, b)
        self.full_visit = (1 << n) - 1
        self.cycle_masks = (_hamilton_cycle_masks(n, self.eidx)
                            if goal == "hamilton" else ())

    # -- goal and derived facts ---------------------------------------------

    def _visited_and_medges(self, own: bytes) -> tuple:
        visited = 0
        medges = 0
        n = self.n
        e = 0
        for a in range(n):
            for b in range(a + 1, n):
                if own[e] == MAKER_OWNED:
                    visited |= (1 << a) | (1 << b)
                    medges |= 1 << e
                e += 1
        return visited, medges

    def _won(self, own: bytes) -> bool:
        visited, medges = self._visited_and_medges(own)
        if self.goal == "connectivity":
            return visited == self.full_visit
        return any((medges & c) == c for c in self.cycle_masks)

    # -- move generation, engine order --------------------------------------

    def _moves(self, own: bytes, pos: int, mine: int, other_pos: int = -1,
               reduce_symmetry: bool = False) -> list:
        n = self.n
        if pos < 0:
            if (reduce_symmetry and other_pos < 0
                    and all(o == FREE for o in own)):
                # Empty board: every placement is equivalent under
                # relabeling, so explore one representative.
                return [("P", 0, 1)]
            out = []
            for s in range(n):
                for t in range(n):
                    if s != t and own[self.eidx[s][t]] == FREE:
                        out.append(("P", s, t))
            return out
        claims = [("C", t) for t in range(n)
                  if t != pos and own[self.eidx[pos][t]] == FREE]
        travs = [("T", t) for t in range(n)
                 if t != pos and own[self.eidx[pos][t]] == mine]
        if not claims and not travs:
            return [("X",)]
        return claims + travs

    # -- search --------------------------------------------------------------

    def _child(self, own: bytes, mpos: int, bpos: int, to_move: int,
               mv: tuple) -> tuple:
        """(own, mpos, bpos, to_move, cost) after the side to move plays
        ``mv``; cost is 1 for a non-pass Maker move, else 0."""
        kind = mv[0]
        nxt = MAKER_OWNED + BREAKER_OWNED - to_move
        if kind == "X":
            return own, mpos, bpos, nxt, 0
        target = mv[-1]
        maker_turn = to_move == MAKER_OWNED
        if kind != "T":
            origin = mv[1] if kind == "P" else (mpos if maker_turn else bpos)
            e = self.eidx[origin][target]
            own = own[:e] + bytes([to_move]) + own[e + 1:]
        if maker_turn:
            return own, target, bpos, nxt, 1
        return own, mpos, target, nxt, 0

    def value(self, own: bytes, mpos: int, bpos: int, to_move: int,
              budget: int) -> int:
        """Least additional Maker moves to the goal, spending at most
        ``budget`` of them, under best resistance. _INF if prevented."""
        if self._won(own):
            return 0
        if budget <= 0:
            return _INF
        key = (own, mpos, bpos, to_move, budget)
        hit = self.memo.get(key)
        if hit is not None:
            return hit[0]
        if key in self.onpath:
            return _INF  # an all-pass standoff: nobody can progress
        self.nodes += 1
        if self.nodes > self.node_limit or len(self.memo) > self.node_limit:
            raise OracleLimitError(
                f"search exceeded {self.node_limit} nodes; raise the limit "
                "or shrink the problem")
        self.onpath.add(key)
        maker_turn = to_move == MAKER_OWNED
        pos = mpos if maker_turn else bpos
        best = _INF if maker_turn else -1
        best_move = None
        other = bpos if maker_turn else mpos
        for mv in self._moves(own, pos, to_move, other, reduce_symmetry=True):
            nown, nm, nb, nxt, cost = self._child(own, mpos, bpos, to_move, mv)
            v = self.value(nown, nm, nb, nxt, budget - cost)
            total = _INF if v >= _INF else v + cost
            if maker_turn:
                if best_move is None or total < best:
                    best, best_move = total, mv
            else:
                if total > best:
                    best, best_move = total, mv
        self.onpath.discard(key)
        self.memo[key] = (best, best_move)
        return best

    def principal_variation(self, own: bytes, mpos: int, bpos: int,
                            to_move: int, budget: int, max_len: int) -> list:
        pv = []
        seen = set()
        while len(pv) < max_len:
            if self._won(own) or budget <= 0:
                break
            key = (own, mpos, bpos, to_move, budget)
            if key in seen:
                break
            seen.add(key)
            hit = self.memo.get(key)
            if hit is None or hit[1] is None:
                break
            pv.append(_as_engine_move(hit[1]))
            own, mpos, bpos, to_move, cost = self._child(
                own, mpos, bpos, to_move, hit[1])
            budget -= cost
        return pv


def _as_engine_move(mv: tuple) -> Move:
    if mv[0] == "P":
        return Move.place(mv[1], mv[2])
    if mv[0] == "C":
        return Move.claim(mv[1])
    if mv[0] == "T":
        return Move.traverse(mv[1])
    return Move.pass_()


def _internal_from_state(state: GameState) -> tuple:
    own = bytes(state.edges)
    mpos = -1 if state.maker_pos is None else state.maker_pos
    bpos = -1 if state.breaker_pos is None else state.breaker_pos
    return own, mpos, bpos, state.to_move.owns


def oracle_moves(state: GameState) -> list:
    """The solver's legal moves for an engine state, as engine Moves."""
    solver = _Solver(state.n, "connectivity", node_limit=1)
    own, mpos, bpos, to_move = _internal_from_state(state)
    pos = mpos if to_move == MAKER_OWNED else bpos
    return [_as_engine_move(m) for m in solver._moves(own, pos, to_move)]


def solve_from_state(state: GameState, goal: str,
                     move_cap: Optional[int] = None,
                     node_limit: int = 5_000_000) -> SolveResult:
    """Solve onward from an arbitrary engine position.

    ``maker_moves_to_win`` counts additional Maker moves from here; the
    cap check charges the Maker's moves already spent.
    """
    if tuple(state.bias) != (1, 1):
        raise ValueError("exact solving covers one move per side per turn")
    if state.moves_left_in_turn != state.bias.per_turn(state.to_move):
        raise ValueError("exact solving starts at a turn boundary")
    cap = move_cap if move_cap is not None else 10 * state.n
    remaining = max(cap - state.maker_moves, 0)
    solver = _Solver(state.n, goal, node_limit)
    own, mpos, bpos, to_move = _internal_from_state(state)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 100_000))
    try:
        val = solver.value(own, mpos, bpos, to_move, remaining)
    finally:
        sys.setrecursionlimit(limit)
    if val < _INF:
        outcome = "maker"
        moves_to_win = val
        pv_len = 4 * (val + 1) + 8
    else:
        outcome = "breaker"
        moves_to_win = None
        pv_len = 4 * cap + 8
    pv = solver.principal_variation(own, mpos, bpos, to_move, remaining,
                                    pv_len)
    first = "maker" if state.to_move is Player.MAKER else "breaker"
    return SolveResult(
        n=state.n,
        goal=goal,
        first_player=first,
        move_cap=cap,
        outcome=outcome,
        maker_moves_to_win=moves_to_win,
        nodes=solver.nodes,
        pv=tuple(pv),
    )


def solve(n: int, goal: str, first_player: Player,
          move_cap: Optional[int] = None,
          node_limit: int = 5_000_000) -> SolveResult:
    """Solve the full game on n vertices from the empty board."""
    state = new_game(n, Bias(1, 1), first_player)
    return solve_from_state(state, goal, move_cap=move_cap,
                            node_limit=node_limit)


def cross_validate(result: SolveResult,
                   initial: Optional[GameState] = None) -> bool:
    """Replay the principal variation through the engine.

    True when every move is legal and the terminal position matches the
    claimed outcome: the goal reached in exactly the claimed number of
    Maker moves for a Maker win, the goal unreached for prevention.
    """
    if initial is None:
        state = new_game(result.n, Bias(1, 1), Player(result.first_player))
        spent = 0
    else:
        state = initial
        spent = initial.maker_moves
    budget = result.move_cap - spent
    try:
        for mv in result.pv:
            state = apply_move(state, state.to_move, mv)
            if state.maker_moves - spent >= budget:
                break  # the cap ends the game here
    except IllegalMoveError:
        return False

    def reached(s: GameState) -> bool:
        if result.goal == "connectivity":
            return connectivity_won(s)
        return hamilton_won(s)

    if result.outcome == "maker":
        if not reached(state):
            return False
        return state.maker_moves - spent == result.maker_moves_to_win
    return not reached(state)
