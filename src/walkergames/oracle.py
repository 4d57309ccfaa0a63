"""Exact minimax solver for tiny boards.

Computes, for boards of at most five vertices with one move per side
per turn, the optimal number of Maker moves to reach the goal within a
move cap, or the fact that the opponent prevents it. The Maker
minimizes her number of non-pass moves; the Breaker maximizes it.

A position is (maker mask, breaker mask, Maker position, Breaker
position, side to move): the two players' edges as int bitmasks over
the n(n-1)/2 edges (at most ten), the positions -1 before placement.
The search is a finite-horizon minimax over the remaining Maker-move
budget, and a position with no budget left scores as prevention.
Exceeding the cap counting as a Breaker win is sound because a walker
game that drags on repeats positions, and repetition gains the Maker
nothing.

Each position is solved once:

* *Goal tables.* For every edge mask, ``won[mm]`` says whether the
  Maker's edges reach the goal. Both goals survive adding edges, and
  the Maker can gain any edge the Breaker lacks, so his edges rule the
  goal out for good, ``dead[bm]``, exactly when their complement is
  not won. A dead position scores as prevention at any budget.
* *Memo without the budget.* The least number of moves v within which
  the Maker forces the goal does not depend on the budget b, as long
  as v <= b; below v the answer is prevention. So the memo holds
  either that exact v, which answers every budget, or a lower bound
  "prevented within b", which answers every budget up to b; a larger
  budget searches the position again. Once a Maker move is found, later
  moves are searched only within the budget that would beat it.
* *Canonical keys.* Positions equal up to renaming vertices have equal
  values. The memo key renames the Maker's position to 0 and the
  Breaker's to the next label, then takes the least key over the
  orders of the other vertices. The search runs in that canonical
  frame, and stored moves are mapped back when the principal variation
  is read off. Each of the n! renamings is built once, as mask tables,
  and serves the five seat pairs whose positions it labels 0 and 1.

Every line ends by itself: a position that is won, dead or out of
budget is never expanded, and in any other the Maker to move has a
move that spends budget. A Maker with only a pass has no free edge and
none of her own at her seat, or anywhere if unplaced. So the Breaker
owns every edge there, the complement of his edges leaves a vertex
bare, and she is dead for either goal. So no (position, budget) pair
repeats along a line, and a principal variation from budget b has at
most 2b + 1 moves. A rule change that broke this would overflow the
recursion (``OracleLimitError``), not return a wrong value.

The optimal move stored with each value yields a principal variation
that ``cross_validate`` replays through the real engine, move by legal
move, to confirm the claimed outcome.

The solver's own compact move generator yields engine-shaped
``(kind, start, target)`` tuples in the engine's order (placements in
lexicographic order, then claims, then traversals, each by ascending
target, pass only when nothing else is legal). ``oracle_moves`` runs
it on engine states so tests can check the two agree everywhere.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Optional

from .engine import (
    GOALS,
    Bias,
    GameState,
    IllegalMoveError,
    Move,
    MoveKind,
    Player,
    apply_move,
    edge_count,
    edge_index,
    goal_reached,
    new_game,
    resolve_move_cap,
)

ORACLE_MAX_N = 5
PLACE, CLAIM, TRAVERSE, PASS = MoveKind  # globals read faster than members
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
    memo: int                           # positions held in the memo
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
            "memo": self.memo,
            "pv": [str(m) for m in self.pv],
        }


def _bit_rows(n: int) -> list:
    """bit[a][b]: the one-bit mask of edge {a, b}; 0 when a == b."""
    return [[0 if a == b else 1 << edge_index(n, a, b) for b in range(n)]
            for a in range(n)]


def _moves(bit: list, free: int, mine: int, pos: int) -> list:
    """Legal moves in engine order for the walker at ``pos`` (-1 before
    placement) owning the edges in ``mine``."""
    n = len(bit)
    if pos < 0:
        return [(PLACE, s, t) for s in range(n) for t in range(n)
                if bit[s][t] & free]
    row = bit[pos]
    out = [(CLAIM, None, t) for t in range(n) if row[t] & free]
    out += [(TRAVERSE, None, t) for t in range(n) if row[t] & mine]
    return out or [(PASS, None, None)]


def _child(bit: list, mm: int, bm: int, mpos: int, bpos: int,
           maker_turn: int, mv: tuple) -> tuple:
    """(mm, bm, mpos, bpos, cost) after the side to move plays ``mv``;
    cost is 1 for a non-pass Maker move, else 0."""
    kind, s, t = mv
    if kind is PASS:
        return mm, bm, mpos, bpos, 0
    if maker_turn:
        if kind is not TRAVERSE:
            mm |= bit[s if kind is PLACE else mpos][t]
        return mm, bm, t, bpos, 1
    if kind is not TRAVERSE:
        bm |= bit[s if kind is PLACE else bpos][t]
    return mm, bm, mpos, t, 0


def _relabel(mv: tuple, label: tuple) -> Move:
    """``mv`` with every vertex v renamed to label[v]."""
    kind, s, t = mv
    return Move(kind, None if s is None else label[s],
                None if t is None else label[t])


def _goal_tables(n: int, goal: str, bit: list) -> tuple:
    """(won, dead) over all edge masks: won[mm] when the Maker's edges
    reach the goal, dead[bm] when the Breaker's edges rule it out for
    good. Only ``won`` is searched: dead[bm] = 1 - won[full ^ bm], and
    full ^ bm = full - bm reverses the mask order."""
    size = 1 << edge_count(n)
    won = bytearray(size)
    if goal == "connectivity":
        ends = [0] * edge_count(n)
        for a in range(n):
            for b in range(a + 1, n):
                ends[edge_index(n, a, b)] = (1 << a) | (1 << b)
        visited = [0] * size
        for m in range(1, size):
            low = m & -m
            visited[m] = visited[m ^ low] | ends[low.bit_length() - 1]
            won[m] = visited[m] == (1 << n) - 1
    else:
        cycles = []
        for perm in permutations(range(1, n)):
            if perm[0] < perm[-1]:  # each cycle once, not once per direction
                cyc = (0,) + perm
                cycles.append(sum(bit[cyc[i]][cyc[i - 1]] for i in range(n)))
        for m in range(size):
            won[m] = any(m & c == c for c in cycles)
    return won, bytes(1 - w for w in reversed(won))


def _relabellings(n: int, bit: list) -> list:
    """groups[mpos + 1][bpos + 1] = (tag, cmpos, cbpos, renamings):
    the canonical positions, their share of the key, and for each
    renaming that sends mpos to 0 and bpos to the next label, the mask
    tables (lo, hi) and the canonical-to-actual vertex map.

    One pass over the vertex-to-label permutations, in lexicographic
    order, builds each renaming once. The one that labels v0 and v1 as
    0 and 1 joins the five seat groups it canonicalises: (-1, -1),
    (v0, -1), (v0, v0), (-1, v0) and (v0, v1). So every group holds its
    renamings in lexicographic order of the permutation.
    """
    edges = edge_count(n)
    half = edges // 2
    groups = [[[] for _ in range(n + 1)] for _ in range(n + 1)]
    for perm in permutations(range(n)):
        moved = [bit[perm[a]][perm[b]] for a, b in combinations(range(n), 2)]
        lo = [0] * (1 << half)
        hi = [0] * (1 << (edges - half))
        for table, shift in ((lo, 0), (hi, half)):
            for m in range(1, len(table)):
                low = m & -m
                table[m] = table[m ^ low] | moved[low.bit_length() - 1 + shift]
        label = [0] * n
        for v in range(n):
            label[perm[v]] = v
        renaming = (lo, hi, tuple(label))
        v0, v1 = label[0], label[1]
        for mpos, bpos in ((-1, -1), (v0, -1), (v0, v0), (-1, v0), (v0, v1)):
            groups[mpos + 1][bpos + 1].append(renaming)
    for mpos, row in enumerate(groups, -1):
        for bpos, renamings in enumerate(row, -1):
            cmpos = -1 if mpos < 0 else 0
            cbpos = -1 if bpos < 0 else int(0 <= mpos != bpos)
            tag = ((cmpos + 1) * 3 + cbpos + 1) * 2
            row[bpos + 1] = (tag, cmpos, cbpos, tuple(renamings))
    return groups


class _Solver:
    """Minimax over positions (mm, bm, mpos, bpos, maker_turn): edge
    bitmasks, positions (-1 before placement) and 1 when the Maker
    moves. The memo maps a canonical key to (v, move): v >= 0 is the
    exact value, v < 0 means prevented within a budget of -v; the move
    is in the canonical frame. ``groups`` holds, per seat pair, the
    renamings that ``_relabellings`` built once each."""

    def __init__(self, n: int, goal: str, node_limit: int):
        if n < 3 or n > ORACLE_MAX_N:
            raise ValueError(
                f"exact solving supports 3 <= n <= {ORACLE_MAX_N}, got {n}")
        if goal not in GOALS:
            raise ValueError(f"unknown goal {goal!r}")
        self.n = n
        self.node_limit = node_limit
        self.nodes = 0
        self.memo: dict = {}
        self.bit = _bit_rows(n)
        self.edges = edge_count(n)
        self.full = (1 << self.edges) - 1
        self.won, self.dead = _goal_tables(n, goal, self.bit)
        self.half = self.edges // 2
        self.low_mask = (1 << self.half) - 1
        self.groups = _relabellings(n, self.bit)

    def _canonical(self, mm: int, bm: int, mpos: int, bpos: int,
                   maker_turn: int) -> tuple:
        """(key, cmm, cbm, cmpos, cbpos, label): the canonical form and
        the map from its vertices back to this position's."""
        tag, cmpos, cbpos, renamings = self.groups[mpos + 1][bpos + 1]
        edges, half, low_mask = self.edges, self.half, self.low_mask
        best = -1
        for lo, hi, label in renamings:
            w = ((lo[mm & low_mask] | hi[mm >> half]) << edges
                 | lo[bm & low_mask] | hi[bm >> half])
            if best < 0 or w < best:
                best, best_label = w, label
        return (best * 12 + tag + maker_turn, best >> edges, best & self.full,
                cmpos, cbpos, best_label)

    def value(self, mm: int, bm: int, mpos: int, bpos: int,
              maker_turn: int, budget: int) -> int:
        """Least additional Maker moves to the goal, spending at most
        ``budget`` of them, under best resistance. _INF if prevented."""
        if self.won[mm]:
            return 0
        if budget <= 0 or self.dead[bm]:
            return _INF
        key, mm, bm, mpos, bpos, _ = self._canonical(mm, bm, mpos, bpos,
                                                     maker_turn)
        hit = self.memo.get(key)
        if hit is not None:
            v = hit[0]
            if v >= 0:
                return v if v <= budget else _INF
            if -v >= budget:
                return _INF
        self.nodes += 1
        if self.nodes > self.node_limit:
            raise OracleLimitError(
                f"search exceeded {self.node_limit} nodes; raise the limit "
                "or shrink the problem")
        bit = self.bit
        free = self.full & ~(mm | bm)
        if maker_turn:
            best = _INF
            moves = _moves(bit, free, mm, mpos)
        else:
            best = -1
            moves = _moves(bit, free, bm, bpos)
        best_move = moves[0]
        for mv in moves:
            nmm, nbm, nm, nb, cost = _child(bit, mm, bm, mpos, bpos,
                                            maker_turn, mv)
            if maker_turn:
                if best <= 1:
                    break  # no move can beat an immediate win
                # Only a total below ``best`` would replace it.
                v = self.value(nmm, nbm, nm, nb, 0,
                               min(budget, best - 1) - cost)
                if v + cost < best:
                    best, best_move = v + cost, mv
            else:
                v = self.value(nmm, nbm, nm, nb, 1, budget)
                if v > best:
                    best, best_move = v, mv
                    if v >= _INF:
                        break  # prevention is the Breaker's best
        self.memo[key] = (best if best < _INF else -budget, best_move)
        return best

    def principal_variation(self, mm: int, bm: int, mpos: int, bpos: int,
                            maker_turn: int, budget: int) -> list:
        """The stored best line; it ends because every stored Maker move
        is a non-pass that spends budget."""
        pv = []
        while not self.won[mm] and budget > 0:
            key, *_, label = self._canonical(mm, bm, mpos, bpos, maker_turn)
            hit = self.memo.get(key)
            if hit is None:
                break  # a dead position
            mv = _relabel(hit[1], label)
            pv.append(mv)
            mm, bm, mpos, bpos, cost = _child(self.bit, mm, bm, mpos, bpos,
                                              maker_turn, mv)
            maker_turn ^= 1
            budget -= cost
        return pv


def _internal_from_state(state: GameState) -> tuple:
    """(mm, bm, mpos, bpos, maker_turn) for an engine state."""
    n = state.n
    mm = sum(1 << edge_index(n, a, b) for a, b in state.maker_edges)
    bm = sum(1 << edge_index(n, a, b) for a, b in state.breaker_edges)
    mpos = -1 if state.maker_pos is None else state.maker_pos
    bpos = -1 if state.breaker_pos is None else state.breaker_pos
    return mm, bm, mpos, bpos, int(state.to_move is Player.MAKER)


def oracle_moves(state: GameState) -> list:
    """The solver's legal moves for an engine state, as engine Moves."""
    mm, bm, mpos, bpos, maker_turn = _internal_from_state(state)
    free = (1 << edge_count(state.n)) - 1 & ~(mm | bm)
    mine, pos = (mm, mpos) if maker_turn else (bm, bpos)
    return [Move(*m) for m in _moves(_bit_rows(state.n), free, mine, pos)]


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
    cap = resolve_move_cap(state.n, move_cap)
    remaining = max(cap - state.maker_moves, 0)
    solver = _Solver(state.n, goal, node_limit)
    position = _internal_from_state(state)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 100_000))
    try:
        val = solver.value(*position, remaining)
    except RecursionError as exc:  # about two plies per unit of budget
        raise OracleLimitError("search too deep; lower the move cap") from exc
    finally:
        sys.setrecursionlimit(limit)
    if val < _INF:
        outcome = "maker"
        moves_to_win = val
    else:
        outcome = "breaker"
        moves_to_win = None
    pv = solver.principal_variation(*position, remaining)
    first = "maker" if state.to_move is Player.MAKER else "breaker"
    return SolveResult(
        n=state.n,
        goal=goal,
        first_player=first,
        move_cap=cap,
        outcome=outcome,
        maker_moves_to_win=moves_to_win,
        nodes=solver.nodes,
        memo=len(solver.memo),
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
    Maker moves for a Maker win, the goal unreached for prevention. The
    line is played on a copy of ``initial``, which stays unchanged.
    """
    if initial is None:
        state = new_game(result.n, Bias(1, 1), Player(result.first_player))
        spent = 0
    else:
        state = initial.copy()
        spent = initial.maker_moves
    budget = result.move_cap - spent
    try:
        for mv in result.pv:
            apply_move(state, state.to_move, mv)
            if state.maker_moves - spent >= budget:
                break  # the cap ends the game here
    except IllegalMoveError:
        return False

    reached = goal_reached(state, result.goal)
    if result.outcome == "maker":
        return reached and state.maker_moves - spent == result.maker_moves_to_win
    return not reached
