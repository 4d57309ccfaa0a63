"""Invariant monitors for pursuit-based Maker play.

Each check watches one guarantee of the pursuit policy family and is
evaluated only at the instants and under the observable conditions
where the guarantee applies, so a monitored game replays identically
to an unmonitored one. Checks never alter play; violations are
counted and reported, and the caller decides whether to abort.

The suite arms itself only for the setting the guarantees cover:
pursuit-based Maker, one move per side per turn, Breaker moving first,
and a board no smaller than the configured floor size. Anything else
leaves every check dormant and the report marked unarmed. A suite
built with monitoring off observes nothing and reports None.

``observe(move, state)`` takes each move with the state it left, since
play advances one state in place and keeps no state from before the
move. The armed premise is what makes that enough: at (1:1) with the
Breaker first, every move ends a turn and every Maker move ends a
round, so ``moved`` derives the mover, the round before the move and
the vertices it first visited from the state after it. An unarmed
suite only counts the move.

Checks
------
* ``breaker_edges_touch_maker``: after each completed round with more
  than two vertices unvisited, every Breaker edge has at least one
  Maker-visited endpoint.
* ``position_unvisited_degree``: at the same instants, the Breaker
  degree from the Maker's position into the unvisited set is at most
  one.
* ``prereply_unvisited_degree``: once both sides are placed, from the
  second round until the Maker's pursuit phase ends, the Breaker
  degree from the Maker's position into the unvisited set is at most
  two just before the Maker moves, and equals two only when the
  Breaker ended the previous round exactly there.
* ``tainted_unvisited_limit``: after each completed round with more
  than two vertices unvisited, at most two unvisited vertices are
  incident to any Breaker edge.
* ``first_visit_degree``: every vertex first visited by the Maker
  within her first n-3 moves has Breaker degree at most six at that
  moment.
* ``path_shape``: through the Maker's first n-3 moves her claimed
  edges form a simple path with exactly one edge per move. The suite
  decides this by counting. Once each move has claimed one edge, her
  edges are the steps of one walk, and they form a simple path exactly
  when that walk has visited ``maker_moves + 1`` vertices. This rests
  on the suite seeing every move from the first, as ``observe``
  requires and as ``run_game`` and ``replay_transcript`` do;
  ``maker_edges_form_simple_path`` states the rule on the edges alone.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .engine import (Bias, GameState, Move, MoveKind, Player,
                     breaker_edge_inside_unvisited, degree_b, degree_m)
from .strategies import MAKERS

CHECK_NAMES = (
    "breaker_edges_touch_maker",
    "position_unvisited_degree",
    "prereply_unvisited_degree",
    "tainted_unvisited_limit",
    "first_visit_degree",
    "path_shape",
)

FIRST_VISIT_DEGREE_LIMIT = 6
DEFAULT_N0 = 20  # the smallest board the suite arms on, unless set otherwise


@dataclass
class CheckStats:
    evaluated: int = 0
    skipped: int = 0
    violations: int = 0
    first_violation_round: Optional[int] = None
    detail: Optional[str] = None

    def hit(self):
        self.evaluated += 1

    def miss(self):
        self.skipped += 1

    def violate(self, round_index: int, detail: str):
        self.violations += 1
        if self.first_violation_round is None:
            self.first_violation_round = round_index
            self.detail = detail

    def to_json(self) -> dict:
        return dict(vars(self))


# Standalone predicates, reused by the suite and by unit tests.

def breaker_edges_all_touch_maker(state: GameState) -> Optional[tuple]:
    """Return the first Breaker edge with both endpoints unvisited, or None.

    The edges, in claim order, are scanned only when
    ``breaker_edge_inside_unvisited`` finds that such an edge exists.
    """
    if not breaker_edge_inside_unvisited(state):
        return None
    unvisited = state.unvisited
    for a, b in state.breaker_edges:
        if a in unvisited and b in unvisited:
            return (a, b)
    return None


def position_unvisited_degree(state: GameState) -> int:
    """Breaker degree from the Maker's position into the unvisited set.

    Every Breaker neighbour in the unvisited set is tainted, so the
    count reads only the tainted set.
    """
    if state.maker_pos is None:
        return 0
    return degree_b(state, state.maker_pos, state.tainted)


def tainted_unvisited_count(state: GameState) -> int:
    """Unvisited vertices incident to at least one Breaker edge."""
    return len(state.tainted)


def maker_edges_form_simple_path(state: GameState) -> bool:
    """True when the Maker's claimed edges form one simple path.

    The suite's ``path_shape`` check counts visited vertices instead;
    this scan of the edges alone is the reference it must agree with.
    """
    edges = state.maker_edges
    if not edges:
        return True
    deg: dict = {}
    adj: dict = {}
    for a, b in edges:
        deg[a] = deg.get(a, 0) + 1
        deg[b] = deg.get(b, 0) + 1
        if deg[a] > 2 or deg[b] > 2:
            return False
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    ends = [v for v, d in deg.items() if d == 1]
    if len(ends) != 2:
        return False
    # Walk from one endpoint; a single path covers every edge exactly once.
    seen = {ends[0]}
    prev, cur = None, ends[0]
    steps = 0
    while True:
        nxt = [x for x in adj[cur] if x != prev]
        if not nxt:
            break
        prev, cur = cur, nxt[0]
        if cur in seen:
            return False
        seen.add(cur)
        steps += 1
    return steps == len(edges)


def moved(move: Move, state: GameState) -> tuple:
    """(mover, round before the move, vertices it first visited) of a
    move, read from the state after it, at bias (1:1) with the Breaker
    first, the one setting the suite arms for.

    Every move ends a turn, so the mover is the side not to move. Every
    Maker move ends a round, so the round before it was one less. A
    Maker placement or claim first visits those ends of its edge that
    hold no other Maker edge; they are listed in ascending order.
    """
    mover = state.to_move.other
    if mover is Player.BREAKER:
        return mover, state.round, []
    if move.kind is MoveKind.PASS or move.kind is MoveKind.TRAVERSE:
        return mover, state.round - 1, []
    return mover, state.round - 1, [v for v in state.maker_edges[-1]
                                    if degree_m(state, v) == 1]


class MonitorSuite:
    """Observes applied moves and scores the guarantee checks."""

    def __init__(self, n: int, maker_id: str, bias: Bias,
                 first_player: Player, n0: int = DEFAULT_N0,
                 enabled: bool = True):
        self.n = n
        self.maker_id = maker_id
        self.bias = bias
        self.first_player = first_player
        self.enabled = enabled
        spec = MAKERS[maker_id]
        self.armed = (enabled
                      and n >= n0
                      and spec.pursuit
                      and tuple(bias[:2]) == (1, 1)
                      and first_player is Player.BREAKER)
        self.checks = {name: CheckStats() for name in CHECK_NAMES}
        self.max_first_visit_degree: Optional[int] = None
        self.pass_entries: list = []
        self._index = -1
        self._prev_round_breaker_end: Optional[int] = None
        self._pursuit_limit = n - spec.pursuit_left

    # -- event handling ----------------------------------------------------

    def observe(self, move: Move, state: GameState):
        """Feed one applied move and the state it left. Must be called
        for every move in game order."""
        self._index += 1
        if not self.armed:
            return
        if move.kind is MoveKind.PASS:
            self.pass_entries.append(self._index)
        mover, round_before, visited = moved(move, state)
        if mover is Player.BREAKER:
            self._prereply_check(state, round_before)
            return
        if move.kind is not MoveKind.PASS:
            self._maker_move_checks(state, round_before + 1, visited)
        self._round_completed_checks(state)

    def _maker_move_checks(self, state: GameState, round_1b: int,
                           visited: list):
        in_pursuit_window = state.maker_moves <= self.n - 3

        stats = self.checks["first_visit_degree"]
        for v in visited:
            if not in_pursuit_window:
                stats.miss()
                continue
            stats.hit()
            d = degree_b(state, v)
            if self.max_first_visit_degree is None or d > self.max_first_visit_degree:
                self.max_first_visit_degree = d
            if d > FIRST_VISIT_DEGREE_LIMIT:
                stats.violate(
                    round_1b,
                    f"vertex {v} first visited with opponent degree {d}")

        stats = self.checks["path_shape"]
        if not in_pursuit_window:
            stats.miss()
            return
        stats.hit()
        if len(state.maker_edges) != state.maker_moves:
            stats.violate(
                round_1b,
                f"move {state.maker_moves} left {len(state.maker_edges)} "
                "claimed edges, not one per move")
        elif state.n - len(state.unvisited) != state.maker_moves + 1:
            stats.violate(
                round_1b,
                f"claimed edges after move {state.maker_moves} do not form "
                "a simple path")

    def _prereply_check(self, state: GameState, round_before: int):
        stats = self.checks["prereply_unvisited_degree"]
        if (state.maker_pos is None
                or len(state.unvisited) < 2
                or state.maker_moves > self._pursuit_limit
                or round_before < 1):
            stats.miss()
            return
        stats.hit()
        w = state.maker_pos
        d = degree_b(state, w, state.tainted)
        if d > 2:
            stats.violate(
                round_before + 1,
                f"degree {d} from position {w} into the unvisited set "
                "before the reply")
        elif d == 2 and self._prev_round_breaker_end != w:
            stats.violate(
                round_before + 1,
                f"degree 2 from position {w} but the previous round ended "
                f"with the opponent at {self._prev_round_breaker_end}")

    def _round_completed_checks(self, state: GameState):
        round_1b = state.round
        gate = len(state.unvisited) > 2

        stats = self.checks["breaker_edges_touch_maker"]
        if gate:
            stats.hit()
            bad = breaker_edges_all_touch_maker(state)
            if bad is not None:
                stats.violate(
                    round_1b,
                    f"opponent edge {bad} has both endpoints unvisited")
        else:
            stats.miss()

        stats = self.checks["position_unvisited_degree"]
        if gate and state.maker_pos is not None:
            stats.hit()
            d = position_unvisited_degree(state)
            if d > 1:
                stats.violate(
                    round_1b,
                    f"degree {d} from position {state.maker_pos} into the "
                    "unvisited set at round end")
        else:
            stats.miss()

        stats = self.checks["tainted_unvisited_limit"]
        if gate:
            stats.hit()
            t = tainted_unvisited_count(state)
            if t > 2:
                stats.violate(
                    round_1b,
                    f"{t} unvisited vertices touch opponent edges")
        else:
            stats.miss()

        self._prev_round_breaker_end = state.breaker_pos

    # -- results -----------------------------------------------------------

    def has_violations(self) -> bool:
        return any(s.violations for s in self.checks.values())

    def report(self) -> Optional[dict]:
        """The check results, or None when monitoring is off."""
        if not self.enabled:
            return None
        return {
            "armed": self.armed,
            "maker": self.maker_id,
            "bias": [self.bias.maker, self.bias.breaker],
            "first_player": self.first_player.value,
            "pursuit_move_limit": self._pursuit_limit,
            "checks": {name: self.checks[name].to_json() for name in CHECK_NAMES},
            "max_first_visit_degree": self.max_first_visit_degree,
            "pass_entries": list(self.pass_entries),
            "clean": not self.has_violations(),
        }
