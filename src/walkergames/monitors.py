"""Invariant monitors for pursuit-based Maker play.

Each check watches one guarantee of the pursuit policy family and is
evaluated only at the instants and under the observable conditions
where the guarantee applies, so a monitored game replays identically
to an unmonitored one. Checks never alter play; violations are
counted and reported, and the caller decides whether to abort.

The suite arms itself only for the setting the guarantees cover:
pursuit-based Maker, one move per side per turn, Breaker moving first,
and a board no smaller than the configured floor size. Anything else
leaves every check dormant and the report marked unarmed.

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
  checks this incrementally: it keeps the ends and the vertex set of
  the path seen so far and accepts, in constant time, a claim from one
  end to a new vertex. Any other claim falls back to the full
  ``maker_edges_form_simple_path``, so the verdict is the same.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .engine import Bias, GameState, Move, MoveKind, Player, degree_b
from .strategies import S_BASED_MAKERS

CHECK_NAMES = (
    "breaker_edges_touch_maker",
    "position_unvisited_degree",
    "prereply_unvisited_degree",
    "tainted_unvisited_limit",
    "first_visit_degree",
    "path_shape",
)

FIRST_VISIT_DEGREE_LIMIT = 6


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
        return {
            "evaluated": self.evaluated,
            "skipped": self.skipped,
            "violations": self.violations,
            "first_violation_round": self.first_violation_round,
            "detail": self.detail,
        }


# Standalone predicates, reused by the suite and by unit tests.

def breaker_edges_all_touch_maker(state: GameState) -> Optional[tuple]:
    """Return a Breaker edge with both endpoints unvisited, or None."""
    unvisited = state.unvisited
    for a, b in state.breaker_edges:
        if a in unvisited and b in unvisited:
            return (a, b)
    return None


def position_unvisited_degree(state: GameState) -> int:
    """Breaker degree from the Maker's position into the unvisited set."""
    if state.maker_pos is None:
        return 0
    return degree_b(state, state.maker_pos, state.unvisited)


def tainted_unvisited_count(state: GameState) -> int:
    """Unvisited vertices incident to at least one Breaker edge."""
    return len(state.unvisited & state.breaker_touched)


def maker_edges_form_simple_path(state: GameState) -> bool:
    """True when the Maker's claimed edges form one simple path."""
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


def pursuit_move_limit(maker_id: str, n: int) -> int:
    """Number of Maker moves the pursuit phase covers for this policy."""
    if maker_id == "chase":
        return n - 3
    return n - 4  # connectivity and hamilton leave pursuit one move earlier


class MonitorSuite:
    """Observes applied moves and scores the guarantee checks."""

    def __init__(self, n: int, maker_id: str, bias: Bias,
                 first_player: Player, n0: int = 20, enabled: bool = True):
        self.n = n
        self.maker_id = maker_id
        self.bias = bias
        self.first_player = first_player
        self.n0 = n0
        self.enabled = enabled
        self.armed = (enabled
                      and n >= n0
                      and maker_id in S_BASED_MAKERS
                      and tuple(bias[:2]) == (1, 1)
                      and first_player is Player.BREAKER)
        self.checks = {name: CheckStats() for name in CHECK_NAMES}
        self.max_first_visit_degree: Optional[int] = None
        self.pass_entries: list = []
        self._index = -1
        self._prev_round_breaker_end: Optional[int] = None
        self._pursuit_limit = pursuit_move_limit(maker_id, n)
        # The first _path_len Maker edges: a simple path with these ends
        # through these vertices.
        self._path_len = 0
        self._path_ends: set = set()
        self._path_vertices: set = set()

    # -- event handling ----------------------------------------------------

    def observe(self, before: GameState, move: Move, after: GameState):
        """Feed one applied move: the state before it, the move, the
        state after it. Must be called for every move in game order."""
        self._index += 1
        if not self.armed:
            return
        if move.kind is MoveKind.PASS:
            self.pass_entries.append(self._index)

        mover = before.to_move
        if mover is Player.MAKER and move.kind is not MoveKind.PASS:
            self._maker_move_checks(before, after)
        if mover is Player.BREAKER and after.to_move is Player.MAKER:
            self._prereply_check(before, after)
        if after.round > before.round:
            self._round_completed_checks(after)

    def _maker_move_checks(self, before: GameState, after: GameState):
        in_pursuit_window = after.maker_moves <= self.n - 3
        round_1b = before.round + 1

        stats = self.checks["first_visit_degree"]
        for v in sorted(before.unvisited - after.unvisited):
            if not in_pursuit_window:
                stats.miss()
                continue
            stats.hit()
            d = after.deg_b[v]
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
        if len(after.maker_edges) != after.maker_moves:
            stats.violate(
                round_1b,
                f"move {after.maker_moves} left {len(after.maker_edges)} "
                "claimed edges, not one per move")
        elif not self._still_simple_path(after):
            stats.violate(
                round_1b,
                f"claimed edges after move {after.maker_moves} do not form "
                "a simple path")

    def _still_simple_path(self, after: GameState) -> bool:
        """``maker_edges_form_simple_path(after)``, in constant time when
        the last claim extends the tracked path from one end to a new
        vertex."""
        edges = after.maker_edges
        if len(edges) == self._path_len + 1:
            a, b = edges[-1]
            ends, seen = self._path_ends, self._path_vertices
            if b in ends and a not in seen:
                a, b = b, a  # a is the end the claim leaves
            if not seen:
                ends.update((a, b))
            elif a in ends and b not in seen:
                ends.remove(a)
                ends.add(b)
            else:
                return maker_edges_form_simple_path(after)
            seen.update((a, b))
            self._path_len += 1
            return True
        return maker_edges_form_simple_path(after)

    def _prereply_check(self, before: GameState, after: GameState):
        stats = self.checks["prereply_unvisited_degree"]
        if (after.maker_pos is None
                or len(after.unvisited) < 2
                or after.maker_moves > self._pursuit_limit
                or before.round < 1):
            stats.miss()
            return
        stats.hit()
        w = after.maker_pos
        d = degree_b(after, w, after.unvisited)
        if d > 2:
            stats.violate(
                before.round + 1,
                f"degree {d} from position {w} into the unvisited set "
                "before the reply")
        elif d == 2 and self._prev_round_breaker_end != w:
            stats.violate(
                before.round + 1,
                f"degree 2 from position {w} but the previous round ended "
                f"with the opponent at {self._prev_round_breaker_end}")

    def _round_completed_checks(self, after: GameState):
        round_1b = after.round
        gate = len(after.unvisited) > 2

        stats = self.checks["breaker_edges_touch_maker"]
        if gate:
            stats.hit()
            bad = breaker_edges_all_touch_maker(after)
            if bad is not None:
                stats.violate(
                    round_1b,
                    f"opponent edge {bad} has both endpoints unvisited")
        else:
            stats.miss()

        stats = self.checks["position_unvisited_degree"]
        if gate and after.maker_pos is not None:
            stats.hit()
            d = position_unvisited_degree(after)
            if d > 1:
                stats.violate(
                    round_1b,
                    f"degree {d} from position {after.maker_pos} into the "
                    "unvisited set at round end")
        else:
            stats.miss()

        stats = self.checks["tainted_unvisited_limit"]
        if gate:
            stats.hit()
            t = tainted_unvisited_count(after)
            if t > 2:
                stats.violate(
                    round_1b,
                    f"{t} unvisited vertices touch opponent edges")
        else:
            stats.miss()

        self._prev_round_breaker_end = after.breaker_pos

    # -- results -----------------------------------------------------------

    def has_violations(self) -> bool:
        return any(s.violations for s in self.checks.values())

    def first_violation(self) -> Optional[tuple]:
        best = None
        for name in CHECK_NAMES:
            s = self.checks[name]
            if s.first_violation_round is not None:
                if best is None or s.first_violation_round < best[1]:
                    best = (name, s.first_violation_round)
        return best

    def report(self) -> dict:
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
