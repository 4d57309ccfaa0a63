"""Invariant monitors for pursuit-based Maker play.

Each check watches one guarantee of the pursuit policy family and is
evaluated only at the instants and under the observable conditions
where the guarantee applies, so a monitored game replays identically
to an unmonitored one. Checks never alter play; violations are
counted and reported, and the caller decides whether to abort.

The suite arms itself only for the setting the guarantees cover:
pursuit-based Maker, one move per side per turn, Breaker moving first,
and a board no smaller than the configured floor size. Anything else
leaves every check dormant and the report marked unarmed. The suite
reads that setting from the transcript header, and a header with
monitoring off makes a suite that observes nothing and reports None.

``observe(record, state)`` takes each move's transcript record with the
state the move left: the record that play has just built, or that
replay has just checked. The record names the mover, the round before
the move, its kind and its index, so the suite reads those facts from
the transcript and not from the state. The vertices a Maker move first
visited are those ends of its edge that hold no other Maker edge. An
unarmed suite ignores the move.

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

from .engine import (BREAKER_OWNED, MAKER_OWNED, GameState,
                     breaker_edge_inside_unvisited, degree_b, degree_m)
from .strategies import MAKERS
from .transcript import Header, MoveRecord

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

    def violate(self, round_index: int, detail: str):
        self.violations += 1
        if self.first_violation_round is None:
            self.first_violation_round = round_index
            self.detail = detail

    def to_json(self) -> dict:
        return dict(vars(self))


# Standalone predicates: the tests' references for ``MonitorSuite.observe``.

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


def first_visited(state: GameState, kind: str) -> list:
    """The vertices a Maker move of ``kind`` first visited, read from the
    state it left: a placement or claim visits those ends of its edge
    that hold no other Maker edge; a pass or traversal visits none."""
    if kind in ("pass", "traverse"):
        return []
    return [v for v in state.maker_edges[-1] if degree_m(state, v) == 1]


class MonitorSuite:
    """Observes applied moves and scores the guarantee checks.

    ``observe`` states every check inline, reading the state's rows and
    sets once per move. The standalone predicates above state the same
    rules one at a time; they are the tests' references for it, and only
    ``breaker_edges_all_touch_maker`` is called from here.
    """

    def __init__(self, header: Header):
        self.header = header
        spec = MAKERS[header.maker]
        self.armed = (header.monitors
                      and header.n >= header.n0
                      and spec.pursuit
                      and tuple(header.bias) == (1, 1)
                      and header.first_player == "breaker")
        self.checks = {name: CheckStats() for name in CHECK_NAMES}
        # The same six stats, in CHECK_NAMES order, for observe to bump.
        (self._touch, self._position, self._prereply, self._tainted,
         self._first_visit, self._path) = self.checks.values()
        self.max_first_visit_degree: Optional[int] = None
        self.pass_entries: list = []
        self._prev_round_breaker_end: Optional[int] = None
        self._window = header.n - 3  # the Maker moves of the pursuit window
        self._pursuit_limit = header.n - spec.pursuit_left
        self._violations = 0  # over all checks, so has_violations is O(1)

    # -- event handling ----------------------------------------------------

    def observe(self, record: MoveRecord, state: GameState):
        """Feed one applied move's record and the state it left. Must be
        called for every move in game order."""
        if not self.armed:
            return
        kind = record.kind
        if kind == "pass":
            self.pass_entries.append(record.index)
        rows = state.rows
        unvisited = state.unvisited
        tainted = state.tainted
        w = state.maker_pos

        if record.player == "breaker":
            # Just before the Maker's reply.
            stats = self._prereply
            round_before = record.round
            if (w is None or len(unvisited) < 2
                    or state.maker_moves > self._pursuit_limit
                    or round_before < 1):
                stats.skipped += 1
                return
            stats.evaluated += 1
            row = rows[w]
            d = 0
            for t in tainted:
                if row[t] == BREAKER_OWNED:
                    d += 1
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
            return

        # Every Maker move ends a round in the armed setting.
        round_1b = record.round + 1
        if kind != "pass":
            maker_moves = state.maker_moves
            in_window = maker_moves <= self._window
            if kind != "traverse":
                # A placement or claim first visits those ends of its edge
                # that hold no other Maker edge: their rows' first and last
                # Maker bytes are one. Most first visits meet no Breaker
                # edge, which a search finds faster than a count.
                stats = self._first_visit
                for v in state.maker_edges[-1]:
                    row = rows[v]
                    if row.find(MAKER_OWNED) != row.rfind(MAKER_OWNED):
                        continue
                    if not in_window:
                        stats.skipped += 1
                        continue
                    stats.evaluated += 1
                    d = row.count(BREAKER_OWNED) if BREAKER_OWNED in row else 0
                    best = self.max_first_visit_degree
                    if best is None or d > best:
                        self.max_first_visit_degree = d
                    if d > FIRST_VISIT_DEGREE_LIMIT:
                        self._violate(
                            stats, round_1b,
                            f"vertex {v} first visited with opponent degree "
                            f"{d}")
            stats = self._path
            if not in_window:
                stats.skipped += 1
            else:
                stats.evaluated += 1
                claimed = len(state.maker_edges)
                if claimed != maker_moves:
                    self._violate(
                        stats, round_1b,
                        f"move {maker_moves} left {claimed} claimed edges, "
                        "not one per move")
                elif state.n - len(unvisited) != maker_moves + 1:
                    self._violate(
                        stats, round_1b,
                        f"claimed edges after move {maker_moves} do not "
                        "form a simple path")

        # At the end of the round.
        if len(unvisited) > 2:
            stats = self._touch
            stats.evaluated += 1
            bad = breaker_edges_all_touch_maker(state)
            if bad is not None:
                self._violate(
                    stats, round_1b,
                    f"opponent edge {bad} has both endpoints unvisited")

            stats = self._position
            if w is None:
                stats.skipped += 1
            else:
                stats.evaluated += 1
                row = rows[w]
                d = 0
                for t in tainted:
                    if row[t] == BREAKER_OWNED:
                        d += 1
                if d > 1:
                    self._violate(
                        stats, round_1b,
                        f"degree {d} from position {w} into the unvisited "
                        "set at round end")

            stats = self._tainted
            stats.evaluated += 1
            t = len(tainted)
            if t > 2:
                self._violate(
                    stats, round_1b,
                    f"{t} unvisited vertices touch opponent edges")
        else:
            self._touch.skipped += 1
            self._position.skipped += 1
            self._tainted.skipped += 1

        self._prev_round_breaker_end = state.breaker_pos

    # -- results -----------------------------------------------------------

    def _violate(self, stats: CheckStats, round_index: int, detail: str):
        stats.violate(round_index, detail)
        self._violations += 1

    def has_violations(self) -> bool:
        return self._violations > 0

    def report(self) -> Optional[dict]:
        """The check results, or None when monitoring is off."""
        header = self.header
        if not header.monitors:
            return None
        return {
            "armed": self.armed,
            "maker": header.maker,
            "bias": list(header.bias),
            "first_player": header.first_player,
            "pursuit_move_limit": self._pursuit_limit,
            "checks": {name: self.checks[name].to_json() for name in CHECK_NAMES},
            "max_first_visit_degree": self.max_first_visit_degree,
            "pass_entries": list(self.pass_entries),
            "clean": not self.has_violations(),
        }
