"""Core engine for walk-constrained claiming games on complete graphs.

Two players, Maker and Breaker, alternately claim edges of K_n. Each
player's claimed edges must form a walk: a player standing at vertex v
may either claim a free edge incident to v (moving to its other end) or
traverse an edge she already owns (moving without claiming). Edges owned
by the opponent can never be used. A player with no position yet opens
with a placement, claiming any free edge and choosing which endpoint to
stand on. Pass is legal only for a fully blocked walker.

The engine is policy-free: it defines state, legality, application,
degree queries and win detection. Strategies, monitors, the exact
solver and the CLI all build on it.

Legal moves can be listed (``legal_moves``), counted (``count_moves``)
or taken one at a time by index (``nth_move``), all in one order. Play
counts and indexes, which reads one edge row and builds one ``Move``;
the random policy draws every move, placements included, that way. The
list serves the tests and the Maker's blocked-endgame ranking.

Conventions
-----------
* Vertices are integers 0..n-1. Claimed edges are listed as unordered
  pairs in canonical (low, high) form.
* A ``Move`` is a named tuple ``(kind, start, target)``.
* The board is held as n edge rows, one ``bytearray`` of n bytes per
  vertex: ``rows[v][t]`` holds the code of edge {v, t}, one of
  ``FREE``, ``MAKER_OWNED`` or ``BREAKER_OWNED``, and ``rows[v][v]``
  holds ``_SELF``, which matches no edge code. ``Player.owns`` maps a
  player to the code of the edges it claims.
* Degrees are counted from the edge rows by ``degree_b`` and
  ``degree_m``; the state keeps no degree list.
* Play advances one ``GameState`` in place: ``apply_move`` validates
  the whole move with ``check_move`` first, so a rejected move changes
  nothing, and then updates the state and returns None. ``check_move``
  returns the vertex the move leaves from, which ``apply_move`` writes
  from, and rejects a vertex that is not an ``int``, a bool included,
  as out of range. A claim writes
  two bytes of the rows and appends one pair, so a move's bookkeeping
  takes the same time at any n. Each state owns its rows; no row is
  shared between states. ``copy()`` returns an independent state, for
  callers that branch or must keep a position.
* ``tainted`` holds the vertices that are unvisited and touched by a
  Breaker edge, kept by ``apply_move`` so that no reader rebuilds it: a
  Breaker claim adds its unvisited ends, and a Maker claim removes the
  ends it visits.
* ``untouched_low`` is a cursor for the lowest untouched vertex, one
  that is unvisited and free of Breaker edges. No vertex below the
  cursor is untouched, and a vertex that loses that status never
  regains it, so ``apply_move`` only moves the cursor up, at amortized
  constant cost per move. From ``new_game`` on it is exactly the lowest
  untouched vertex, or n when none is left. Its default of 0 is a lazy
  start for a state built field by field: ``lowest_untouched`` reads on
  from the cursor and writes nothing, so a policy leaves the state as
  it was.
* The Enum members are bound once as module globals (``_MAKER``,
  ``_PASS`` and so on), since on CPython 3.11 a read of ``Player.MAKER``
  costs several times a global's, and every move makes several.
* ``round`` counts completed (first player, second player) pairs;
  Maker moves are tallied separately because the win bounds are stated
  in Maker moves.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Iterable, NamedTuple, Optional, Sequence


# Edge codes, the bytes of ``GameState.rows``.
FREE, MAKER_OWNED, BREAKER_OWNED = 0, 1, 2

# Fills a vertex's own slot in its edge row; it matches no edge code.
_SELF = 0xFF


class Player(Enum):
    MAKER = "maker"
    BREAKER = "breaker"

    @property
    def other(self) -> "Player":
        return _BREAKER if self is _MAKER else _MAKER

    @property
    def owns(self) -> int:
        """The edge code of the edges this player claims."""
        return MAKER_OWNED if self is _MAKER else BREAKER_OWNED


class MoveKind(str, Enum):
    PLACE = "place"        # first move: claim a free edge, stand on its far end
    CLAIM = "claim"        # claim a free edge incident to the current position
    TRAVERSE = "traverse"  # walk along an own edge, claiming nothing
    PASS = "pass"          # only when no claim or traversal exists


_MAKER, _BREAKER = Player.MAKER, Player.BREAKER
_PLACE, _CLAIM = MoveKind.PLACE, MoveKind.CLAIM
_TRAVERSE, _PASS = MoveKind.TRAVERSE, MoveKind.PASS


class IllegalMoveError(ValueError):
    """A move failed validation. ``rule`` names the violated rule."""

    def __init__(self, rule: str, detail: str):
        self.rule = rule
        super().__init__(f"illegal move [{rule}]: {detail}")


class MalformedCertificateError(ValueError):
    """A cycle certificate is structurally invalid (distinct from false)."""


class Bias(NamedTuple):
    """Moves per turn for each side. The unbiased game is (1, 1)."""

    maker: int
    breaker: int

    def per_turn(self, player: Player) -> int:
        return self.maker if player is _MAKER else self.breaker


class Move(NamedTuple):
    kind: MoveKind
    start: Optional[int] = None   # placement only: the chosen standing edge's near end
    target: Optional[int] = None  # landing vertex (absent for pass)

    @staticmethod
    def place(start: int, target: int) -> "Move":
        return Move(_PLACE, start, target)

    @staticmethod
    def claim(target: int) -> "Move":
        return Move(_CLAIM, None, target)

    @staticmethod
    def traverse(target: int) -> "Move":
        return Move(_TRAVERSE, None, target)

    @staticmethod
    def pass_() -> "Move":
        return Move(_PASS)

    def __str__(self) -> str:
        if self.kind is MoveKind.PLACE:
            return f"place({self.start},{self.target})"
        if self.kind is MoveKind.PASS:
            return "pass"
        return f"{self.kind.value}({self.target})"


def edge_index(n: int, a: int, b: int) -> int:
    """Triangular index of edge {a, b} among the n(n-1)/2 edges."""
    if a > b:
        a, b = b, a
    return a * (2 * n - a - 1) // 2 + (b - a - 1)


def edge_count(n: int) -> int:
    return n * (n - 1) // 2


@dataclass(slots=True)
class GameState:
    n: int
    bias: Bias
    first_player: Player
    rows: list  # n bytearrays of n edge codes, owned by this state
    maker_pos: Optional[int]
    breaker_pos: Optional[int]
    unvisited: set          # vertices incident to no Maker edge
    tainted: set            # unvisited vertices incident to a Breaker edge
    maker_edges: list       # (low, high) pairs in claim order
    breaker_edges: list
    round: int
    to_move: Player
    moves_left_in_turn: int
    maker_moves: int        # non-pass Maker moves so far
    breaker_moves: int
    passes: int
    untouched_low: int = 0  # no vertex below it is untouched; see above

    def owner(self, a: int, b: int) -> int:
        """The code of edge {a, b}. A loop is no edge: ``owner(v, v)``
        returns ``_SELF``."""
        return self.rows[a][b]

    def is_free(self, a: int, b: int) -> bool:
        """Whether edge {a, b} is unclaimed. False for a loop, which is
        no edge."""
        return self.rows[a][b] == FREE

    def position(self, player: Player) -> Optional[int]:
        return self.maker_pos if player is _MAKER else self.breaker_pos

    def copy(self) -> "GameState":
        """An independent state: fresh rows, sets and lists."""
        return dataclasses.replace(
            self,
            rows=[bytearray(row) for row in self.rows],
            unvisited=set(self.unvisited),
            tainted=set(self.tainted),
            maker_edges=list(self.maker_edges),
            breaker_edges=list(self.breaker_edges),
        )


# The largest board a game may use. Its edge rows take n*n bytes, about
# 16.8 MB at this size, built once per game.
MAX_N = 4096

# The default Maker move cap, in play and in the exact solver, is this times n.
DEFAULT_MOVE_CAP_FACTOR = 10


def resolve_move_cap(n: int, cap: Optional[int]) -> int:
    """The Maker move cap: ``cap``, or the default for n when it is None.
    Raises ValueError for a cap below 1."""
    if cap is None:
        cap = DEFAULT_MOVE_CAP_FACTOR * n
    if cap < 1:
        raise ValueError("move cap must be positive")
    return cap


def check_board_size(n: int) -> None:
    """Raises ValueError unless 3 <= n <= MAX_N."""
    if n < 3:
        raise ValueError(f"need at least 3 vertices, got {n}")
    if n > MAX_N:
        raise ValueError(f"at most {MAX_N} vertices are supported, got {n}")


def new_game(n: int, bias: Bias = Bias(1, 1),
             first_player: Player = Player.BREAKER) -> GameState:
    """Fresh game: all edges free, no positions, every vertex unvisited.

    Raises ValueError, before allocating anything, unless 3 <= n <= MAX_N.
    """
    check_board_size(n)
    bias = Bias(*bias)
    if bias.maker < 1 or bias.breaker < 1:
        raise ValueError(f"bias entries must be positive, got {bias}")
    rows = [bytearray(n) for _ in range(n)]
    for v, row in enumerate(rows):
        row[v] = _SELF
    return GameState(
        n=n,
        bias=bias,
        first_player=first_player,
        rows=rows,
        maker_pos=None,
        breaker_pos=None,
        unvisited=set(range(n)),
        tainted=set(),
        maker_edges=[],
        breaker_edges=[],
        round=0,
        to_move=first_player,
        moves_left_in_turn=bias.per_turn(first_player),
        maker_moves=0,
        breaker_moves=0,
        passes=0,
    )


def _move_groups(state: GameState, player: Player):
    """The legal moves other than pass, as (kind, start, row, code) groups
    in ``legal_moves`` order. A group's moves are ``Move(kind, start, t)``
    for each target t, ascending, where ``row[t] == code``."""
    if player is not state.to_move:
        raise IllegalMoveError("wrong-player", f"{player.value} is not to move")
    pos = state.position(player)
    if pos is None:
        return ((_PLACE, s, row, FREE) for s, row in enumerate(state.rows))
    row = state.rows[pos]
    return ((_CLAIM, None, row, FREE),
            (_TRAVERSE, None, row, player.owns))


def legal_moves(state: GameState, player: Player) -> list:
    """All legal moves for ``player``, in a fixed deterministic order.

    Placements come ordered by (start, target); afterwards claims by
    target, then traversals by target. Returns [pass] exactly when
    nothing else is legal.
    """
    moves = [Move(kind, start, t)
             for kind, start, row, code in _move_groups(state, player)
             for t, c in enumerate(row) if c == code]
    return moves or [Move.pass_()]


def count_moves(state: GameState, player: Player) -> int:
    """The number of legal moves of ``player`` other than pass.

    Equal to ``len(legal_moves(state, player))``, except that it is 0
    where that list is [pass].
    """
    return sum(row.count(code) for _, _, row, code in _move_groups(state, player))


def nth_move(state: GameState, player: Player, k: int) -> Move:
    """Entry k of ``legal_moves(state, player)``, without building the list.

    Before placement it skips whole starts by their free counts; after
    it, it reads one edge row. Raises IndexError unless
    0 <= k < max(1, count_moves(state, player)).
    """
    rest = k
    for kind, start, row, code in _move_groups(state, player):
        found = row.count(code)
        if 0 <= rest < found:
            # What follows the rest-th match is the last piece of a split
            # at the first rest+1 matches.
            after = row.split(bytes((code,)), rest + 1)[-1]
            return Move(kind, start, len(row) - 1 - len(after))
        rest -= found
    if k == 0:  # no group holds a move
        return Move.pass_()
    raise IndexError(f"{player.value} has no legal move {k}")


def check_move(state: GameState, player: Player, move: Move) -> Optional[int]:
    """Raise IllegalMoveError unless ``player`` may play ``move`` now, and
    return the vertex the move leaves from: the placement's start or the
    player's position, or None for a pass.

    Changes nothing. Rejections carry the violated rule by name:
    wrong-player, wrong-kind, out-of-range, loop, opponent-edge,
    own-edge, unclaimed-edge, pass-with-moves. A kind that is not a
    ``MoveKind`` (its str value, say) is the wrong kind, and a vertex
    that is not an ``int`` (a bool or a float, say) is out of range.
    """
    if player is not state.to_move:
        raise IllegalMoveError("wrong-player", f"{player.value} is not to move")
    kind = move.kind
    if type(kind) is not MoveKind:
        raise IllegalMoveError("wrong-kind", f"move kind {kind!r} is not a MoveKind")
    if kind is _PASS:
        if count_moves(state, player):
            raise IllegalMoveError("pass-with-moves", "pass while claims or traversals exist")
        return None
    maker = player is _MAKER
    pos = state.maker_pos if maker else state.breaker_pos
    n = state.n
    if kind is _PLACE:
        if pos is not None:
            raise IllegalMoveError("wrong-kind", "placement after the walk has started")
        origin = move.start
        if type(origin) is not int or not 0 <= origin < n:
            raise IllegalMoveError("out-of-range", f"start vertex {origin!r} not in [0, {n})")
    elif pos is None:
        raise IllegalMoveError("wrong-kind", f"{kind.value} before placement")
    else:
        origin = pos
    target = move.target
    if type(target) is not int or not 0 <= target < n:
        raise IllegalMoveError("out-of-range", f"target vertex {target!r} not in [0, {n})")
    if target == origin:
        raise IllegalMoveError("loop", f"{kind.value} loop at {origin}")
    # A traversal needs an own edge; a placement or claim a free one.
    own = MAKER_OWNED if maker else BREAKER_OWNED
    o = state.rows[origin][target]
    if o != (own if kind is _TRAVERSE else FREE):
        if o == FREE:
            rule, why = "unclaimed-edge", "is not an own edge"
        elif o == own:
            rule, why = "own-edge", "is already owned"
        else:
            rule, why = "opponent-edge", "is the opponent's"
        raise IllegalMoveError(rule, f"edge {origin}-{target} {why}")
    return origin


def apply_move(state: GameState, player: Player, move: Move) -> None:
    """Validate one move with ``check_move``, then play it on ``state``
    in place. A rejected move leaves the state untouched."""
    origin = check_move(state, player, move)
    kind = move.kind
    maker = player is _MAKER
    if kind is _PASS:
        state.passes += 1
    else:
        target = move.target
        if kind is not _TRAVERSE:
            own = MAKER_OWNED if maker else BREAKER_OWNED
            rows = state.rows
            rows[origin][target] = own
            rows[target][origin] = own
            claimed = (origin, target) if origin < target else (target, origin)
            unvisited = state.unvisited
            tainted = state.tainted
            if maker:
                unvisited.difference_update(claimed)
                tainted.difference_update(claimed)
                state.maker_edges.append(claimed)
            else:
                for v in claimed:
                    if v in unvisited:
                        tainted.add(v)
                state.breaker_edges.append(claimed)
            # Only a claim touches vertices, so only a claim moves the
            # cursor, and only up.
            state.untouched_low = lowest_untouched(state)
        if maker:
            state.maker_pos = target
            state.maker_moves += 1
        else:
            state.breaker_pos = target
            state.breaker_moves += 1

    state.moves_left_in_turn -= 1
    if state.moves_left_in_turn == 0:
        if maker:
            to_move = state.to_move = _BREAKER
            state.moves_left_in_turn = state.bias.breaker
        else:
            to_move = state.to_move = _MAKER
            state.moves_left_in_turn = state.bias.maker
        if to_move is state.first_player:
            state.round += 1


def lowest_untouched(state: GameState) -> int:
    """The lowest vertex that is unvisited and free of Breaker edges, or
    n when there is none. Reads on from the state's cursor, which
    ``apply_move`` keeps exact, and writes nothing."""
    low, n = state.untouched_low, state.n
    unvisited, tainted = state.unvisited, state.tainted
    while low < n and (low not in unvisited or low in tainted):
        low += 1
    return low


# ---------------------------------------------------------------------------
# Degree queries
# ---------------------------------------------------------------------------

def degree_b(state: GameState, x: int, restrict: Optional[Iterable[int]] = None) -> int:
    """Breaker degree of x, optionally counting only neighbours in ``restrict``
    (distinct vertices), counted from x's edge row."""
    row = state.rows[x]
    if restrict is None:
        return row.count(BREAKER_OWNED)
    return sum(1 for t in restrict if row[t] == BREAKER_OWNED)


def degree_m(state: GameState, x: int) -> int:
    """Maker degree of x, counted from x's edge row."""
    return state.rows[x].count(MAKER_OWNED)


def breaker_edge_inside_unvisited(state: GameState) -> bool:
    """Whether some Breaker edge has both endpoints unvisited.

    Both ends of such an edge are tainted, so the pairs of tainted
    vertices are looked up in the edge rows.
    """
    tainted = state.tainted
    if len(tainted) < 2:
        return False
    rows = state.rows
    return any(rows[a][b] == BREAKER_OWNED
               for a, b in combinations(tainted, 2))


# ---------------------------------------------------------------------------
# Win detection
# ---------------------------------------------------------------------------

GOALS = ("connectivity", "hamilton")  # decided by the two predicates below


def connectivity_won(state: GameState) -> bool:
    """True iff Maker has visited every vertex.

    A walker's claimed edges are connected by construction, so visiting
    all vertices is exactly a spanning connected subgraph.
    """
    return not state.unvisited


HAMILTON_SEARCH_LIMIT = 20


def hamilton_won(state: GameState, certificate: Optional[Sequence[int]] = None) -> bool:
    """True iff Maker's edges contain a Hamilton cycle.

    With a certificate (cyclic vertex order) the check is linear; a
    malformed certificate raises rather than returning False. Without
    one, an exhaustive backtracking search runs, permitted only for
    n <= HAMILTON_SEARCH_LIMIT.
    """
    n = state.n
    if certificate is not None:
        cert = list(certificate)
        if len(cert) != n:
            raise MalformedCertificateError(
                f"certificate has {len(cert)} entries, expected {n}")
        seen = set()
        for v in cert:
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                raise MalformedCertificateError(f"certificate entry {v!r} is not a vertex")
            if v in seen:
                raise MalformedCertificateError(f"certificate repeats vertex {v}")
            seen.add(v)
        return all(
            state.owner(cert[i], cert[(i + 1) % n]) == MAKER_OWNED
            for i in range(n)
        )
    if n > HAMILTON_SEARCH_LIMIT:
        raise ValueError(
            f"searching for a Hamilton cycle is capped at n <= {HAMILTON_SEARCH_LIMIT}; "
            "pass a certificate instead")
    if len(state.maker_edges) < n:
        return False
    adj = [[] for _ in range(n)]
    for a, b in state.maker_edges:
        adj[a].append(b)
        adj[b].append(a)
    if any(len(row) < 2 for row in adj):
        return False

    start = 0
    visited = [False] * n
    visited[start] = True

    def extend(v: int, depth: int) -> bool:
        if depth == n:
            return start in adj[v]
        for t in adj[v]:
            if not visited[t]:
                visited[t] = True
                if extend(t, depth + 1):
                    return True
                visited[t] = False
        return False

    return extend(start, 1)


def goal_reached(state: GameState, goal: str,
                 certificate: Optional[Sequence[int]] = None,
                 search: bool = True) -> bool:
    """True iff the Maker's edges meet ``goal``. A Hamilton cycle is
    checked through the certificate when given, else by exhaustive
    search when ``search`` is set, else counts as unreached."""
    if goal == "connectivity":
        return connectivity_won(state)
    if certificate is not None:
        return hamilton_won(state, certificate)
    return search and hamilton_won(state)


def snapshot(state: GameState) -> dict:
    """Compact JSON-able summary of a state, for diagnostics."""
    return {
        "n": state.n,
        "bias": list(state.bias),
        "round": state.round,
        "to_move": state.to_move.value,
        "maker_pos": state.maker_pos,
        "breaker_pos": state.breaker_pos,
        "unvisited": sorted(state.unvisited),
        "maker_moves": state.maker_moves,
        "breaker_moves": state.breaker_moves,
        "maker_edges_tail": [list(e) for e in state.maker_edges[-6:]],
        "breaker_edges_tail": [list(e) for e in state.breaker_edges[-6:]],
    }
