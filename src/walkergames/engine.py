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
counts and indexes, which reads one row of the edge store and builds
one ``Move``; the list serves the tests, the Maker's blocked-endgame
ranking and the random policy's placement draw.

Conventions
-----------
* Vertices are integers 0..n-1. Edges are unordered pairs stored in
  canonical (low, high) form and indexed into a flat triangular array.
* That array is a ``bytearray``; each byte holds one edge code:
  ``FREE``, ``MAKER_OWNED`` or ``BREAKER_OWNED``. ``Player.owns`` maps
  a player to the code of the edges it claims.
* ``GameState`` is treated as immutable: ``apply_move`` returns a new
  state and never mutates its input. It copies the edge array, n(n-1)/2
  bytes, for every move; nothing is updated in place or undone.
* ``round`` counts completed (first player, second player) pairs;
  Maker moves are tallied separately because the win bounds are stated
  in Maker moves.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from typing import Iterable, NamedTuple, Optional, Sequence


# Edge codes, one per slot of ``GameState.edges``.
FREE, MAKER_OWNED, BREAKER_OWNED = 0, 1, 2


class Player(Enum):
    MAKER = "maker"
    BREAKER = "breaker"

    @property
    def other(self) -> "Player":
        return Player.BREAKER if self is Player.MAKER else Player.MAKER

    @property
    def owns(self) -> int:
        """The edge code of the edges this player claims."""
        return MAKER_OWNED if self is Player.MAKER else BREAKER_OWNED


class MoveKind(str, Enum):
    PLACE = "place"        # first move: claim a free edge, stand on its far end
    CLAIM = "claim"        # claim a free edge incident to the current position
    TRAVERSE = "traverse"  # walk along an own edge, claiming nothing
    PASS = "pass"          # only when no claim or traversal exists


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
        return self.maker if player is Player.MAKER else self.breaker


@dataclass(frozen=True, slots=True)
class Move:
    kind: MoveKind
    start: Optional[int] = None   # placement only: the chosen standing edge's near end
    target: Optional[int] = None  # landing vertex (absent for pass)

    @staticmethod
    def place(start: int, target: int) -> "Move":
        return Move(MoveKind.PLACE, start, target)

    @staticmethod
    def claim(target: int) -> "Move":
        return Move(MoveKind.CLAIM, None, target)

    @staticmethod
    def traverse(target: int) -> "Move":
        return Move(MoveKind.TRAVERSE, None, target)

    @staticmethod
    def pass_() -> "Move":
        return Move(MoveKind.PASS)

    def __str__(self) -> str:
        if self.kind is MoveKind.PLACE:
            return f"place({self.start},{self.target})"
        if self.kind is MoveKind.PASS:
            return "pass"
        return f"{self.kind.value}({self.target})"


def edge_index(n: int, a: int, b: int) -> int:
    """Triangular index of edge {a, b} in a flat array of n(n-1)/2 slots."""
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
    edges: bytearray  # one edge code per byte, length n(n-1)/2
    maker_pos: Optional[int]
    breaker_pos: Optional[int]
    unvisited: set          # vertices incident to no Maker edge
    breaker_touched: set    # vertices incident to at least one Breaker edge
    deg_b: list
    maker_edges: list       # (low, high) pairs in claim order
    breaker_edges: list
    round: int
    to_move: Player
    moves_left_in_turn: int
    maker_moves: int        # non-pass Maker moves so far
    breaker_moves: int
    passes: int

    def owner(self, a: int, b: int) -> int:
        return self.edges[edge_index(self.n, a, b)]

    def is_free(self, a: int, b: int) -> bool:
        return self.edges[edge_index(self.n, a, b)] == FREE

    def position(self, player: Player) -> Optional[int]:
        return self.maker_pos if player is Player.MAKER else self.breaker_pos


# The largest board a game may use. Its edge store takes n(n-1)/2 bytes,
# about 8 MB at this size, and every move copies it.
MAX_N = 4096

# The default Maker move cap, in play and in the exact solver, is this times n.
DEFAULT_MOVE_CAP_FACTOR = 10


def new_game(n: int, bias: Bias = Bias(1, 1),
             first_player: Player = Player.BREAKER) -> GameState:
    """Fresh game: all edges free, no positions, every vertex unvisited.

    Raises ValueError, before allocating anything, unless 3 <= n <= MAX_N.
    """
    if n < 3:
        raise ValueError(f"need at least 3 vertices, got {n}")
    if n > MAX_N:
        raise ValueError(f"at most {MAX_N} vertices are supported, got {n}")
    bias = Bias(*bias)
    if bias.maker < 1 or bias.breaker < 1:
        raise ValueError(f"bias entries must be positive, got {bias}")
    return GameState(
        n=n,
        bias=bias,
        first_player=first_player,
        edges=bytearray(edge_count(n)),
        maker_pos=None,
        breaker_pos=None,
        unvisited=set(range(n)),
        breaker_touched=set(),
        deg_b=[0] * n,
        maker_edges=[],
        breaker_edges=[],
        round=0,
        to_move=first_player,
        moves_left_in_turn=bias.per_turn(first_player),
        maker_moves=0,
        breaker_moves=0,
        passes=0,
    )


# Fills a vertex's own slot in an edge row; it matches no edge code.
_SELF = b"\xff"


def _row(state: GameState, v: int) -> bytes:
    """The codes of the edges from v, indexed by their other end.

    The edges {v, t} with t > v are one contiguous slice of the
    triangular store. The edge {t, v} with t < v sits at slot v-1 for
    t = 0, and each next t lies n-2-t slots further on.
    """
    n = state.n
    edges = state.edges
    lower = accumulate(range(n - 2, n - 1 - v, -1), initial=v - 1) if v else ()
    base = v * (2 * n - v - 1) // 2
    return bytes(map(edges.__getitem__, lower)) + _SELF + edges[base:base + n - 1 - v]


def _move_groups(state: GameState, player: Player):
    """The legal moves other than pass, as (kind, start, row, code) groups
    in ``legal_moves`` order. A group's moves are ``Move(kind, start, t)``
    for each target t, ascending, where ``row[t] == code``."""
    if player is not state.to_move:
        raise IllegalMoveError("wrong-player", f"{player.value} is not to move")
    pos = state.position(player)
    if pos is None:
        return ((MoveKind.PLACE, s, _row(state, s), FREE) for s in range(state.n))
    row = _row(state, pos)
    return ((MoveKind.CLAIM, None, row, FREE),
            (MoveKind.TRAVERSE, None, row, player.owns))


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
    groups = _move_groups(state, player)  # checks the player first
    if state.position(player) is None:
        return 2 * state.edges.count(FREE)  # each free edge, from either end
    return sum(row.count(code) for _, _, row, code in groups)


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


def _check_vertex(state: GameState, v: Optional[int], what: str) -> None:
    if v is None or not 0 <= v < state.n:
        raise IllegalMoveError("out-of-range", f"{what} vertex {v!r} not in [0, {state.n})")


def apply_move(state: GameState, player: Player, move: Move) -> GameState:
    """Validate and apply one move, returning the successor state.

    Rejections carry the violated rule by name: wrong-player,
    wrong-kind, out-of-range, loop, opponent-edge, own-edge,
    unclaimed-edge, pass-with-moves.
    """
    if player is not state.to_move:
        raise IllegalMoveError("wrong-player", f"{player.value} is not to move")
    pos = state.position(player)
    n = state.n
    own = player.owns

    claimed = None   # canonical pair claimed by this move, if any
    new_pos = pos

    if move.kind is MoveKind.PASS:
        if count_moves(state, player):
            raise IllegalMoveError("pass-with-moves", "pass while claims or traversals exist")
    else:
        placing = move.kind is MoveKind.PLACE
        if placing and pos is not None:
            raise IllegalMoveError("wrong-kind", "placement after the walk has started")
        if not placing and pos is None:
            raise IllegalMoveError("wrong-kind", f"{move.kind.value} before placement")
        origin = move.start if placing else pos
        if placing:
            _check_vertex(state, origin, "start")
        _check_vertex(state, move.target, "target")
        if move.target == origin:
            raise IllegalMoveError("loop", f"{move.kind.value} loop at {origin}")
        # A traversal needs an own edge; a placement or claim a free one.
        o = state.owner(origin, move.target)
        if o != (own if move.kind is MoveKind.TRAVERSE else FREE):
            if o == FREE:
                rule, why = "unclaimed-edge", "is not an own edge"
            elif o == own:
                rule, why = "own-edge", "is already owned"
            else:
                rule, why = "opponent-edge", "is the opponent's"
            raise IllegalMoveError(rule, f"edge {origin}-{move.target} {why}")
        if move.kind is not MoveKind.TRAVERSE:
            claimed = (min(origin, move.target), max(origin, move.target))
        new_pos = move.target

    edges = bytearray(state.edges)
    unvisited = state.unvisited
    breaker_touched = state.breaker_touched
    deg_b = state.deg_b
    maker_edges = state.maker_edges
    breaker_edges = state.breaker_edges

    if claimed is not None:
        a, b = claimed
        edges[edge_index(n, a, b)] = own
        if player is Player.MAKER:
            unvisited = set(unvisited)
            unvisited.discard(a)
            unvisited.discard(b)
            maker_edges = maker_edges + [claimed]
        else:
            deg_b = list(deg_b)
            deg_b[a] += 1
            deg_b[b] += 1
            breaker_touched = set(breaker_touched)
            breaker_touched.add(a)
            breaker_touched.add(b)
            breaker_edges = breaker_edges + [claimed]

    maker_pos = state.maker_pos
    breaker_pos = state.breaker_pos
    if player is Player.MAKER:
        maker_pos = new_pos
    else:
        breaker_pos = new_pos

    maker_moves = state.maker_moves
    breaker_moves = state.breaker_moves
    passes = state.passes
    if move.kind is MoveKind.PASS:
        passes += 1
    elif player is Player.MAKER:
        maker_moves += 1
    else:
        breaker_moves += 1

    to_move = state.to_move
    moves_left = state.moves_left_in_turn - 1
    rnd = state.round
    if moves_left == 0:
        to_move = player.other
        moves_left = state.bias.per_turn(to_move)
        if to_move is state.first_player:
            rnd += 1

    return GameState(
        n=n,
        bias=state.bias,
        first_player=state.first_player,
        edges=edges,
        maker_pos=maker_pos,
        breaker_pos=breaker_pos,
        unvisited=unvisited,
        breaker_touched=breaker_touched,
        deg_b=deg_b,
        maker_edges=maker_edges,
        breaker_edges=breaker_edges,
        round=rnd,
        to_move=to_move,
        moves_left_in_turn=moves_left,
        maker_moves=maker_moves,
        breaker_moves=breaker_moves,
        passes=passes,
    )


# ---------------------------------------------------------------------------
# Degree queries
# ---------------------------------------------------------------------------

def degree_b(state: GameState, x: int, restrict: Optional[Iterable[int]] = None) -> int:
    """Breaker degree of x, optionally counting only neighbours in ``restrict``
    (distinct vertices).

    The restricted count scans only ``restrict`` intersected with
    ``breaker_touched``: every Breaker edge of x ends at a Breaker-touched
    vertex, so no other neighbour can count.
    """
    full = state.deg_b[x]
    if restrict is None or full == 0:
        return full
    n = state.n
    edges = state.edges
    count = 0
    for t in state.breaker_touched.intersection(restrict):
        if t != x and edges[edge_index(n, x, t)] == BREAKER_OWNED:
            count += 1
            if count == full:  # no Breaker edge of x is left to find
                break
    return count


def degree_m(state: GameState, x: int, restrict: Optional[Iterable[int]] = None) -> int:
    """Maker degree of x, optionally counting only neighbours in ``restrict``,
    counted from the edge store."""
    n = state.n
    if restrict is None:
        restrict = range(n)
    edges = state.edges
    return sum(
        1 for t in restrict
        if t != x and edges[edge_index(n, x, t)] == MAKER_OWNED
    )


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
