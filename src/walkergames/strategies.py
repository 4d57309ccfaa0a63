"""Maker and Breaker policies.

Every policy is a pure function of (state, memory) returning one legal
move. Policies never mutate the game state, nor keep it between calls:
the runner advances that one state in place. Per-game knowledge lives
in a StrategyMemory owned by the caller. Randomized policies draw from the
memory's seeded generator, so identical (state, memory, seed) always
produces the identical move.

Maker policies
--------------
* ``chase_move``: the core pursuit policy. Open at the vertex where the
  opponent's first move ended, then repeatedly claim into the unvisited
  set, prioritizing endpoints of opponent edges that lie entirely among
  unvisited vertices, then unvisited vertices of maximum opponent
  degree.
* ``connectivity_maker_move``: chase until three vertices remain, then
  a closing loop that claims directly into the remainder or routes
  through a recorded-path splice vertex when blocked.
* ``hamilton_maker_move``: chase into a long path, close it to a cycle
  through a short tail over the last unvisited vertices, then absorb
  any leftover vertices by splicing them between consecutive cycle
  vertices chosen free of opponent interference.

Breaker policies
----------------
* ``random_walker_move`` and ``greedy_breaker_move``: baselines.
* ``delaying_breaker_move``: stalls the Maker's finish in Maker-first
  games by occupying the last unvisited vertices.
* ``isolating_breaker2_move``: with two moves per turn, permanently
  fences one vertex off from the Maker.
* ``camper_breaker_move``: deterministic adversary that claims a fan of
  edges from a fixed camp vertex.
* scripted play: replays an explicit move list, failing hard on any
  illegal or missing entry. An entry is legal when ``check_move``
  accepts it.

Policies take a fallback or first legal move with
``nth_move(state, player, 0)`` and the random policy draws every move,
placements included, by count and index, so only ``_relocate``, which
ranks every move, lists ``legal_moves``.

A policy raises ``StrategyAssertionError`` only when a condition its
design guarantees has been violated; for the pursuit-based Maker
policies on large boards this should never happen, and the test suite
treats any raise as a failure.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional, Sequence

from .engine import (
    BREAKER_OWNED,
    FREE,
    MAKER_OWNED,
    GameState,
    IllegalMoveError,
    Move,
    MoveKind,
    Player,
    breaker_edge_inside_unvisited,
    check_move,
    count_moves,
    degree_b,
    legal_moves,
    lowest_untouched,
    nth_move,
    snapshot,
)


class StrategyAssertionError(AssertionError):
    """A precondition the strategy's design guarantees failed at runtime."""

    def __init__(self, state: GameState, expectation: str):
        self.round = state.round
        self.expectation = expectation
        self.snapshot = snapshot(state)
        super().__init__(f"round {self.round}: {expectation}")

    def to_json(self) -> dict:
        return {
            "round": self.round,
            "expectation": self.expectation,
            "snapshot": self.snapshot,
        }


@dataclass
class StrategyMemory:
    """Per-game persistent strategy state.

    ``designated`` holds named working vertices and flags specific to a
    policy (endgame tails, splice triples, protected vertices, script
    cursors).
    """

    rng_seed: int = 0
    stage: int = 1
    path_order: list = field(default_factory=list)
    cycle_order: Optional[list] = None
    designated: dict = field(default_factory=dict)
    rng: random.Random = field(init=False, repr=False)

    def __post_init__(self):
        self.rng = random.Random(self.rng_seed)


# ---------------------------------------------------------------------------
# Core pursuit policy
# ---------------------------------------------------------------------------

def _opening_move(state: GameState, mem: StrategyMemory) -> Move:
    """Maker's placement: start where the opponent's first move ended.

    Partner vertex: the vertex of lowest opponent degree, lowest index
    on ties, among those with a free edge to the start. If the Maker
    opens the game there is no opponent move yet; vertices 0 and 1 are
    used. When every edge at the opponent's end vertex is taken, the
    first legal placement is used. The recorded path starts at the
    placement's start.
    """
    if state.breaker_pos is None:
        mem.path_order = [0, 1]
        return Move.place(0, 1)
    v1 = state.breaker_pos
    # Before her placement the Maker has visited nothing, so every free
    # edge at v1 leads into the unvisited set.
    free = [u for u in state.unvisited if state.is_free(v1, u)]
    if free:
        u = min(free, key=lambda u: (degree_b(state, u), u))
        mem.path_order = [v1, u]
        return Move.place(v1, u)
    fallback = nth_move(state, Player.MAKER, 0)
    if fallback.kind is MoveKind.PLACE:
        mem.path_order = [fallback.start, fallback.target]
    return fallback


def _relocate(state: GameState, mem: StrategyMemory) -> Move:
    """Blocked-endgame motion: move toward the best access to unvisited.

    Used only when fewer than three vertices remain and no direct claim
    exists. Prefers the landing vertex with the most free edges into
    the unvisited set; traversals beat claims on ties (they spend no
    edge), lowest index last. The Maker is placed, so she owns the edge
    she arrived by and always has a move.
    """
    moves = legal_moves(state, Player.MAKER)
    unvisited = state.unvisited

    def access(t: int) -> int:
        return sum(1 for u in unvisited if state.is_free(t, u))

    def rank(mv: Move):
        return (-access(mv.target), 0 if mv.kind is MoveKind.TRAVERSE else 1, mv.target)

    return min(moves, key=rank)


def _best_unvisited_target(state: GameState, v: int) -> Optional[int]:
    """The unvisited u with a free edge vu, of highest opponent degree,
    lowest index on ties; None when there is none. ``v`` is a placed
    walker's position, which is touched: the Maker's is visited, and
    the Breaker's ends one of his edges.

    Only the tainted vertices, unvisited and Breaker-touched, need a
    look. An unvisited u has no Maker edge, so vu is free unless the
    Breaker owns it, which makes u tainted. Every other unvisited vertex
    is untouched: it has opponent degree 0 and a free edge from v, and
    loses to any free tainted one. The lowest of those is the engine's
    cursor, read in constant time; since v is touched, it is never v.
    """
    tainted = state.tainted
    best = None
    for u in tainted:
        if state.is_free(v, u):
            key = (-degree_b(state, u), u)
            if best is None or key < best:
                best = key
    if best is not None:
        return best[1]
    low = lowest_untouched(state)
    return low if low < state.n else None


def chase_move(state: GameState, mem: StrategyMemory) -> Move:
    """One move of the pursuit policy.

    Priorities from the current position w:
      1. if an opponent edge pq lies entirely inside the unvisited set,
         claim wp or wq, whichever is free; when both are, take the
         endpoint of larger opponent degree (tie: lowest index);
      2. otherwise claim a free wu into the unvisited set maximizing
         the opponent degree of u (tie: lowest index).
    Priority 1 first asks ``breaker_edge_inside_unvisited``, which
    looks up the pairs of tainted vertices, unvisited and
    Breaker-touched, in the edge rows. Priority 2 looks only at the
    tainted vertices, which pursuit keeps to at most two, and otherwise
    takes the lowest untouched vertex from the engine's cursor (see
    ``_best_unvisited_target``). So a pursuit move's work does not grow
    with n. With three or more vertices unvisited,
    having no free edge into them contradicts the pursuit guarantees
    and raises.
    """
    if state.maker_pos is None:
        return _opening_move(state, mem)
    w = state.maker_pos
    unvisited = state.unvisited

    # Priority 1: opponent edge with both endpoints unvisited, newest
    # first. The edges are scanned only when one exists.
    if breaker_edge_inside_unvisited(state):
        for a, b in reversed(state.breaker_edges):
            if a in unvisited and b in unvisited:
                ends = [e for e in (a, b) if state.is_free(w, e)]
                if ends:
                    pick = max(ends, key=lambda e: (degree_b(state, e), -e))
                    mem.path_order.append(pick)
                    return Move.claim(pick)

    # Priority 2: free edge into the unvisited set, maximum opponent degree.
    target = _best_unvisited_target(state, w)
    if target is not None:
        mem.path_order.append(target)
        return Move.claim(target)

    if len(unvisited) >= 3:
        raise StrategyAssertionError(
            state,
            "expected a free edge from the current position into the unvisited set "
            "(pre-reply degree bound, three or more vertices unvisited)")
    return _relocate(state, mem)


# ---------------------------------------------------------------------------
# Connectivity closer
# ---------------------------------------------------------------------------

def find_pivot(state: GameState, a: int, b: int, path: Sequence[int]) -> int:
    """Lowest-index recorded-path vertex v with both av and vb free.

    The splice guarantee: opponent degrees toward the path are too
    small to block every interior vertex. Raises when no vertex
    qualifies.
    """
    for v in sorted(set(path)):
        if v not in (a, b) and state.is_free(a, v) and state.is_free(v, b):
            return v
    raise StrategyAssertionError(
        state,
        f"expected a path vertex with free edges to both {a} and {b} "
        "(splice degree count)")


def connectivity_maker_move(state: GameState, mem: StrategyMemory) -> Move:
    """Visit every vertex: pursue while four or more remain, then close.

    The closing loop ranks the remaining vertices (opponent's seat
    first, then opponent degree inside the remainder, then index) and
    claims directly when possible; otherwise it hops to a recorded-path
    pivot with free edges to the best target and finishes from there.
    """
    if state.maker_pos is None:
        return chase_move(state, mem)
    unvisited = state.unvisited
    if not unvisited:
        return _relocate(state, mem)
    if len(unvisited) > 3:
        return chase_move(state, mem)
    mem.stage = 2
    w = state.maker_pos
    order = sorted(
        unvisited,
        key=lambda u: (0 if u == state.breaker_pos else 1,
                       -degree_b(state, u, unvisited - {u}),
                       u))
    for u in order:
        if state.is_free(w, u):
            return Move.claim(u)
    if len(unvisited) == 3:
        raise StrategyAssertionError(
            state,
            "expected a free edge into the last three unvisited vertices "
            "(pre-reply degree bound caps blocked targets at two)")
    pivot = find_pivot(state, w, order[0], mem.path_order)
    return Move.claim(pivot)


# ---------------------------------------------------------------------------
# Hamilton cycle builder
# ---------------------------------------------------------------------------

def find_free_triple(state: GameState, cycle: Sequence[int],
                     forbidden_targets: frozenset,
                     avoid: frozenset = frozenset(),
                     entry: Optional[int] = None) -> tuple:
    """First three consecutive cycle vertices clean of opponent edges
    toward ``forbidden_targets``.

    Scans triples by cycle position from the cycle's first vertex.
    Triples containing a forbidden or avoided vertex are skipped, as is
    any triple with a vertex of opponent degree at least n/3 (a single
    such hub cannot rule out every clean triple).

    ``entry`` is the vertex the splice claims the triple's middle from.
    The first scan treats it as one more forbidden target. When that
    finds nothing (an opponent hub at ``entry`` taints every triple), a
    rescan keeps ``entry`` out of the triple and checks only its edge to
    the middle, the one edge the splice uses from it. Raises when no
    scan finds a triple, which contradicts the pigeonhole count.
    """
    size = len(cycle)
    hub = state.n / 3
    scans = [(forbidden_targets, avoid, None)]
    if entry is not None:
        scans = [(forbidden_targets | {entry}, avoid, None),
                 (forbidden_targets, avoid | {entry}, entry)]
    for forbidden, skip, splice_from in scans:
        for i in range(size):
            triple = (cycle[i], cycle[(i + 1) % size], cycle[(i + 2) % size])
            if any(t in forbidden or t in skip or degree_b(state, t) >= hub
                   for t in triple):
                continue
            if (splice_from is not None
                    and state.owner(triple[1], splice_from) == BREAKER_OWNED):
                continue
            if all(state.owner(t, f) != BREAKER_OWNED
                   for t in triple for f in forbidden):
                return triple
    raise StrategyAssertionError(
        state,
        "expected three consecutive cycle vertices with no opponent edges "
        "toward the splice targets (pigeonhole count)")


def _close_cycle(state: GameState, mem: StrategyMemory) -> Move:
    tail = mem.designated["tail"]
    mem.cycle_order = list(mem.path_order) + list(tail)
    if state.unvisited:
        mem.stage = 3
        mem.designated["phase"] = "fresh"
        mem.designated["relocated"] = False
        mem.designated["last_spliced"] = None
    else:
        mem.stage = 4
    return Move.claim(mem.path_order[0])


def _ladder_move(state: GameState, mem: StrategyMemory) -> Move:
    """Close the recorded path into a cycle through a short tail.

    From the path's end, enter the unvisited remainder at a vertex
    whose edge back to the start is unclaimed by the opponent, then at
    every turn either close to the start (when that edge is free and at
    least one tail vertex exists) or extend the tail into the
    remainder, preferring extensions that keep a clean closing edge.
    """
    tail = mem.designated["tail"]
    v1 = mem.path_order[0]
    pos = state.maker_pos
    unvisited = state.unvisited

    if tail and state.is_free(pos, v1):
        return _close_cycle(state, mem)

    if unvisited:
        if not tail:
            cands = [u for u in sorted(unvisited)
                     if state.is_free(pos, u)
                     and state.owner(v1, u) != BREAKER_OWNED]
            if not cands:
                raise StrategyAssertionError(
                    state,
                    "expected an unvisited vertex reachable from the path end "
                    "whose edge to the start vertex is unclaimed by the opponent")
        else:
            cands = [u for u in sorted(unvisited) if state.is_free(pos, u)]
            if not cands:
                raise StrategyAssertionError(
                    state,
                    "expected the cycle tail to extend into the remaining "
                    "unvisited vertices")
        pick = min(
            cands,
            key=lambda u: (0 if state.owner(v1, u) != BREAKER_OWNED else 1,
                           0 if u != state.breaker_pos else 1,
                           u))
        tail.append(pick)
        return Move.claim(pick)

    raise StrategyAssertionError(
        state,
        "expected the final cycle-closing edge to the start vertex to be free "
        "(opponent cannot both reach and claim it in one move)")


def _cycle_predecessor(cycle: Sequence[int], v: int) -> int:
    return cycle[cycle.index(v) - 1]


def _absorb_move(state: GameState, mem: StrategyMemory) -> Move:
    """Splice the remaining vertices into the cycle one at a time.

    Each absorption claims a chord to the middle of a clean consecutive
    triple, grabs the leftover vertex from there, then closes onto one
    of the triple's outer vertices (the opponent can never block both).
    When exactly one vertex remains and the opponent is sitting on it,
    one relocation along an own edge forces him to move first.
    """
    named = mem.designated
    cycle = mem.cycle_order
    pos = state.maker_pos
    unvisited = state.unvisited
    phase = named["phase"]

    if phase == "fresh":
        named["phase"] = "ready"
        return Move.traverse(cycle[-1])

    if phase == "ready":
        if len(unvisited) == 1 and not named["relocated"]:
            target = next(iter(unvisited))
            if state.breaker_pos == target:
                named["relocated"] = True
                last = named["last_spliced"]
                dest = last if last is not None else _cycle_predecessor(cycle, pos)
                return Move.traverse(dest)
        avoid = frozenset() if state.breaker_pos is None else frozenset({state.breaker_pos})
        triple = find_free_triple(
            state, cycle, frozenset(unvisited), avoid=avoid, entry=pos)
        named["triple"] = triple
        named["phase"] = "chorded"
        middle = triple[1]
        if state.owner(pos, middle) == MAKER_OWNED:
            return Move.traverse(middle)
        return Move.claim(middle)

    if phase == "chorded":
        triple = named["triple"]
        cands = [u for u in sorted(unvisited) if state.is_free(pos, u)]
        if not cands:
            raise StrategyAssertionError(
                state,
                "expected a free edge from the splice middle into the "
                "remaining unvisited vertices")
        pick = min(
            cands,
            key=lambda u: (0 if all(state.owner(u, t) != BREAKER_OWNED
                                    for t in triple) else 1,
                           u))
        named["grabbed"] = pick
        named["phase"] = "grabbed"
        return Move.claim(pick)

    # phase == "grabbed": close onto an outer triple vertex and rethread.
    first, middle, last = named["triple"]
    grabbed = named["grabbed"]
    if state.is_free(pos, first):
        closer = first
    elif state.is_free(pos, last):
        closer = last
    else:
        raise StrategyAssertionError(
            state,
            "expected one of the two splice-closing edges to be free "
            "(opponent cannot claim both in one move)")
    at = cycle.index(middle)
    if closer == first:
        cycle.insert(at, grabbed)
    else:
        cycle.insert(at + 1, grabbed)
    named["last_spliced"] = grabbed
    named["relocated"] = False
    named["phase"] = "ready"
    if not state.unvisited:  # the grab already visited the last vertex
        mem.stage = 4
    return Move.claim(closer)


def hamilton_maker_move(state: GameState, mem: StrategyMemory) -> Move:
    """Build a Hamilton cycle: path, tail closing, vertex absorption."""
    if state.maker_pos is None:
        return chase_move(state, mem)
    if mem.stage == 1:
        if len(state.unvisited) > 3:
            return chase_move(state, mem)
        mem.stage = 2
        mem.designated["tail"] = []
    if mem.stage == 2:
        return _ladder_move(state, mem)
    if mem.stage == 3:
        return _absorb_move(state, mem)
    return _relocate(state, mem)


# ---------------------------------------------------------------------------
# Breaker policies
# ---------------------------------------------------------------------------

def random_walker_move(state: GameState, mem: StrategyMemory) -> Move:
    """Uniform choice over the legal moves, from the memory's generator.

    Every move, a placement included, is drawn by count and index: the
    walker counts its moves and takes the k-th, for k drawn by
    ``mem.rng.randrange(count)``. That is the one draw ``rng.choice``
    makes on a list of that length, so the move and the generator's
    state are those of ``mem.rng.choice(legal_moves(...))``. A walker
    that can only pass still draws, from ``randrange(1)``.
    """
    player = state.to_move
    return nth_move(state, player,
                    mem.rng.randrange(count_moves(state, player) or 1))


def greedy_breaker_move(state: GameState, mem: StrategyMemory) -> Move:
    """Claim toward unvisited vertices, highest own degree first. Keeps
    no memory: ``mem`` is taken for the policy call and ignored.

    The placement is the first legal one. An unvisited target is the
    one ``_best_unvisited_target`` picks, found from the tainted
    vertices and the engine's untouched-vertex cursor, so it takes no
    scan of the board. Only when none exists does the policy read its
    position's whole edge row: a claim to a visited vertex, then the
    lowest traversal, which always exists, since the Breaker owns the
    edge he arrived by. That fallback reads the row itself, not
    ``nth_move``, so it answers whoever is to move.
    """
    if state.breaker_pos is None:
        return nth_move(state, Player.BREAKER, 0)
    pos = state.breaker_pos
    target = _best_unvisited_target(state, pos)
    if target is not None:
        return Move.claim(target)
    row = state.rows[pos]
    free = [t for t, c in enumerate(row) if c == FREE]
    if free:
        return Move.claim(min(free, key=lambda t: (-degree_b(state, t), t)))
    return Move.traverse(row.find(BREAKER_OWNED))


def delaying_breaker_move(state: GameState, mem: StrategyMemory,
                          wander: Callable = random_walker_move) -> Move:
    """Stall the finish: wander, then occupy the last unvisited vertices.

    Designed for Maker-first play. While more than three vertices are
    unvisited the policy wanders: it plays ``wander``, a policy called
    with the same (state, memory), seeded random by default. When the
    Maker enters one of the last three, the policy moves onto one of
    the two survivors; when she enters one of those, it claims the edge
    between the final pair, forcing a detour.
    """
    named = mem.designated
    prev = named.get("usize")
    unvisited = state.unvisited
    named["usize"] = len(unvisited)
    pos = state.breaker_pos

    if pos is None:
        return wander(state, mem)

    if prev == 3 and len(unvisited) == 2:
        pair = sorted(unvisited)
        named["pair"] = pair
        a, b = pair
        if pos in pair:
            other = b if pos == a else a
            if state.is_free(pos, other):
                return Move.claim(other)
            return wander(state, mem)
        for u in pair:
            if state.is_free(pos, u):
                return Move.claim(u)
        for u in pair:
            if state.owner(pos, u) == BREAKER_OWNED:
                return Move.traverse(u)
        return wander(state, mem)

    if prev == 2 and len(unvisited) == 1 and named.get("pair"):
        a, b = named["pair"]
        if pos in (a, b):
            other = b if pos == a else a
            if state.is_free(pos, other):
                return Move.claim(other)

    return wander(state, mem)


def isolating_breaker2_move(state: GameState, mem: StrategyMemory) -> Move:
    """Two-moves-per-turn fence: keep one vertex out of the Maker's reach.

    The protected vertex is the highest-index vertex untouched by the
    Maker's first move. Each turn one move claims the edge from it to
    the Maker's current position and the other returns home along an
    own edge, so before every Maker move the direct edge to the
    protected vertex is already taken.
    """
    named = mem.designated
    pos = state.breaker_pos
    mpos = state.maker_pos

    if "target" not in named:
        if mpos is None:
            # Opponent has not placed yet; make a neutral move.
            return nth_move(state, Player.BREAKER, 0)
        named["target"] = max(state.unvisited)
    z = named["target"]

    if pos is None:
        return Move.place(mpos, z)  # claims the blocking edge, ends at the fence

    if pos != z:
        o = state.owner(pos, z)
        if o == BREAKER_OWNED:
            return Move.traverse(z)
        if o == FREE:
            return Move.claim(z)
        # Home edge lost: the protected vertex was reached.
        return nth_move(state, Player.BREAKER, 0)

    if state.is_free(z, mpos):
        return Move.claim(mpos)

    # Blocking edge already taken: spend the move on another fence edge.
    best = None
    for v in range(state.n):
        if not state.is_free(z, v):
            continue
        reach_by_walk = state.owner(v, mpos) == MAKER_OWNED
        reach_by_claim = state.is_free(v, mpos)
        key = (0 if reach_by_walk else 1, 0 if reach_by_claim else 1, v)
        if best is None or key < best[0]:
            best = (key, v)
    if best is not None:
        return Move.claim(best[1])
    return nth_move(state, Player.BREAKER, 0)  # no free edge at z: traverse or pass


def camper_breaker_move(state: GameState, mem: StrategyMemory) -> Move:
    """Deterministic hub adversary: fan out claims from a fixed camp.

    Alternates between claiming an edge from the camp toward the
    lowest unvisited vertex and walking back, concentrating opponent
    degree around the Maker's likely start.
    """
    named = mem.designated
    pos = state.breaker_pos
    if pos is None:
        if state.is_free(0, 1):
            named["camp"] = 0
            return Move.place(1, 0)
        mv = nth_move(state, Player.BREAKER, 0)
        if mv.kind is MoveKind.PLACE:
            named["camp"] = mv.target
        return mv
    camp = named.setdefault("camp", pos)
    if pos == camp:
        for u in sorted(state.unvisited):
            if state.is_free(camp, u):
                return Move.claim(u)
        return nth_move(state, Player.BREAKER, 0)
    if state.owner(pos, camp) == BREAKER_OWNED:
        return Move.traverse(camp)
    if state.is_free(pos, camp):
        return Move.claim(camp)
    return nth_move(state, Player.BREAKER, 0)


# ---------------------------------------------------------------------------
# Scripted play
# ---------------------------------------------------------------------------

class ScriptError(ValueError):
    """A script entry is unparsable, illegal in context, or missing."""


def parse_script(text: str) -> list:
    """Parse a move script: one move per line.

    ``P s t`` place and claim (stand at t), ``C t`` claim, ``T t``
    traverse, ``X`` pass. Blank lines and ``#`` comments are ignored.
    """
    moves = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "P" and len(parts) == 3:
                moves.append(Move.place(int(parts[1]), int(parts[2])))
            elif parts[0] == "C" and len(parts) == 2:
                moves.append(Move.claim(int(parts[1])))
            elif parts[0] == "T" and len(parts) == 2:
                moves.append(Move.traverse(int(parts[1])))
            elif parts[0] == "X" and len(parts) == 1:
                moves.append(Move.pass_())
            else:
                raise ValueError("unrecognized entry")
        except ValueError as exc:
            raise ScriptError(f"script line {lineno}: {raw.strip()!r}: {exc}") from exc
    return moves


def script_line(move: Move) -> str:
    if move.kind is MoveKind.PLACE:
        return f"P {move.start} {move.target}"
    if move.kind is MoveKind.CLAIM:
        return f"C {move.target}"
    if move.kind is MoveKind.TRAVERSE:
        return f"T {move.target}"
    return "X"


def moves_to_script(moves: Sequence[Move]) -> str:
    return "\n".join(script_line(m) for m in moves) + "\n"


def scripted_move(state: GameState, mem: StrategyMemory) -> Move:
    script = mem.designated["script"]
    cursor = mem.designated["cursor"]
    if cursor >= len(script):
        raise ScriptError(f"script exhausted before entry {cursor + 1}")
    move = script[cursor]
    try:
        check_move(state, state.to_move, move)
    except IllegalMoveError as exc:
        raise ScriptError(
            f"script entry {cursor + 1} ({script_line(move)}) is illegal for "
            f"{state.to_move.value} here") from exc
    mem.designated["cursor"] = cursor + 1
    return move


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

@dataclass
class Policy:
    """A named strategy bound to its per-game memory."""

    name: str
    player: Player
    memory: StrategyMemory
    _fn: Callable = field(repr=False, default=None)

    def __call__(self, state: GameState) -> Move:
        return self._fn(state, self.memory)

    def certificate(self) -> Optional[list]:
        """The Hamilton cycle this policy has finished, as a cyclic
        vertex order, or None while it has none."""
        mem = self.memory
        if mem.stage == 4 and mem.cycle_order:
            return list(mem.cycle_order)
        return None


def _rng_seed_for(player: Player, seed: int) -> int:
    # Two disjoint streams from the one game seed.
    return 2 * seed + (1 if player is Player.MAKER else 0)


@dataclass(frozen=True)
class StrategySpec:
    """One strategy id's facts, each stated once."""

    move: Callable  # the policy, called with (state, memory)
    pursuit: bool = False  # pursuit-based: the monitors arm only for these
    # The pursuit phase covers the first n - pursuit_left Maker moves; the
    # monitor report records that length for every Maker.
    pursuit_left: int = 4
    certifies: bool = False  # hands over its own Hamilton cycle; never searched
    bounds: dict = field(default_factory=dict)  # goal -> s: wins within n + s moves
    scripted: bool = False  # plays a script, so verify cannot sweep it


# Each side's strategy ids, in the order the command line lists them.
MAKERS = {
    "chase": StrategySpec(chase_move, pursuit=True, pursuit_left=3),
    "connectivity": StrategySpec(connectivity_maker_move, pursuit=True,
                                 bounds={"connectivity": 1}),
    "hamilton": StrategySpec(hamilton_maker_move, pursuit=True,
                             certifies=True, bounds={"hamilton": 6}),
    "random": StrategySpec(random_walker_move),
    "scripted": StrategySpec(scripted_move, scripted=True),
}
BREAKERS = {
    "random": StrategySpec(random_walker_move),
    "greedy": StrategySpec(greedy_breaker_move),
    "delaying": StrategySpec(delaying_breaker_move),
    "delaying-greedy": StrategySpec(
        partial(delaying_breaker_move, wander=greedy_breaker_move)),
    "camper": StrategySpec(camper_breaker_move),
    "isolating": StrategySpec(isolating_breaker2_move),
    "scripted": StrategySpec(scripted_move, scripted=True),
}
MAKER_IDS = tuple(MAKERS)
BREAKER_IDS = tuple(BREAKERS)


def spec_of(player: Player, name: str) -> StrategySpec:
    """The spec registered under ``name`` for ``player``'s side.
    Raises ValueError for an unknown id."""
    specs = MAKERS if player is Player.MAKER else BREAKERS
    if name not in specs:
        raise ValueError(f"unknown {player.value} strategy {name!r}; "
                         f"choose from {', '.join(specs)}")
    return specs[name]


def make_policy(player: Player, name: str, seed: int,
                script_text: Optional[str] = None) -> Policy:
    """Construct a policy by id: the row's ``move``, bound to a fresh
    memory on ``player``'s stream of ``seed``, plus the parsed script
    for a scripted id. Raises ValueError for unknown ids and
    ScriptError for a scripted policy with a bad or missing script, or
    for a script given to a policy that is not scripted."""
    spec = spec_of(player, name)
    mem = StrategyMemory(rng_seed=_rng_seed_for(player, seed))
    if spec.scripted:
        if script_text is None:
            raise ScriptError("scripted strategy needs a script")
        mem.designated["script"] = parse_script(script_text)
        mem.designated["cursor"] = 0
    elif script_text is not None:
        raise ScriptError(f"{player.value} strategy {name!r} takes no script")
    return Policy(name=name, player=player, memory=mem, _fn=spec.move)
