"""Shared test helpers.

``brute_force_value`` is an independent reference solver written
directly against the public engine API (legal_moves/apply_move), with
no code shared with the package's solver: minimax over engine states,
Maker minimizing her non-pass moves, a repeated position along a line
scoring as prevention.
"""
from __future__ import annotations

import random

from walkergames.engine import (
    BREAKER_OWNED,
    FREE,
    MAKER_OWNED,
    _SELF,
    Bias,
    GameState,
    Move,
    Player,
    apply_move,
    connectivity_won,
    hamilton_won,
    legal_moves,
    new_game,
)

INF = 10 ** 9


def successor(state: GameState, player: Player, move: Move) -> GameState:
    """The state after ``move``, leaving ``state`` as it was: a copy
    advanced by ``apply_move``. For tests that branch or compare the
    positions before and after a move."""
    child = state.copy()
    apply_move(child, player, move)
    return child


def brute_force_value(state: GameState, goal: str, budget: int,
                      _path=None, _memo=None) -> int:
    """Reference minimax: least additional non-pass Maker moves to the
    goal spending at most ``budget`` of them, INF when the opponent
    prevents it within that horizon. Engine-driven (legal_moves and
    a successor per move over GameState). Values are keyed by (state, budget), so
    they are path-independent and the memo is exact; the path set only
    cuts all-pass standoffs, which consume no budget."""
    if goal == "connectivity":
        if connectivity_won(state):
            return 0
    else:
        if hamilton_won(state):
            return 0
    if budget <= 0:
        return INF
    if _path is None:
        _path = set()
        _memo = {}
    key = (b"".join(state.rows), state.maker_pos, state.breaker_pos,
           state.to_move, state.moves_left_in_turn, budget)
    if key in _memo:
        return _memo[key]
    if key in _path:
        return INF
    _path.add(key)
    player = state.to_move
    results = []
    for mv in legal_moves(state, player):
        child = successor(state, player, mv)
        spends = player is Player.MAKER and mv.kind.value != "pass"
        v = brute_force_value(child, goal, budget - (1 if spends else 0),
                              _path, _memo)
        if spends and v < INF:
            v += 1
        results.append(v)
    _path.discard(key)
    best = min(results) if player is Player.MAKER else max(results)
    _memo[key] = best
    return best


def relabel_state(state: GameState, perm) -> GameState:
    """The same position with vertices renamed by ``perm``."""
    n = state.n

    def pv(v):
        return None if v is None else perm[v]

    def pe(pairs):
        return [tuple(sorted((perm[a], perm[b]))) for a, b in pairs]

    maker_edges = pe(state.maker_edges)
    breaker_edges = pe(state.breaker_edges)
    unvisited = {perm[v] for v in state.unvisited}
    breaker_touched = {perm[v] for v in state.breaker_touched}
    return GameState(
        n=n,
        bias=state.bias,
        first_player=state.first_player,
        rows=edge_rows(n, maker_edges, breaker_edges),
        maker_pos=pv(state.maker_pos),
        breaker_pos=pv(state.breaker_pos),
        unvisited=unvisited,
        breaker_touched=breaker_touched,
        tainted=unvisited & breaker_touched,
        maker_edges=maker_edges,
        breaker_edges=breaker_edges,
        round=state.round,
        to_move=state.to_move,
        moves_left_in_turn=state.moves_left_in_turn,
        maker_moves=state.maker_moves,
        breaker_moves=state.breaker_moves,
        passes=state.passes,
    )


def edge_rows(n, maker_edges, breaker_edges) -> list:
    """The engine's edge rows for a board whose claimed edges are the
    two lists: ``rows[v][t]`` is the code of {v, t}, ``rows[v][v]`` is
    ``_SELF``. Raises ValueError on an edge listed twice."""
    rows = [bytearray(n) for _ in range(n)]
    for v in range(n):
        rows[v][v] = _SELF
    for pairs, code in ((maker_edges, MAKER_OWNED),
                        (breaker_edges, BREAKER_OWNED)):
        for a, b in pairs:
            if rows[a][b] != FREE:
                raise ValueError(f"edge {a}-{b} assigned twice")
            rows[a][b] = rows[b][a] = code
    return rows


def build_state(n, maker_edges=(), breaker_edges=(), maker_pos=None,
                breaker_pos=None, to_move=Player.MAKER, bias=(1, 1),
                first_player=Player.BREAKER, round=1) -> GameState:
    """A consistent synthetic position from explicit edge lists.

    Derived fields (edge rows, vertex sets, counters) are
    recomputed from the lists, so policy unit tests can pose exact
    mid-game situations without replaying a move sequence.
    """
    maker_edges = [tuple(sorted(e)) for e in maker_edges]
    breaker_edges = [tuple(sorted(e)) for e in breaker_edges]
    rows = edge_rows(n, maker_edges, breaker_edges)
    unvisited = set(range(n)) - {v for e in maker_edges for v in e}
    breaker_touched = {v for e in breaker_edges for v in e}
    return GameState(
        n=n,
        bias=Bias(*bias),
        first_player=first_player,
        rows=rows,
        maker_pos=maker_pos,
        breaker_pos=breaker_pos,
        unvisited=unvisited,
        breaker_touched=breaker_touched,
        tainted=unvisited & breaker_touched,
        maker_edges=maker_edges,
        breaker_edges=breaker_edges,
        round=round,
        to_move=to_move,
        moves_left_in_turn=Bias(*bias).per_turn(to_move),
        maker_moves=len(maker_edges),
        breaker_moves=len(breaker_edges),
        passes=0,
    )


def reference_legal_moves(state: GameState, player: Player) -> list:
    """``legal_moves`` as a plain scan over the claimed-edge lists, kept
    as the reference for the engine's row-based listing, counting and
    indexing."""
    pos = state.position(player)
    n = state.n
    owned = edge_codes(state)

    def code(a, b):
        return owned.get((min(a, b), max(a, b)), FREE)

    if pos is None:
        moves = [Move.place(s, t) for s in range(n) for t in range(n)
                 if s != t and code(s, t) == FREE]
    else:
        codes = [(t, code(pos, t)) for t in range(n) if t != pos]
        moves = ([Move.claim(t) for t, o in codes if o == FREE]
                 + [Move.traverse(t) for t, o in codes if o == player.owns])
    return moves or [Move.pass_()]


def pass_only_states() -> list:
    """Positions where the mover can only pass: walled out before
    placement, or placed on a vertex whose every edge is the opponent's
    (no game reaches the second kind; it tests the rules alone)."""
    k4 = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    return [
        build_state(3, breaker_edges=[(0, 1), (1, 2), (0, 2)], breaker_pos=2),
        build_state(4, maker_edges=k4, maker_pos=0, to_move=Player.BREAKER),
        build_state(3, breaker_edges=[(0, 1), (0, 2)], maker_pos=0,
                    breaker_pos=2),
        build_state(6, maker_edges=[(t, 5) for t in range(5)], maker_pos=0,
                    breaker_pos=5, to_move=Player.BREAKER),
    ]


def recomputed_unvisited(state: GameState) -> set:
    touched = set()
    for a, b in state.maker_edges:
        touched.add(a)
        touched.add(b)
    return set(range(state.n)) - touched


def recomputed_breaker_touched(state: GameState) -> set:
    touched = set()
    for a, b in state.breaker_edges:
        touched.add(a)
        touched.add(b)
    return touched


def edge_codes(state: GameState) -> dict:
    """The code of each claimed edge, keyed by its (low, high) pair, read
    from the claimed-edge lists."""
    codes = dict.fromkeys(state.maker_edges, MAKER_OWNED)
    codes.update(dict.fromkeys(state.breaker_edges, BREAKER_OWNED))
    return codes


def recomputed_degrees(state: GameState) -> tuple:
    """(Maker degrees, Breaker degrees), counted from the claimed-edge
    lists."""
    degrees = ([0] * state.n, [0] * state.n)
    for side, pairs in enumerate((state.maker_edges, state.breaker_edges)):
        for a, b in pairs:
            degrees[side][a] += 1
            degrees[side][b] += 1
    return degrees


def random_playout_states(n: int, seed: int, steps: int,
                          bias=(1, 1), first=Player.BREAKER):
    """Yield the states along one random legal playout, each a copy
    that later moves leave as it is."""
    rng = random.Random(seed)
    state = new_game(n, Bias(*bias), first)
    yield state.copy()
    for _ in range(steps):
        moves = legal_moves(state, state.to_move)
        apply_move(state, state.to_move, rng.choice(moves))
        yield state.copy()


def random_maker_states(breaker: str, bias=(1, 1), first=Player.BREAKER):
    """Yield every state of games between the random Maker and the named
    Breaker: n in {5, 13, 40}, seeds 0 and 1, 3n moves each. Unlike
    pursuit, such play leaves many unvisited vertices touched by Breaker
    edges. Each state is a copy that later moves leave as it is."""
    from walkergames.strategies import make_policy

    for n in (5, 13, 40):
        for seed in (0, 1):
            policies = {
                Player.MAKER: make_policy(Player.MAKER, "random", seed),
                Player.BREAKER: make_policy(Player.BREAKER, breaker, seed),
            }
            state = new_game(n, Bias(*bias), first)
            yield state.copy()
            for _ in range(3 * n):
                mover = state.to_move
                apply_move(state, mover, policies[mover](state))
                yield state.copy()


def all_candidate_moves(n: int):
    """Every syntactically well-formed move on n vertices."""
    out = [Move.pass_()]
    for t in range(n):
        out.append(Move.claim(t))
        out.append(Move.traverse(t))
    for s in range(n):
        for t in range(n):
            if s != t:
                out.append(Move.place(s, t))
    return out


def traversing_deviant_maker():
    """A maker that opens honestly, then shuffles along its first edge
    forever: never extends the path, violating the one-edge-per-move
    monitor check. Legal at every ply."""
    from walkergames.strategies import Policy, StrategyMemory, chase_move

    def fn(state, mem):
        if state.maker_pos is None:
            return chase_move(state, mem)
        a, b = mem.path_order[0], mem.path_order[1]
        return Move.traverse(a if state.maker_pos == b else b)
    return Policy(name="deviant", player=Player.MAKER,
                  memory=StrategyMemory(), _fn=fn)
