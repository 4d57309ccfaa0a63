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
    Bias,
    GameState,
    Move,
    Player,
    apply_move,
    connectivity_won,
    edge_count,
    edge_index,
    hamilton_won,
    legal_moves,
    new_game,
)

INF = 10 ** 9


def brute_force_value(state: GameState, goal: str, budget: int,
                      _path=None, _memo=None) -> int:
    """Reference minimax: least additional non-pass Maker moves to the
    goal spending at most ``budget`` of them, INF when the opponent
    prevents it within that horizon. Engine-driven (legal_moves and
    apply_move over GameState). Values are keyed by (state, budget), so
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
    key = (tuple(state.edges), state.maker_pos, state.breaker_pos,
           state.to_move, state.moves_left_in_turn, budget)
    if key in _memo:
        return _memo[key]
    if key in _path:
        return INF
    _path.add(key)
    player = state.to_move
    results = []
    for mv in legal_moves(state, player):
        child = apply_move(state, player, mv)
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
    edges = bytearray(edge_count(n))
    for a in range(n):
        for b in range(a + 1, n):
            edges[edge_index(n, perm[a], perm[b])] = state.edges[edge_index(n, a, b)]
    deg_m = [0] * n
    deg_b = [0] * n
    for v in range(n):
        deg_m[perm[v]] = state.deg_m[v]
        deg_b[perm[v]] = state.deg_b[v]

    def pv(v):
        return None if v is None else perm[v]

    def pe(pairs):
        return [tuple(sorted((perm[a], perm[b]))) for a, b in pairs]

    return GameState(
        n=n,
        bias=state.bias,
        first_player=state.first_player,
        edges=edges,
        maker_pos=pv(state.maker_pos),
        breaker_pos=pv(state.breaker_pos),
        unvisited={perm[v] for v in state.unvisited},
        breaker_touched={perm[v] for v in state.breaker_touched},
        deg_m=deg_m,
        deg_b=deg_b,
        maker_edges=pe(state.maker_edges),
        breaker_edges=pe(state.breaker_edges),
        round=state.round,
        to_move=state.to_move,
        moves_left_in_turn=state.moves_left_in_turn,
        maker_moves=state.maker_moves,
        breaker_moves=state.breaker_moves,
        passes=state.passes,
    )


def build_state(n, maker_edges=(), breaker_edges=(), maker_pos=None,
                breaker_pos=None, to_move=Player.MAKER, bias=(1, 1),
                first_player=Player.BREAKER, round=1) -> GameState:
    """A consistent synthetic position from explicit edge lists.

    Derived fields (ownership array, unvisited set, degrees, counters)
    are recomputed from the lists, so policy unit tests can pose exact
    mid-game situations without replaying a move sequence.
    """
    maker_edges = [tuple(sorted(e)) for e in maker_edges]
    breaker_edges = [tuple(sorted(e)) for e in breaker_edges]
    edges = bytearray(edge_count(n))
    deg_m = [0] * n
    deg_b = [0] * n
    for a, b in maker_edges:
        edges[edge_index(n, a, b)] = MAKER_OWNED
        deg_m[a] += 1
        deg_m[b] += 1
    for a, b in breaker_edges:
        if edges[edge_index(n, a, b)] != FREE:
            raise ValueError(f"edge {a}-{b} assigned twice")
        edges[edge_index(n, a, b)] = BREAKER_OWNED
        deg_b[a] += 1
        deg_b[b] += 1
    touched = {v for e in maker_edges for v in e}
    return GameState(
        n=n,
        bias=Bias(*bias),
        first_player=first_player,
        edges=edges,
        maker_pos=maker_pos,
        breaker_pos=breaker_pos,
        unvisited=set(range(n)) - touched,
        breaker_touched={v for e in breaker_edges for v in e},
        deg_m=deg_m,
        deg_b=deg_b,
        maker_edges=maker_edges,
        breaker_edges=breaker_edges,
        round=round,
        to_move=to_move,
        moves_left_in_turn=Bias(*bias).per_turn(to_move),
        maker_moves=len(maker_edges),
        breaker_moves=len(breaker_edges),
        passes=0,
    )


def random_playout_states(n: int, seed: int, steps: int,
                          bias=(1, 1), first=Player.BREAKER):
    """Yield the states along one random legal playout."""
    rng = random.Random(seed)
    state = new_game(n, Bias(*bias), first)
    yield state
    for _ in range(steps):
        moves = legal_moves(state, state.to_move)
        state = apply_move(state, state.to_move, rng.choice(moves))
        yield state


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
