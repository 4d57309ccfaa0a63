"""Game loop, transcripts, and transcript replay.

``run_game`` plays one full game between two named policies, feeding
every applied move to the monitor suite and recording a transcript.
``replay_transcript`` re-executes a recorded game through the engine,
re-derives the outcome and monitor report, and raises a named error on
the first divergence, so a transcript is an independently checkable
proof of play.

Outcome rules, stated once in ``deduce_outcome``: the runner calls it
after every move and stops at the first verdict other than
"incomplete". Every verdict persists once reached, so the replayer
calls it twice: just before the last recorded event, where the game
must still be running, and on the replayed final position.

* a strategy assertion ends the game immediately, Breaker wins;
* otherwise the goal predicate on the final position decides a Maker
  win ("goal"): connectivity directly, a Hamilton cycle through the
  recorded certificate when one exists, by exhaustive search only for
  non-constructive Makers on boards small enough to search;
* otherwise, in strict-monitor runs a violation ends the game with no
  winner ("monitor");
* otherwise reaching the Maker move cap is a Breaker win ("cap");
* otherwise a Maker walled out, still unplaced while the Breaker owns
  every edge, is a Breaker win ("blocked"). From there the Maker can
  only pass, and her passes never reach the cap.

Randomized policies draw from two disjoint streams derived from the
one game seed, so a (header, seed) pair pins every byte of the
transcript.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .engine import (
    DEFAULT_MOVE_CAP_FACTOR,
    GOALS,
    HAMILTON_SEARCH_LIMIT,
    Bias,
    GameState,
    IllegalMoveError,
    MalformedCertificateError,
    Move,
    MoveKind,
    Player,
    apply_move,
    connectivity_won,
    edge_count,
    hamilton_won,
    new_game,
)
from .monitors import DEFAULT_N0, MonitorSuite
from .strategies import BREAKER_IDS, MAKER_IDS, StrategyAssertionError, make_policy
from .transcript import Footer, Header, MoveRecord, Transcript


class ReplayMismatchError(Exception):
    """A transcript failed re-execution. ``kind`` names the divergence:
    "header", "illegal-recorded-move", or "footer-mismatch"."""

    def __init__(self, kind: str, detail: str):
        self.kind = kind
        self.detail = detail
        super().__init__(f"{kind}: {detail}")


@dataclass
class GameConfig:
    n: int
    maker: str
    breaker: str
    goal: str = "connectivity"
    bias: tuple = (1, 1)
    first_player: Player = Player.BREAKER
    seed: int = 0
    move_cap: Optional[int] = None
    n0: int = DEFAULT_N0
    monitors: bool = True
    strict: bool = False
    maker_script: Optional[str] = None
    breaker_script: Optional[str] = None


@dataclass
class GameResult:
    winner: str
    reason: str
    transcript: Transcript
    final_state: GameState
    monitor_report: Optional[dict]
    assertion: Optional[StrategyAssertionError]
    certificate: Optional[list]

    @property
    def maker_move_count(self) -> int:
        return self.final_state.maker_moves


def _goal_reached(goal: str, maker_id: str, state: GameState,
                  certificate: Optional[list]) -> bool:
    if goal == "connectivity":
        return connectivity_won(state)
    if certificate is not None:
        return hamilton_won(state, certificate)
    if maker_id != "hamilton" and state.n <= HAMILTON_SEARCH_LIMIT:
        return hamilton_won(state)
    return False


def deduce_outcome(header: Header, final_state: GameState,
                   certificate: Optional[list], assertion_present: bool,
                   monitor_violation: bool) -> tuple:
    """(winner, reason) from the recorded evidence alone."""
    if assertion_present:
        return ("breaker", "assertion")
    if _goal_reached(header.goal, header.maker, final_state, certificate):
        return ("maker", "goal")
    if header.strict and monitor_violation:
        return ("none", "monitor")
    if final_state.maker_moves >= header.move_cap:
        return ("breaker", "cap")
    if (final_state.maker_pos is None
            and len(final_state.breaker_edges) == edge_count(final_state.n)):
        return ("breaker", "blocked")
    return ("none", "incomplete")


def _footer(winner: str, reason: str, state: GameState, suite: MonitorSuite,
            certificate: Optional[list], assertion: Optional[dict]) -> Footer:
    return Footer(
        winner=winner,
        reason=reason,
        maker_move_count=state.maker_moves,
        breaker_move_count=state.breaker_moves,
        passes=state.passes,
        monitors=suite.report(),
        certificate=certificate,
        assertion=assertion,
    )


def _record_for(entries: list, before: GameState, player: Player,
                move: Move) -> MoveRecord:
    if move.kind is MoveKind.PLACE:
        origin = move.start
    else:
        origin = before.position(player)
    target = None if move.kind is MoveKind.PASS else move.target
    return MoveRecord(
        index=len(entries),
        round=before.round,
        player=player.value,
        kind=move.kind.value,
        from_vertex=origin,
        to_vertex=target,
    )


def run_game(config: GameConfig,
             policies: Optional[tuple] = None) -> GameResult:
    """Play one game to completion and return its checked result.

    ``policies`` may supply a prebuilt (maker, breaker) pair, for callers
    plugging in custom strategies: any callables from state to move. A
    Maker with a ``certificate()`` method hands over the Hamilton cycle
    it has built through it. The header still records the configured
    strategy ids.
    """
    if config.goal not in GOALS:
        raise ValueError(f"unknown goal {config.goal!r}; choose from "
                         f"{', '.join(GOALS)}")
    bias = Bias(*config.bias)
    move_cap = (config.move_cap if config.move_cap is not None
                else DEFAULT_MOVE_CAP_FACTOR * config.n)
    if move_cap < 1:
        raise ValueError("move cap must be positive")
    state = new_game(config.n, bias, config.first_player)
    if policies is not None:
        maker, breaker = policies
    else:
        maker = make_policy(Player.MAKER, config.maker, config.seed,
                            config.maker_script)
        breaker = make_policy(Player.BREAKER, config.breaker, config.seed,
                              config.breaker_script)
    header = Header(
        n=config.n,
        bias=(bias.maker, bias.breaker),
        first_player=config.first_player.value,
        maker=config.maker,
        breaker=config.breaker,
        goal=config.goal,
        seed=config.seed,
        move_cap=move_cap,
        n0=config.n0,
        monitors=config.monitors,
        strict=config.strict,
    )
    suite = MonitorSuite(config.n, config.maker, bias, config.first_player,
                         n0=config.n0, enabled=config.monitors)
    entries: list = []
    assertion: Optional[StrategyAssertionError] = None
    certificate: Optional[list] = None
    certificate_of = getattr(maker, "certificate", None)

    while True:
        player = state.to_move
        policy = maker if player is Player.MAKER else breaker
        try:
            move = policy(state)
        except StrategyAssertionError as exc:
            assertion = exc
        else:
            before = state
            state = apply_move(state, player, move)
            entries.append(_record_for(entries, before, player, move))
            suite.observe(before, move, state)
            if certificate_of is not None:
                certificate = certificate_of()
        winner, reason = deduce_outcome(
            header, state, certificate, assertion is not None,
            suite.has_violations())
        if certificate is not None and reason != "goal":
            raise RuntimeError(
                "internal error: constructed cycle failed certificate "
                "validation")
        if reason != "incomplete":
            break

    footer = _footer(winner, reason, state, suite, certificate,
                     assertion.to_json() if assertion is not None else None)
    transcript = Transcript(header=header, entries=entries, footer=footer)
    return GameResult(
        winner=winner,
        reason=reason,
        transcript=transcript,
        final_state=state,
        monitor_report=footer.monitors,
        assertion=assertion,
        certificate=certificate,
    )


def _move_from_record(rec: MoveRecord) -> Move:
    try:
        kind = MoveKind(rec.kind)
    except ValueError as exc:
        raise ReplayMismatchError(
            "illegal-recorded-move",
            f"entry {rec.index}: unknown move kind {rec.kind!r}") from exc
    if kind is MoveKind.PASS:
        return Move.pass_()
    placing = kind is MoveKind.PLACE
    if rec.to_vertex is None or placing and rec.from_vertex is None:
        raise ReplayMismatchError(
            "illegal-recorded-move",
            f"entry {rec.index}: {kind.value} needs "
            f"{'both endpoints' if placing else 'a target'}")
    return Move(kind, rec.from_vertex if placing else None, rec.to_vertex)


def _replay_entry(state: GameState, rec: MoveRecord,
                  suite: MonitorSuite) -> GameState:
    """Check one recorded move against the engine and apply it."""
    try:
        player = Player(rec.player)
    except ValueError as exc:
        raise ReplayMismatchError(
            "illegal-recorded-move",
            f"entry {rec.index}: unknown player {rec.player!r}") from exc
    if player is not state.to_move:
        raise ReplayMismatchError(
            "illegal-recorded-move",
            f"entry {rec.index}: recorded mover {rec.player} but "
            f"{state.to_move.value} is to move")
    if rec.round != state.round:
        raise ReplayMismatchError(
            "illegal-recorded-move",
            f"entry {rec.index}: recorded round {rec.round}, engine "
            f"round {state.round}")
    move = _move_from_record(rec)
    expected_origin = (move.start if move.kind is MoveKind.PLACE
                       else state.position(player))
    if rec.from_vertex != expected_origin:
        raise ReplayMismatchError(
            "illegal-recorded-move",
            f"entry {rec.index}: recorded origin {rec.from_vertex}, "
            f"engine position {expected_origin}")
    try:
        after = apply_move(state, player, move)
    except IllegalMoveError as exc:
        raise ReplayMismatchError(
            "illegal-recorded-move",
            f"entry {rec.index}: {exc}") from exc
    suite.observe(state, move, after)
    return after


def replay_transcript(transcript: Transcript) -> dict:
    """Re-execute a transcript and verify its footer.

    Returns a summary dict on success. Raises ReplayMismatchError at
    the first divergence between the record and re-execution.
    """
    header = transcript.header
    try:
        bias = Bias(header.bias[0], header.bias[1])
        first = Player(header.first_player)
        state = new_game(header.n, bias, first)
    except (ValueError, IndexError) as exc:
        raise ReplayMismatchError("header", str(exc)) from exc
    if header.goal not in GOALS:
        raise ReplayMismatchError("header", f"unknown goal {header.goal!r}")
    for side, name, ids in (("maker", header.maker, MAKER_IDS),
                            ("breaker", header.breaker, BREAKER_IDS)):
        if name not in ids:
            raise ReplayMismatchError(
                "header", f"unknown {side} strategy {name!r}")
    footer = transcript.footer
    if footer is None:
        raise ReplayMismatchError(
            "footer-mismatch", "transcript has no footer record")
    certificate = footer.certificate
    if certificate is not None:
        # On the empty board a well-formed certificate is simply false, so
        # this checks its form before any outcome is deduced from it.
        try:
            hamilton_won(state, certificate)
        except MalformedCertificateError as exc:
            raise ReplayMismatchError(
                "footer-mismatch", f"certificate malformed: {exc}") from exc

    suite = MonitorSuite(header.n, header.maker, bias, first,
                         n0=header.n0, enabled=header.monitors)
    # The game must still be running just before its last event: the last
    # entry, or the assertion recorded after all entries.
    entries = transcript.entries
    last = len(entries) if footer.assertion is not None else len(entries) - 1
    for rec in entries[:last]:
        state = _replay_entry(state, rec, suite)
    winner, reason = deduce_outcome(header, state, certificate, False,
                                    suite.has_violations())
    if reason != "incomplete":
        raise ReplayMismatchError(
            "illegal-recorded-move",
            f"the game ended ({winner}/{reason}) before its last event")
    for rec in entries[last:]:
        state = _replay_entry(state, rec, suite)

    if certificate is not None and not hamilton_won(state, certificate):
        raise ReplayMismatchError(
            "footer-mismatch",
            "recorded certificate is not a claimed Hamilton cycle")
    winner, reason = deduce_outcome(header, state, certificate,
                                    footer.assertion is not None,
                                    suite.has_violations())
    derived = _footer(winner, reason, state, suite, certificate,
                      footer.assertion)
    for key in Footer.__slots__:
        recorded, expected = getattr(footer, key), getattr(derived, key)
        if recorded != expected:
            detail = ("monitor report differs from the re-derived report"
                      if key == "monitors" else
                      f"recorded {recorded!r}, re-derived {expected!r}")
            raise ReplayMismatchError("footer-mismatch", f"{key}: {detail}")
    return {
        "ok": True,
        "entries": len(entries),
        "winner": winner,
        "reason": reason,
        "maker_move_count": state.maker_moves,
        "monitor_report": derived.monitors,
        "assertion": footer.assertion,
    }
