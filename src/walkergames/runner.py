"""Game loop, transcripts, and transcript replay.

``run_game`` plays one full game between two named policies, feeding
every applied move to the monitor suite and recording a transcript.
``replay_transcript`` re-executes a recorded game through the engine,
re-derives the outcome and monitor report, and raises a named error on
the first divergence, so a transcript is an independently checkable
proof of play.

Outcome rules, stated once in ``deduce_outcome``: the runner calls it
after every move and stops at the first verdict other than
"incomplete", and the replayer calls it on the replayed final position.

* a strategy assertion ends the game immediately, Breaker wins;
* otherwise the goal predicate on the final position decides a Maker
  win ("goal"): connectivity directly, a Hamilton cycle through the
  recorded certificate when one exists, by exhaustive search only for
  non-constructive Makers on boards small enough to search;
* otherwise, in strict-monitor runs a violation ends the game with no
  winner ("monitor");
* otherwise reaching the Maker move cap is a Breaker win ("cap");
* otherwise a full cycle of passes is a Breaker win ("blocked").

Randomized policies draw from two disjoint streams derived from the
one game seed, so a (header, seed) pair pins every byte of the
transcript.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .engine import (
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
    hamilton_won,
    new_game,
)
from .monitors import MonitorSuite
from .strategies import StrategyAssertionError, make_policy
from .transcript import Footer, Header, MoveRecord, Transcript

DEFAULT_MOVE_CAP_FACTOR = 10
DEFAULT_N0 = 20


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


def _trailing_pass_cycle(entries: list, cycle_len: int) -> bool:
    if len(entries) < cycle_len:
        return False
    return all(e.kind == MoveKind.PASS.value for e in entries[-cycle_len:])


def deduce_outcome(header: Header, final_state: GameState,
                   certificate: Optional[list], assertion_present: bool,
                   monitor_violation: bool, entries: list) -> tuple:
    """(winner, reason) from the recorded evidence alone."""
    if assertion_present:
        return ("breaker", "assertion")
    if _goal_reached(header.goal, header.maker, final_state, certificate):
        return ("maker", "goal")
    if header.strict and monitor_violation:
        return ("none", "monitor")
    if final_state.maker_moves >= header.move_cap:
        return ("breaker", "cap")
    cycle_len = header.bias[0] + header.bias[1]
    if _trailing_pass_cycle(entries, cycle_len):
        return ("breaker", "blocked")
    return ("none", "incomplete")


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
            if config.monitors:
                suite.observe(before, move, state)
            if certificate_of is not None:
                certificate = certificate_of()
        winner, reason = deduce_outcome(
            header, state, certificate, assertion is not None,
            config.monitors and suite.has_violations(), entries)
        if certificate is not None and reason != "goal":
            raise RuntimeError(
                "internal error: constructed cycle failed certificate "
                "validation")
        if reason != "incomplete":
            break

    footer = Footer(
        winner=winner,
        reason=reason,
        maker_move_count=state.maker_moves,
        breaker_move_count=state.breaker_moves,
        passes=state.passes,
        monitors=suite.report() if config.monitors else None,
        certificate=certificate,
        assertion=assertion.to_json() if assertion is not None else None,
    )
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
    if rec.kind == MoveKind.PLACE.value:
        if rec.from_vertex is None or rec.to_vertex is None:
            raise ReplayMismatchError(
                "illegal-recorded-move",
                f"entry {rec.index}: placement needs both endpoints")
        return Move.place(rec.from_vertex, rec.to_vertex)
    if rec.kind == MoveKind.CLAIM.value:
        if rec.to_vertex is None:
            raise ReplayMismatchError(
                "illegal-recorded-move",
                f"entry {rec.index}: claim needs a target")
        return Move.claim(rec.to_vertex)
    if rec.kind == MoveKind.TRAVERSE.value:
        if rec.to_vertex is None:
            raise ReplayMismatchError(
                "illegal-recorded-move",
                f"entry {rec.index}: traversal needs a target")
        return Move.traverse(rec.to_vertex)
    if rec.kind == MoveKind.PASS.value:
        return Move.pass_()
    raise ReplayMismatchError(
        "illegal-recorded-move",
        f"entry {rec.index}: unknown move kind {rec.kind!r}")


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

    suite = MonitorSuite(header.n, header.maker, bias, first,
                         n0=header.n0, enabled=header.monitors)
    for rec in transcript.entries:
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
        before = state
        try:
            state = apply_move(state, player, move)
        except IllegalMoveError as exc:
            raise ReplayMismatchError(
                "illegal-recorded-move",
                f"entry {rec.index}: {exc}") from exc
        if header.monitors:
            suite.observe(before, move, state)

    footer = transcript.footer
    if footer is None:
        raise ReplayMismatchError(
            "footer-mismatch", "transcript has no footer record")
    certificate = footer.certificate
    if certificate is not None:
        try:
            cert_ok = hamilton_won(state, certificate)
        except MalformedCertificateError as exc:
            raise ReplayMismatchError(
                "footer-mismatch", f"certificate malformed: {exc}") from exc
        if not cert_ok:
            raise ReplayMismatchError(
                "footer-mismatch",
                "recorded certificate is not a claimed Hamilton cycle")

    monitor_violation = header.monitors and suite.has_violations()
    winner, reason = deduce_outcome(header, state, certificate,
                                    footer.assertion is not None,
                                    monitor_violation, transcript.entries)
    expected = {
        "winner": winner,
        "reason": reason,
        "maker_move_count": state.maker_moves,
        "breaker_move_count": state.breaker_moves,
        "passes": state.passes,
    }
    recorded = {
        "winner": footer.winner,
        "reason": footer.reason,
        "maker_move_count": footer.maker_move_count,
        "breaker_move_count": footer.breaker_move_count,
        "passes": footer.passes,
    }
    for key in expected:
        if expected[key] != recorded[key]:
            raise ReplayMismatchError(
                "footer-mismatch",
                f"{key}: recorded {recorded[key]!r}, re-derived "
                f"{expected[key]!r}")
    if header.monitors:
        if footer.monitors != suite.report():
            raise ReplayMismatchError(
                "footer-mismatch",
                "monitor report differs from re-derived report")
    elif footer.monitors is not None:
        raise ReplayMismatchError(
            "footer-mismatch",
            "monitor report present in an unmonitored game")
    return {
        "ok": True,
        "entries": len(transcript.entries),
        "winner": winner,
        "reason": reason,
        "maker_move_count": state.maker_moves,
        "monitor_report": suite.report() if header.monitors else None,
        "assertion": footer.assertion,
    }
