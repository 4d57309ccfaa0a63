"""Game loop, transcripts, and transcript replay.

``run_game`` plays one full game between two named policies, feeding
every applied move to the monitor suite and recording a transcript.
``replay_transcript`` re-executes a recorded game through the engine,
re-derives the outcome and monitor report, and raises a named error on
the first divergence, so a transcript is an independently checkable
proof of play.

Both advance one ``GameState`` in place from ``_start``'s fresh board.
A move's recorded fields, its round, player, from and to, are read by
one ``_record_fields`` from the state before ``apply_move`` plays it:
play writes them into the record, and replay compares each entry with
them and names the first field that differs. The monitor suite, built
from the header, then observes that record with the state the move
left, so play and replay feed it the same stream. The policies see
that same live state, so they must not keep it between calls; the
result's ``final_state`` is it, after the last move.

Outcome rules, stated once in ``deduce_outcome``: the runner calls it
after every move and stops at the first verdict other than
"incomplete". Every verdict persists once reached, so the replayer
calls it twice: just before the last recorded event, where the game
must still be running, and on the replayed final position.

* a strategy assertion ends the game immediately, Breaker wins;
* otherwise the goal predicate on the final position decides a Maker
  win ("goal"): connectivity directly, a Hamilton cycle through the
  recorded certificate when one exists, else by exhaustive search for
  a Maker that does not certify her own cycle. Such a Maker's Hamilton
  game above the search limit could never be decided, so ``_start``,
  which sets up both play and replay, refuses it;
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
    _MAKER,
    _PASS,
    _PLACE,
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
    check_board_size,
    edge_count,
    goal_reached,
    hamilton_won,
    new_game,
    resolve_move_cap,
)
from .monitors import DEFAULT_N0, MonitorSuite
from .strategies import MAKERS, StrategyAssertionError, make_policy, spec_of
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


def _start(header: Header) -> tuple:
    """The fresh state and monitor suite of a game under ``header``.

    Raises ValueError for a header that cannot be played: an unknown goal
    or Maker, a bad board size, bias or first player, or a game whose
    verdict cannot be decided, a Hamilton goal above the search limit for
    a Maker that does not certify her own cycle.
    """
    if header.goal not in GOALS:
        raise ValueError(f"unknown goal {header.goal!r}; choose from "
                         f"{', '.join(GOALS)}")
    state = new_game(header.n, Bias(*header.bias), Player(header.first_player))
    spec = spec_of(Player.MAKER, header.maker)
    if (header.goal == "hamilton" and not spec.certifies
            and header.n > HAMILTON_SEARCH_LIMIT):
        raise ValueError(
            f"maker {header.maker!r} does not certify a Hamilton cycle, and "
            f"the search for one is capped at n <= {HAMILTON_SEARCH_LIMIT}; "
            f"the goal at n={header.n} cannot be decided")
    return state, MonitorSuite(header)


def deduce_outcome(header: Header, final_state: GameState,
                   certificate: Optional[list], assertion_present: bool,
                   monitor_violation: bool) -> tuple:
    """(winner, reason) from the recorded evidence alone."""
    if assertion_present:
        return ("breaker", "assertion")
    if goal_reached(final_state, header.goal, certificate,
                    search=not MAKERS[header.maker].certifies):
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


# The JSON keys of the fields that ``_record_fields`` derives.
_RECORDED = ("round", "player", "from", "to")


def _record_fields(state: GameState, player: Player, move: Move) -> tuple:
    """The round, player, from and to that the record of ``move`` holds,
    read from the state before it.

    Play and replay call this once per move, so the player's name is
    read from ``_value_``, the plain attribute behind the slower
    ``value`` property.
    """
    kind = move.kind
    return (state.round, player._value_,
            move.start if kind is _PLACE else state.position(player),
            None if kind is _PASS else move.target)


def run_game(config: GameConfig,
             policies: Optional[tuple] = None) -> GameResult:
    """Play one game to completion and return its checked result.

    ``policies`` may supply a prebuilt (maker, breaker) pair of custom
    strategies: callables from state to ``Move``, any other result being
    a "wrong-kind" IllegalMoveError. A Maker with a ``certificate()``
    method hands over the Hamilton cycle it has built through it. The
    header still records the configured strategy ids.
    """
    # The default cap is 10 n, so a bad n must be named before the cap is.
    check_board_size(config.n)
    header = Header(
        n=config.n,
        bias=tuple(config.bias),
        first_player=config.first_player.value,
        maker=config.maker,
        breaker=config.breaker,
        goal=config.goal,
        seed=config.seed,
        move_cap=resolve_move_cap(config.n, config.move_cap),
        n0=config.n0,
        monitors=config.monitors,
        strict=config.strict,
    )
    state, suite = _start(header)
    if policies is not None:
        maker, breaker = policies
    else:
        maker = make_policy(Player.MAKER, config.maker, config.seed,
                            config.maker_script)
        breaker = make_policy(Player.BREAKER, config.breaker, config.seed,
                              config.breaker_script)
    entries: list = []
    assertion: Optional[StrategyAssertionError] = None
    certificate: Optional[list] = None
    certificate_of = getattr(maker, "certificate", None)

    while True:
        player = state.to_move
        policy = maker if player is _MAKER else breaker
        try:
            move = policy(state)
        except StrategyAssertionError as exc:
            assertion = exc
        else:
            if not isinstance(move, Move):  # replay builds its own Moves
                raise IllegalMoveError(
                    "wrong-kind", f"policy returned {move!r}, not a Move")
            rnd, name, origin, target = _record_fields(state, player, move)
            apply_move(state, player, move)
            # Only a move the engine accepted has a kind name to record.
            record = MoveRecord(len(entries), rnd, name, move.kind._value_,
                                origin, target)
            entries.append(record)
            suite.observe(record, state)
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


# The move kinds by name, for replay to look up in place of the slower
# Enum constructor. The reader admits only these names.
_KIND_OF = {k.value: k for k in MoveKind}


def _move_from_record(rec: MoveRecord) -> Move:
    """The move ``rec`` records. A pass keeps the recorded ``to``, which
    replay then finds differs from the None that play records."""
    kind = _KIND_OF[rec.kind]
    return Move(kind, rec.from_vertex if kind is _PLACE else None,
                rec.to_vertex)


def _replay_entry(state: GameState, rec: MoveRecord,
                  suite: MonitorSuite) -> None:
    """Check one recorded move against the fields play would record for
    it and against the engine, and play it on ``state``."""
    player = state.to_move
    move = _move_from_record(rec)
    expected = _record_fields(state, player, move)
    recorded = (rec.round, rec.player, rec.from_vertex, rec.to_vertex)
    if recorded != expected:
        key, got, want = next(d for d in zip(_RECORDED, recorded, expected)
                              if d[1] != d[2])
        raise ReplayMismatchError(
            "illegal-recorded-move",
            f"entry {rec.index}: recorded {key} {got!r}, play records "
            f"{want!r}")
    try:
        apply_move(state, player, move)
    except IllegalMoveError as exc:
        raise ReplayMismatchError(
            "illegal-recorded-move",
            f"entry {rec.index}: {exc}") from exc
    suite.observe(rec, state)


def replay_transcript(transcript: Transcript) -> Footer:
    """Re-execute a transcript and verify its footer.

    Returns the re-derived footer, equal to the recorded one. Raises
    ReplayMismatchError at the first divergence between the record and
    re-execution.
    """
    header = transcript.header
    try:
        state, suite = _start(header)
        spec_of(Player.BREAKER, header.breaker)
    except (ValueError, TypeError) as exc:
        raise ReplayMismatchError("header", str(exc)) from exc
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

    # The game must still be running just before its last event: the last
    # entry, or the assertion recorded after all entries.
    entries = transcript.entries
    last = len(entries) if footer.assertion is not None else len(entries) - 1
    for rec in entries[:last]:
        _replay_entry(state, rec, suite)
    winner, reason = deduce_outcome(header, state, certificate, False,
                                    suite.has_violations())
    if reason != "incomplete":
        raise ReplayMismatchError(
            "illegal-recorded-move",
            f"the game ended ({winner}/{reason}) before its last event")
    for rec in entries[last:]:
        _replay_entry(state, rec, suite)

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
    return derived
