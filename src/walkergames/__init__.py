"""Walk-constrained Maker-Breaker games on complete graphs.

Both players stand on a vertex and move like walkers: claim a free
edge at the current position and cross it, re-walk an own edge, or
place onto any free edge for the first move. The Maker tries to visit
every vertex (connectivity) or to build a Hamilton cycle from her
claimed edges; the Breaker walks the same board trying to stop her.

The package provides the rules engine, constructive strategies for
both sides, guarantee monitors, JSONL transcripts with an independent
replayer, an exact solver for tiny boards, and a command line front
end.
"""
from __future__ import annotations

from .engine import (
    BREAKER_OWNED,
    FREE,
    GOALS,
    MAKER_OWNED,
    Bias,
    GameState,
    IllegalMoveError,
    MalformedCertificateError,
    Move,
    MoveKind,
    Player,
    apply_move,
    connectivity_won,
    count_moves,
    degree_b,
    degree_m,
    hamilton_won,
    legal_moves,
    new_game,
    nth_move,
)
from .monitors import MonitorSuite
from .oracle import OracleLimitError, SolveResult, cross_validate, solve, solve_from_state
from .runner import (
    GameConfig,
    GameResult,
    ReplayMismatchError,
    replay_transcript,
    run_game,
)
from .strategies import (
    BREAKER_IDS,
    MAKER_IDS,
    S_BASED_MAKERS,
    Policy,
    ScriptError,
    StrategyAssertionError,
    StrategyMemory,
    make_policy,
    parse_script,
)
from .transcript import (
    Footer,
    Header,
    MoveRecord,
    Transcript,
    TranscriptFormatError,
    parse_transcript,
    read_transcript,
    write_transcript,
)

__version__ = "0.1.0"

__all__ = [
    "BREAKER_OWNED", "FREE", "GOALS", "MAKER_OWNED",
    "Bias", "GameState", "IllegalMoveError", "MalformedCertificateError",
    "Move", "MoveKind", "Player", "apply_move",
    "connectivity_won", "count_moves", "degree_b", "degree_m", "hamilton_won",
    "legal_moves", "new_game", "nth_move",
    "MonitorSuite",
    "OracleLimitError", "SolveResult", "cross_validate", "solve",
    "solve_from_state",
    "GameConfig", "GameResult", "ReplayMismatchError", "replay_transcript",
    "run_game",
    "BREAKER_IDS", "MAKER_IDS", "S_BASED_MAKERS", "Policy", "ScriptError",
    "StrategyAssertionError", "StrategyMemory", "make_policy", "parse_script",
    "Footer", "Header", "MoveRecord", "Transcript", "TranscriptFormatError",
    "parse_transcript", "read_transcript", "write_transcript",
    "__version__",
]
