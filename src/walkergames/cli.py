"""Command line interface.

Subcommands:

* ``run``: play one game, write its transcript, report the outcome.
* ``verify``: sweep a matrix of board sizes, strategies, and seeds,
  aggregate outcomes, bound compliance, and monitor results.
* ``replay``: re-execute a recorded transcript and confirm it.
* ``solve``: exact value of a tiny board from the minimax solver.

Exit status contract, used by all subcommands:

* 0: ran cleanly; every claimed guarantee held.
* 1: a game finished outside its move bound (or the guaranteed side
     lost) while no stronger failure occurred.
* 2: an armed invariant monitor recorded a violation.
* 3: a strategy assertion fired or an unexpected exception escaped
     (an internal guarantee broke).
* 4: usage, script, transcript format, replay divergence, solver
     limits, or I/O problems.

Environment overrides: ``WALKERGAMES_N0`` sets the monitor arming
floor (default 20); ``WALKERGAMES_MOVE_CAP`` sets the Maker move cap
(default 10·n).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from typing import Optional

from .engine import GOALS, Player
from .monitors import DEFAULT_N0
from .oracle import ORACLE_MAX_N, OracleLimitError, cross_validate, solve
from .runner import (
    GameConfig,
    ReplayMismatchError,
    replay_transcript,
    run_game,
)
from .strategies import BREAKER_IDS, BREAKERS, MAKER_IDS, MAKERS, ScriptError
from .transcript import (
    Footer,
    TranscriptFormatError,
    read_transcript,
    write_transcript,
)

EXIT_CLEAN = 0
EXIT_BOUND = 1
EXIT_MONITOR = 2
EXIT_ASSERTION = 3
EXIT_USAGE = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports errors through the exit contract."""

    def error(self, message):
        raise UsageError(message)


def _env_int(name: str) -> Optional[int]:
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return None
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"{name} must be an integer, got {raw!r}")


def _parse_bias(text: str) -> tuple:
    parts = text.split(":")
    if len(parts) != 2:
        raise UsageError(f"bias must look like 1:2, got {text!r}")
    try:
        a, b = int(parts[0]), int(parts[1])
    except ValueError:
        raise UsageError(f"bias must be two integers, got {text!r}")
    if a < 1 or b < 1:
        raise UsageError("both bias values must be at least 1")
    return (a, b)


def _parse_int_list(text: str, flag: str) -> list:
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise UsageError(f"{flag} expects comma-separated integers, got {text!r}")


def _resolve_bound(spec: str, goal: str, maker: str, n: int) -> Optional[int]:
    if spec == "auto":
        # Guaranteed totals exist only for the constructive strategies.
        slack = MAKERS[maker].bounds.get(goal)
        return None if slack is None else n + slack
    if spec == "none":
        return None
    try:
        value = int(spec)
    except ValueError:
        raise UsageError(f"--bound must be auto, none, or an integer, got {spec!r}")
    if value < 1:
        raise UsageError("--bound must be positive")
    return value


def _severity(footer: Footer, bound: Optional[int]) -> int:
    if footer.assertion is not None:
        return EXIT_ASSERTION
    report = footer.monitors
    if report and report.get("armed") and not report.get("clean"):
        return EXIT_MONITOR
    if bound is not None:
        if footer.winner != "maker" or footer.maker_move_count > bound:
            return EXIT_BOUND
    return EXIT_CLEAN


def _read_script(path: Optional[str]) -> Optional[str]:
    if path is None:
        return None
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _config_from_args(args, n: int, maker: str, breaker: str,
                      seed: int) -> GameConfig:
    env_cap = _env_int("WALKERGAMES_MOVE_CAP")
    move_cap = args.move_cap if args.move_cap is not None else env_cap
    env_n0 = _env_int("WALKERGAMES_N0")
    n0 = env_n0 if env_n0 is not None else DEFAULT_N0
    return GameConfig(
        n=n,
        maker=maker,
        breaker=breaker,
        goal=args.goal,
        bias=_parse_bias(args.bias),
        first_player=Player(args.first),
        seed=seed,
        move_cap=move_cap,
        n0=n0,
        monitors=not args.no_monitors,
        strict=args.strict,
        maker_script=_read_script(getattr(args, "maker_script", None)),
        breaker_script=_read_script(getattr(args, "breaker_script", None)),
    )


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def _cmd_run(args) -> int:
    bound = _resolve_bound(args.bound, args.goal, args.maker, args.n)
    config = _config_from_args(args, args.n, args.maker, args.breaker,
                               args.seed)
    result = run_game(config)
    if args.out is None or args.out == "-":
        sys.stdout.write(result.transcript.dumps())
        out_note = "stdout"
    else:
        write_transcript(args.out, result.transcript)
        out_note = args.out
    bound_note = "none" if bound is None else str(bound)
    print(
        f"winner={result.winner} reason={result.reason} "
        f"maker_moves={result.maker_move_count} bound={bound_note} "
        f"n={args.n} seed={args.seed} transcript={out_note}",
        file=sys.stderr)
    if result.assertion is not None:
        print(f"assertion: {result.assertion}", file=sys.stderr)
    return _severity(result.transcript.footer, bound)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _cmd_verify(args) -> int:
    if args.games < 0:
        raise UsageError("--games must be at least 0")
    sizes = _parse_int_list(args.n, "--n")
    makers = [m for m in args.makers.split(",") if m]
    breakers = [b for b in args.breakers.split(",") if b]
    for side, names, specs in (("maker", makers, MAKERS),
                               ("breaker", breakers, BREAKERS)):
        for name in names:
            if name not in specs or specs[name].scripted:
                raise UsageError(f"verify cannot sweep {side} {name!r}")
    if args.out_dir is not None:
        os.makedirs(args.out_dir, exist_ok=True)

    rows = []
    worst = EXIT_CLEAN
    for n in sizes:
        for maker in makers:
            for breaker in breakers:
                bound = _resolve_bound(args.bound, args.goal, maker, n)
                wins = 0
                max_moves = 0
                breaches = 0
                monitor_hits = 0
                assertions = 0
                for offset in range(args.games):
                    seed = args.seed_base + offset
                    config = _config_from_args(args, n, maker, breaker, seed)
                    result = run_game(config)
                    sev = _severity(result.transcript.footer, bound)
                    worst = max(worst, sev)
                    if result.winner == "maker":
                        wins += 1
                        max_moves = max(max_moves, result.maker_move_count)
                    if sev == EXIT_ASSERTION:
                        assertions += 1
                    elif sev == EXIT_MONITOR:
                        monitor_hits += 1
                    elif sev == EXIT_BOUND:
                        breaches += 1
                    if args.out_dir is not None:
                        name = (f"{args.goal}_{maker}_vs_{breaker}"
                                f"_n{n}_s{seed}.jsonl")
                        write_transcript(os.path.join(args.out_dir, name),
                                         result.transcript)
                rows.append({
                    "n": n,
                    "maker": maker,
                    "breaker": breaker,
                    "games": args.games,
                    "maker_wins": wins,
                    "max_maker_moves": max_moves,
                    "bound": bound,
                    "bound_breaches": breaches,
                    "monitor_violations": monitor_hits,
                    "assertions": assertions,
                })

    if args.json:
        print(json.dumps({"goal": args.goal, "cells": rows,
                          "exit_status": worst}, indent=2, sort_keys=True))
    else:
        head = (f"{'n':>5} {'maker':<13} {'breaker':<16} {'wins':>9} "
                f"{'max_moves':>9} {'bound':>6} {'breach':>6} "
                f"{'monitor':>7} {'assert':>6}")
        print(head)
        print("-" * len(head))
        for r in rows:
            bound_s = "-" if r["bound"] is None else str(r["bound"])
            print(f"{r['n']:>5} {r['maker']:<13} {r['breaker']:<16} "
                  f"{r['maker_wins']:>4}/{r['games']:<4} "
                  f"{r['max_maker_moves']:>9} {bound_s:>6} "
                  f"{r['bound_breaches']:>6} {r['monitor_violations']:>7} "
                  f"{r['assertions']:>6}")
        print(f"exit status {worst}")
    return worst


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------

def _cmd_replay(args) -> int:
    transcript = read_transcript(
        sys.stdin if args.transcript == "-" else args.transcript)
    footer = replay_transcript(transcript)
    header = transcript.header
    bound = _resolve_bound(args.bound, header.goal, header.maker, header.n)
    print(f"replay ok: {len(transcript.entries)} moves, "
          f"winner={footer.winner} reason={footer.reason} "
          f"maker_moves={footer.maker_move_count}")
    # The record is faithful; the exit status still surfaces what the
    # recorded game itself established.
    return _severity(footer, bound)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def _cmd_solve(args) -> int:
    result = solve(args.n, args.goal, Player(args.first),
                   move_cap=args.move_cap, node_limit=args.node_limit)
    checked = cross_validate(result)
    if args.json:
        payload = result.to_json()
        payload["cross_validated"] = checked
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        win = (f"maker reaches the goal in {result.maker_moves_to_win} moves"
               if result.outcome == "maker"
               else "breaker prevents the goal")
        print(f"n={result.n} goal={result.goal} first={result.first_player} "
              f"cap={result.move_cap}: {win}")
        print(f"nodes={result.nodes} memo={result.memo} "
              f"cross_validated={checked}")
        if result.pv:
            print("line: " + " ".join(str(m) for m in result.pv))
    if not checked:
        print("error: principal variation failed engine validation",
              file=sys.stderr)
        return EXIT_ASSERTION
    return EXIT_CLEAN


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common_game_flags(p: argparse.ArgumentParser):
    p.add_argument("--goal", choices=list(GOALS),
                   default="connectivity")
    p.add_argument("--bias", default="1:1",
                   help="moves per turn as MAKER:BREAKER, e.g. 1:2")
    p.add_argument("--first", choices=["maker", "breaker"], default="breaker",
                   help="who moves first")
    p.add_argument("--move-cap", type=int, default=None,
                   help="maker move cap (default: WALKERGAMES_MOVE_CAP or 10*n)")
    p.add_argument("--bound", default="auto",
                   help="maker move bound to enforce: auto, none, or an integer")
    p.add_argument("--no-monitors", action="store_true",
                   help="disable invariant monitors")
    p.add_argument("--strict", action="store_true",
                   help="stop the game at the first monitor violation")


def build_parser() -> _Parser:
    parser = _Parser(prog="walkergames",
                     description="Walk-constrained Maker-Breaker games on "
                                 "complete graphs: simulate, verify, replay, "
                                 "solve.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="play one game")
    p_run.add_argument("--n", type=int, required=True, help="board size")
    p_run.add_argument("--maker", choices=list(MAKER_IDS), default="connectivity")
    p_run.add_argument("--breaker", choices=list(BREAKER_IDS), default="random")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--maker-script", default=None,
                       help="move script for a scripted maker")
    p_run.add_argument("--breaker-script", default=None,
                       help="move script for a scripted breaker")
    p_run.add_argument("--out", default=None,
                       help="transcript path (default: stdout)")
    _add_common_game_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_verify = sub.add_parser("verify", help="sweep a verification matrix")
    p_verify.add_argument("--n", default="20,50",
                          help="comma-separated board sizes")
    p_verify.add_argument("--makers", default="connectivity")
    p_verify.add_argument("--breakers", default="random,greedy")
    p_verify.add_argument("--games", type=int, default=5,
                          help="games per cell")
    p_verify.add_argument("--seed-base", type=int, default=0)
    p_verify.add_argument("--out-dir", default=None,
                          help="write every transcript into this directory")
    p_verify.add_argument("--json", action="store_true",
                          help="machine-readable summary")
    _add_common_game_flags(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    p_replay = sub.add_parser("replay", help="re-execute a transcript")
    p_replay.add_argument("transcript", help="transcript path, or - for stdin")
    p_replay.add_argument("--bound", default="none",
                          help="maker move bound to enforce on the replayed "
                               "game: auto, none, or an integer")
    p_replay.set_defaults(func=_cmd_replay)

    p_solve = sub.add_parser("solve", help="exact value of a tiny board")
    p_solve.add_argument("--n", type=int, required=True,
                         help=f"board size, at most {ORACLE_MAX_N}")
    p_solve.add_argument("--goal", choices=list(GOALS),
                         default="connectivity")
    p_solve.add_argument("--first", choices=["maker", "breaker"],
                         default="breaker")
    p_solve.add_argument("--move-cap", type=int, default=None)
    p_solve.add_argument("--node-limit", type=int, default=5_000_000)
    p_solve.add_argument("--json", action="store_true")
    p_solve.set_defaults(func=_cmd_solve)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error[usage]: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ScriptError as exc:
        print(f"error[script]: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TranscriptFormatError as exc:
        print(f"error[transcript-format]: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ReplayMismatchError as exc:
        print(f"error[{exc.kind}]: {exc.detail}", file=sys.stderr)
        return EXIT_USAGE
    except OracleLimitError as exc:
        print(f"error[solver-limit]: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error[value]: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        print(f"error[internal-assertion]: {exc}", file=sys.stderr)
        return EXIT_ASSERTION
    except Exception as exc:  # a defect, not a bound breach: never exit 1
        print(f"error[internal]: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        traceback.print_exc()
        return EXIT_ASSERTION


if __name__ == "__main__":
    sys.exit(main())
