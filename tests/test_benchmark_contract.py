"""The contract between the package and the benchmark in ``perfbench/``.

The benchmark checks its ``sweep`` outputs against frozen transcript
digests and traces the package's layers by wrapping names from outside.
These tests fail when a change alters a frozen transcript or drops a
name the tracer wraps, before the benchmark itself is run.
"""
from __future__ import annotations

import hashlib
import importlib.util
import itertools
import json
import re
from pathlib import Path

import pytest

import walkergames
from walkergames.engine import MAX_N, Player, hamilton_won
from walkergames.runner import GameConfig, replay_transcript, run_game
from walkergames.transcript import parse_transcript

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
LABEL = re.compile(r"n=(\d+) ([\w-]+)/(\w+) vs ([\w-]+) "
                   r"bias=(\d+):(\d+) first=(\w+) seed=(\d+)")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _config(label: str) -> GameConfig:
    """The game a golden-corpus label names."""
    match = LABEL.fullmatch(label)
    assert match is not None, f"unparsable label {label!r}"
    n, maker, goal, breaker, bias_m, bias_b, first, seed = match.groups()
    return GameConfig(n=int(n), maker=maker, goal=goal, breaker=breaker,
                      bias=(int(bias_m), int(bias_b)),
                      first_player=Player(first), seed=int(seed))


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_golden_sweep_transcripts_match_frozen_digests():
    golden = json.loads((PERFBENCH / "golden_sweep.json").read_text())
    frozen = golden["transcripts"]
    assert len(frozen) == 113
    changed = [label for label, digest in frozen.items()
               if _sha(run_game(_config(label)).transcript.dumps()) != digest]
    assert changed == []


# The seed-0 games of the two ``big_board`` pairs: the golden corpus
# stops at n=100, and the edge store and the per-move scans matter most
# on big boards. n=800 is the workload's own size.
BIG_BOARD_N200 = {
    ("connectivity", "connectivity", "greedy"):
        "a24ca35a59d4646efc1a437c886e46dae0accc70ef4fd180a219ea8bb6aad392",
    ("hamilton", "hamilton", "camper"):
        "688c38166a61c70ed3fad389378a129c75982279dfec8ca295e29df533f49e5c",
}
BIG_BOARD_N800 = {
    ("connectivity", "connectivity", "greedy"):
        "7388474a3febe077cb8c2485a93d12ebc89e82ab6fbf7a4342a6d93cfbb1baba",
    ("hamilton", "hamilton", "camper"):
        "fe1389807a49707e4b12cd14b325f0e5ff50878d75b2bf27ed3d5885df5a2bb8",
}


def _big_board_digest(n, maker, goal, breaker):
    config = GameConfig(n=n, maker=maker, goal=goal, breaker=breaker, seed=0)
    return _sha(run_game(config).transcript.dumps())


@pytest.mark.parametrize("maker,goal,breaker", sorted(BIG_BOARD_N200))
def test_big_board_pairs_at_n200_match_frozen_digests(maker, goal, breaker):
    digest = _big_board_digest(200, maker, goal, breaker)
    assert digest == BIG_BOARD_N200[(maker, goal, breaker)]


@pytest.mark.parametrize("maker,goal,breaker", sorted(BIG_BOARD_N800))
def test_big_board_pairs_at_n800_match_frozen_digests(maker, goal, breaker):
    digest = _big_board_digest(800, maker, goal, breaker)
    assert digest == BIG_BOARD_N800[(maker, goal, breaker)]


# The seed-0 connectivity-vs-greedy game on the largest board a game may
# use: the per-move cost of the edge rows shows most here.
MAX_N_DIGEST = (
    "2ce4cc209a16f0614ed7b7dd74f60505c4116983f9c3e9dcdf67051d70410cb8")


def test_max_n_game_matches_frozen_digest_and_replays_clean():
    config = GameConfig(n=MAX_N, maker="connectivity", goal="connectivity",
                        breaker="greedy", seed=0)
    text = run_game(config).transcript.dumps()
    assert _sha(text) == MAX_N_DIGEST
    replay_transcript(parse_transcript(text))


# The seed-0 game of the CLI's default pairing, connectivity vs random,
# at MAX_N. The golden corpus stops at n=100; here the random placement
# draws from n(n-1) placements, and ``nth_move`` skips whole starts by
# their counts to find it.
MAX_N_RANDOM_DIGEST = (
    "fbc857575fb029073d616fd5018e802e8ff9a9b9599c1080e029789410103517")


def test_max_n_random_game_matches_frozen_digest_and_replays_clean():
    config = GameConfig(n=MAX_N, maker="connectivity", goal="connectivity",
                        breaker="random", seed=0)
    text = run_game(config).transcript.dumps()
    assert _sha(text) == MAX_N_RANDOM_DIGEST
    replay_transcript(parse_transcript(text))


# Every Maker against every Breaker at every bias, both first players,
# on small boards: the cases the golden corpus leaves out. Random play
# toward the Hamilton goal has its own matrix below, which stops at
# n=13. Every game must also replay clean, which keeps replay's checks
# from rejecting honest play.
WIDE_MATRIX_DIGEST = (
    "7ad6a6e51ce7bb0d3fbfcd36847d8584f91132cdae817324c59bf3aba849f5cf")


def test_wide_transcript_matrix_matches_frozen_digest():
    matrix = list(itertools.product(
        (5, 8, 13, 30),
        (("chase", "connectivity"), ("connectivity", "connectivity"),
         ("hamilton", "hamilton"), ("random", "connectivity")),
        ("random", "greedy", "delaying", "delaying-greedy", "camper",
         "isolating"),
        ((1, 1), (1, 2), (2, 1)),
        Player,
        (0, 3)))
    assert len(matrix) == 1152
    digest = hashlib.sha256()
    for n, (maker, goal), breaker, bias, first, seed in matrix:
        config = GameConfig(n=n, maker=maker, goal=goal, breaker=breaker,
                            bias=bias, first_player=first, seed=seed)
        text = run_game(config).transcript.dumps()
        replay_transcript(parse_transcript(text))
        digest.update(text.encode())
    assert digest.hexdigest() == WIDE_MATRIX_DIGEST


# Makers that do not build their own cycle, playing toward the Hamilton
# goal: the runner decides each of their games by the exhaustive search
# after every move. The boards stop at 13 because at n=20 some of these
# games run for minutes.
HAMILTON_MATRIX_DIGEST = (
    "b75c45310da5138995b7ffeeb8d40c501104e51aaa588da47510a6282285aa6d")


def test_searched_hamilton_matrix_matches_frozen_digest():
    matrix = list(itertools.product(
        (5, 8, 13),
        ("random", "chase", "connectivity"),
        ("random", "greedy", "delaying", "delaying-greedy", "camper",
         "isolating"),
        ((1, 1), (1, 2), (2, 1)),
        Player,
        (0, 3)))
    assert len(matrix) == 648
    digest = hashlib.sha256()
    for n, maker, breaker, bias, first, seed in matrix:
        config = GameConfig(n=n, maker=maker, goal="hamilton",
                            breaker=breaker, bias=bias, first_player=first,
                            seed=seed)
        result = run_game(config)
        assert (result.reason == "goal") == hamilton_won(result.final_state)
        text = result.transcript.dumps()
        replay_transcript(parse_transcript(text))
        digest.update(text.encode())
    assert digest.hexdigest() == HAMILTON_MATRIX_DIGEST


def test_traced_game_writes_the_untraced_bytes():
    config = GameConfig(n=20, maker="hamilton", goal="hamilton",
                        breaker="random", seed=1)
    plain = run_game(config).transcript.dumps()
    tracer = _load_tracer().Tracer()
    # Installing looks up every wrapped name and fails on a missing one.
    with tracer.installed(walkergames):
        runner = walkergames.runner
        traced = runner.run_game(config).transcript.dumps()
        runner.replay_transcript(walkergames.transcript.parse_transcript(traced))
    assert traced == plain
    layers = {span[0] for span in tracer.spans}
    assert {"runner.run_game", "runner.replay_transcript",
            "engine.apply_move", "strategies.maker", "strategies.breaker",
            "monitors.observe", "transcript.dumps",
            "transcript.parse_transcript"} <= layers
