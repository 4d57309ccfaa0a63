"""The contract between the package and the benchmark in ``perfbench/``.

The benchmark checks its ``sweep`` outputs against frozen transcript
digests and traces the package's layers by wrapping names from outside.
These tests fail when a change alters a frozen transcript or drops a
name the tracer wraps, before the benchmark itself is run.
"""
from __future__ import annotations

import hashlib
import importlib.util
import json
import re
from pathlib import Path

import pytest

import walkergames
from walkergames.engine import Player
from walkergames.runner import GameConfig, run_game

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


# The n=200 seed-0 games of the two ``big_board`` pairs: the golden
# corpus stops at n=100, and the edge store matters most on big boards.
BIG_BOARD_N200 = {
    ("connectivity", "connectivity", "greedy"):
        "a24ca35a59d4646efc1a437c886e46dae0accc70ef4fd180a219ea8bb6aad392",
    ("hamilton", "hamilton", "camper"):
        "688c38166a61c70ed3fad389378a129c75982279dfec8ca295e29df533f49e5c",
}


@pytest.mark.parametrize("maker,goal,breaker", sorted(BIG_BOARD_N200))
def test_big_board_pairs_at_n200_match_frozen_digests(maker, goal, breaker):
    config = GameConfig(n=200, maker=maker, goal=goal, breaker=breaker, seed=0)
    digest = _sha(run_game(config).transcript.dumps())
    assert digest == BIG_BOARD_N200[(maker, goal, breaker)]


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
