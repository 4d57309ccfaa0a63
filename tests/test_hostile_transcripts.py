"""The exit contract under hostile transcripts.

Hypothesis mutates three real transcripts (byte flips, truncations,
duplicated and swapped lines, deleted spans, and numbers replaced by
odd values) and feeds each result to ``walkergames replay`` through
``cli.main``, so the mapping of exceptions to exit codes is under test
too. Whatever the input, replay exits 0 to 4. Below 4 it confirms the
record; at 4 it names a specific error. A plain ``error[value]`` or an
internal error would mean an exception escaped the checks meant for it.
"""
from __future__ import annotations

import contextlib
import io
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walkergames import cli
from walkergames.runner import GameConfig, run_game

# name: (config, exit status of the unmutated transcript's replay)
SOURCES = {
    "connectivity": (GameConfig(n=6, maker="connectivity", breaker="random",
                                seed=1), 0),
    # The Hamilton Maker's strategy assertion fires against greedy here.
    "assertion": (GameConfig(n=8, maker="hamilton", breaker="greedy",
                             goal="hamilton", seed=2), 3),
    "searched-hamilton": (GameConfig(n=7, maker="random", breaker="camper",
                                     goal="hamilton", seed=3), 0),
}
TEXTS = {name: run_game(config).transcript.dumps().encode()
         for name, (config, _) in SOURCES.items()}

NUMBER = re.compile(rb"-?\d+")
REPLACEMENTS = [b"-1", b"0", b"9" * 80, b"9" * 5000, b"true", b"null",
                b"1.0", b"[]", b"{}", b'"x"']
# Tags that mean no check claimed the input.
UNNAMED = {"value", "internal", "internal-assertion"}

_pos = st.integers(min_value=0, max_value=10**6)
MUTATIONS = st.one_of(
    st.tuples(st.just("flip"), _pos, st.integers(min_value=1, max_value=255)),
    st.tuples(st.just("truncate"), _pos),
    st.tuples(st.just("duplicate"), _pos, _pos),
    st.tuples(st.just("swap"), _pos, _pos),
    st.tuples(st.just("delete"), _pos, st.integers(min_value=1,
                                                   max_value=200)),
    st.tuples(st.just("number"), _pos, st.sampled_from(REPLACEMENTS)),
)


def mutate(data: bytes, mutation: tuple) -> bytes:
    kind, a, *rest = mutation
    if kind == "flip":
        i = a % len(data)
        return data[:i] + bytes([data[i] ^ rest[0]]) + data[i + 1:]
    if kind == "truncate":
        return data[:a % len(data)]
    if kind == "delete":
        i = a % len(data)
        return data[:i] + data[i + rest[0]:]
    if kind == "number":
        numbers = list(NUMBER.finditer(data))
        if not numbers:
            return data
        m = numbers[a % len(numbers)]
        return data[:m.start()] + rest[0] + data[m.end():]
    lines = data.split(b"\n")
    i, j = a % len(lines), rest[0] % len(lines)
    if kind == "duplicate":
        lines.insert(j, lines[i])
    else:
        lines[i], lines[j] = lines[j], lines[i]
    return b"\n".join(lines)


def replay(path) -> tuple:
    """(exit status, stdout, stderr) of ``walkergames replay path``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["replay", str(path)])
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", SOURCES)
def test_unmutated_transcripts_replay(name, tmp_path):
    path = tmp_path / f"{name}.jsonl"
    path.write_bytes(TEXTS[name])
    code, out, err = replay(path)
    assert code == SOURCES[name][1]
    assert out.startswith("replay ok")


@settings(derandomize=True, deadline=None, max_examples=300)
@given(name=st.sampled_from(sorted(SOURCES)),
       mutations=st.lists(MUTATIONS, min_size=1, max_size=3))
def test_mutated_transcripts_keep_the_exit_contract(tmp_path_factory, name,
                                                    mutations):
    data = TEXTS[name]
    for mutation in mutations:
        if data:
            data = mutate(data, mutation)
    path = tmp_path_factory.getbasetemp() / "mutated.jsonl"
    path.write_bytes(data)
    code, out, err = replay(path)
    assert 0 <= code <= 4
    if code < 4:
        assert out.startswith("replay ok")
        return
    tag = re.match(r"error\[([a-z-]+)\]", err)
    assert tag is not None, err
    assert tag.group(1) not in UNNAMED, err
