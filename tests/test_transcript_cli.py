"""Transcript format, replay verification, and command line contract.

The CLI's exit status is part of the package's interface, so every
status (0 clean, 1 bound breach, 2 armed monitor violation, 3 strategy
assertion, 4 usage and format problems) is pinned by a test, as is the
byte-identity of rerun transcripts.
"""
from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import traversing_deviant_maker

from walkergames import cli
from walkergames.engine import (
    IllegalMoveError,
    Move,
    MoveKind,
    Player,
    apply_move,
    legal_moves,
)
from walkergames.runner import (
    GameConfig,
    ReplayMismatchError,
    replay_transcript,
    run_game,
)
from walkergames.strategies import ScriptError, make_policy, moves_to_script
from walkergames.transcript import (
    FORMAT,
    MoveRecord,
    Transcript,
    TranscriptFormatError,
    canonical,
    parse_transcript,
    read_transcript,
    write_transcript,
)


def _game(n=20, maker="connectivity", breaker="random", goal="connectivity",
          seed=3, **kw):
    return run_game(GameConfig(n=n, maker=maker, breaker=breaker, goal=goal,
                               seed=seed, **kw))


def _mutate_line(text: str, lineno: int, fn) -> str:
    """Apply ``fn`` to the JSON object on 0-based line ``lineno``."""
    lines = text.strip().split("\n")
    obj = json.loads(lines[lineno])
    fn(obj)
    lines[lineno] = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return "\n".join(lines) + "\n"


_DROP = object()  # a change that deletes its key


def _drop_round(line: str) -> str:
    obj = json.loads(line)
    del obj["round"]
    return canonical(obj)


# Faults for the first-bad-line test, each a change to one line of a
# transcript; "header n" applies to the header, the rest to a move line.
_FAULTS = {
    "not JSON": lambda line: "{oops",
    "space": lambda line: line.replace(":", ": ", 1),
    "note": lambda line: line.replace('"record":"move"', '"record":"note"'),
    "no round": _drop_round,
    "player 5": lambda line: re.sub('"player":"[a-z]+"', '"player":5', line),
    "header n": lambda line: line.replace('"n":6,', '"n":"6",'),
}


# ---------------------------------------------------------------------------
# Format
# ---------------------------------------------------------------------------

class TestTranscriptFormat:
    def test_round_trip_is_byte_identical(self):
        result = _game()
        text = result.transcript.dumps()
        parsed = parse_transcript(text)
        assert parsed.dumps() == text
        assert parsed.header == result.transcript.header
        assert parsed.entries == result.transcript.entries
        assert parsed.footer == result.transcript.footer

    def test_lines_are_canonical_json(self):
        text = _game().transcript.dumps()
        for line in text.strip().split("\n"):
            obj = json.loads(line)
            assert line == json.dumps(obj, sort_keys=True,
                                      separators=(",", ":"))

    def test_file_round_trip(self, tmp_path):
        result = _game()
        path = tmp_path / "game.jsonl"
        write_transcript(str(path), result.transcript)
        again = read_transcript(str(path))
        assert again.dumps() == result.transcript.dumps()

    def test_non_utf8_file_is_a_format_error(self, tmp_path):
        path = tmp_path / "latin1.jsonl"
        path.write_bytes(b"\xff" + _game(n=6, seed=1).transcript.dumps()
                         .encode())
        with pytest.raises(TranscriptFormatError, match="not UTF-8"):
            read_transcript(str(path))

    def test_unknown_version_rejected(self):
        text = _game().transcript.dumps()
        bad = _mutate_line(text, 0,
                           lambda o: o.update(format=FORMAT + ".beta"))
        with pytest.raises(TranscriptFormatError, match="unknown transcript format"):
            parse_transcript(bad)

    @pytest.mark.parametrize("text,message", [
        ("", "empty"),
        ("not json\n", "not JSON"),
        ('{"record":"move","index":0}\n', "not a header"),
    ])
    def test_malformed_prefixes_rejected(self, text, message):
        with pytest.raises(TranscriptFormatError, match=message):
            parse_transcript(text)

    def test_move_after_footer_rejected(self):
        lines = _game().transcript.dumps().strip().split("\n")
        bad = "\n".join(lines + [lines[1]]) + "\n"
        with pytest.raises(TranscriptFormatError, match="after footer"):
            parse_transcript(bad)

    def test_duplicate_footer_rejected(self):
        lines = _game().transcript.dumps().strip().split("\n")
        bad = "\n".join(lines + [lines[-1]]) + "\n"
        with pytest.raises(TranscriptFormatError, match="duplicate footer"):
            parse_transcript(bad)

    def test_gap_in_indices_rejected(self):
        text = _game().transcript.dumps()
        bad = _mutate_line(text, 2, lambda o: o.update(index=7))
        with pytest.raises(TranscriptFormatError, match="indices"):
            parse_transcript(bad)

    def test_decreasing_round_rejected(self):
        result = _game()
        assert result.transcript.entries[-1].round > 1
        text = result.transcript.dumps()
        last_move = len(result.transcript.entries)  # header offset
        bad = _mutate_line(text, last_move, lambda o: o.update(round=0))
        with pytest.raises(TranscriptFormatError, match="decreases"):
            parse_transcript(bad)

    def test_missing_header_field_rejected(self):
        text = _game().transcript.dumps()
        bad = _mutate_line(text, 0, lambda o: o.pop("seed"))
        with pytest.raises(TranscriptFormatError, match="missing field"):
            parse_transcript(bad)

    @pytest.mark.parametrize("first", sorted(_FAULTS))
    @pytest.mark.parametrize("second", sorted(set(_FAULTS) - {"header n"}))
    def test_first_bad_line_is_reported(self, first, second):
        # Line i's fault is reported whatever fault a later line j holds.
        lines = _game(n=6, seed=1).transcript.dumps().splitlines()
        assert len(lines) > 6
        i = 0 if first == "header n" else 2
        j = 4
        alone = list(lines)
        alone[i] = _FAULTS[first](lines[i])
        with pytest.raises(TranscriptFormatError) as own:
            parse_transcript("\n".join(alone) + "\n")
        both = list(alone)
        both[j] = _FAULTS[second](lines[j])
        assert alone[i] != lines[i] and both[j] != lines[j]
        with pytest.raises(TranscriptFormatError) as reported:
            parse_transcript("\n".join(both) + "\n")
        assert str(reported.value) == str(own.value)
        assert str(own.value).startswith(
            f"line {i + 1}" if i else "header n must be an integer, got '6'")


_HEADER = _game(n=6, seed=1).transcript.header
_INT = st.one_of(st.integers(), st.sampled_from([0, 10**9 - 1, 10**9]))
_VERTEX = st.one_of(st.none(), _INT)
_PLAYER = st.sampled_from(["maker", "breaker"])
_KIND = st.sampled_from(["place", "claim", "traverse", "pass"])
# JSON values that name no player and no move kind.
_ODD = st.one_of(st.none(), st.booleans(), st.integers(), st.text(),
                 st.sampled_from(["Maker", "claim ", 'a"b', "a\\b",
                                  "\u2028", "\x00", "Kőnig", 1.0, [1]])
                 ).filter(lambda v: v not in ("maker", "breaker", "place",
                                              "claim", "traverse", "pass"))


class TestMoveCodec:
    """Move lines are written through one format string and read through
    one pattern, with the general JSON path as fallback; both must agree
    with ``canonical`` byte for byte."""

    @settings(derandomize=True, max_examples=300)
    @given(fields=st.tuples(_INT, _INT, _PLAYER, _KIND, _VERTEX, _VERTEX))
    def test_written_line_is_canonical(self, fields):
        record = MoveRecord(*fields)
        line = (Transcript(header=_HEADER, entries=[record])
                .dumps().splitlines()[1])
        assert line == canonical(record.to_json())

    @settings(derandomize=True, max_examples=300)
    @given(st.lists(st.tuples(_INT, _PLAYER, _KIND, _VERTEX, _VERTEX),
                    max_size=6))
    def test_lines_parse_back_to_equal_records(self, fields):
        # Indices count up from 0 and rounds never decrease, as the
        # parser requires.
        rounds = sorted(f[0] for f in fields)
        entries = [MoveRecord(i, r, player, kind, a, b)
                   for i, (r, (_, player, kind, a, b))
                   in enumerate(zip(rounds, fields))]
        text = Transcript(header=_HEADER, entries=entries).dumps()
        parsed = parse_transcript(text)
        assert parsed.entries == entries
        assert parsed.dumps() == text

    @settings(derandomize=True, max_examples=300)
    @given(key=st.sampled_from(["player", "kind"]), odd=_ODD)
    def test_unknown_player_or_kind_is_rejected(self, key, odd):
        obj = MoveRecord(0, 0, "breaker", "place", 0, 1).to_json()
        obj[key] = odd
        text = canonical(_HEADER.to_json()) + "\n" + canonical(obj) + "\n"
        with pytest.raises(TranscriptFormatError,
                           match=f"line 2: move {key} must be one of"):
            parse_transcript(text)

    # Each variant holds the same JSON value as the line it replaces, so
    # only the canonical check can reject it.
    @pytest.mark.parametrize("line,old,new", [
        (1, '"kind":', '"kind": '),                   # extra spaces
        (0, '"n":6,', '"n": 6,'),
        (-1, '"winner":"maker"}', '"winner":"maker"} '),
        (1, None, None),                              # keys unsorted
        (0, None, None),
        (-1, None, None),
        (2, '"round":0', '"round":0.0'),              # 1.0 for an int
        (2, '"round":0', '"round":-0'),
        (0, '"seed":1', '"seed":1.0'),
        (1, '"breaker"', '"br\\u0065aker"'),          # \u escape for "e"
        (-1, '"winner"', '"winn\\u0065r"'),
    ])
    def test_non_canonical_line_exits_4_as_format(self, tmp_path, capsys,
                                                  line, old, new):
        lines = _game(n=6, seed=1).transcript.dumps().strip().split("\n")
        original = lines[line]
        if old is None:
            obj = json.loads(original)
            variant = json.dumps(dict(reversed(obj.items())),
                                 separators=(",", ":"))
        else:
            assert original.count(old) == 1
            variant = original.replace(old, new)
        assert variant != original
        assert json.loads(variant) == json.loads(original)
        lines[line] = variant
        path = tmp_path / "non-canonical.jsonl"
        path.write_text("\n".join(lines) + "\n")
        assert cli.main(["replay", str(path)]) == 4
        assert "error[transcript-format]" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------

class TestReplay:
    @pytest.mark.parametrize("maker,goal,breaker", [
        ("connectivity", "connectivity", "random"),
        ("connectivity", "connectivity", "greedy"),
        ("hamilton", "hamilton", "random"),
        ("chase", "connectivity", "camper"),
    ])
    def test_faithful_replay_passes(self, maker, goal, breaker):
        result = _game(maker=maker, goal=goal, breaker=breaker, seed=5)
        footer = replay_transcript(parse_transcript(result.transcript.dumps()))
        assert footer == result.transcript.footer

    def test_plain_callable_policies_play_to_a_verdict(self):
        # A bare function is a valid policy. Under maker id "hamilton"
        # it offers no certificate, so the runner never sees a cycle.
        hamilton = make_policy(Player.MAKER, "hamilton", 0)
        greedy = make_policy(Player.BREAKER, "greedy", 0)

        def plain_callable(state):
            return hamilton(state)

        config = GameConfig(n=8, maker="hamilton", goal="hamilton",
                            breaker="greedy")
        result = run_game(config, policies=(plain_callable, greedy))
        assert result.reason != "incomplete"
        assert result.certificate is None
        footer = replay_transcript(parse_transcript(result.transcript.dumps()))
        assert footer == result.transcript.footer

    def test_policy_move_of_a_str_kind_is_rejected_as_wrong_kind(self):
        # The engine rejects the move before its kind name is recorded.
        maker = make_policy(Player.MAKER, "connectivity", 0)

        def str_kind(state):
            return Move("place", 2, 3)

        config = GameConfig(n=6, maker="connectivity", breaker="random")
        with pytest.raises(IllegalMoveError) as err:
            run_game(config, policies=(maker, str_kind))
        assert err.value.rule == "wrong-kind"

    @pytest.mark.parametrize("returned", [None, (MoveKind.PLACE, 2, 3)],
                             ids=["none", "plain-tuple"])
    def test_policy_result_that_is_not_a_move_is_rejected_as_wrong_kind(
            self, returned):
        # run_game checks the type before it reads the result's fields.
        maker = make_policy(Player.MAKER, "connectivity", 0)
        config = GameConfig(n=6, maker="connectivity", breaker="random")
        with pytest.raises(IllegalMoveError) as err:
            run_game(config, policies=(maker, lambda state: returned))
        assert err.value.rule == "wrong-kind"

    def _tampered(self, lineno_fn, fn):
        result = _game(seed=9)
        text = result.transcript.dumps()
        lineno = lineno_fn(result.transcript)
        return parse_transcript(_mutate_line(text, lineno, fn))

    def test_header_tamper_detected(self):
        bad = self._tampered(lambda t: 0,
                             lambda o: o.update(first_player="nobody"))
        with pytest.raises(ReplayMismatchError) as err:
            replay_transcript(bad)
        assert err.value.kind == "header"

    @pytest.mark.parametrize("changes", [{"bias": (1,)}, {"bias": 5},
                                         {"n": "6"}, {"n0": "x"}])
    def test_python_built_header_is_a_header_mismatch(self, changes):
        # Headers built in Python skip the parser's type checks.
        t = _game(n=6, seed=1).transcript
        bad = dataclasses.replace(
            t, header=dataclasses.replace(t.header, **changes))
        with pytest.raises(ReplayMismatchError) as err:
            replay_transcript(bad)
        assert err.value.kind == "header"

    def test_wrong_mover_detected(self):
        bad = self._tampered(lambda t: 1, lambda o: o.update(player="maker"))
        with pytest.raises(ReplayMismatchError) as err:
            replay_transcript(bad)
        assert err.value.kind == "illegal-recorded-move"

    def test_wrong_round_number_detected(self):
        # bump only the final entry so the file still parses as
        # round-monotone and the divergence is left to re-execution
        bad = self._tampered(lambda t: len(t.entries),
                             lambda o: o.update(round=o["round"] + 1))
        with pytest.raises(ReplayMismatchError) as err:
            replay_transcript(bad)
        assert err.value.kind == "illegal-recorded-move"

    def test_illegal_substituted_move_detected(self):
        # rewrite the breaker's opening placement onto the same edge the
        # maker opens, which re-execution must reject
        result = _game(seed=9, first_player=Player.MAKER)
        first = result.transcript.entries[0]
        text = result.transcript.dumps()
        bad = _mutate_line(
            text, 2,
            lambda o: o.update(kind="place", **{
                "from": first.from_vertex, "to": first.to_vertex}))
        with pytest.raises(ReplayMismatchError) as err:
            replay_transcript(parse_transcript(bad))
        assert err.value.kind == "illegal-recorded-move"

    def test_footer_count_tamper_detected(self):
        bad = self._tampered(
            lambda t: 1 + len(t.entries),
            lambda o: o.update(maker_move_count=o["maker_move_count"] + 1))
        with pytest.raises(ReplayMismatchError) as err:
            replay_transcript(bad)
        assert err.value.kind == "footer-mismatch"
        assert "maker_move_count" in err.value.detail

    def test_winner_tamper_detected(self):
        bad = self._tampered(lambda t: 1 + len(t.entries),
                             lambda o: o.update(winner="breaker",
                                                reason="cap"))
        with pytest.raises(ReplayMismatchError) as err:
            replay_transcript(bad)
        assert err.value.kind == "footer-mismatch"

    def test_monitor_report_tamper_detected(self):
        def hide_arming(o):
            o["monitors"] = dict(o["monitors"], armed=False)
        bad = self._tampered(lambda t: 1 + len(t.entries), hide_arming)
        with pytest.raises(ReplayMismatchError) as err:
            replay_transcript(bad)
        assert err.value.kind == "footer-mismatch"
        assert "monitor report" in err.value.detail

    def test_walled_out_maker_ends_the_game(self, tmp_path, capsys):
        # The Breaker's three moves claim every edge before the Maker
        # places, so she can only pass from then on. The wrapper turns a
        # game that never ends into a failure.
        greedy = make_policy(Player.BREAKER, "greedy", 0)
        calls = []

        def bounded_greedy(state):
            calls.append(None)
            if len(calls) > 200:
                raise RuntimeError("the game did not end")
            return greedy(state)

        config = GameConfig(n=3, maker="connectivity", breaker="greedy",
                            bias=(1, 3))
        maker = make_policy(Player.MAKER, "connectivity", 0)
        result = run_game(config, policies=(maker, bounded_greedy))
        assert (result.winner, result.reason) == ("breaker", "blocked")
        assert len(result.transcript.entries) == 3
        path = tmp_path / "walled.jsonl"
        write_transcript(str(path), result.transcript)
        assert cli.main(["replay", str(path)]) == 0

    def test_missing_footer_detected(self):
        result = _game(seed=9)
        lines = result.transcript.dumps().strip().split("\n")
        headless = parse_transcript("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ReplayMismatchError) as err:
            replay_transcript(headless)
        assert err.value.kind == "footer-mismatch"
        assert "no footer" in err.value.detail

    def test_malformed_certificate_detected(self):
        result = _game(maker="hamilton", goal="hamilton", seed=5)
        assert result.certificate is not None
        text = result.transcript.dumps()
        footer_line = 1 + len(result.transcript.entries)
        bad = _mutate_line(text, footer_line,
                           lambda o: o.update(certificate=[0] * result.final_state.n))
        with pytest.raises(ReplayMismatchError) as err:
            replay_transcript(parse_transcript(bad))
        assert err.value.kind == "footer-mismatch"
        assert "certificate" in err.value.detail

    def test_wrong_certificate_detected(self):
        from walkergames.engine import hamilton_won
        result = _game(maker="hamilton", goal="hamilton", seed=5)
        cert = list(result.certificate)
        swapped = None
        for i in range(len(cert)):
            for j in range(i + 1, len(cert)):
                cand = list(cert)
                cand[i], cand[j] = cand[j], cand[i]
                if not hamilton_won(result.final_state, cand):
                    swapped = cand
                    break
            if swapped:
                break
        assert swapped is not None
        text = result.transcript.dumps()
        footer_line = 1 + len(result.transcript.entries)
        bad = _mutate_line(text, footer_line,
                           lambda o: o.update(certificate=swapped))
        with pytest.raises(ReplayMismatchError) as err:
            replay_transcript(parse_transcript(bad))
        assert err.value.kind == "footer-mismatch"


# ---------------------------------------------------------------------------
# Scripts through the CLI
# ---------------------------------------------------------------------------

class TestScriptedGames:
    def test_scripted_breaker_reproduces_recorded_game(self, tmp_path, capsys):
        recorded = _game(breaker="camper", seed=6)
        breaker_moves = [e for e in recorded.transcript.entries
                         if e.player == "breaker"]
        script = moves_to_script([
            _move_of(e) for e in breaker_moves])
        script_path = tmp_path / "breaker.txt"
        script_path.write_text(script)
        out_path = tmp_path / "rerun.jsonl"
        code = cli.main(["run", "--n", "20", "--maker", "connectivity",
                         "--breaker", "scripted",
                         "--breaker-script", str(script_path),
                         "--seed", "6", "--out", str(out_path)])
        assert code == 0
        rerun = read_transcript(str(out_path))
        original_lines = recorded.transcript.dumps().strip().split("\n")
        rerun_lines = rerun.dumps().strip().split("\n")
        # identical play and verdict; only the header's breaker id differs
        assert rerun_lines[1:] == original_lines[1:]
        assert rerun.header.breaker == "scripted"

    def test_script_parse_error_exits_4(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("P 0 1\nwobble\n")
        code = cli.main(["run", "--n", "8", "--maker", "connectivity",
                         "--breaker", "scripted", "--breaker-script",
                         str(path), "--out", str(tmp_path / "t.jsonl")])
        assert code == 4
        assert "error[script]" in capsys.readouterr().err

    def test_illegal_script_entry_exits_4(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("P 0 1\nC 0\n")  # claims the edge it already owns
        code = cli.main(["run", "--n", "8", "--maker", "connectivity",
                         "--breaker", "scripted", "--breaker-script",
                         str(path), "--out", str(tmp_path / "t.jsonl")])
        assert code == 4
        err = capsys.readouterr().err
        assert "error[script]" in err and "entry 2" in err

    def test_exhausted_script_exits_4(self, tmp_path, capsys):
        path = tmp_path / "short.txt"
        path.write_text("P 0 1\n")
        code = cli.main(["run", "--n", "8", "--maker", "connectivity",
                         "--breaker", "scripted", "--breaker-script",
                         str(path), "--out", str(tmp_path / "t.jsonl")])
        assert code == 4
        assert "exhausted" in capsys.readouterr().err

    def test_scripted_without_script_exits_4(self, tmp_path, capsys):
        code = cli.main(["run", "--n", "8", "--maker", "connectivity",
                         "--breaker", "scripted",
                         "--out", str(tmp_path / "t.jsonl")])
        assert code == 4
        assert "error[script]" in capsys.readouterr().err

    @pytest.mark.parametrize("side", ["maker", "breaker"])
    def test_script_for_unscripted_side_exits_4(self, tmp_path, capsys,
                                                 side):
        path = tmp_path / "s.txt"
        path.write_text("P 0 1\n")
        out = tmp_path / "t.jsonl"
        code = cli.main(["run", "--n", "20", "--maker", "connectivity",
                         "--breaker", "random", f"--{side}-script",
                         str(path), "--out", str(out)])
        assert code == 4
        err = capsys.readouterr().err
        assert "error[script]" in err and "takes no script" in err
        assert not out.exists()
        with pytest.raises(ScriptError, match="takes no script"):
            _game(**{f"{side}_script": "P 0 1\n"})


def _move_of(entry):
    from walkergames.engine import Move
    if entry.kind == "place":
        return Move.place(entry.from_vertex, entry.to_vertex)
    if entry.kind == "claim":
        return Move.claim(entry.to_vertex)
    if entry.kind == "traverse":
        return Move.traverse(entry.to_vertex)
    return Move.pass_()


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------

class TestExitCodes:
    def test_clean_run_exits_0(self, tmp_path, capsys):
        out = tmp_path / "t.jsonl"
        code = cli.main(["run", "--n", "20", "--maker", "connectivity",
                         "--breaker", "random", "--seed", "1",
                         "--out", str(out)])
        assert code == 0
        err = capsys.readouterr().err
        assert "winner=maker" in err
        assert out.exists()

    def test_bound_breach_exits_1(self, tmp_path, capsys):
        code = cli.main(["run", "--n", "20", "--maker", "connectivity",
                         "--breaker", "random", "--seed", "1",
                         "--bound", "3", "--out", str(tmp_path / "t.jsonl")])
        assert code == 1

    def test_armed_monitor_violation_exits_2_on_replay(self, tmp_path, capsys):
        config = GameConfig(n=24, maker="chase", breaker="random", seed=4,
                            move_cap=120)
        deviant = traversing_deviant_maker()
        breaker = make_policy(Player.BREAKER, "random", 4)
        result = run_game(config, policies=(deviant, breaker))
        report = result.monitor_report
        assert report["armed"] and not report["clean"]
        path = tmp_path / "deviant.jsonl"
        write_transcript(str(path), result.transcript)
        code = cli.main(["replay", str(path)])
        assert code == 2

    def test_strategy_assertion_exits_3(self, tmp_path, capsys):
        # tiny board, so the cycle builder's guarantee does not apply
        # and its internal check trips
        code = cli.main(["run", "--n", "4", "--maker", "hamilton",
                         "--goal", "hamilton", "--breaker", "greedy",
                         "--out", str(tmp_path / "t.jsonl")])
        assert code == 3
        assert "assertion" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["run"],                                        # missing --n
        ["run", "--n", "10", "--bias", "fast"],
        ["run", "--n", "10", "--bias", "1:x"],
        ["run", "--n", "10", "--bias", "0:1"],
        ["run", "--n", "10", "--bound", "-2"],
        ["run", "--n", "10", "--first", "referee"],
        ["verify", "--makers", "scripted"],
        ["verify", "--n", "ten"],
        ["solve"],
        ["warp"],
    ])
    def test_usage_errors_exit_4(self, argv, capsys):
        assert cli.main(argv) == 4
        assert capsys.readouterr().err.startswith("error[usage]: ")

    @pytest.mark.parametrize("argv,code,counter", [
        (["--n", "20", "--makers", "connectivity", "--breakers", "greedy",
          "--games", "2", "--bound", "3"], 1, ("bound_breaches", 2)),
        (["--n", "4", "--goal", "hamilton", "--makers", "hamilton",
          "--breakers", "greedy", "--games", "1"], 3, ("assertions", 1)),
    ])
    def test_verify_counts_each_failing_game(self, argv, code, counter,
                                             capsys):
        assert cli.main(["verify", *argv, "--json"]) == code
        summary = json.loads(capsys.readouterr().out)
        [cell] = summary["cells"]
        assert cell[counter[0]] == counter[1]
        assert summary["exit_status"] == code

    def test_solve_failing_cross_validation_exits_3(self, capsys,
                                                    monkeypatch):
        monkeypatch.setattr(cli, "cross_validate", lambda result: False)
        assert cli.main(["solve", "--n", "3"]) == 3
        assert ("principal variation failed engine validation"
                in capsys.readouterr().err)

    def test_runtime_error_exits_3_as_internal_assertion(self, capsys,
                                                         monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("invariant lost")
        monkeypatch.setattr(cli, "run_game", broken)
        assert cli.main(["run", "--n", "10"]) == 3
        assert ("error[internal-assertion]: invariant lost"
                in capsys.readouterr().err)

    def test_missing_transcript_file_exits_4(self, tmp_path, capsys):
        code = cli.main(["replay", str(tmp_path / "nope.jsonl")])
        assert code == 4
        assert "error[io]" in capsys.readouterr().err

    def test_garbage_transcript_exits_4(self, tmp_path, capsys):
        path = tmp_path / "garbage.jsonl"
        path.write_text("this is not a transcript\n")
        code = cli.main(["replay", str(path)])
        assert code == 4
        assert "error[transcript-format]" in capsys.readouterr().err

    def test_tampered_transcript_exits_4(self, tmp_path, capsys):
        result = _game(seed=2)
        text = result.transcript.dumps()
        footer_line = 1 + len(result.transcript.entries)
        bad = _mutate_line(
            text, footer_line,
            lambda o: o.update(maker_move_count=o["maker_move_count"] + 1))
        path = tmp_path / "tampered.jsonl"
        path.write_text(bad)
        code = cli.main(["replay", str(path)])
        assert code == 4
        assert "error[footer-mismatch]" in capsys.readouterr().err

    @pytest.mark.parametrize("line,field,value", [
        (0, "n", "6"),
        (0, "bias", "11"),
        (0, "move_cap", "x"),
        (0, "move_cap", 0),
        (0, "move_cap", -5),
        (0, "monitors", "yes"),
        (0, "strict", 1),
        (0, "maker", 123),
        (0, "breaker", None),
        (0, "first_player", 0),
        (0, "goal", ["connectivity"]),
        (1, "index", False),
        (1, "round", "0"),
        (1, "to", 3.0),
        (1, "to", "3"),
        (-1, "passes", False),
        (-1, "passes", None),
        (-1, "maker_move_count", 5.0),
        (-1, "breaker_move_count", "4"),
        (-1, "winner", 1),
        (-1, "reason", None),
        (-1, "monitors", []),
        (-1, "certificate", {}),
        (-1, "assertion", "none"),
    ])
    def test_mistyped_transcript_field_exits_4(self, tmp_path, capsys, line,
                                               field, value):
        text = _game(n=6, seed=1).transcript.dumps()
        path = tmp_path / "mistyped.jsonl"
        path.write_text(_mutate_line(text, line,
                                     lambda o: o.update({field: value})))
        code = cli.main(["replay", str(path)])
        assert code == 4
        err = capsys.readouterr().err
        assert "error[transcript-format]" in err
        assert f" {field} must be" in err

    @pytest.mark.parametrize("side", ["maker", "breaker"])
    def test_unknown_strategy_id_exits_4_as_header(self, tmp_path, capsys,
                                                   side):
        text = _game(n=6, seed=1).transcript.dumps()
        path = tmp_path / "unknown-id.jsonl"
        path.write_text(_mutate_line(text, 0,
                                     lambda o: o.update({side: "nobody"})))
        assert cli.main(["replay", str(path)]) == 4
        err = capsys.readouterr().err
        assert "error[header]" in err
        assert f"unknown {side} strategy 'nobody'" in err

    def test_undecidable_hamilton_game_is_refused(self, tmp_path, capsys):
        # Above the search limit only a certifying Maker's Hamilton game
        # has a verdict; run, verify and replay all refuse the others.
        for maker in ("random", "chase"):
            assert cli.main(["run", "--n", "21", "--maker", maker,
                             "--goal", "hamilton"]) == 4
            assert "error[value]" in capsys.readouterr().err
        assert cli.main(["verify", "--n", "21", "--makers", "random",
                         "--breakers", "random", "--goal", "hamilton",
                         "--games", "1"]) == 4
        captured = capsys.readouterr()
        assert "error[value]" in captured.err
        assert captured.out == ""
        text = _game(n=21, maker="random", seed=1).transcript.dumps()
        path = tmp_path / "undecidable.jsonl"
        path.write_text(_mutate_line(text, 0,
                                     lambda o: o.update(goal="hamilton")))
        assert cli.main(["replay", str(path)]) == 4
        err = capsys.readouterr().err
        assert "error[header]" in err
        assert "cannot be decided" in err

    @pytest.mark.parametrize("line", [
        "[" * 200_000,
        '{"a":' * 200_000,
        "[" * 200_000 + "]" * 200_000,
    ])
    def test_deeply_nested_line_exits_4(self, tmp_path, capsys, line):
        path = tmp_path / "nested.jsonl"
        path.write_text(line + "\n")
        assert cli.main(["replay", str(path)]) == 4
        assert "error[transcript-format]" in capsys.readouterr().err

    # Each case reaches one rejection in replay or in the parser; the
    # detail pins which one.
    @pytest.mark.parametrize("line,changes,tag,detail", [
        (1, {"kind": "jump"}, "transcript-format",
         "move kind must be one of"),
        (1, {"from": None}, "illegal-recorded-move", "out-of-range"),
        (1, {"to": None}, "illegal-recorded-move", "out-of-range"),
        (3, {"to": None}, "illegal-recorded-move", "out-of-range"),
        (2, {"player": "nobody"}, "transcript-format",
         "move player must be one of"),
        (3, {"from": 4}, "illegal-recorded-move",
         "recorded from 4, play records"),
        (3, {"kind": "pass", "to": None}, "illegal-recorded-move",
         "pass-with-moves"),
        (0, {"goal": "treasure"}, "header", "unknown goal 'treasure'"),
        (1, {"round": _DROP}, "transcript-format", "missing field 'round'"),
        (-1, {"winner": _DROP}, "transcript-format",
         "missing field 'winner'"),
        (1, {"record": "note"}, "transcript-format", "unknown record 'note'"),
        # Non-string and unhashable players and kinds.
        (2, {"player": [1]}, "transcript-format",
         "move player must be one of"),
        (2, {"player": 5}, "transcript-format", "move player must be one of"),
        (1, {"kind": {"a": 1}}, "transcript-format",
         "move kind must be one of"),
        (1, {"kind": None}, "transcript-format", "move kind must be one of"),
        # A known name or value that play would not record here.
        (3, {"kind": "pass"}, "illegal-recorded-move",
         "recorded to 1, play records None"),
        (2, {"player": "breaker"}, "illegal-recorded-move",
         "recorded player 'breaker', play records 'maker'"),
    ])
    def test_rejected_record_exits_4(self, tmp_path, capsys, line, changes,
                                     tag, detail):
        def mutate(obj):
            for key, value in changes.items():
                if value is _DROP:
                    del obj[key]
                else:
                    obj[key] = value
        text = _game(n=6, seed=1).transcript.dumps()
        path = tmp_path / "rejected.jsonl"
        path.write_text(_mutate_line(text, line, mutate))
        assert cli.main(["replay", str(path)]) == 4
        err = capsys.readouterr().err
        assert f"error[{tag}]" in err
        assert detail in err

    def test_moves_recorded_after_the_cap_exit_4(self, tmp_path, capsys):
        result = _game(n=6, seed=1)
        assert result.transcript.header.move_cap == 60
        assert result.maker_move_count > 3
        path = tmp_path / "capped.jsonl"
        path.write_text(_mutate_line(result.transcript.dumps(), 0,
                                     lambda o: o.update(move_cap=3)))
        assert cli.main(["replay", str(path)]) == 4
        assert "error[illegal-recorded-move]" in capsys.readouterr().err

    def test_moves_recorded_after_the_goal_exit_4(self, tmp_path, capsys):
        # One legal move per side after the Maker's win, with the
        # footer's counts bumped to match.
        result = _game(n=6, seed=1)
        assert result.reason == "goal"
        state = result.final_state.copy()
        entries = list(result.transcript.entries)
        for _ in range(2):
            player = state.to_move
            move = legal_moves(state, player)[0]
            entries.append(MoveRecord(
                index=len(entries), round=state.round, player=player.value,
                kind=move.kind.value,
                from_vertex=(move.start if move.kind is MoveKind.PLACE
                             else state.position(player)),
                to_vertex=move.target))
            apply_move(state, player, move)
        assert state.maker_moves == result.maker_move_count + 1
        footer = dataclasses.replace(
            result.transcript.footer, maker_move_count=state.maker_moves,
            breaker_move_count=state.breaker_moves, passes=state.passes)
        path = tmp_path / "extended.jsonl"
        write_transcript(str(path), Transcript(
            header=result.transcript.header, entries=entries, footer=footer))
        assert cli.main(["replay", str(path)]) == 4
        assert "error[illegal-recorded-move]" in capsys.readouterr().err

    def test_solver_node_limit_exits_4(self, capsys):
        # One node short of what the solve takes, wherever pruning sets it.
        assert cli.main(["solve", "--n", "4", "--json"]) == 0
        nodes = json.loads(capsys.readouterr().out)["nodes"]
        code = cli.main(["solve", "--n", "4", "--node-limit", str(nodes - 1)])
        assert code == 4
        assert "error[solver-limit]" in capsys.readouterr().err
        code = cli.main(["solve", "--n", "4", "--node-limit", str(nodes)])
        assert code == 0

    def test_solver_recursion_overflow_exits_4(self, capsys):
        # The search nests about two plies per unit of budget, so this
        # cap outruns any recursion limit the solver sets.
        code = cli.main(["solve", "--n", "5", "--goal", "connectivity",
                         "--first", "maker", "--move-cap", "100000"])
        assert code == 4
        assert "error[solver-limit]" in capsys.readouterr().err

    def test_bad_bound_exits_4_before_play(self, capsys, monkeypatch):
        def unplayed(*args, **kwargs):
            raise AssertionError("the game was played before --bound "
                                 "was checked")
        monkeypatch.setattr(cli, "run_game", unplayed)
        assert cli.main(["run", "--n", "4096", "--bound", "x"]) == 4
        assert ("error[usage]: --bound must be auto, none, or an integer"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("argv", [
        ["replay", "missing.jsonl", "--bound", "abc"],
        ["replay", "bad.jsonl", "--bound", "0"],
        ["verify", "--n", "20", "--out-dir", "D", "--bound", "abc"],
    ])
    def test_bad_bound_exits_4_before_any_input_or_output(self, argv,
                                                          tmp_path, capsys,
                                                          monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.jsonl").write_text("not a transcript\n")
        assert cli.main(argv) == 4
        assert capsys.readouterr().err.startswith("error[usage]: --bound ")
        assert not (tmp_path / "D").exists()

    @pytest.mark.parametrize("argv,tag", [
        (["--n", "20", "--move-cap", "0"], "value"),
        (["--n", "20", "--bias", "1:x"], "usage"),
        (["--n", "20", "--bias", "0:1"], "usage"),
        (["--n", "2"], "value"),
        (["--n", "21", "--makers", "random", "--goal", "hamilton"], "value"),
    ])
    def test_rejected_verify_game_leaves_no_out_dir(self, argv, tag,
                                                    tmp_path, capsys,
                                                    monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["verify", "--games", "1", "--out-dir", "D",
                         *argv]) == 4
        assert capsys.readouterr().err.startswith(f"error[{tag}]: ")
        assert not (tmp_path / "D").exists()

    @pytest.mark.parametrize("args", [["run", "--n", "0"],
                                      ["run", "--n", "-3"],
                                      ["verify", "--n", "0", "--games", "1"]])
    def test_board_below_three_exits_4_as_board_size(self, args, capsys):
        # The default move cap, 10 n, is not checked before n.
        assert cli.main(args) == 4
        captured = capsys.readouterr()
        assert (f"error[value]: need at least 3 vertices, got {args[2]}"
                in captured.err)
        assert "move cap" not in captured.err

    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_board_above_the_ceiling_exits_4(self, command, capsys):
        assert cli.main([command, "--n", "5000"]) == 4
        assert "error[value]" in capsys.readouterr().err

    def test_transcript_board_above_the_ceiling_exits_4(self, tmp_path,
                                                         capsys):
        text = _game(n=6, seed=1).transcript.dumps()
        path = tmp_path / "huge.jsonl"
        path.write_text(_mutate_line(text, 0, lambda o: o.update(n=1000000)))
        assert cli.main(["replay", str(path)]) == 4
        assert "error[header]" in capsys.readouterr().err

    def test_oversized_solve_board_exits_4(self, capsys):
        code = cli.main(["solve", "--n", "6"])
        assert code == 4
        assert "error[value]" in capsys.readouterr().err

    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_solve_cap_below_one_exits_4(self, cap, capsys):
        assert cli.main(["solve", "--n", "4", "--move-cap", cap]) == 4
        captured = capsys.readouterr()
        assert "error[value]: move cap must be positive" in captured.err
        assert captured.out == ""

    def test_negative_game_count_exits_4(self, capsys):
        assert cli.main(["verify", "--n", "20", "--games", "-2"]) == 4
        captured = capsys.readouterr()
        assert "error[usage]: --games must be at least 0" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("limit", ["0", "-1"])
    def test_node_limit_below_one_exits_4_as_usage(self, limit, capsys):
        assert cli.main(["solve", "--n", "3", "--node-limit", limit]) == 4
        captured = capsys.readouterr()
        assert "error[usage]: --node-limit must be at least 1" in captured.err
        assert captured.out == ""

    def test_int_past_the_digit_limit_exits_4_as_format(self, tmp_path,
                                                         capsys):
        # json.loads raises a plain ValueError for an integer longer than
        # Python's int-to-string limit (4,300 digits).
        text = _game(n=6, seed=1).transcript.dumps()
        assert text.count('"n":6,') == 1
        path = tmp_path / "digits.jsonl"
        path.write_text(text.replace('"n":6,', '"n":' + "9" * 5000 + ","))
        assert cli.main(["replay", str(path)]) == 4
        assert "error[transcript-format]" in capsys.readouterr().err

    def test_non_utf8_transcript_exits_4_as_format(self, tmp_path, capsys):
        path = tmp_path / "latin1.jsonl"
        path.write_bytes(b"\xff" + _game(n=6, seed=1).transcript.dumps()
                         .encode())
        assert cli.main(["replay", str(path)]) == 4
        assert "error[transcript-format]" in capsys.readouterr().err

    @pytest.mark.parametrize("exc", [TypeError("unsupported operand"),
                                     MemoryError(), KeyError("n")])
    def test_escaped_exception_is_internal_exit_3(self, exc, capsys,
                                                  monkeypatch):
        def broken(args):
            raise exc
        monkeypatch.setattr(cli, "_cmd_solve", broken)
        code = cli.main(["solve", "--n", "3"])
        assert code == 3
        err = capsys.readouterr().err
        assert f"error[internal]: {type(exc).__name__}" in err


# ---------------------------------------------------------------------------
# CLI behavior
# ---------------------------------------------------------------------------

def _stdin(data: bytes) -> io.TextIOWrapper:
    """A text stdin over ``data`` that, like ``sys.stdin``, has a binary
    ``buffer``. Its text layer passes bad bytes through as surrogates,
    as ``sys.stdin`` does under a UTF-8 or POSIX locale."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8",
                            errors="surrogateescape")


class TestCliBehavior:
    def test_run_writes_transcript_to_stdout(self, capsys):
        code = cli.main(["run", "--n", "20", "--maker", "connectivity",
                         "--breaker", "random", "--seed", "1", "--out", "-"])
        assert code == 0
        transcript = parse_transcript(capsys.readouterr().out)
        assert replay_transcript(transcript) == transcript.footer
        assert transcript.footer.winner == "maker"

    def test_replay_reads_stdin(self, capsys, monkeypatch):
        result = _game(seed=8)
        monkeypatch.setattr("sys.stdin", _stdin(
            result.transcript.dumps().encode()))
        code = cli.main(["replay", "-"])
        assert code == 0
        assert "replay ok" in capsys.readouterr().out

    def test_non_utf8_stdin_is_a_format_error(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", _stdin(b"\xff{}\n"))
        assert cli.main(["replay", "-"]) == 4
        err = capsys.readouterr().err
        assert "error[transcript-format]: transcript is not UTF-8" in err

    def test_crlf_transcript_reads_alike_from_path_and_stream(self,
                                                              tmp_path):
        text = _game(seed=8).transcript.dumps()
        data = text.replace("\n", "\r\n").encode()
        path = tmp_path / "crlf.jsonl"
        path.write_bytes(data)
        from_path = read_transcript(str(path))
        from_stream = read_transcript(io.BytesIO(data))
        assert from_path.dumps() == from_stream.dumps() == text

    def test_replay_enforces_requested_bound(self, tmp_path, capsys):
        result = _game(seed=8)
        path = tmp_path / "game.jsonl"
        write_transcript(str(path), result.transcript)
        assert cli.main(["replay", str(path), "--bound", "auto"]) == 0
        capsys.readouterr()
        assert cli.main(["replay", str(path), "--bound", "3"]) == 1

    def test_verify_json_summary(self, capsys):
        code = cli.main(["verify", "--n", "20", "--makers", "connectivity",
                         "--breakers", "random", "--games", "2", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        [cell] = payload["cells"]
        assert cell["maker_wins"] == 2
        assert cell["bound"] == 21
        assert cell["bound_breaches"] == 0
        assert cell["monitor_violations"] == 0
        assert cell["assertions"] == 0

    def test_verify_table_output(self, capsys):
        code = cli.main(["verify", "--n", "20", "--makers", "connectivity",
                         "--breakers", "random,greedy", "--games", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "exit status 0" in out
        assert "greedy" in out

    def test_verify_out_dir_transcripts_replay(self, tmp_path, capsys):
        out_dir = tmp_path / "sweeps"
        code = cli.main(["verify", "--n", "20", "--makers", "connectivity",
                         "--breakers", "random", "--games", "2",
                         "--seed-base", "5", "--out-dir", str(out_dir)])
        assert code == 0
        files = sorted(out_dir.iterdir())
        assert len(files) == 2
        transcript = read_transcript(str(files[0]))
        assert replay_transcript(transcript) == transcript.footer

    def test_hamilton_run_records_certificate(self, tmp_path, capsys):
        out = tmp_path / "ham.jsonl"
        code = cli.main(["run", "--n", "20", "--maker", "hamilton",
                         "--goal", "hamilton", "--breaker", "random",
                         "--seed", "2", "--out", str(out)])
        assert code == 0
        footer = read_transcript(str(out)).footer
        assert footer.winner == "maker"
        assert footer.certificate is not None
        assert sorted(footer.certificate) == list(range(20))

    def test_solve_json_output(self, capsys):
        code = cli.main(["solve", "--n", "3", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["outcome"] == "maker"
        assert payload["maker_moves_to_win"] == 2
        assert payload["cross_validated"] is True
        assert 0 < payload["memo"] <= payload["nodes"]

    def test_module_entry_point_runs_the_cli(self):
        src = Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run(
            [sys.executable, "-m", "walkergames", "solve", "--n", "3",
             "--json"],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["cross_validated"] is True

    def test_solve_text_output(self, capsys):
        code = cli.main(["solve", "--n", "3", "--first", "maker",
                         "--move-cap", "10"])
        assert code == 0
        out = capsys.readouterr().out
        assert "breaker prevents the goal" in out
        assert " memo=" in out

    @pytest.mark.parametrize("goal,first,verdict", [
        ("connectivity", "maker", "maker reaches the goal in 6 moves"),
        ("connectivity", "breaker", "maker reaches the goal in 5 moves"),
        ("hamilton", "maker", "breaker prevents the goal"),
        ("hamilton", "breaker", "breaker prevents the goal"),
    ])
    def test_solve_five_vertices_at_default_cap(self, goal, first, verdict,
                                                capsys):
        code = cli.main(["solve", "--n", "5", "--goal", goal,
                         "--first", first])
        assert code == 0
        out = capsys.readouterr().out
        assert f"cap=50: {verdict}" in out
        assert "cross_validated=True" in out

    def test_move_cap_env_override(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("WALKERGAMES_MOVE_CAP", "5")
        out = tmp_path / "capped.jsonl"
        code = cli.main(["run", "--n", "20", "--maker", "connectivity",
                         "--breaker", "random", "--seed", "1",
                         "--out", str(out)])
        assert code == 1  # capped game cannot meet the auto bound
        t = read_transcript(str(out))
        assert t.header.move_cap == 5
        assert t.footer.reason == "cap"

    def test_arming_floor_env_override(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("WALKERGAMES_N0", "30")
        out = tmp_path / "dormant.jsonl"
        code = cli.main(["run", "--n", "24", "--maker", "connectivity",
                         "--breaker", "random", "--seed", "1",
                         "--out", str(out)])
        assert code == 0
        t = read_transcript(str(out))
        assert t.header.n0 == 30
        assert t.footer.monitors["armed"] is False

    def test_bad_env_value_exits_4(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("WALKERGAMES_MOVE_CAP", "lots")
        code = cli.main(["run", "--n", "10", "--maker", "connectivity",
                         "--breaker", "random",
                         "--out", str(tmp_path / "t.jsonl")])
        assert code == 4
        assert "error[usage]" in capsys.readouterr().err

    def test_no_monitors_flag(self, tmp_path, capsys):
        out = tmp_path / "bare.jsonl"
        code = cli.main(["run", "--n", "20", "--maker", "connectivity",
                         "--breaker", "random", "--seed", "1",
                         "--no-monitors", "--out", str(out)])
        assert code == 0
        assert read_transcript(str(out)).footer.monitors is None


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------

def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestDeterminism:
    def test_cli_rerun_is_byte_identical(self, tmp_path, capsys):
        digests = []
        for name in ("a.jsonl", "b.jsonl"):
            out = tmp_path / name
            code = cli.main(["run", "--n", "30", "--maker", "connectivity",
                             "--breaker", "random", "--seed", "12",
                             "--out", str(out)])
            assert code == 0
            digests.append(_sha(out))
        assert digests[0] == digests[1]

    def test_different_seeds_differ(self, tmp_path, capsys):
        digests = []
        for seed in ("12", "13"):
            out = tmp_path / f"s{seed}.jsonl"
            cli.main(["run", "--n", "30", "--maker", "connectivity",
                      "--breaker", "random", "--seed", seed,
                      "--out", str(out)])
            digests.append(_sha(out))
        assert digests[0] != digests[1]

    def test_api_rerun_is_byte_identical(self):
        a = _game(n=26, breaker="delaying-greedy", seed=17)
        b = _game(n=26, breaker="delaying-greedy", seed=17)
        assert a.transcript.dumps() == b.transcript.dumps()

    def test_verify_json_rerun_is_identical(self, capsys):
        outputs = []
        for _ in range(2):
            code = cli.main(["verify", "--n", "20", "--makers", "connectivity",
                             "--breakers", "greedy", "--games", "2", "--json"])
            assert code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
