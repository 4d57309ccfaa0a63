"""Line-delimited, versioned game transcripts.

A transcript is one JSON object per line: a header, one line per move,
and a footer. Every line is canonical JSON, ``canonical(obj)``: sorted
keys, no spaces, ASCII with ``\\u`` escapes. Identical games therefore
serialize byte-identically and sweeps can be streamed and diffed. The
reader rejects unknown format versions instead of guessing, and rejects
a line that is valid JSON but not canonical.

Move lines, nearly every line of a transcript, have one fixed canonical
form, ``_MOVE_LINE``, and the writer renders every move with that one
format string. A record's rules are checked once, by the reader: its
index and round are ints, its from and to ints or null, and its player
and kind known names, or the line is a format error naming the field.
Every record that play builds or the reader returns holds such values,
so ``_MOVE_LINE`` writes it as ``canonical`` would. The reader matches
each line against the same form, with ints of at most nine digits, and
builds the record from the match; any other line goes through
``json.loads`` and the canonical check, so a line that misses the fast
form gets exactly the checks and errors of the general path.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Optional, TextIO

from .engine import MoveKind, Player

FORMAT = "walkergames.transcript/1"


class TranscriptFormatError(ValueError):
    """The file is not a well-formed transcript of a known version."""


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


_TYPE_NAMES = {int: "an integer", bool: "a boolean", str: "a string",
               dict: "an object", list: "a list"}


def _typed(value, what: str, kind: type = int, nullable: bool = False):
    """``value`` when its type is exactly ``kind`` (so a bool is no int),
    or None where allowed."""
    if value is None and nullable:
        return None
    if type(value) is not kind:
        name = _TYPE_NAMES[kind] + (" or null" if nullable else "")
        raise TranscriptFormatError(f"{what} must be {name}, got {value!r}")
    return value


def _named(value, what: str, names: frozenset) -> str:
    """``value`` when it is one of the strings ``names``."""
    if type(value) is not str or value not in names:
        raise TranscriptFormatError(
            f"{what} must be one of {', '.join(sorted(names))}, got {value!r}")
    return value


# The type each header field other than bias must have.
_HEADER_TYPES = {"n": int, "first_player": str, "maker": str, "breaker": str,
                 "goal": str, "seed": int, "move_cap": int, "n0": int,
                 "monitors": bool, "strict": bool}


@dataclass(frozen=True, slots=True)
class Header:
    n: int
    bias: tuple            # (maker, breaker)
    first_player: str      # "maker" | "breaker"
    maker: str             # strategy id
    breaker: str
    goal: str              # "connectivity" | "hamilton"
    seed: int
    move_cap: int
    n0: int
    monitors: bool
    strict: bool

    # Each field is written under its own name as the JSON key.
    def to_json(self) -> dict:
        obj = {key: getattr(self, key) for key in Header.__slots__}
        obj.update(record="header", format=FORMAT, bias=list(self.bias))
        return obj

    @staticmethod
    def from_json(obj: dict) -> "Header":
        bias = obj["bias"]
        if not isinstance(bias, list) or len(bias) != 2:
            raise TranscriptFormatError(
                f"header bias must be a pair of integers, got {bias!r}")
        fields = {key: _typed(obj[key], f"header {key}", kind)
                  for key, kind in _HEADER_TYPES.items()}
        if fields["move_cap"] < 1:
            raise TranscriptFormatError(
                f"header move_cap must be at least 1, got {fields['move_cap']}")
        return Header(bias=tuple(_typed(b, "header bias entry") for b in bias),
                      **fields)


# The canonical form of a move line, as ``canonical`` writes it.
_MOVE_LINE = ('{"from":%s,"index":%d,"kind":"%s","player":"%s",'
              '"record":"move","round":%d,"to":%s}')
_PLAYERS = frozenset(p.value for p in Player)
_KINDS = frozenset(k.value for k in MoveKind)

# The same form read back, with ints below 10**9 in canonical spelling;
# the groups are from, index, kind, player, round and to.
_match_move_line = re.compile(
    r'\{"from":(null|%(int)s),"index":(%(int)s),"kind":"(%(kinds)s)",'
    r'"player":"(%(players)s)","record":"move","round":(%(int)s),'
    r'"to":(null|%(int)s)\}'
    % {"int": "(?:0|[1-9][0-9]{0,8})", "kinds": "|".join(sorted(_KINDS)),
       "players": "|".join(sorted(_PLAYERS))}).fullmatch


# Not frozen: play and parse each build one record per move, and a
# frozen dataclass's __init__ takes about four times as long as a plain
# one's. Nothing changes a record once it is built.
@dataclass(slots=True)
class MoveRecord:
    index: int
    round: int
    player: str            # "maker" | "breaker"
    kind: str              # "place" | "claim" | "traverse" | "pass"
    from_vertex: Optional[int]
    to_vertex: Optional[int]

    def to_json(self) -> dict:
        return {
            "record": "move",
            "index": self.index,
            "round": self.round,
            "player": self.player,
            "kind": self.kind,
            "from": self.from_vertex,
            "to": self.to_vertex,
        }

    @staticmethod
    def from_json(obj: dict) -> "MoveRecord":
        return MoveRecord(
            index=_typed(obj["index"], "move index"),
            round=_typed(obj["round"], "move round"),
            player=_named(obj["player"], "move player", _PLAYERS),
            kind=_named(obj["kind"], "move kind", _KINDS),
            from_vertex=_typed(obj["from"], "move from", nullable=True),
            to_vertex=_typed(obj["to"], "move to", nullable=True),
        )


# The (type, nullable) each footer field must have.
_FOOTER_TYPES = {
    "winner": (str, False),
    "reason": (str, False),
    "maker_move_count": (int, False),
    "breaker_move_count": (int, False),
    "passes": (int, False),
    "monitors": (dict, True),
    "certificate": (list, True),
    "assertion": (dict, True),
}


@dataclass(frozen=True, slots=True)
class Footer:
    winner: str            # "maker" | "breaker" | "none"
    reason: str            # "goal" | "cap" | "assertion" | "blocked" | "monitor"
    maker_move_count: int
    breaker_move_count: int
    passes: int
    monitors: Optional[dict]       # monitor report, None when disabled
    certificate: Optional[list]    # Hamilton cycle order, when claimed
    assertion: Optional[dict]      # strategy assertion payload, if raised

    # Each field is written under its own name as the JSON key.
    def to_json(self) -> dict:
        obj = {key: getattr(self, key) for key in Footer.__slots__}
        obj["record"] = "footer"
        return obj

    @staticmethod
    def from_json(obj: dict) -> "Footer":
        return Footer(**{
            key: _typed(obj[key], f"footer {key}", *_FOOTER_TYPES[key])
            for key in Footer.__slots__
        })


def _move_line(e: MoveRecord) -> str:
    """``canonical(e.to_json())``, rendered through ``_MOVE_LINE``."""
    f, t = e.from_vertex, e.to_vertex
    return _MOVE_LINE % ("null" if f is None else f, e.index, e.kind,
                         e.player, e.round, "null" if t is None else t)


@dataclass(slots=True)
class Transcript:
    header: Header
    entries: list = field(default_factory=list)   # MoveRecord, index order
    footer: Optional[Footer] = None

    def to_lines(self) -> list:
        lines = [canonical(self.header.to_json())]
        lines.extend(map(_move_line, self.entries))
        if self.footer is not None:
            lines.append(canonical(self.footer.to_json()))
        return lines

    def dumps(self) -> str:
        return "\n".join(self.to_lines()) + "\n"


def write_transcript(path: str, transcript: Transcript) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(transcript.dumps())


def parse_transcript(text: str) -> Transcript:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise TranscriptFormatError("empty transcript")
    # Each line becomes a MoveRecord when it has the fast move form, else
    # its JSON value.
    objs = []
    loaded = []         # (lineno, line, value) of each line read as JSON
    for lineno, ln in enumerate(lines, start=1):
        m = _match_move_line(ln)
        if m is not None:
            f, index, kind, player, rnd, t = m.groups()
            objs.append(MoveRecord(int(index), int(rnd), player, kind,
                                   None if f == "null" else int(f),
                                   None if t == "null" else int(t)))
            continue
        try:
            obj = json.loads(ln)
        except ValueError as exc:
            # A JSONDecodeError, or an integer past Python's digit limit.
            raise TranscriptFormatError(f"line {lineno} is not JSON: {exc}") from exc
        except RecursionError as exc:
            raise TranscriptFormatError(f"line {lineno} nests too deeply") from exc
        objs.append(obj)
        loaded.append((lineno, ln, obj))
    head = objs[0]
    if not isinstance(head, dict) or head.get("record") != "header":
        raise TranscriptFormatError("first line is not a header record")
    if head.get("format") != FORMAT:
        raise TranscriptFormatError(
            f"unknown transcript format {head.get('format')!r}, expected {FORMAT!r}")
    try:
        header = Header.from_json(head)
    except KeyError as exc:
        raise TranscriptFormatError(f"header is missing field {exc}") from exc

    entries = []
    footer = None
    for lineno, obj in enumerate(objs[1:], start=2):
        fast = type(obj) is MoveRecord
        if fast:
            record = "move"
        else:
            record = obj.get("record") if isinstance(obj, dict) else None
        if record == "move":
            if footer is not None:
                raise TranscriptFormatError(f"line {lineno}: move record after footer")
            if not fast:
                try:
                    obj = MoveRecord.from_json(obj)
                except KeyError as exc:
                    raise TranscriptFormatError(
                        f"line {lineno}: move record missing field {exc}") from exc
                except TranscriptFormatError as exc:
                    raise TranscriptFormatError(f"line {lineno}: {exc}") from exc
            entries.append(obj)
        elif record == "footer":
            if footer is not None:
                raise TranscriptFormatError(f"line {lineno}: duplicate footer")
            try:
                footer = Footer.from_json(obj)
            except KeyError as exc:
                raise TranscriptFormatError(
                    f"line {lineno}: footer missing field {exc}") from exc
            except TranscriptFormatError as exc:
                raise TranscriptFormatError(f"line {lineno}: {exc}") from exc
        else:
            raise TranscriptFormatError(f"line {lineno}: unknown record {record!r}")

    for i, e in enumerate(entries):
        if e.index != i:
            raise TranscriptFormatError(
                f"entry indices must be 0,1,2,...; entry {i} has index {e.index}")
        if i and e.round < entries[i - 1].round:
            raise TranscriptFormatError(
                f"entry {i}: round {e.round} decreases from {entries[i - 1].round}")
    # Last, so that a line that breaks a check above keeps its error.
    for lineno, ln, obj in loaded:
        try:
            again = canonical(obj)
        except RecursionError as exc:
            raise TranscriptFormatError(f"line {lineno} nests too deeply") from exc
        if again != ln:
            raise TranscriptFormatError(
                f"line {lineno} is not canonical JSON (sorted keys, no "
                f"spaces, ASCII); expected {again[:80]!r}")
    return Transcript(header=header, entries=entries, footer=footer)


def read_transcript(source: str | TextIO) -> Transcript:
    """The transcript read from ``source``, an open text file such as
    ``sys.stdin``, or else the path of a UTF-8 file."""
    try:
        if hasattr(source, "read"):
            text = source.read()
        else:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
    except UnicodeDecodeError as exc:
        raise TranscriptFormatError(f"transcript is not UTF-8: {exc}") from exc
    return parse_transcript(text)
