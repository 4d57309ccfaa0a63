"""Line-delimited, versioned game transcripts.

A transcript is one JSON object per line: a header, one line per move,
and a footer. Lines are canonical JSON (sorted keys, fixed separators),
so identical games serialize byte-identically and sweeps can be
streamed and diffed. The reader rejects unknown format versions instead
of guessing.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

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


@dataclass(frozen=True, slots=True)
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
            player=obj["player"],
            kind=obj["kind"],
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


@dataclass(slots=True)
class Transcript:
    header: Header
    entries: list = field(default_factory=list)   # MoveRecord, index order
    footer: Optional[Footer] = None

    def to_lines(self) -> list:
        lines = [canonical(self.header.to_json())]
        lines.extend(canonical(e.to_json()) for e in self.entries)
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
    objs = []
    for i, ln in enumerate(lines):
        try:
            objs.append(json.loads(ln))
        except ValueError as exc:
            # A JSONDecodeError, or an integer past Python's digit limit.
            raise TranscriptFormatError(f"line {i + 1} is not JSON: {exc}") from exc
        except RecursionError as exc:
            raise TranscriptFormatError(f"line {i + 1} nests too deeply") from exc
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
        record = obj.get("record") if isinstance(obj, dict) else None
        if record == "move":
            if footer is not None:
                raise TranscriptFormatError(f"line {lineno}: move record after footer")
            try:
                entries.append(MoveRecord.from_json(obj))
            except KeyError as exc:
                raise TranscriptFormatError(
                    f"line {lineno}: move record missing field {exc}") from exc
            except TranscriptFormatError as exc:
                raise TranscriptFormatError(f"line {lineno}: {exc}") from exc
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
    return Transcript(header=header, entries=entries, footer=footer)


def read_transcript(path: str) -> Transcript:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_transcript(fh.read())
