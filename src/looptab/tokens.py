"""Token grammar for the tablature text format.

A stream is a sequence of whitespace/newline separated ASCII tokens;
every number in a token is written in ASCII digits.
The grammar covers header tokens (``artist:<str>``, ``tempo:<int>``,
``time_signature:<int>``, ``start``, ``end``), song-level controls
(``valence:high|low``, ``arousal:high|low``, ``mode:major|minor``),
the bar boundary marker ``new_measure``, bar-level tension controls
(``cloud_diameter:q1..q4`` etc.), per-track note tokens
(``distorted0:note:s4:f7``, ``drums:note:38``), ``wait:<ticks>`` and
pass-through note effects (``nfx:<name>``).

A corpus repeats a few hundred distinct token strings many thousand
times, so :func:`token` classifies each distinct string once per process
(a bounded LRU cache) and hands out one shared :class:`Token` per string;
its ``fields`` are therefore a read-only mapping. Malformed strings are
never cached.
"""

from __future__ import annotations

import enum
import functools
import re
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

TICKS_PER_QUARTER = 960

TEMPO_MIN = 30
TEMPO_MAX = 300
FRET_MAX = 30

GUITAR_TRACKS = ("distorted0", "distorted1", "distorted2", "clean0", "clean1", "leads")
NOTE_TRACKS = GUITAR_TRACKS + ("bass",)

TENSION_FEATURES = ("cloud_diameter", "cloud_momentum", "tensile_strain")
TENSION_LEVELS = ("q1", "q2", "q3", "q4")

_NFX_RE = re.compile(r"[A-Za-z0-9_.\-]+")
_NOTE_TAIL_RE = re.compile(r"note:s([0-9]+):f([0-9]+)")

# Distinct token strings classified by :func:`token` and kept for reuse.
TOKEN_CACHE_SIZE = 1 << 14

_NO_FIELDS = MappingProxyType({})


class TokenCategory(enum.Enum):
    HEADER = "header"
    SONG_CONTROL = "song_control"
    BAR_CONTROL = "bar_control"
    STRUCTURE = "structure"
    NOTE = "note"
    WAIT = "wait"
    EFFECT = "effect"


class ParseError(ValueError):
    """Raised when a token (or stream) does not match the grammar."""

    def __init__(self, message: str, index: int | None = None, token: str | None = None):
        self.index = index
        self.token = token
        if index is not None:
            message = f"token {index} ({token!r}): {message}"
        super().__init__(message)


@dataclass(frozen=True)
class Token:
    """One classified token. ``raw`` round-trips exactly; ``fields`` is a
    read-only copy of the mapping given, since :func:`token` shares one
    instance among every occurrence of its string."""

    category: TokenCategory
    raw: str
    fields: Mapping = field(default_factory=lambda: _NO_FIELDS, compare=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.fields, MappingProxyType):
            object.__setattr__(self, "fields", MappingProxyType(dict(self.fields)))


def _int_field(value: str, what: str) -> int:
    if not (value.isascii() and value.isdigit()):
        raise ParseError(f"{what} must be a non-negative integer, got {value!r}")
    return int(value)


@functools.lru_cache(maxsize=TOKEN_CACHE_SIZE)
def token(raw: str) -> Token:
    """Classify a single raw token, raising :class:`ParseError` if malformed.

    A token holds no whitespace, since streams are split on it. Cached:
    equal strings give the same :class:`Token`; a failure is not cached.
    ``token.__wrapped__`` is the uncached classifier.
    """
    if raw.split() != [raw]:
        raise ParseError(f"a token holds no whitespace, got {raw!r}")
    if raw == "new_measure":
        return Token(TokenCategory.STRUCTURE, raw)
    if raw in ("start", "end"):
        return Token(TokenCategory.HEADER, raw, {"key": raw})
    head, sep, rest = raw.partition(":")
    if not sep or not rest:
        raise ParseError(f"no grammar rule matches {raw!r}")
    if head == "artist":
        return Token(TokenCategory.HEADER, raw, {"key": "artist", "value": rest})
    if head == "tempo":
        bpm = _int_field(rest, "tempo")
        if not TEMPO_MIN <= bpm <= TEMPO_MAX:
            raise ParseError(f"tempo {bpm} outside [{TEMPO_MIN}, {TEMPO_MAX}]")
        return Token(TokenCategory.HEADER, raw, {"key": "tempo", "value": bpm})
    if head == "time_signature":
        num = _int_field(rest, "time_signature")
        if num < 1:
            raise ParseError("time_signature numerator must be >= 1")
        return Token(TokenCategory.HEADER, raw, {"key": "time_signature", "value": num})
    if head == "wait":
        ticks = _int_field(rest, "wait")
        if ticks <= 0:
            raise ParseError("wait ticks must be > 0")
        return Token(TokenCategory.WAIT, raw, {"ticks": ticks})
    if head in ("valence", "arousal"):
        if rest not in ("high", "low"):
            raise ParseError(f"{head} level must be high or low, got {rest!r}")
        return Token(TokenCategory.SONG_CONTROL, raw, {"feature": head, "level": rest})
    if head == "mode":
        if rest not in ("major", "minor"):
            raise ParseError(f"mode must be major or minor, got {rest!r}")
        return Token(TokenCategory.SONG_CONTROL, raw, {"feature": head, "level": rest})
    if head in TENSION_FEATURES:
        if rest not in TENSION_LEVELS:
            raise ParseError(f"{head} level must be one of {TENSION_LEVELS}, got {rest!r}")
        return Token(TokenCategory.BAR_CONTROL, raw, {"feature": head, "level": rest})
    if head == "nfx":
        if not _NFX_RE.fullmatch(rest):
            raise ParseError(f"malformed effect name {rest!r}")
        return Token(TokenCategory.EFFECT, raw, {"name": rest})
    if head == "drums":
        tail = rest.partition(":")
        if tail[0] != "note" or not tail[1]:
            raise ParseError(f"no grammar rule matches {raw!r}")
        midi = _int_field(tail[2], "drum midi")
        if midi > 127:
            raise ParseError(f"drum midi {midi} outside [0, 127]")
        return Token(TokenCategory.NOTE, raw, {"track": "drums", "midi": midi})
    if head in NOTE_TRACKS:
        m = _NOTE_TAIL_RE.fullmatch(rest)
        if not m:
            raise ParseError(f"malformed note token {raw!r}")
        string, fret = int(m.group(1)), int(m.group(2))
        if string < 1:
            raise ParseError("string number must be >= 1")
        if fret > FRET_MAX:
            raise ParseError(f"fret {fret} outside [0, {FRET_MAX}]")
        return Token(TokenCategory.NOTE, raw, {"track": head, "string": string, "fret": fret})
    raise ParseError(f"no grammar rule matches {raw!r}")


def parse_tokens(text: str) -> list[Token]:
    """Parse whitespace separated token text into a classified stream.

    Empty input yields an empty stream. A malformed token raises
    :class:`ParseError` carrying the token index.
    """
    out = []
    for i, raw in enumerate(text.split()):
        try:
            out.append(token(raw))
        except ParseError as exc:
            raise ParseError(str(exc), index=i, token=raw) from None
    return out


def render_tokens(stream: list[Token]) -> str:
    return " ".join(t.raw for t in stream)


# Convenience constructors used across the package.

def header_token(key: str, value) -> Token:
    return token(f"{key}:{value}")


def control_token(feature: str, level: str) -> Token:
    return token(f"{feature}:{level}")


NEW_MEASURE = token("new_measure")
START = token("start")
END = token("end")
