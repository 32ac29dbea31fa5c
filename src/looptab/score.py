"""Song note columns, their lossless encode and decode, and 4/4
regularization, for one song or for a directory of songs in batches.

:class:`ScoreColumns` is the one score representation: a header (artist,
tempo, time signature) and song-level control tokens, then integer numpy
columns, one row per note (bar, onset, duration, MIDI pitch, track,
string, fret and an effects id) and one per bar (tempo and metre), plus
the bar control tokens with their bars. Ticks are 960 per quarter note.
A :class:`SongBatch` holds many songs in one :class:`ScoreColumns`, song
after song, with each song's bar offset, header and error.

:func:`decode_parts` encodes each song's token strings to integer codes
as it reads them, then decodes the codes of many songs at once with numpy
operations: the cursor, the onset groups, the duration rule and the order
inside each group are computed for the whole part, not token by token or
song by song; only each song's header is read on its own. A part holds at
most ``PART_TOKENS`` tokens, or one song, and is also cut where the table
must empty itself, so that the arrays decoded at once do not grow with the
directory; the song commands work one part at a time. :func:`decode` is
the one-song case. A :class:`TokenTable`, owned by the command that reads
the songs, classifies every distinct token string once through
:func:`tokens.token` and holds at most ``TOKEN_CACHE_SIZE`` strings, or one
song's own where a song has more.
:func:`regularize_many` (one song: :func:`regularize_meter`) cuts every
bar into 4/4 bars, at most ``MAX_BARS`` of them per song, and
:func:`regular_parts` does it in parts of consecutive songs holding at
most ``MAX_BARS`` such bars together.

Duration convention of the token format: a note group's duration is the
accumulated ``wait`` ticks until the next onset in its measure (or, when
a measure ends without a trailing wait, the remainder of the declared
measure capacity). Decoded columns always follow this convention and
round-trip bit-exactly through :func:`score_to_tokens`; columns with other
per-note durations are rendered canonically (durations snap back to the
gap rule on reparse).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from itertools import compress
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .tokens import (
    NEW_MEASURE,
    START,
    END,
    GUITAR_TRACKS,
    NOTE_TRACKS,
    TICKS_PER_QUARTER,
    TOKEN_CACHE_SIZE,
    ParseError,
    Token,
    TokenCategory,
    TENSION_FEATURES,
    header_token,
    token,
)

# String 1 is the highest string; standard EADGBE guitar, EADG bass.
GUITAR_TUNING = (64, 59, 55, 50, 45, 40)
BASS_TUNING = (43, 38, 33, 28)

# One tuning for every note track of the token grammar.
DEFAULT_TUNINGS = dict.fromkeys(GUITAR_TRACKS, GUITAR_TUNING) | {"bass": BASS_TUNING}

DEFAULT_TEMPO = 120
BAR_TICKS_4_4 = 4 * TICKS_PER_QUARTER

# The tracks of the grammar sorted by name, so that track ids compare as names do.
TRACKS = tuple(sorted((*NOTE_TRACKS, "drums")))
_DRUMS = TRACKS.index("drums")

# Longest wait and bar the int64 columns take: a song of fewer than 2**31
# tokens then keeps every tick sum below 2**63.
MAX_TICKS = 2 ** 32

# Most 4/4 bars one song may regularize into: a bar lasting MAX_TICKS would
# otherwise become over a million.
MAX_BARS = 2 ** 16

# Most tokens decoded together; a directory with more is decoded in parts.
PART_TOKENS = 2 ** 18


class StructureError(ValueError):
    """Token stream violates score structure (not the token grammar)."""


@dataclass(frozen=True, eq=False)
class ScoreColumns:
    """A score as integer columns.

    Notes are grouped by bar, each bar's notes in its event order. The
    decoder orders them by onset, then track name, pitch and string, ties
    in token order, and the notes of one onset share one duration;
    :func:`regularize_meter` keeps that order. ``track`` indexes
    ``TRACKS``, ``fx`` indexes ``effects`` (``effects[0]`` is ``()``), and
    the string and fret of a drum note are -1. Bar ``b`` holds the notes
    ``bounds[b]:bounds[b + 1]``; ``controls[i]`` belongs to bar
    ``control_bar[i]``, in bar order. Every bar is in quarter-note metre:
    ``numerator`` beats of ``TICKS_PER_QUARTER``.
    """

    artist: str | None
    header_tempo: int
    header_time_signature: int
    song_controls: tuple[Token, ...]
    tempo: np.ndarray  # per bar
    numerator: np.ndarray
    control_bar: np.ndarray
    controls: tuple[Token, ...]
    bar: np.ndarray  # per note
    onset: np.ndarray
    duration: np.ndarray
    midi: np.ndarray
    track: np.ndarray
    string: np.ndarray
    fret: np.ndarray
    fx: np.ndarray
    effects: tuple[tuple[str, ...], ...] = ((),)

    @property
    def n_bars(self) -> int:
        return len(self.tempo)

    @property
    def capacity(self) -> np.ndarray:
        return self.numerator * TICKS_PER_QUARTER

    @property
    def bounds(self) -> np.ndarray:
        return np.searchsorted(self.bar, np.arange(self.n_bars + 1))

    @property
    def pitched(self) -> np.ndarray:
        """Mask of the notes that are not drums."""
        return self.track != _DRUMS

    @property
    def header(self) -> tuple[str | None, int, int, tuple[Token, ...]]:
        return self.artist, self.header_tempo, self.header_time_signature, self.song_controls


_NOTE_COLUMNS = ("bar", "onset", "duration", "midi", "track", "string", "fret", "fx")


def bar_slice(song: ScoreColumns, start: int, end: int) -> ScoreColumns:
    """The bars ``[start, end)`` of ``song`` as a score of their own,
    renumbered from 0."""
    lo, hi = song.bar.searchsorted([start, end]).tolist()
    c_lo, c_hi = song.control_bar.searchsorted([start, end]).tolist()
    notes = {name: getattr(song, name)[lo:hi] for name in _NOTE_COLUMNS}
    notes["bar"] = notes["bar"] - start
    return replace(song, tempo=song.tempo[start:end], numerator=song.numerator[start:end],
                   control_bar=song.control_bar[c_lo:c_hi] - start,
                   controls=song.controls[c_lo:c_hi], **notes)


@dataclass(frozen=True, eq=False)
class SongBatch:
    """Songs held as one :class:`ScoreColumns`, song after song.

    Song ``i`` holds the bars ``starts[i]:starts[i + 1]`` of ``columns``
    and has the header ``heads[i]`` (artist, tempo, metre, song controls);
    the header fields of ``columns`` itself are not read. A song that
    could not be read, decoded or regularized holds no bar, its head is
    None, and ``errors[i]`` is why.
    """

    columns: ScoreColumns
    starts: np.ndarray
    heads: tuple[tuple[str | None, int, int, tuple[Token, ...]] | None, ...]
    errors: dict[int, Exception]

    def __len__(self) -> int:
        return len(self.heads)

    @property
    def spans(self) -> list[tuple[int, int]]:
        """Each song's ``[start, end)`` bar range."""
        starts = self.starts.tolist()
        return list(zip(starts, starts[1:]))

    def songs(self, lo: int, hi: int) -> SongBatch:
        """The songs ``[lo, hi)`` as a batch of their own."""
        a, b = self.starts[[lo, hi]].tolist()
        return SongBatch(bar_slice(self.columns, a, b), self.starts[lo:hi + 1] - a,
                         self.heads[lo:hi],
                         {i - lo: exc for i, exc in self.errors.items() if lo <= i < hi})

    def song(self, i: int) -> ScoreColumns:
        """Song ``i`` on its own, its bars numbered from 0; a song that
        failed raises its error."""
        if i in self.errors:
            raise self.errors[i]
        artist, tempo, numerator, controls = self.heads[i]
        return replace(bar_slice(self.columns, *self.starts[i:i + 2].tolist()), artist=artist,
                       header_tempo=tempo, header_time_signature=numerator,
                       song_controls=controls)


# Kinds of token in a TokenTable.
(_NOTE, _WAIT, _MEASURE, _EFFECT, _BAR_CONTROL, _SONG_CONTROL,
 _ARTIST, _TEMPO, _TIME_SIGNATURE, _START, _END) = range(11)
_HEADER_KINDS = {"artist": _ARTIST, "tempo": _TEMPO, "time_signature": _TIME_SIGNATURE,
                 "start": _START, "end": _END}


class TokenTable:
    """The distinct token strings of the songs one command reads, each
    classified once through :func:`tokens.token` and numbered by a code.

    A code indexes integer columns: the token's kind, whether it is an
    error inside a bar, the cursor step (a wait's ticks, 1 at
    ``new_measure``), its value (tempo or metre), a note's order inside its
    onset group, and a note's track id, string, fret and MIDI pitch. A
    song whose new strings would take the table past ``TOKEN_CACHE_SIZE``
    empties it first, so it holds more than that bound only when one song
    has more distinct strings, and then that song's own. Malformed strings
    are never stored.
    """

    def __init__(self):
        self.clear()

    def clear(self) -> None:
        self.codes: dict[str, int] = {}
        self.tokens: list[Token] = []
        self.problems: dict[int, str] = {}  # code: why the token is invalid anywhere
        self.in_bar: dict[int, str] = {}  # code: why the token is an error inside a bar
        self._set_columns(np.zeros(64, np.int8), np.zeros((8, 64), np.int64))

    def __len__(self) -> int:
        return len(self.tokens)

    def _set_columns(self, kind: np.ndarray, columns: np.ndarray) -> None:
        self.kind, self._columns = kind, columns  # kind is small, for a fast sort
        self.in_bar_error, self.step, self.value, self.order = columns[:4]
        self.note_fields = columns[4:]  # track, string, fret, midi

    def _add(self, raw: str, tok: Token) -> None:
        code = len(self.tokens)
        if code == len(self.kind):
            self._set_columns(np.concatenate([self.kind, self.kind]),
                              np.concatenate([self._columns, self._columns], axis=1))
        kind, *fields = self._row(tok, code)
        self.kind[code] = kind
        self._columns[:, code] = fields
        self.codes[raw] = code
        self.tokens.append(tok)

    def _invalid(self, code: int, kind: int, problem: str) -> tuple[int, ...]:
        self.problems[code] = self.in_bar[code] = problem
        return (kind, 1, 0, 0, 0, 0, 0, 0, 0)

    def _row(self, tok: Token, code: int) -> tuple[int, ...]:
        """kind, in-bar error, step, value, order, track, string, fret, midi."""
        cat, fields = tok.category, tok.fields
        if cat is TokenCategory.NOTE:
            track = fields["track"]
            tid = TRACKS.index(track)
            if track == "drums":
                string = fret = -1
                midi = fields["midi"]
            else:
                tuning = DEFAULT_TUNINGS[track]
                string, fret = fields["string"], fields["fret"]
                if string > len(tuning):
                    return self._invalid(code, _NOTE, f"string {string} does not exist on "
                                                      f"{track} ({len(tuning)} strings)")
                midi = tuning[string - 1] + fret
                if midi > 127:
                    return self._invalid(code, _NOTE, f"pitch {midi} above midi range")
            order = (tid * 128 + midi) * 8 + max(string, 0)  # < 2**13
            return (_NOTE, 0, 0, 0, order, tid, string, fret, midi)
        if cat is TokenCategory.WAIT:
            ticks = fields["ticks"]
            if ticks > MAX_TICKS:
                return self._invalid(code, _WAIT, f"wait of {ticks} ticks is longer than "
                                                  f"{MAX_TICKS}")
            return (_WAIT, 0, ticks, 0, 0, 0, 0, 0, 0)
        if cat is TokenCategory.HEADER:
            key = fields["key"]
            value = fields.get("value") if key in ("tempo", "time_signature") else 0
            if key == "time_signature" and value * TICKS_PER_QUARTER > MAX_TICKS:
                return self._invalid(code, _TIME_SIGNATURE, f"a {value}-beat bar is longer "
                                                            f"than {MAX_TICKS} ticks")
            if key in ("artist", "start"):
                self.in_bar[code] = f"{key} token after first measure"
            return (_HEADER_KINDS[key], code in self.in_bar, 0, value, 0, 0, 0, 0, 0)
        if cat is TokenCategory.SONG_CONTROL:
            self.in_bar[code] = f"song control {tok.raw!r} after first measure"
            return (_SONG_CONTROL, 1, 0, 0, 0, 0, 0, 0, 0)
        if cat is TokenCategory.STRUCTURE:
            return (_MEASURE, 0, 1, 0, 0, 0, 0, 0, 0)
        kind = _BAR_CONTROL if cat is TokenCategory.BAR_CONTROL else _EFFECT
        return (kind, 0, 0, 0, 0, 0, 0, 0, 0)

    def encode(self, raws: Sequence[str], full: Callable[[], None] = lambda: None) -> np.ndarray:
        """The code of every string, classifying the new ones; a malformed
        string raises :class:`ParseError` at its first index. Where the new
        strings would take the table past ``TOKEN_CACHE_SIZE``, ``full()``
        runs first, while the codes given out so far still hold, and then
        the table empties."""
        try:
            return np.fromiter(map(self.codes.__getitem__, raws), np.int32, len(raws))
        except KeyError:
            pass
        new = [raw for raw in dict.fromkeys(raws) if raw not in self.codes]
        if len(self.codes) + len(new) > TOKEN_CACHE_SIZE:
            full()
            self.clear()
            new = list(dict.fromkeys(raws))
        for raw in new:  # in order of first occurrence, so the first failure is the earliest
            try:
                tok = token(raw)
            except ParseError as exc:
                raise ParseError(str(exc), index=raws.index(raw), token=raw) from None
            self._add(raw, tok)
        return np.fromiter(map(self.codes.__getitem__, raws), np.int32, len(raws))


def _header(codes: list[int], table: TokenTable):
    """Artist, tempo, metre and song controls of the tokens before the
    first ``new_measure``; a note, wait, bar control or invalid token
    there raises."""
    artist, tempo, numerator, song_controls = None, DEFAULT_TEMPO, 4, []
    for i, code in enumerate(codes):
        tok = table.tokens[code]
        cat = tok.category
        if cat is TokenCategory.NOTE:
            raise StructureError(f"token {i}: note {tok.raw!r} before first new_measure")
        if cat is TokenCategory.WAIT:
            raise StructureError(f"token {i}: wait before first new_measure")
        if cat is TokenCategory.BAR_CONTROL:
            raise StructureError(f"token {i}: bar control {tok.raw!r} before first measure")
        if code in table.problems:
            raise StructureError(f"token {i}: {table.problems[code]}")
        if cat is TokenCategory.SONG_CONTROL:
            song_controls.append(tok)
        elif cat is TokenCategory.HEADER:
            key = tok.fields["key"]
            if key == "artist":
                artist = tok.fields["value"]
            elif key == "tempo":
                tempo = tok.fields["value"]
            elif key == "time_signature":
                numerator = tok.fields["value"]
    return artist, tempo, numerator, tuple(song_controls)


def _first(at: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """For each song, the first of the ascending positions ``at`` in its
    ``[lo, hi)``, or ``hi``."""
    return np.minimum(np.append(at, np.iinfo(np.int64).max)[at.searchsorted(lo)], hi)


def _running(at: np.ndarray, values: np.ndarray, marks: np.ndarray, start: np.ndarray,
             since: np.ndarray) -> np.ndarray:
    """At each mark, the value of the last token at ``at`` before it and not
    before ``since`` (the first token of the mark's song), or ``start``."""
    if not len(at):
        return start
    last = np.searchsorted(at, marks) - 1
    return np.where((last >= 0) & (at[last] >= since), values[last], start)


def decode(raws: Sequence[str], table: TokenTable) -> ScoreColumns:
    """Decode a song's token strings into :class:`ScoreColumns`: the
    one part that :func:`decode_parts` makes of one song.

    Song controls and header tokens must precede the first ``new_measure``;
    an empty stream, a malformed token (:class:`ParseError`, before any
    structure check), a note before the first measure, a token after
    ``end``, a string number outside the track's tuning or a wait or bar
    longer than ``MAX_TICKS`` raises at the earliest offending token.
    """
    [(_, part)] = decode_parts([raws], table)
    return part.song(0)


def decode_parts(sources: Iterable[Path | Sequence[str]], table: TokenTable
                 ) -> Iterator[tuple[int, SongBatch]]:
    """Decode songs in parts of consecutive songs, each a
    :class:`SongBatch`; each source is the :class:`~pathlib.Path` of a song
    file or a song's token strings. Yields each part's first song and the
    part, in song order.

    Each song is encoded to codes as it is read, and its strings are then
    let go. A part holds at most ``PART_TOKENS`` tokens, or one song, so
    the arrays decoded at once do not grow with the directory; it also
    ends where the table must empty itself. A song that cannot be read
    (``OSError``, or a ``ValueError`` for text that is not UTF-8) or
    decoded holds no bar; its error is what :func:`decode` raises for it
    alone.
    """
    done: list[tuple[int, SongBatch]] = []
    songs: list[np.ndarray] = []
    failed: dict[int, Exception] = {}
    read = held = 0

    def flush() -> None:  # decode the pending songs while the table still knows their codes
        nonlocal held
        if songs:
            done.append((read - len(songs), _decode_codes(songs, failed, table)))
            songs.clear()
            failed.clear()
            held = 0

    for source in sources:
        try:
            raws = source.read_text(encoding="utf-8").split() if isinstance(source, Path) \
                else source
            if not raws:
                raise StructureError("no tokens")  # even an empty score has a header and end
            if held + len(raws) > PART_TOKENS:
                flush()
            songs.append(table.encode(raws, flush))
            held += len(raws)
        except (OSError, ValueError) as exc:
            failed[len(songs)] = exc
            songs.append(np.zeros(0, np.int32))
        read += 1
        yield from done
        done.clear()
    flush()
    yield from done


def _decode_codes(songs: list[np.ndarray], failed: dict[int, Exception],
                  table: TokenTable) -> SongBatch:
    """Decode the codes of ``songs`` together; ``failed`` are the songs
    that could not be encoded."""
    n = len(songs)
    begin = np.zeros(n + 1, np.int64)
    begin[1:] = np.cumsum([len(c) for c in songs], dtype=np.int64)
    codes = np.concatenate(songs) if songs else np.zeros(0, np.int32)
    kind = table.kind[codes]
    # each song's first end (or its end), then its first new_measure before that
    stop = _first((kind == _END).nonzero()[0], begin[:-1], begin[1:])
    first = _first((kind == _MEASURE).nonzero()[0], begin[:-1], stop)
    flagged = _first(table.in_bar_error[codes].nonzero()[0], first, stop)
    errors = dict(failed)
    heads = []
    for s, (a, f, bad, z, e) in enumerate(zip(begin.tolist(), first.tolist(), flagged.tolist(),
                                              stop.tolist(), begin[1:].tolist())):
        head = None
        if s not in errors:
            try:
                head = _header(codes[a:f].tolist(), table)
                if bad < z:
                    raise StructureError(f"token {bad - a}: {table.in_bar[int(codes[bad])]}")
                if z + 1 < e:
                    raise StructureError(f"token {z + 1 - a} "
                                         f"({table.tokens[codes[z + 1]].raw!r}) after end")
            except StructureError as exc:
                errors[s], head = exc, None
        heads.append(head)
    # every good song's tokens from its first new_measure to its end
    good = np.array([h is not None for h in heads], bool)
    size = np.where(good, stop - first, 0)
    body_begin = np.zeros(n + 1, np.int64)
    np.cumsum(size, out=body_begin[1:])
    inside = (np.bincount(first[good], minlength=len(codes) + 1)
              - np.bincount(stop[good], minlength=len(codes) + 1)).cumsum()[:-1] > 0
    defaults = np.array([(h[1], h[2]) if h else (0, 0) for h in heads], np.int64).reshape(-1, 2)
    columns, marks = _decode_bars(codes[inside], body_begin, defaults, table)
    return SongBatch(columns, marks.searchsorted(body_begin), tuple(heads), errors)


def _decode_bars(codes: np.ndarray, song_begin: np.ndarray, defaults: np.ndarray,
                 table: TokenTable) -> tuple[ScoreColumns, np.ndarray]:
    """The bars of checked songs' codes, each song's from its first
    ``new_measure`` to its end, laid end to end from ``song_begin``; a
    song's bars start from its header tempo and metre (``defaults``).
    Returns the columns and the position of each bar's ``new_measure``."""
    kind = table.kind[codes]
    # the positions of each kind of token, ascending, from one stable sort
    by_kind = kind.argsort(kind="stable")
    edges = [0, *np.bincount(kind, minlength=_END + 1).cumsum().tolist()]

    def positions(k: int) -> np.ndarray:
        return by_kind[edges[k]:edges[k + 1]]

    marks = positions(_MEASURE)
    if not len(marks):
        empty = np.zeros(0, np.int64)
        return ScoreColumns(None, DEFAULT_TEMPO, 4, (), *[empty] * 3, (), *[empty] * 8), marks
    song = song_begin.searchsorted(marks, "right") - 1
    since = song_begin[song]
    tempo_at, numerator_at = positions(_TEMPO), positions(_TIME_SIGNATURE)
    bar_tempo = _running(tempo_at, table.value[codes[tempo_at]], marks, defaults[song, 0], since)
    bar_numerator = _running(numerator_at, table.value[codes[numerator_at]], marks,
                             defaults[song, 1], since)
    # ``at`` rises at every wait (by its ticks) and new_measure (by 1): notes
    # sharing it form one onset group, and it less its bar's start is the cursor
    at = table.step[codes].cumsum()
    bar_at = at[marks]
    bar_close = np.empty(len(marks), np.int64)
    bar_close[:-1] = marks[1:] - 1
    bar_close[-1] = len(codes) - 1
    closes = at[bar_close] - bar_at  # the cursor as each bar ends

    notes = positions(_NOTE)
    bar = marks.searchsorted(notes, "right") - 1
    note_at = at[notes]
    onset = note_at - bar_at[bar]
    head = np.empty(len(notes), bool)
    head[:1] = True
    np.not_equal(note_at[1:], note_at[:-1], out=head[1:])
    group = head.cumsum() - 1
    starts = head.nonzero()[0]
    g_bar, g_onset = bar[starts], onset[starts]
    # a group lasts until the next onset in its bar; the bar's last group
    # until the bar's close, or to its capacity if no wait followed it
    g_end = np.empty(len(starts), np.int64)
    g_end[:-1] = g_onset[1:]
    last = np.empty(len(starts), bool)
    last[-1:] = True
    np.not_equal(g_bar[1:], g_bar[:-1], out=last[:-1])
    last = last.nonzero()[0]
    close, l_bar = closes[g_bar[last]], g_bar[last]
    g_end[last] = np.where(close > g_onset[last], close, bar_numerator[l_bar] * TICKS_PER_QUARTER)
    g_duration = g_end - g_onset
    g_duration[g_duration <= 0] = TICKS_PER_QUARTER  # overflowing bar; regularize_meter resolves it
    note_codes = codes[notes]
    order = ((group << 13) | table.order[note_codes]).argsort(kind="stable")
    track, string, fret, midi = table.note_fields.take(note_codes[order], axis=1)

    fx = np.zeros(len(notes), np.int64)
    effects: dict[tuple[str, ...], int] = {(): 0}
    effect_at = positions(_EFFECT)
    if len(effect_at) and len(notes):  # an effect belongs to the bar's last note before it, if any
        owner = notes.searchsorted(effect_at) - 1
        held = (owner >= 0) & (bar[owner] == marks.searchsorted(effect_at, "right") - 1)
        names: dict[int, list[str]] = {}
        for note, code in zip(owner[held].tolist(), codes[effect_at[held]].tolist()):
            names.setdefault(note, []).append(table.tokens[code].fields["name"])
        fx[list(names)] = [effects.setdefault(tuple(n), len(effects)) for n in names.values()]
        fx = fx[order]

    controls_at = positions(_BAR_CONTROL)
    return ScoreColumns(
        None, DEFAULT_TEMPO, 4, (), bar_tempo, bar_numerator,
        marks.searchsorted(controls_at, "right") - 1,
        tuple(table.tokens[c] for c in codes[controls_at].tolist()),
        bar, onset, g_duration[group], midi, track, string, fret, fx, tuple(effects)), marks


def tokens_to_score(stream: list[Token]) -> ScoreColumns:
    """Decode a token stream into :class:`ScoreColumns`; raises as
    :func:`decode` does."""
    return decode([t.raw for t in stream], TokenTable())


def score_to_tokens(song: ScoreColumns, include_artist: bool = True) -> list[Token]:
    """Encode a score as a canonical token stream.

    Ordering: song controls, header (time_signature, tempo, start), then per
    bar: change tokens if tempo/metre changed, ``new_measure``, bar
    controls in cloud_diameter/cloud_momentum/tensile_strain order, events
    sorted by (onset, track, pitch) with waits merging the gaps, and a
    trailing wait covering the last group's duration. The stream closes
    with ``end``.
    """
    out: list[Token] = list(song.song_controls)
    if include_artist and song.artist:
        out.append(header_token("artist", song.artist))
    out.append(header_token("time_signature", song.header_time_signature))
    out.append(header_token("tempo", song.header_tempo))
    out.append(START)

    by_feature: list[dict[str, Token]] = [{} for _ in range(song.n_bars)]
    for b, t in zip(song.control_bar.tolist(), song.controls):
        by_feature[b][t.fields["feature"]] = t
    running_tempo = song.header_tempo
    running_ts = song.header_time_signature
    bodies = bar_bodies(song, np.arange(song.n_bars))
    for tempo, num, controls, body in zip(song.tempo.tolist(), song.numerator.tolist(),
                                          by_feature, bodies):
        if num != running_ts:
            out.append(header_token("time_signature", num))
            running_ts = num
        if tempo != running_tempo:
            out.append(header_token("tempo", tempo))
            running_tempo = tempo
        out.append(NEW_MEASURE)
        out.extend(controls[feat] for feat in TENSION_FEATURES if feat in controls)
        out.extend(map(token, body))
    out.append(END)
    return out


def _key_words(keys: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Integer ``keys`` of one length that fit in int64 (the last key the
    primary one) packed into as few int64 words as hold them, usually one:
    each key less its minimum takes the bits its range needs, least
    significant first. A key whose range needs 64 bits is a word of its
    own, as it is; constant keys alone give one word of zeros."""
    words: list[np.ndarray] = []
    word, width = None, 0
    for key in keys:
        key = np.asarray(key, np.int64)
        low, high = (int(key.min()), int(key.max())) if key.size else (0, 0)
        bits = (high - low).bit_length()
        if not bits:  # an empty or constant key orders nothing
            continue
        if width + bits > 63 and word is not None:
            words.append(word)
            word, width = None, 0
        if bits > 63:
            words.append(key)
            continue
        shifted = key - low  # in [0, 2**63), where int64 arithmetic wraps
        word = shifted if word is None else word | shifted << width
        width += bits
    if word is not None:
        words.append(word)
    return words or [np.zeros(len(keys[0]), np.int64)]


def key_order(keys: Sequence[np.ndarray]) -> np.ndarray:
    """``np.lexsort(keys)``, tie order included, for integer ``keys`` of
    one length that fit in int64 (the last key the primary one), as a
    lexsort of their packed words (:func:`_key_words`)."""
    return np.lexsort(_key_words(keys))


def _distinct(keys: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """An index of each distinct row of the integer columns ``keys`` and
    each row's rank among the distinct rows, from one sort of their packed
    words."""
    words = _key_words(keys)
    by_key = words[0].argsort() if len(words) == 1 else np.lexsort(words)
    new = np.zeros(len(by_key), bool)
    new[:1] = True
    for word in words:
        word = word[by_key]
        new[1:] |= word[1:] != word[:-1]
    rank = np.empty_like(by_key)
    rank[by_key] = np.cumsum(new) - 1
    return by_key[new], rank


def bar_bodies(song: ScoreColumns, bars: Sequence[int]) -> list[list[str]]:
    """The raw tokens of each of ``bars``, in any order, repeats allowed:
    its notes sorted by (onset, track, pitch, string), each followed by its
    effects, waits merging the gaps, and a trailing wait covering the last
    group's duration (its longest note). The notes of ``bars`` are gathered
    in that order once, their onset groups and token slots found with array
    operations, and each distinct note and wait is rendered once."""
    order = key_order((np.maximum(song.string, 0), song.midi, song.track, song.onset, song.bar))
    bounds, bars = song.bounds, np.asarray(bars, np.intp)
    sizes = bounds[bars + 1] - bounds[bars]
    ends = np.cumsum(sizes)
    starts = ends - sizes  # where each bar's notes start among the gathered ones
    pick = order[np.arange(sizes.sum()) + np.repeat(bounds[bars] - starts, sizes)]
    onset, duration, track, string, fret, midi, fx = (c[pick] for c in (
        song.onset, song.duration, song.track, song.string, song.fret, song.midi, song.fx))
    bar_head = np.zeros(len(pick) + 1, bool)  # the notes that open a bar, and the end
    bar_head[starts] = bar_head[-1] = True
    head = bar_head.copy()  # the notes that open an onset group, and the end
    head[1:-1] |= onset[1:] != onset[:-1]
    group, last = np.flatnonzero(head[:-1]), np.flatnonzero(head[1:])  # first and last notes
    gap = np.where(bar_head[last + 1], np.maximum.reduceat(duration, group),
                   np.append(onset[group[1:]], 0) - onset[group])
    lead = bar_head[:-1] & (onset > 0)  # the notes after a bar's leading wait
    fx_sizes = np.array([len(names) for names in song.effects], np.intp)
    n_fx = fx_sizes[fx]
    slots = lead + 1 + n_fx  # each note's tokens, and its group's closing wait
    slots[last] += 1
    cuts = np.zeros(len(pick) + 1, np.intp)
    np.cumsum(slots, out=cuts[1:])
    at = cuts[:-1] + lead  # each note's own slot
    drum = track == _DRUMS
    notes, note_ids = _distinct((np.where(drum, midi, fret), np.where(drum, 0, string), track))
    waits = np.concatenate((gap, onset[lead]))
    wait_heads, wait_ids = _distinct((waits,))
    table = [f"drums:note:{m}" if t == _DRUMS else f"{TRACKS[t]}:note:s{s}:f{f}"
             for t, s, f, m in zip(*(c[notes].tolist() for c in (track, string, fret, midi)))]
    table += [f"wait:{ticks}" for ticks in waits[wait_heads].tolist()]
    codes = np.empty(cuts[-1], np.intp)  # each slot's token in the table
    codes[at] = note_ids
    wait_ids += len(notes)
    codes[at[last] + 1 + n_fx[last]] = wait_ids[:len(gap)]
    codes[at[lead] - 1] = wait_ids[len(gap):]
    counts = n_fx[n_fx > 0]  # the effects, slot after slot
    nth = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    first = np.cumsum(fx_sizes) - fx_sizes + len(table)
    codes[np.repeat(at[n_fx > 0] + 1, counts) + nth] = np.repeat(first[fx[n_fx > 0]], counts) + nth
    table += [f"nfx:{name}" for names in song.effects for name in names]
    tokens = np.array(table, object)[codes].tolist()
    return [tokens[a:b] for a, b in zip(cuts[starts].tolist(), cuts[ends].tolist())]


def regularize_meter(song: ScoreColumns) -> ScoreColumns:
    """Force every bar to 4/4, splitting at 4-beat boundaries and padding
    short bars to a full bar; a song that would become more than
    ``MAX_BARS`` bars raises :class:`StructureError`. The one-song case of
    :func:`regularize_many`.

    Note count is preserved; notes crossing a split boundary are clipped
    at the boundary, the notes of a split bar are sorted by (onset, track,
    pitch, string), and a bar's controls go to its first 4/4 bar.
    Idempotent on already-regular scores.
    """
    batch = SongBatch(song, np.array([0, song.n_bars]), (song.header,), {})
    return regularize_many(batch).song(0)


def _chunks(batch: SongBatch, keep: Sequence[bool] | None
            ) -> tuple[np.ndarray, np.ndarray, dict[int, Exception]]:
    """How many bars of 4/4 each bar of ``batch`` becomes and each song
    holds, 0 in the songs not in ``keep`` and in those that would hold
    more than ``MAX_BARS``, and a :class:`StructureError` for each of the
    latter."""
    song, starts = batch.columns, batch.starts
    extent = song.capacity
    bounds = song.bounds
    filled = bounds[:-1] < bounds[1:]
    extent[filled] = np.maximum(extent[filled], np.maximum.reduceat(song.onset + song.duration,
                                                                    bounds[:-1][filled]))
    chunks = np.maximum(1, -(-extent // BAR_TICKS_4_4))
    if keep is not None:
        chunks[~np.repeat(np.asarray(keep, bool), np.diff(starts))] = 0
    total = np.zeros(len(chunks) + 1, np.int64)
    np.cumsum(chunks, out=total[1:])
    n_bars = total[starts[1:]] - total[starts[:-1]]
    errors: dict[int, Exception] = {}
    for s in (n_bars > MAX_BARS).nonzero()[0].tolist():
        errors[s] = StructureError(f"the song regularizes into {n_bars[s]} bars of 4/4, more "
                                   f"than {MAX_BARS}")
        chunks[starts[s]:starts[s + 1]] = 0
        n_bars[s] = 0
    return chunks, n_bars, errors


def regularize_many(batch: SongBatch, keep: Sequence[bool] | None = None) -> SongBatch:
    """Every song of ``batch`` regularized as :func:`regularize_meter`
    does it; a song that would become more than ``MAX_BARS`` bars of 4/4
    loses its bars and gets a :class:`StructureError`, and a song not in
    ``keep`` (a flag per song; None keeps all) loses its bars."""
    song, starts = batch.columns, batch.starts
    bar, onset, duration = song.bar, song.onset, song.duration
    chunks, _, too_long = _chunks(batch, keep)
    errors = batch.errors | too_long
    heads = tuple(None if i in errors else (*head[:2], 4, head[3])
                  for i, head in enumerate(batch.heads))
    in_4_4 = song.numerator == 4
    if (chunks == 1).all() and in_4_4.all():
        return replace(batch, heads=heads)
    total = np.zeros(len(chunks) + 1, np.int64)
    np.cumsum(chunks, out=total[1:])
    first_chunk = total[:-1]
    chunk = onset // BAR_TICKS_4_4
    new_bar = first_chunk[bar] + chunk
    new_onset = onset - chunk * BAR_TICKS_4_4
    new_duration = np.minimum(duration, (chunk + 1) * BAR_TICKS_4_4 - onset)
    # the notes of a split (or re-metred) bar are sorted; a kept bar keeps its order
    split = ~(in_4_4 & (chunks == 1))[bar]
    order = key_order([np.where(split, key, 0) for key in (
        np.maximum(song.string, 0), song.midi, song.track, new_onset)] + [new_bar])
    order = order[chunks[bar[order]] > 0]  # less the notes of the songs that lost their bars
    kept = chunks[song.control_bar] > 0
    return SongBatch(replace(
        song, tempo=np.repeat(song.tempo, chunks), numerator=np.full(total[-1], 4, np.int64),
        control_bar=first_chunk[song.control_bar[kept]],
        controls=tuple(compress(song.controls, kept.tolist())),
        bar=new_bar[order], onset=new_onset[order], duration=new_duration[order],
        midi=song.midi[order], track=song.track[order], string=song.string[order],
        fret=song.fret[order], fx=song.fx[order]), total[starts], heads, errors)


def regular_parts(batch: SongBatch, keep: Sequence[bool] | None = None
                  ) -> Iterator[tuple[int, SongBatch]]:
    """The songs of ``batch`` regularized as :func:`regularize_many` does
    it, in parts of consecutive songs that become at most ``MAX_BARS``
    bars of 4/4 together, so that a directory of many long songs holds no
    more 4/4 bars at once than one song may; yields each part's first song
    and the part, in song order."""
    _, n_bars, _ = _chunks(batch, keep)
    first = held = 0
    for i, n in enumerate(n_bars.tolist()):
        if held + n > MAX_BARS:
            yield first, regularize_many(batch.songs(first, i),
                                         None if keep is None else keep[first:i])
            first, held = i, 0
        held += n
    yield first, regularize_many(batch.songs(first, len(batch)),
                                 None if keep is None else keep[first:])


def token_files(directory: str | Path) -> list[Path]:
    """The ``*.tokens`` files of a song directory, sorted by name. A path
    that is not a directory that can be listed raises ``OSError``; a
    directory holding no such file is a ``ValueError``."""
    root = Path(directory)
    with os.scandir(root) as entries:  # on POSIX, names sort as their paths in one directory do
        names = sorted(entry.name for entry in entries if entry.name.endswith(".tokens"))
    if not names:
        raise ValueError(f"no *.tokens files in {directory}")
    return [root / name for name in names]
