"""Structured score model with lossless encode/decode and 4/4 regularization.

A :class:`Score` is a header (artist, tempo, time signature), song-level
control tokens and an ordered list of measures holding note events at
tick resolution 960 per quarter note.

Duration convention of the token format: a note group's duration is the
accumulated ``wait`` ticks until the next onset in its measure (or, when
a measure ends without a trailing wait, the remainder of the declared
measure capacity). Scores produced by :func:`tokens_to_score` always
follow this convention and round-trip bit-exactly through
:func:`score_to_tokens`; scores with other per-note durations are
rendered canonically (durations snap back to the gap rule on reparse).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

from .tokens import (
    NEW_MEASURE,
    START,
    END,
    GUITAR_TRACKS,
    TICKS_PER_QUARTER,
    TOKEN_CACHE_SIZE,
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
DEFAULT_TS = (4, 4)
BAR_TICKS_4_4 = 4 * TICKS_PER_QUARTER


class StructureError(ValueError):
    """Token stream violates score structure (not the token grammar)."""


class _NoteFields(NamedTuple):
    track: str
    onset: int
    duration: int
    midi_pitch: int
    string: int | None = None
    fret: int | None = None
    effects: tuple[str, ...] = ()


class NoteEvent(_NoteFields):
    """One note: an immutable, hashable tuple record, equal to another with
    the same fields.

    Every way of building one (the constructor, ``_make``, ``_replace``)
    runs the same checks; a tuple costs about a quarter of a
    frozen dataclass to build, and a song decodes tens of thousands.
    """

    __slots__ = ()

    def __new__(cls, track: str, onset: int, duration: int, midi_pitch: int,
                string: int | None = None, fret: int | None = None,
                effects: tuple[str, ...] = ()):
        if onset < 0:
            raise ValueError("onset must be >= 0")
        if duration <= 0:
            raise ValueError("duration must be > 0")
        if not 0 <= midi_pitch <= 127:
            raise ValueError("midi pitch outside [0, 127]")
        return tuple.__new__(cls, (track, onset, duration, midi_pitch, string, fret, effects))

    @classmethod
    def _make(cls, iterable) -> NoteEvent:
        # the inherited _replace builds its result through _make
        return cls(*iterable)

    @property
    def end(self) -> int:
        return self.onset + self.duration


@dataclass(frozen=True)
class Measure:
    index: int
    time_signature: tuple[int, int] = DEFAULT_TS
    tempo_bpm: int = DEFAULT_TEMPO
    events: tuple[NoteEvent, ...] = ()
    bar_controls: tuple[Token, ...] = ()

    @property
    def capacity(self) -> int:
        num, den = self.time_signature
        return num * (TICKS_PER_QUARTER * 4) // den

    @property
    def extent(self) -> int:
        """Ticks actually spanned: declared capacity or content end, whichever larger."""
        content = max((e.end for e in self.events), default=0)
        return max(self.capacity, content)

    def renumbered(self, index: int) -> Measure:
        """This bar at position ``index``: itself if it is there already,
        else a copy built positionally (``dataclasses.replace`` costs about
        three times as much)."""
        if index == self.index:
            return self
        return Measure(index, self.time_signature, self.tempo_bpm, self.events, self.bar_controls)


@dataclass(frozen=True)
class Score:
    artist: str | None = None
    header_tempo: int = DEFAULT_TEMPO
    header_time_signature: int = 4
    song_controls: tuple[Token, ...] = ()
    measures: tuple[Measure, ...] = ()


def _sort_key(ev: NoteEvent):
    return (ev.onset, ev.track, ev.midi_pitch, ev.string or 0)


# Module names for the categories: reading an Enum member off its class
# costs ~0.1 us, which tokens_to_score would pay several times per token.
_NOTE, _WAIT, _STRUCTURE, _EFFECT, _BAR_CONTROL, _HEADER, _SONG_CONTROL = (
    TokenCategory.NOTE, TokenCategory.WAIT, TokenCategory.STRUCTURE, TokenCategory.EFFECT,
    TokenCategory.BAR_CONTROL, TokenCategory.HEADER, TokenCategory.SONG_CONTROL)

# (track, string, fret, midi) of note tokens decoded so far, keyed on the
# raw string. Canonical spellings number 1,368: (6 guitar tracks x 6
# strings + bass x 4 strings) x 31 frets + 128 drums. Zero-padded numbers
# (``s01``) spell more, so the table stops growing at TOKEN_CACHE_SIZE.
_NOTES: dict[str, tuple[str, int | None, int | None, int]] = {}


def _decode_note(tok: Token, index: int) -> tuple[str, int | None, int | None, int]:
    """Decode a note token into ``_NOTES``. A string the track lacks or a
    pitch above MIDI 127 raises :class:`StructureError` and is not stored."""
    fields = tok.fields
    track = fields["track"]
    if track == "drums":
        note = ("drums", None, None, fields["midi"])
    else:
        tuning = DEFAULT_TUNINGS[track]
        string, fret = fields["string"], fields["fret"]
        if string > len(tuning):
            raise StructureError(
                f"token {index}: string {string} does not exist on {track} ({len(tuning)} strings)")
        midi = tuning[string - 1] + fret
        if midi > 127:
            raise StructureError(f"token {index}: pitch {midi} above midi range")
        note = (track, string, fret, midi)
    if len(_NOTES) < TOKEN_CACHE_SIZE:
        _NOTES[tok.raw] = note
    return note


def tokens_to_score(stream: list[Token]) -> Score:
    """Decode a token stream into a :class:`Score`.

    Song controls and header tokens must precede the first ``new_measure``;
    an empty stream, a note before the first measure or a string number
    outside the track's tuning raises :class:`StructureError`.
    """
    if not stream:
        raise StructureError("no tokens")  # even an empty score has a header and end
    artist = None
    header_tempo = DEFAULT_TEMPO
    header_ts = 4
    running_tempo = DEFAULT_TEMPO
    running_ts = 4
    song_controls: list[Token] = []
    measures: list[Measure] = []

    in_measure = False
    cursor = 0
    pending: list[tuple[str, int | None, int | None, int, list[str]]] = []  # track, string, fret, midi, effects
    pending_onset = 0
    events: list[NoteEvent] = []
    bar_controls: list[Token] = []
    measure_tempo = running_tempo
    measure_ts = running_ts
    ended = False

    def close_pending(upto: int | None):
        nonlocal pending
        if not pending:
            return
        capacity = measure_ts * TICKS_PER_QUARTER
        duration = (upto if upto is not None else capacity) - pending_onset
        if duration <= 0:
            duration = TICKS_PER_QUARTER  # overflowing measure; regularize_meter resolves it
        if len(pending) > 1:  # groups close in onset order: sorting each one sorts the bar
            pending.sort(key=lambda n: (n[0], n[3], n[1] or 0))
        for track, string, fret, midi, fx in pending:
            events.append(NoteEvent(track, pending_onset, duration, midi, string, fret, tuple(fx)))
        pending = []

    def close_measure():
        nonlocal events, bar_controls, cursor
        close_pending(cursor if cursor > pending_onset else None)
        measures.append(Measure(
            index=len(measures),
            time_signature=(measure_ts, 4),
            tempo_bpm=measure_tempo,
            events=tuple(events),
            bar_controls=tuple(bar_controls),
        ))
        events = []
        bar_controls = []
        cursor = 0

    for i, tok in enumerate(stream):
        if ended:
            raise StructureError(f"token {i} ({tok.raw!r}) after end")
        # branches in order of frequency
        cat = tok.category
        if cat is _NOTE:
            if not in_measure:
                raise StructureError(f"token {i}: note {tok.raw!r} before first new_measure")
            if cursor > pending_onset and pending:
                close_pending(cursor)
            if not pending:
                pending_onset = cursor
            note = _NOTES.get(tok.raw) or _decode_note(tok, i)
            pending.append((*note, []))
        elif cat is _WAIT:
            if not in_measure:
                raise StructureError(f"token {i}: wait before first new_measure")
            cursor += tok.fields["ticks"]
        elif cat is _STRUCTURE:
            if in_measure:
                close_measure()
            in_measure = True
            measure_tempo = running_tempo
            measure_ts = running_ts
        elif cat is _EFFECT:
            if pending:
                pending[-1][4].append(tok.fields["name"])
            # effects without a preceding note are tolerated and dropped
        elif cat is _BAR_CONTROL:
            if not in_measure:
                raise StructureError(f"token {i}: bar control {tok.raw!r} before first measure")
            bar_controls.append(tok)
        elif cat is _HEADER:
            key = tok.fields.get("key")
            if key == "end":
                ended = True
            elif key == "artist":
                if in_measure:
                    raise StructureError(f"token {i}: artist token after first measure")
                artist = tok.fields["value"]
            elif key == "tempo":
                running_tempo = tok.fields["value"]
                if not in_measure:
                    header_tempo = running_tempo
            elif key == "time_signature":
                running_ts = tok.fields["value"]
                if not in_measure:
                    header_ts = running_ts
            elif key == "start":
                if in_measure:
                    raise StructureError(f"token {i}: start token after first measure")
        elif cat is _SONG_CONTROL:
            if in_measure:
                raise StructureError(f"token {i}: song control {tok.raw!r} after first measure")
            song_controls.append(tok)

    if in_measure:
        close_measure()

    return Score(
        artist=artist,
        header_tempo=header_tempo,
        header_time_signature=header_ts,
        song_controls=tuple(song_controls),
        measures=tuple(measures),
    )


def score_to_tokens(score: Score, include_artist: bool = True) -> list[Token]:
    """Encode a score as a canonical token stream.

    Ordering: song controls, header (time_signature, tempo, start), then per
    measure: change tokens if tempo/metre changed, ``new_measure``, bar
    controls in cloud_diameter/cloud_momentum/tensile_strain order, events
    sorted by (onset, track, pitch) with waits merging the gaps, and a
    trailing wait covering the last group's duration. The stream closes
    with ``end``.
    """
    out: list[Token] = list(score.song_controls)
    if include_artist and score.artist:
        out.append(header_token("artist", score.artist))
    out.append(header_token("time_signature", score.header_time_signature))
    out.append(header_token("tempo", score.header_tempo))
    out.append(START)

    running_tempo = score.header_tempo
    running_ts = score.header_time_signature
    for m in score.measures:
        num, den = m.time_signature
        if den != 4:
            raise ValueError(f"token format only encodes /4 metres, got {num}/{den}")
        if num != running_ts:
            out.append(header_token("time_signature", num))
            running_ts = num
        if m.tempo_bpm != running_tempo:
            out.append(header_token("tempo", m.tempo_bpm))
            running_tempo = m.tempo_bpm
        out.append(NEW_MEASURE)
        by_feature = {t.fields["feature"]: t for t in m.bar_controls}
        for feat in TENSION_FEATURES:
            if feat in by_feature:
                out.append(by_feature[feat])

        out.extend(map(token, bar_body(m)))
    out.append(END)
    return out


def bar_body(measure: Measure) -> list[str]:
    """Raw tokens of a bar's events, as :func:`score_to_tokens` writes them
    after the bar controls: sorted by (onset, track, pitch), waits merging
    the gaps, and a trailing wait covering the last group's duration."""
    out: list[str] = []
    events = sorted(measure.events, key=_sort_key)
    cursor = 0
    i = 0
    while i < len(events):
        onset = events[i].onset
        j = i + 1
        while j < len(events) and events[j].onset == onset:  # sorted: one run per onset
            j += 1
        group = events[i:j]
        if onset > cursor:
            out.append(f"wait:{onset - cursor}")
            cursor = onset
        for ev in group:
            if ev.track == "drums":
                out.append(f"drums:note:{ev.midi_pitch}")
            else:
                out.append(f"{ev.track}:note:s{ev.string}:f{ev.fret}")
            out.extend(f"nfx:{fx}" for fx in ev.effects)
        i = j
        gap = events[i].onset - onset if i < len(events) else max(e.duration for e in group)
        out.append(f"wait:{gap}")
        cursor = onset + gap
    return out


def regularize_meter(score: Score) -> Score:
    """Force every measure to 4/4, splitting at 4-beat boundaries and
    padding short measures to a full bar.

    Note count is preserved; notes crossing a split boundary are clipped
    at the boundary. Idempotent on already-regular scores.
    """
    new_measures: list[Measure] = []
    for m in score.measures:
        n_chunks = max(1, -(-m.extent // BAR_TICKS_4_4))  # ceil
        if m.time_signature == DEFAULT_TS and n_chunks == 1:
            new_measures.append(m.renumbered(len(new_measures)))
            continue
        for c in range(n_chunks):
            lo, hi = c * BAR_TICKS_4_4, (c + 1) * BAR_TICKS_4_4
            chunk = [NoteEvent(track, onset - lo, min(duration, hi - onset), midi, string, fret, fx)
                     for track, onset, duration, midi, string, fret, fx in m.events
                     if lo <= onset < hi]
            new_measures.append(Measure(len(new_measures), DEFAULT_TS, m.tempo_bpm,
                                        tuple(sorted(chunk, key=_sort_key)),
                                        m.bar_controls if c == 0 else ()))
    return replace(score, header_time_signature=4, measures=tuple(new_measures))



def token_files(directory: str | Path) -> list[Path]:
    """The ``*.tokens`` files of a song directory, sorted by name; a
    directory holding none is an error."""
    paths = sorted(Path(directory).glob("*.tokens"))
    if not paths:
        raise ValueError(f"no *.tokens files in {directory}")
    return paths
