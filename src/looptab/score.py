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

import dataclasses
from dataclasses import dataclass
from pathlib import Path

from .tokens import (
    NEW_MEASURE,
    START,
    END,
    GUITAR_TRACKS,
    TICKS_PER_QUARTER,
    Token,
    TokenCategory,
    TENSION_FEATURES,
    drum_token,
    header_token,
    note_token,
    token,
    wait_token,
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


@dataclass(frozen=True)
class NoteEvent:
    track: str
    onset: int
    duration: int
    midi_pitch: int
    string: int | None = None
    fret: int | None = None
    effects: tuple[str, ...] = ()

    def __post_init__(self):
        if self.onset < 0:
            raise ValueError("onset must be >= 0")
        if self.duration <= 0:
            raise ValueError("duration must be > 0")
        if not 0 <= self.midi_pitch <= 127:
            raise ValueError("midi pitch outside [0, 127]")

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


@dataclass(frozen=True)
class Score:
    artist: str | None = None
    header_tempo: int = DEFAULT_TEMPO
    header_time_signature: int = 4
    song_controls: tuple[Token, ...] = ()
    measures: tuple[Measure, ...] = ()


def _sort_key(ev: NoteEvent):
    return (ev.onset, ev.track, ev.midi_pitch, ev.string or 0)


def tokens_to_score(stream: list[Token]) -> Score:
    """Decode a token stream into a :class:`Score`.

    Song controls and header tokens must precede the first ``new_measure``;
    a note before the first measure or a string number outside the track's
    tuning raises :class:`StructureError`.
    """
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
            events=tuple(sorted(events, key=_sort_key)),
            bar_controls=tuple(bar_controls),
        ))
        events = []
        bar_controls = []
        cursor = 0

    for i, tok in enumerate(stream):
        if ended:
            raise StructureError(f"token {i} ({tok.raw!r}) after end")
        cat = tok.category
        if cat is TokenCategory.STRUCTURE:
            if in_measure:
                close_measure()
            in_measure = True
            measure_tempo = running_tempo
            measure_ts = running_ts
        elif cat is TokenCategory.HEADER:
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
        elif cat is TokenCategory.SONG_CONTROL:
            if in_measure:
                raise StructureError(f"token {i}: song control {tok.raw!r} after first measure")
            song_controls.append(tok)
        elif cat is TokenCategory.BAR_CONTROL:
            if not in_measure:
                raise StructureError(f"token {i}: bar control {tok.raw!r} before first measure")
            bar_controls.append(tok)
        elif cat is TokenCategory.NOTE:
            if not in_measure:
                raise StructureError(f"token {i}: note {tok.raw!r} before first new_measure")
            if cursor > pending_onset and pending:
                close_pending(cursor)
            if not pending:
                pending_onset = cursor
            track = tok.fields["track"]
            if track == "drums":
                pending.append(("drums", None, None, tok.fields["midi"], []))
            else:
                tuning = DEFAULT_TUNINGS[track]
                string = tok.fields["string"]
                if string > len(tuning):
                    raise StructureError(
                        f"token {i}: string {string} does not exist on {track} ({len(tuning)} strings)")
                midi = tuning[string - 1] + tok.fields["fret"]
                if midi > 127:
                    raise StructureError(f"token {i}: pitch {midi} above midi range")
                pending.append((track, string, tok.fields["fret"], midi, []))
        elif cat is TokenCategory.WAIT:
            if not in_measure:
                raise StructureError(f"token {i}: wait before first new_measure")
            cursor += tok.fields["ticks"]
        elif cat is TokenCategory.EFFECT:
            if pending:
                pending[-1][4].append(tok.fields["name"])
            # effects without a preceding note are tolerated and dropped

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

        events = sorted(m.events, key=_sort_key)
        cursor = 0
        i = 0
        while i < len(events):
            onset = events[i].onset
            group = [e for e in events[i:] if e.onset == onset]
            if onset > cursor:
                out.append(wait_token(onset - cursor))
                cursor = onset
            for ev in group:
                if ev.track == "drums":
                    out.append(drum_token(ev.midi_pitch))
                else:
                    out.append(note_token(ev.track, ev.string, ev.fret))
                for fx in ev.effects:
                    out.append(token(f"nfx:{fx}"))
            i += len(group)
            if i < len(events):
                gap = events[i].onset - onset
            else:
                gap = max(e.duration for e in group)
            out.append(wait_token(gap))
            cursor = onset + gap
    out.append(END)
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
            new_measures.append(dataclasses.replace(m, index=len(new_measures)))
            continue
        for c in range(n_chunks):
            lo, hi = c * BAR_TICKS_4_4, (c + 1) * BAR_TICKS_4_4
            chunk = []
            for ev in m.events:
                if lo <= ev.onset < hi:
                    dur = min(ev.duration, hi - ev.onset)
                    chunk.append(dataclasses.replace(ev, onset=ev.onset - lo, duration=dur))
            new_measures.append(Measure(
                index=len(new_measures),
                time_signature=DEFAULT_TS,
                tempo_bpm=m.tempo_bpm,
                events=tuple(sorted(chunk, key=_sort_key)),
                bar_controls=m.bar_controls if c == 0 else (),
            ))
    return dataclasses.replace(score, header_time_signature=4, measures=tuple(new_measures))



def token_files(directory: str | Path) -> list[Path]:
    """The ``*.tokens`` files of a song directory, sorted by name; a
    directory holding none is an error."""
    paths = sorted(Path(directory).glob("*.tokens"))
    if not paths:
        raise ValueError(f"no *.tokens files in {directory}")
    return paths
