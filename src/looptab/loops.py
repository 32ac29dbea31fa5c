"""Bar-aligned loop extraction.

The score's note columns are flattened into their onset groups (all
tracks merged), each numbered by its (notes, gap) fingerprint. A loop is a repeat whose two
occurrences both start on a bar boundary, ``min_loop_bars`` to
``max_loop_bars`` bars apart; the loop body is the bar range between the
two starts. Only those bar pairs are tried, at one pass over the events
per distinct tick lag between them, so no song is too long to search.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import count, repeat

import numpy as np

from .score import TRACKS, ScoreColumns
from .tokens import TICKS_PER_QUARTER


@dataclass(frozen=True)
class LoopParams:
    min_rep_notes: int = 4
    min_rep_beats: int = 2
    min_loop_bars: int = 4
    max_loop_bars: int = 4
    allow_overlap: bool = True

    def __post_init__(self):
        if min(self.min_rep_notes, self.min_rep_beats, self.min_loop_bars, self.max_loop_bars) <= 0:
            raise ValueError("loop parameters must be positive")
        if self.min_loop_bars > self.max_loop_bars:
            raise ValueError("min_loop_bars must be <= max_loop_bars")


DEFAULT_PARAMS = LoopParams()


@dataclass(frozen=True)
class EventFingerprint:
    """All notes sharing one onset plus the gap to the next onset.

    Equality covers the note set and the gap only; the onset is excluded
    so copies at different positions still compare.
    """

    notes: tuple[tuple[str, int, int], ...]  # (track, midi, duration), sorted
    gap: int
    onset: int = field(compare=False)


@dataclass(frozen=True, order=True)
class LoopSpan:
    start_bar: int
    end_bar: int  # exclusive
    repetition_length_events: int


def bar_offsets(song: ScoreColumns) -> np.ndarray:
    """Absolute start tick of each bar, plus the end tick of the score."""
    offsets = np.zeros(song.n_bars + 1, np.int64)
    song.capacity.cumsum(out=offsets[1:])
    return offsets


def _onset_groups(song: ScoreColumns) -> tuple[np.ndarray, list[bytes], np.ndarray]:
    """Every distinct absolute onset in time order, the notes sounding from
    it, and its gap to the next onset (the last one's to the end of the
    score). A group's notes are the bytes of its sorted (track id * 128 +
    midi, duration) pairs, so equal bytes are equal note sets."""
    offsets = bar_offsets(song)
    at = offsets[song.bar] + song.onset
    pitch = song.track * 128 + song.midi
    order = np.lexsort((song.duration, pitch, at))
    at, pitch, duration = at[order], pitch[order], song.duration[order]
    head = np.empty(len(at), bool)
    head[:1] = True
    np.not_equal(at[1:], at[:-1], out=head[1:])
    heads = head.nonzero()[0]
    onsets = at[heads]
    gaps = np.empty_like(onsets)
    gaps[:-1] = onsets[1:] - onsets[:-1]
    gaps[-1:] = np.maximum(offsets[-1] - onsets[-1:], 0)
    notes = np.empty((len(at), 2), np.int64)
    notes[:, 0] = pitch
    notes[:, 1] = duration
    blob = notes.tobytes()
    bounds = (heads * notes.strides[0]).tolist()
    return onsets, list(map(blob.__getitem__, map(slice, bounds, bounds[1:] + [len(blob)]))), gaps


def fingerprint_sequence(song: ScoreColumns) -> list[EventFingerprint]:
    onsets, notes, gaps = _onset_groups(song)
    return [EventFingerprint(tuple((TRACKS[p // 128], p % 128, duration) for p, duration in
                                   np.frombuffer(group, np.int64).reshape(-1, 2).tolist()), gap, at)
            for at, group, gap in zip(onsets.tolist(), notes, gaps.tolist())]


def _match_lengths(onsets: np.ndarray, ids: np.ndarray, lag: int) -> np.ndarray:
    """Forward match length from every event against the event ``lag`` ticks later.

    Equal fingerprints carry equal gaps, so a match keeps the same tick lag
    all along; the partner of event i is the onset at ``onsets[i] + lag``.
    """
    n = len(onsets)
    target = onsets + lag
    partner = np.minimum(np.searchsorted(onsets, target), n - 1)
    match = (onsets[partner] == target) & (ids[partner] == ids)
    index = np.arange(n)
    first_miss = np.minimum.accumulate(np.where(match, n, index)[::-1])[::-1]
    return first_miss - index


def extract_loops(song: ScoreColumns,
                  params: LoopParams = DEFAULT_PARAMS) -> list[LoopSpan]:
    """Bar-aligned loop spans of a regularized score.

    For every pair of bars s and s + k with k in [min_loop_bars,
    max_loop_bars] whose starts both hold an onset, the fingerprints are
    matched forward from the two onsets; when the match meets the
    repetition thresholds (events and beats), bars [s, s + k) are a loop.
    Repeats starting off the bar grid are discarded, not shifted.
    """
    onsets, notes, gaps = _onset_groups(song)
    # equal (notes, gap), the fields EventFingerprint compares, get equal ids
    ids = np.fromiter(map({}.setdefault, zip(notes, gaps.tolist()), count()), np.int64, len(notes))
    ticks = np.zeros(len(gaps) + 1, np.int64)
    gaps.cumsum(out=ticks[1:])
    starts = bar_offsets(song)[:-1]
    at = onsets.searchsorted(starts)  # the onset at each bar's start, where one is
    held = np.append(onsets, -1)[at] == starts
    min_ticks = params.min_rep_beats * TICKS_PER_QUARTER

    runs: dict[int, np.ndarray] = {}
    found = []
    for k in range(params.min_loop_bars, min(params.max_loop_bars, len(starts) - 1) + 1):
        s = (held[:-k] & held[k:]).nonzero()[0]
        a, lags = at[s], starts[s + k] - starts[s]
        lengths = np.zeros(len(s), np.int64)
        for lag in set(lags.tolist()):
            if lag not in runs:
                runs[lag] = _match_lengths(onsets, ids, lag)
            same = lags == lag
            lengths[same] = runs[lag][a[same]]
        loop = (lengths >= params.min_rep_notes) & (ticks[a + lengths] - ticks[a] >= min_ticks)
        found.extend(zip(s[loop].tolist(), repeat(k), lengths[loop].tolist()))
    spans = [LoopSpan(s, s + k, length) for s, k, length in sorted(found)]

    if not params.allow_overlap:
        kept: list[LoopSpan] = []
        for span in spans:
            if not kept or span.start_bar >= kept[-1].end_bar:
                kept.append(span)
        spans = kept
    return spans


def splice_loop(song: ScoreColumns, span: LoopSpan) -> ScoreColumns:
    """New score holding exactly the span's bars, renumbered from 0."""
    start, end = span.start_bar, span.end_bar
    if not 0 <= start < end <= song.n_bars:
        raise ValueError(f"span [{start}, {end}) out of range for {song.n_bars}-bar score")
    lo, hi = song.bar.searchsorted([start, end]).tolist()
    kept = (song.control_bar >= start) & (song.control_bar < end)
    return replace(
        song, tempo=song.tempo[start:end], numerator=song.numerator[start:end],
        control_bar=song.control_bar[kept] - start,
        controls=tuple(t for t, k in zip(song.controls, kept.tolist()) if k),
        bar=song.bar[lo:hi] - start, onset=song.onset[lo:hi], duration=song.duration[lo:hi],
        midi=song.midi[lo:hi], track=song.track[lo:hi], string=song.string[lo:hi],
        fret=song.fret[lo:hi], fx=song.fx[lo:hi])
