"""Bar-aligned loop extraction.

The note columns of one song, or of every song of a batch at once, are
flattened into their onset groups (all tracks merged), each numbered by
its (notes, gap) fingerprint and tagged with its song. A loop is a repeat
whose two occurrences both start on a bar boundary of one song,
``min_loop_bars`` to ``max_loop_bars`` bars apart; the loop body is the
bar range between the two starts. Only those bar pairs are tried, at one
pass over the events of the whole batch per distinct tick lag between
them, so no song is too long to search, and no match runs from one song
into the next.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count, repeat

import numpy as np

from .score import TRACKS, ScoreColumns, bar_slice
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


def _onset_groups(song: ScoreColumns, starts: np.ndarray | None = None):
    """Every distinct onset in time order, the notes sounding from it, its
    gap to the next onset of its song (a song's last one's to the song's
    end), its song, and the tick of each bar's start; ``starts`` are the
    bar offsets of regularized songs, whose notes end inside them (None:
    one song). A group's notes are the bytes of its sorted (track id * 128
    + midi, duration) pairs, so equal bytes are equal note sets."""
    if starts is None:
        starts = np.array([0, song.n_bars])
    offsets = bar_offsets(song)
    note_song = np.repeat(np.arange(len(starts) - 1), np.diff(starts))[song.bar]
    at = offsets[song.bar] + song.onset
    end = offsets[starts[1:]]
    pitch = song.track * 128 + song.midi
    order = np.lexsort((song.duration, pitch, at))
    at, pitch, duration, note_song = at[order], pitch[order], song.duration[order], note_song[order]
    head = np.empty(len(at), bool)
    head[:1] = True
    np.not_equal(at[1:], at[:-1], out=head[1:])
    heads = head.nonzero()[0]
    onsets, songs = at[heads], note_song[heads]
    gaps = np.empty_like(onsets)
    gaps[:-1] = onsets[1:] - onsets[:-1]
    last = np.ones(len(onsets), bool)
    np.not_equal(songs[1:], songs[:-1], out=last[:-1])
    gaps[last] = np.maximum(end[songs[last]] - onsets[last], 0)
    notes = np.empty((len(at), 2), np.int64)
    notes[:, 0] = pitch
    notes[:, 1] = duration
    blob = notes.tobytes()
    bounds = (heads * notes.strides[0]).tolist()
    groups = list(map(blob.__getitem__, map(slice, bounds, bounds[1:] + [len(blob)])))
    return onsets, groups, gaps, songs, offsets[:song.n_bars]


def fingerprint_sequence(song: ScoreColumns) -> list[EventFingerprint]:
    onsets, notes, gaps, _, _ = _onset_groups(song)
    return [EventFingerprint(tuple((TRACKS[p // 128], p % 128, duration) for p, duration in
                                   np.frombuffer(group, np.int64).reshape(-1, 2).tolist()), gap, at)
            for at, group, gap in zip(onsets.tolist(), notes, gaps.tolist())]


def _match_lengths(onsets: np.ndarray, ids: np.ndarray, songs: np.ndarray, lag: int) -> np.ndarray:
    """Forward match length from every event against the event ``lag``
    ticks later in its song.

    Equal fingerprints carry equal gaps, so a match keeps the same tick lag
    all along; the partner of event i is the onset at ``onsets[i] + lag``.
    A song's last event has no partner in its song, so no match runs into
    the next song.
    """
    n = len(onsets)
    target = onsets + lag
    partner = np.minimum(np.searchsorted(onsets, target), n - 1)
    match = (onsets[partner] == target) & (ids[partner] == ids) & (songs[partner] == songs)
    index = np.arange(n)
    first_miss = np.minimum.accumulate(np.where(match, n, index)[::-1])[::-1]
    return first_miss - index


def extract_loops(song: ScoreColumns, params: LoopParams = DEFAULT_PARAMS,
                  starts: np.ndarray | None = None) -> list[LoopSpan]:
    """Bar-aligned loop spans of a regularized score, or of every song of
    a batch of them whose songs' bar offsets are ``starts`` (spans then
    number the batch's bars).

    For every pair of bars s and s + k with k in [min_loop_bars,
    max_loop_bars] whose starts both hold an onset, the fingerprints are
    matched forward from the two onsets; when the match meets the
    repetition thresholds (events and beats), bars [s, s + k) are a loop.
    Bars of two songs never match, since no event matches one of another
    song. Repeats starting off the bar grid are discarded, not shifted.
    """
    onsets, notes, gaps, songs, bar_at = _onset_groups(song, starts)
    # equal (notes, gap), the fields EventFingerprint compares, get equal ids
    ids = np.fromiter(map({}.setdefault, zip(notes, gaps.tolist()), count()), np.int64, len(notes))
    ticks = np.zeros(len(gaps) + 1, np.int64)
    gaps.cumsum(out=ticks[1:])
    at = onsets.searchsorted(bar_at)  # the onset at each bar's start, where one is
    held = np.append(onsets, -1)[at] == bar_at
    min_ticks = params.min_rep_beats * TICKS_PER_QUARTER

    runs: dict[int, np.ndarray] = {}
    found = []
    for k in range(params.min_loop_bars, min(params.max_loop_bars, len(bar_at) - 1) + 1):
        s = (held[:-k] & held[k:]).nonzero()[0]
        a, lags = at[s], bar_at[s + k] - bar_at[s]
        lengths = np.zeros(len(s), np.int64)
        for lag in set(lags.tolist()):
            if lag not in runs:
                runs[lag] = _match_lengths(onsets, ids, songs, lag)
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
    return bar_slice(song, start, end)
