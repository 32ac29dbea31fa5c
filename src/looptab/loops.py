"""Bar-aligned loop extraction.

The note columns of one song, or of every song of a batch at once, are
flattened into their onset groups (all tracks merged), each tagged with
its song and numbered by its (notes, gap) fingerprint: a group is a run
of (gap, duration, pitch) rows, one per note, and the runs of the whole
batch are numbered at once by array sorts (:func:`score._distinct_runs`),
equal fingerprints getting equal ids. A loop is a repeat whose two
occurrences both start on a bar boundary of one song, ``min_loop_bars``
to ``max_loop_bars`` bars apart; the loop body is the bar range between
the two starts. Only those bar pairs are tried, at one pass over the
events of the whole batch per distinct tick lag between them, so no song
is too long to search, and no match runs from one song into the next.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .config import LoopParams
from .score import TRACKS, ScoreColumns, _distinct_runs, bar_slice, key_order
from .tokens import TICKS_PER_QUARTER

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


class _OnsetGroups(NamedTuple):
    """Every distinct onset of a song, or of each song of a batch, in time
    order: its tick, fingerprint id, gap to the next onset of its song (a
    song's last one's to the song's end) and song, with the tick of each
    bar's start. Equal (notes, gap) fingerprints, the fields
    :class:`EventFingerprint` compares, have equal ids, numbered in order
    of first occurrence. The notes sounding from onset ``i`` are
    ``bounds[i]:bounds[i + 1]`` of ``pitch`` (track id * 128 + midi) and
    ``duration``, sorted by pitch, then duration."""

    onsets: np.ndarray
    ids: np.ndarray
    gaps: np.ndarray
    songs: np.ndarray
    bar_at: np.ndarray
    bounds: np.ndarray
    pitch: np.ndarray
    duration: np.ndarray


def _onset_groups(song: ScoreColumns, starts: np.ndarray | None = None) -> _OnsetGroups:
    """The :class:`_OnsetGroups` of ``song``, all tracks merged; ``starts``
    are the bar offsets of regularized songs, whose notes end inside them
    (None: one song). A fingerprint is a run of (gap, duration, pitch)
    rows, one per note, numbered with the other runs by
    :func:`score._distinct_runs`."""
    if starts is None:
        starts = np.array([0, song.n_bars])
    offsets = bar_offsets(song)
    note_song = np.repeat(np.arange(len(starts) - 1), np.diff(starts))[song.bar]
    at = offsets[song.bar] + song.onset
    end = offsets[starts[1:]]
    pitch = song.track * 128 + song.midi
    order = key_order((song.duration, pitch, at))
    at, pitch, duration, note_song = at[order], pitch[order], song.duration[order], note_song[order]
    head = np.empty(len(at), bool)
    head[:1] = True
    np.not_equal(at[1:], at[:-1], out=head[1:])
    bounds = np.append(head.nonzero()[0], len(at))
    heads = bounds[:-1]
    onsets, songs = at[heads], note_song[heads]
    gaps = np.empty_like(onsets)
    gaps[:-1] = onsets[1:] - onsets[:-1]
    last = np.ones(len(onsets), bool)
    np.not_equal(songs[1:], songs[:-1], out=last[:-1])
    gaps[last] = np.maximum(end[songs[last]] - onsets[last], 0)
    _, ids = _distinct_runs((np.repeat(gaps, np.diff(bounds)), duration, pitch), bounds)
    return _OnsetGroups(onsets, ids, gaps, songs, offsets[:song.n_bars], bounds, pitch, duration)


def fingerprint_sequence(song: ScoreColumns) -> list[EventFingerprint]:
    groups = _onset_groups(song)
    notes = list(zip(map(TRACKS.__getitem__, (groups.pitch // 128).tolist()),
                     (groups.pitch % 128).tolist(), groups.duration.tolist()))
    bounds = groups.bounds.tolist()
    return [EventFingerprint(tuple(notes[a:b]), gap, at) for at, a, b, gap in
            zip(groups.onsets.tolist(), bounds, bounds[1:], groups.gaps.tolist())]


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
    onsets, ids, gaps, songs, bar_at, *_ = _onset_groups(song, starts)
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
    return [LoopSpan(s, s + k, length) for s, k, length in sorted(found)]


def splice_loop(song: ScoreColumns, span: LoopSpan) -> ScoreColumns:
    """New score holding exactly the span's bars, renumbered from 0."""
    start, end = span.start_bar, span.end_bar
    if not 0 <= start < end <= song.n_bars:
        raise ValueError(f"span [{start}, {end}) out of range for {song.n_bars}-bar score")
    return bar_slice(song, start, end)
