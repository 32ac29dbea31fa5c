"""Bar-aligned loop extraction.

The score is flattened into its onset groups (all tracks merged), each
numbered by its (notes, gap) fingerprint. A loop is a repeat whose two
occurrences both start on a bar boundary, ``min_loop_bars`` to
``max_loop_bars`` bars apart; the loop body is the bar range between the
two starts. Only those bar pairs are tried, at one pass over the events
per distinct tick lag between them, so no song is too long to search.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import accumulate

import numpy as np

from .score import Score
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


def bar_offsets(score: Score) -> list[int]:
    """Absolute start tick of each measure, plus the end tick of the score."""
    offsets = [0]
    for m in score.measures:
        offsets.append(offsets[-1] + m.capacity)
    return offsets


def _onset_groups(score: Score) -> tuple[list[int], list[tuple], list[int]]:
    """Every distinct absolute onset in time order, the sorted (track, midi,
    duration) notes sounding from it, and its gap to the next onset (the
    last one's to the end of the score)."""
    offsets = bar_offsets(score)
    groups: dict[int, list[tuple[str, int, int]]] = {}
    for m in score.measures:
        base = offsets[m.index]
        for track, onset, duration, midi, _, _, _ in m.events:
            at = base + onset
            group = groups.get(at)
            if group is None:
                groups[at] = [(track, midi, duration)]
            else:
                group.append((track, midi, duration))
    onsets = sorted(groups)
    gaps = [max(nxt - at, 0) for at, nxt in zip(onsets, onsets[1:] + [offsets[-1]])]
    return onsets, [tuple(sorted(groups[at])) for at in onsets], gaps


def fingerprint_sequence(score: Score) -> list[EventFingerprint]:
    return [EventFingerprint(notes, gap, at) for at, notes, gap in zip(*_onset_groups(score))]


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


def extract_loops(score: Score, params: LoopParams = DEFAULT_PARAMS) -> list[LoopSpan]:
    """Bar-aligned loop spans of a regularized score.

    For every pair of bars s and s + k with k in [min_loop_bars,
    max_loop_bars] whose starts both hold an onset, the fingerprints are
    matched forward from the two onsets; when the match meets the
    repetition thresholds (events and beats), bars [s, s + k) are a loop.
    Repeats starting off the bar grid are discarded, not shifted.
    """
    at, notes, gaps = _onset_groups(score)
    offsets = bar_offsets(score)
    interned: dict[tuple, int] = {}  # (notes, gap): the fields EventFingerprint compares
    ids = np.array([interned.setdefault(key, len(interned)) for key in zip(notes, gaps)],
                   dtype=np.int64)
    onsets = np.array(at, dtype=np.int64)
    ticks = list(accumulate(gaps, initial=0))
    at_index = {onset: i for i, onset in enumerate(at)}
    min_ticks = params.min_rep_beats * TICKS_PER_QUARTER
    n_bars = len(score.measures)

    runs: dict[int, np.ndarray] = {}
    spans = []
    for s in range(n_bars):
        a = at_index.get(offsets[s])
        if a is None:
            continue
        for e in range(s + params.min_loop_bars, min(s + params.max_loop_bars, n_bars - 1) + 1):
            if offsets[e] not in at_index:
                continue
            lag = offsets[e] - offsets[s]
            if lag not in runs:
                runs[lag] = _match_lengths(onsets, ids, lag)
            length = int(runs[lag][a])
            if length >= params.min_rep_notes and ticks[a + length] - ticks[a] >= min_ticks:
                spans.append(LoopSpan(s, e, length))

    if not params.allow_overlap:
        kept: list[LoopSpan] = []
        for span in spans:
            if not kept or span.start_bar >= kept[-1].end_bar:
                kept.append(span)
        spans = kept
    return spans


def splice_loop(score: Score, span: LoopSpan) -> Score:
    """New score containing exactly the span's bars, rebased to measure 0."""
    if not 0 <= span.start_bar < span.end_bar <= len(score.measures):
        raise ValueError(f"span [{span.start_bar}, {span.end_bar}) out of range "
                         f"for {len(score.measures)}-bar score")
    bars = score.measures[span.start_bar:span.end_bar]
    return replace(score, measures=tuple(m.renumbered(i) for i, m in enumerate(bars)))
