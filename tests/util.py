"""Random score builders shared by the test modules."""

from __future__ import annotations

import random

import numpy as np

from looptab.score import (
    DEFAULT_TUNINGS,
    Measure,
    NoteEvent,
    Score,
    score_to_tokens,
    tokens_to_score,
)
from looptab.tokens import TICKS_PER_QUARTER

PITCHED_TRACKS = ("distorted0", "distorted1", "clean0", "bass", "leads")
BAR = 4 * TICKS_PER_QUARTER


def random_note(rng: random.Random, track: str, onset: int, duration: int) -> NoteEvent:
    if track == "drums":
        return NoteEvent("drums", onset, duration, rng.choice((36, 38, 42, 49)))
    tuning = DEFAULT_TUNINGS[track]
    string = rng.randint(1, len(tuning))
    fret = rng.randint(0, 12)
    effects = ("palm_mute",) if rng.random() < 0.1 else ()
    return NoteEvent(track, onset, duration, tuning[string - 1] + fret, string, fret, effects)


def random_measure(rng: random.Random, index: int, numerator: int = 4,
                   tempo: int = 120, with_drums: bool = True) -> Measure:
    capacity = numerator * TICKS_PER_QUARTER
    grid = list(range(0, capacity, 480))
    onsets = sorted(rng.sample(grid, k=rng.randint(0, min(4, len(grid)))))
    events = []
    for i, onset in enumerate(onsets):
        nxt = onsets[i + 1] if i + 1 < len(onsets) else capacity
        # keep notes inside 4-beat chunks so meter regularization never clips
        duration = min(nxt, (onset // BAR + 1) * BAR) - onset
        tracks = rng.sample(PITCHED_TRACKS, k=rng.randint(1, 2))
        if with_drums and rng.random() < 0.3:
            tracks.append("drums")
        seen = set()
        for track in tracks:
            ev = random_note(rng, track, onset, duration)
            key = (ev.track, ev.string, ev.fret, ev.midi_pitch)
            if key in seen:
                continue
            seen.add(key)
            events.append(ev)
    return Measure(index=index, time_signature=(numerator, 4), tempo_bpm=tempo,
                   events=tuple(events))


def random_score(rng: random.Random, max_measures: int = 8,
                 numerators=(4,), vary_tempo: bool = False) -> Score:
    n = rng.randint(1, max_measures)
    tempo = rng.choice((90, 120, 160))
    measures = []
    for i in range(n):
        if vary_tempo and rng.random() < 0.2:
            tempo = rng.choice((90, 120, 160))
        measures.append(random_measure(rng, i, rng.choice(numerators), tempo))
    return Score(
        artist=rng.choice((None, "band")),
        header_tempo=measures[0].tempo_bpm,
        header_time_signature=measures[0].time_signature[0],
        measures=tuple(measures),
    )


def canonical(score: Score) -> Score:
    """Normalize durations to the token format's gap convention."""
    return tokens_to_score(score_to_tokens(score))


def bar_block(rng: random.Random, n_events: int = 4) -> list[NoteEvent]:
    """A self-contained 4/4 bar of events starting on the bar boundary."""
    onsets = sorted(rng.sample(range(0, BAR, 480), k=min(n_events, 8)))
    if not onsets or onsets[0] != 0:
        onsets = [0] + onsets
    events = []
    for i, onset in enumerate(onsets):
        nxt = onsets[i + 1] if i + 1 < len(onsets) else BAR
        events.append(random_note(rng, rng.choice(PITCHED_TRACKS), onset, nxt - onset))
    return events


def score_from_blocks(blocks: dict[str, list[NoteEvent]], sequence: str) -> Score:
    """Regularized 4/4 score whose bar i holds blocks[sequence[i]]."""
    measures = tuple(
        Measure(index=i, events=tuple(blocks[b]))
        for i, b in enumerate(sequence)
    )
    return Score(header_tempo=120, header_time_signature=4, measures=measures)


def dense(distribution, size: int) -> np.ndarray:
    """The vocabulary-length vector of a sparse ``(indices, probs, rest)``
    next-token distribution: ``rest`` wherever no probability is listed."""
    indices, probs, rest = distribution
    vector = np.full(size, rest)
    vector[indices] = probs
    return vector
