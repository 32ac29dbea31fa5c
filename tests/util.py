"""Random score builders shared by the test modules.

A bar is a plain tuple ``(numerator, tempo, notes, controls)`` and a note a
plain tuple ``(track, onset, duration, midi, string, fret, effects)``; a
drum note's string and fret are None, and a note may stop after its midi
pitch or its fret. :func:`columns` builds a song's ``ScoreColumns`` from
its bars and :func:`bars_of` reads them back.
"""

from __future__ import annotations

import random

import numpy as np

from looptab.score import (
    DEFAULT_TEMPO,
    DEFAULT_TUNINGS,
    TRACKS,
    ScoreColumns,
    score_to_tokens,
    tokens_to_score,
)
from looptab.tokens import TICKS_PER_QUARTER

PITCHED_TRACKS = ("distorted0", "distorted1", "clean0", "bass", "leads")
BAR = 4 * TICKS_PER_QUARTER


def columns(bars, artist=None, header_tempo=DEFAULT_TEMPO, header_time_signature=4,
            song_controls=()) -> ScoreColumns:
    """The columns of a song of plain ``bars``, each bar's notes in the
    order given."""
    effect_ids: dict[tuple[str, ...], int] = {(): 0}
    notes = []
    for b, (_, _, events, _) in enumerate(bars):
        for note in events:
            track, onset, duration, midi, string, fret, fx = (*note, *(None, None, ())[len(note) - 4:])
            notes.append((b, TRACKS.index(track), onset, duration, midi,
                          -1 if string is None else string, -1 if fret is None else fret,
                          effect_ids.setdefault(tuple(fx), len(effect_ids))))
    bar, track, onset, duration, midi, string, fret, fx = np.array(notes, np.int64).reshape(-1, 8).T
    tempo, numerator = np.array([(t, n) for n, t, _, _ in bars], np.int64).reshape(-1, 2).T
    controls = [(b, t) for b, (_, _, _, tokens) in enumerate(bars) for t in tokens]
    return ScoreColumns(artist, header_tempo, header_time_signature, tuple(song_controls),
                        tempo, numerator, np.array([b for b, _ in controls], np.int64),
                        tuple(t for _, t in controls), bar, onset, duration, midi, track,
                        string, fret, fx, tuple(effect_ids))


def bars_of(song: ScoreColumns) -> list[tuple]:
    """The plain bars of ``song``, with every note's seven fields."""
    notes = [(TRACKS[t], onset, duration, midi, None if s < 0 else s, None if f < 0 else f,
              song.effects[x])
             for t, onset, duration, midi, s, f, x in zip(
                 *(c.tolist() for c in (song.track, song.onset, song.duration, song.midi,
                                        song.string, song.fret, song.fx)))]
    bounds = song.bounds.tolist()
    controls: list[list] = [[] for _ in range(song.n_bars)]
    for b, t in zip(song.control_bar.tolist(), song.controls):
        controls[b].append(t)
    return [(numerator, tempo, notes[bounds[b]:bounds[b + 1]], tuple(controls[b]))
            for b, (numerator, tempo) in enumerate(zip(song.numerator.tolist(),
                                                       song.tempo.tolist()))]


def random_note(rng: random.Random, track: str, onset: int, duration: int) -> tuple:
    if track == "drums":
        return ("drums", onset, duration, rng.choice((36, 38, 42, 49)), None, None, ())
    tuning = DEFAULT_TUNINGS[track]
    string = rng.randint(1, len(tuning))
    fret = rng.randint(0, 12)
    effects = ("palm_mute",) if rng.random() < 0.1 else ()
    return (track, onset, duration, tuning[string - 1] + fret, string, fret, effects)


def random_measure(rng: random.Random, numerator: int = 4, tempo: int = 120,
                   with_drums: bool = True) -> tuple:
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
            note = random_note(rng, track, onset, duration)
            key = (note[0], note[4], note[5], note[3])  # track, string, fret, midi
            if key in seen:
                continue
            seen.add(key)
            events.append(note)
    return (numerator, tempo, events, ())


def random_score(rng: random.Random, max_measures: int = 8,
                 numerators=(4,), vary_tempo: bool = False) -> ScoreColumns:
    n = rng.randint(1, max_measures)
    tempo = rng.choice((90, 120, 160))
    measures = []
    for _ in range(n):
        if vary_tempo and rng.random() < 0.2:
            tempo = rng.choice((90, 120, 160))
        measures.append(random_measure(rng, rng.choice(numerators), tempo))
    return columns(measures, artist=rng.choice((None, "band")), header_tempo=measures[0][1],
                   header_time_signature=measures[0][0])


def canonical(song: ScoreColumns) -> ScoreColumns:
    """Normalize durations to the token format's gap convention."""
    return tokens_to_score(score_to_tokens(song))


def bar_block(rng: random.Random, n_events: int = 4) -> list[tuple]:
    """A self-contained 4/4 bar of notes starting on the bar boundary."""
    onsets = sorted(rng.sample(range(0, BAR, 480), k=min(n_events, 8)))
    if not onsets or onsets[0] != 0:
        onsets = [0] + onsets
    events = []
    for i, onset in enumerate(onsets):
        nxt = onsets[i + 1] if i + 1 < len(onsets) else BAR
        events.append(random_note(rng, rng.choice(PITCHED_TRACKS), onset, nxt - onset))
    return events


def block_bars(blocks: dict[str, list[tuple]], sequence, tempo: int = DEFAULT_TEMPO) -> list[tuple]:
    """4/4 bars whose bar i holds the notes blocks[sequence[i]]."""
    return [(4, tempo, blocks[b], ()) for b in sequence]


def interned_ids(keys) -> list[int]:
    """Each key's id among the distinct keys, numbered by first occurrence."""
    ids: dict = {}
    return [ids.setdefault(key, len(ids)) for key in keys]


def group_notes(groups, rows) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The (pitches, durations) of each of the onset groups ``rows`` of
    ``loops._onset_groups``'s result ``groups``."""
    bounds, pitch, duration = (c.tolist() for c in (groups.bounds, groups.pitch, groups.duration))
    return [(tuple(pitch[bounds[i]:bounds[i + 1]]), tuple(duration[bounds[i]:bounds[i + 1]]))
            for i in rows]


def dense(distribution, size: int) -> np.ndarray:
    """The vocabulary-length vector of a sparse ``(indices, probs, rest)``
    next-token distribution: ``rest`` wherever no probability is listed."""
    indices, probs, rest = distribution
    vector = np.full(size, rest)
    vector[indices] = probs
    return vector
