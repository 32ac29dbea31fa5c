import random
from dataclasses import replace

import pytest

from looptab.loops import (
    DEFAULT_PARAMS,
    EventFingerprint,
    LoopParams,
    LoopSpan,
    bar_offsets,
    extract_loops,
    fingerprint_sequence,
    splice_loop,
)
from looptab.score import Measure, NoteEvent, Score
from looptab.tokens import TICKS_PER_QUARTER

from util import BAR, bar_block, score_from_blocks

QUARTER = TICKS_PER_QUARTER


def fp(label: str, gap: int = QUARTER, onset: int = 0) -> EventFingerprint:
    return EventFingerprint(notes=(("clean0", 60 + ord(label) - ord("a"), gap),),
                            gap=gap, onset=onset)


# fingerprints ----------------------------------------------------------------

def test_fingerprint_equality_ignores_position():
    assert fp("a", onset=0) == fp("a", onset=7680)


def test_fingerprint_equality_includes_gap():
    assert fp("a", gap=480) != fp("a", gap=960)


def test_fingerprint_sequence_merges_tracks_and_sorts():
    m = Measure(index=0, events=(
        NoteEvent("distorted0", 0, 960, 52, 5, 7),
        NoteEvent("bass", 0, 960, 40, 3, 7),
        NoteEvent("clean0", 960, 2880, 64, 1, 0),
    ))
    seq = fingerprint_sequence(Score(measures=(m,)))
    assert len(seq) == 2
    assert seq[0].notes == (("bass", 40, 960), ("distorted0", 52, 960))
    assert seq[0].gap == 960
    assert seq[1].gap == 2880  # runs to the end of the bar
    assert [f.onset for f in seq] == [0, 960]


def test_bar_offsets():
    score = Score(measures=(Measure(0), Measure(1), Measure(2)))
    assert bar_offsets(score) == [0, BAR, 2 * BAR, 3 * BAR]


# loop extraction -------------------------------------------------------------

def blocks(rng, labels="ABC", n_events=4):
    return {c: bar_block(rng, n_events) for c in labels}


def test_extract_simple_four_bar_loop():
    rng = random.Random(1)
    b = blocks(rng)
    score = score_from_blocks(b, "ABCAABCA")
    spans = extract_loops(score)
    assert LoopSpan(0, 4, sum(len(b[c]) for c in "ABCA")) in spans


def test_no_loop_when_pattern_shorter_than_four_bars():
    rng = random.Random(2)
    b = blocks(rng, "ABC")
    score = score_from_blocks(b, "ABABC")
    assert extract_loops(score) == []
    assert extract_loops(score, LoopParams(min_loop_bars=2, max_loop_bars=2)) != []


def test_offgrid_repeat_is_discarded():
    # a periodic pattern whose onsets never touch a bar boundary: the
    # repeats are real but none is bar-aligned, so nothing is extracted
    measures = []
    for i in range(10):
        events = tuple(NoteEvent("clean0", t, 480, 64, 1, 0)
                       for t in (range(1920, BAR, 480) if i % 2 == 0 else ()))
        measures.append(Measure(index=i, events=events))
    score = Score(measures=tuple(measures))
    seq = fingerprint_sequence(score)
    assert seq[:4] == seq[4:8] and seq[4].onset - seq[0].onset == 2 * BAR
    assert not {f.onset for f in seq} & set(bar_offsets(score))
    assert extract_loops(score) == []


def oracle_loops(score: Score, params: LoopParams = DEFAULT_PARAMS) -> list[LoopSpan]:
    """O(n^3) reference: try every bar-aligned occurrence pair directly."""
    seq = fingerprint_sequence(score)
    offsets = bar_offsets(score)
    at_index = {f.onset: i for i, f in enumerate(seq)}
    min_ticks = params.min_rep_beats * QUARTER
    found = {}
    for s1 in range(len(score.measures)):
        for bars in range(params.min_loop_bars, params.max_loop_bars + 1):
            s2 = s1 + bars
            if s2 >= len(score.measures):
                continue
            a = at_index.get(offsets[s1])
            b = at_index.get(offsets[s2])
            if a is None or b is None:
                continue
            m = 0
            while b + m < len(seq) and seq[a + m] == seq[b + m]:
                m += 1
            if m < params.min_rep_notes:
                continue
            if sum(f.gap for f in seq[a:a + m]) < min_ticks:
                continue
            key = (s1, s2)
            found[key] = max(found.get(key, 0), m)
    return sorted(LoopSpan(s, e, n) for (s, e), n in found.items())


def random_params(rng) -> LoopParams:
    min_bars = rng.randint(1, 7)
    return LoopParams(min_rep_notes=rng.randint(1, 6), min_rep_beats=rng.randint(1, 8),
                      min_loop_bars=min_bars, max_loop_bars=rng.randint(min_bars, 7))


def test_extract_matches_oracle_on_planted_repeats():
    rng = random.Random(99)
    for trial in range(300):
        labels = "AB" if rng.random() < 0.5 else "ABC"
        b = blocks(rng, labels, n_events=rng.randint(2, 5))
        n = rng.randint(5, 16)
        seq = "".join(rng.choice(labels) for _ in range(n))
        if rng.random() < 0.5:
            # plant an exact 4-bar repeat
            i = rng.randint(0, max(0, n - 8))
            seq = seq[:i + 4] + seq[i:i + 4] + seq[i + 8:]
        score = score_from_blocks(b, seq)
        params = DEFAULT_PARAMS if trial % 4 == 0 else random_params(rng)
        assert extract_loops(score, params) == oracle_loops(score, params), \
            f"trial {trial}: {seq} {params}"


def test_extract_matches_oracle_on_long_song():
    # 1,000 bars and ~4.8k onset events, a 4-bar repeat planted every 16
    # bars: loops late in a long song are found like the early ones
    rng = random.Random(11)
    labels = [chr(0x100 + i) for i in range(48)]
    b = {c: bar_block(rng, rng.choice((4, 5))) for c in labels}
    seq = ""
    for _ in range(64):
        head = "".join(rng.choice(labels) for _ in range(4))
        seq += head + head + "".join(rng.choice(labels) for _ in range(8))
    score = score_from_blocks(b, seq[:1000])
    assert len(fingerprint_sequence(score)) > 4096
    spans = extract_loops(score)
    assert spans == oracle_loops(score)
    assert set(range(0, 1000, 16)) <= {span.start_bar for span in spans}


def test_extract_transposition_invariant():
    rng = random.Random(5)
    b = blocks(rng)
    score = score_from_blocks(b, "ABCAABCA")
    up = replace(score, measures=tuple(
        replace(m, events=tuple(replace(e, midi_pitch=e.midi_pitch + 2) for e in m.events))
        for m in score.measures))
    assert extract_loops(up) == extract_loops(score)


def test_overlap_filter():
    rng = random.Random(6)
    b = blocks(rng, "A")
    score = score_from_blocks(b, "A" * 10)
    with_overlap = extract_loops(score)
    assert len(with_overlap) > 2
    no_overlap = extract_loops(score, LoopParams(allow_overlap=False))
    for first, second in zip(no_overlap, no_overlap[1:]):
        assert second.start_bar >= first.end_bar


# splicing --------------------------------------------------------------------

def test_splice_rebases_measures():
    rng = random.Random(7)
    b = blocks(rng)
    score = score_from_blocks(b, "ABCABC")
    out = splice_loop(score, LoopSpan(2, 6, 0))
    assert len(out.measures) == 4
    assert [m.index for m in out.measures] == [0, 1, 2, 3]
    assert out.measures[0].events == score.measures[2].events


def test_splice_range_check():
    score = score_from_blocks(blocks(random.Random(8)), "AB")
    with pytest.raises(ValueError):
        splice_loop(score, LoopSpan(0, 3, 0))


def test_invalid_params():
    with pytest.raises(ValueError):
        LoopParams(min_rep_notes=0)
    with pytest.raises(ValueError):
        LoopParams(min_loop_bars=5, max_loop_bars=4)
