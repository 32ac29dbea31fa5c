import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from looptab.loops import (
    DEFAULT_PARAMS,
    EventFingerprint,
    LoopParams,
    LoopSpan,
    _onset_groups,
    bar_offsets,
    extract_loops,
    fingerprint_sequence,
    splice_loop,
)
from looptab.tokens import TICKS_PER_QUARTER, token

from util import BAR, bar_block, bars_of, block_bars, columns, interned_ids

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
    seq = fingerprint_sequence(columns([(4, 120, [
        ("distorted0", 0, 960, 52, 5, 7),
        ("bass", 0, 960, 40, 3, 7),
        ("clean0", 960, 2880, 64, 1, 0),
    ], ())]))
    assert len(seq) == 2
    assert seq[0].notes == (("bass", 40, 960), ("distorted0", 52, 960))
    assert seq[0].gap == 960
    assert seq[1].gap == 2880  # runs to the end of the bar
    assert [f.onset for f in seq] == [0, 960]


def reference_offsets(bars) -> list[int]:
    """The start tick of each plain bar, plus the end tick of the song."""
    offsets = [0]
    for numerator, *_ in bars:
        offsets.append(offsets[-1] + numerator * QUARTER)
    return offsets


def reference_fingerprints(bars) -> list[EventFingerprint]:
    """One fingerprint per distinct absolute onset of the plain bars,
    built note by note."""
    offsets = reference_offsets(bars)
    onsets: dict[int, list[tuple[str, int, int]]] = {}
    for offset, (_, _, notes, _) in zip(offsets, bars):
        for track, onset, duration, midi, *_ in notes:
            onsets.setdefault(offset + onset, []).append((track, midi, duration))
    ordered = sorted(onsets)
    ends = ordered[1:] + [offsets[-1]]
    return [EventFingerprint(tuple(sorted(onsets[at])), max(nxt - at, 0), at)
            for at, nxt in zip(ordered, ends)]


@st.composite
def plain_bars(draw):
    """Bars of any metre whose notes may start past the bar's end, share
    onsets across tracks, or repeat a pitch."""
    note = st.tuples(st.sampled_from(("clean0", "bass", "drums")), st.integers(0, 5760),
                     st.sampled_from((240, 480, 960)), st.integers(40, 44))
    return [(draw(st.integers(1, 7)), 120, draw(st.lists(note, max_size=8)), ())
            for _ in range(draw(st.integers(0, 8)))]


@settings(deadline=None, max_examples=300)
@given(bars=plain_bars())
def test_onset_groups_intern_like_fingerprints(bars):
    reference = reference_fingerprints(bars)
    score = columns(bars)
    groups = _onset_groups(score)
    assert groups.onsets.tolist() == [f.onset for f in reference]
    # equal ids exactly for equal fingerprints, numbered by first occurrence
    assert groups.ids.tolist() == interned_ids(reference)
    seq = fingerprint_sequence(score)
    assert seq == reference and [f.onset for f in seq] == groups.onsets.tolist()


def test_bar_offsets():
    bars = [(4, 120, [], ()), (3, 120, [], ()), (4, 120, [], ())]
    assert bar_offsets(columns(bars)).tolist() == [0, BAR, BAR + 3 * QUARTER,
                                                   2 * BAR + 3 * QUARTER]


# loop extraction -------------------------------------------------------------

def blocks(rng, labels="ABC", n_events=4):
    return {c: bar_block(rng, n_events) for c in labels}


def test_extract_simple_four_bar_loop():
    rng = random.Random(1)
    b = blocks(rng)
    spans = extract_loops(columns(block_bars(b, "ABCAABCA")))
    assert LoopSpan(0, 4, sum(len(b[c]) for c in "ABCA")) in spans


def test_no_loop_when_pattern_shorter_than_four_bars():
    rng = random.Random(2)
    b = blocks(rng, "ABC")
    score = columns(block_bars(b, "ABABC"))
    assert extract_loops(score) == []
    assert extract_loops(score, LoopParams(min_loop_bars=2, max_loop_bars=2)) != []


def test_offgrid_repeat_is_discarded():
    # a periodic pattern whose onsets never touch a bar boundary: the
    # repeats are real but none is bar-aligned, so nothing is extracted
    score = columns([(4, 120, [("clean0", t, 480, 64, 1, 0)
                               for t in (range(1920, BAR, 480) if i % 2 == 0 else ())], ())
                     for i in range(10)])
    seq = fingerprint_sequence(score)
    assert seq[:4] == seq[4:8] and seq[4].onset - seq[0].onset == 2 * BAR
    assert not {f.onset for f in seq} & set(bar_offsets(score).tolist())
    assert extract_loops(score) == []


def oracle_loops(bars, params: LoopParams = DEFAULT_PARAMS) -> list[LoopSpan]:
    """O(n^3) reference on plain bars: try every bar-aligned occurrence
    pair directly."""
    seq = reference_fingerprints(bars)
    offsets = reference_offsets(bars)
    at_index = {f.onset: i for i, f in enumerate(seq)}
    min_ticks = params.min_rep_beats * QUARTER
    found = {}
    for s1 in range(len(bars)):
        for k in range(params.min_loop_bars, params.max_loop_bars + 1):
            s2 = s1 + k
            if s2 >= len(bars):
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
        bars = block_bars(b, seq)
        params = DEFAULT_PARAMS if trial % 4 == 0 else random_params(rng)
        assert extract_loops(columns(bars), params) == oracle_loops(bars, params), \
            f"trial {trial}: {seq} {params}"


@st.composite
def mixed_metre_repeats(draw):
    """Bars picked from a few templates of different metres, so bar pairs
    the same number of bars apart lie different numbers of ticks apart."""
    templates = []
    for _ in range(draw(st.integers(1, 3))):
        numerator = draw(st.sampled_from((2, 3, 4, 5)))
        onsets = sorted(draw(st.sets(st.sampled_from(range(0, numerator * QUARTER, 480)),
                                     min_size=1, max_size=3)) | {0})
        events = [("clean0", onset, 480, draw(st.integers(60, 62)), 1, 0) for onset in onsets]
        templates.append((numerator, 120, events, ()))
    picks = draw(st.lists(st.integers(0, len(templates) - 1), min_size=2, max_size=10))
    return [templates[t] for t in picks]


@settings(deadline=None, max_examples=300)
@given(bars=mixed_metre_repeats(), data=st.data())
def test_extract_matches_oracle_across_metres(bars, data):
    min_bars = data.draw(st.integers(1, 3))
    params = LoopParams(min_rep_notes=data.draw(st.integers(1, 3)),
                        min_rep_beats=data.draw(st.integers(1, 3)), min_loop_bars=min_bars,
                        max_loop_bars=data.draw(st.integers(min_bars, 4)))
    assert extract_loops(columns(bars), params) == oracle_loops(bars, params)


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
    bars = block_bars(b, seq[:1000])
    score = columns(bars)
    assert len(fingerprint_sequence(score)) > 4096
    spans = extract_loops(score)
    assert spans == oracle_loops(bars)
    assert set(range(0, 1000, 16)) <= {span.start_bar for span in spans}


def test_extract_transposition_invariant():
    rng = random.Random(5)
    b = blocks(rng)
    bars = block_bars(b, "ABCAABCA")
    up = [(num, tempo, [(track, onset, duration, midi + 2, *rest)
                        for track, onset, duration, midi, *rest in notes], controls)
          for num, tempo, notes, controls in bars]
    assert extract_loops(columns(up)) == extract_loops(columns(bars))


# splicing --------------------------------------------------------------------

def test_splice_rebases_measures():
    rng = random.Random(7)
    b = blocks(rng)
    bars = [(num, tempo, notes, (token(f"cloud_diameter:q{i % 4 + 1}"),) * (i % 2))
            for i, (num, tempo, notes, _) in enumerate(block_bars(b, "ABCABC", tempo=90))]
    bars[3] = (3, 160, *bars[3][2:])
    out = splice_loop(columns(bars), LoopSpan(2, 6, 0))
    assert bars_of(out) == bars_of(columns(bars[2:6]))
    assert out.bar.tolist() == sorted(out.bar.tolist()) and out.bar[0] == 0
    assert (out.header_tempo, out.header_time_signature) == (120, 4)


def test_splice_range_check():
    score = columns(block_bars(blocks(random.Random(8)), "AB"))
    with pytest.raises(ValueError):
        splice_loop(score, LoopSpan(0, 3, 0))


def test_invalid_params():
    with pytest.raises(ValueError):
        LoopParams(min_rep_notes=0)
    with pytest.raises(ValueError):
        LoopParams(min_loop_bars=5, max_loop_bars=4)
