import random

import pytest

from looptab.score import (
    Measure,
    NoteEvent,
    Score,
    StructureError,
    regularize_meter,
    score_to_tokens,
    tokens_to_score,
)
from looptab.tokens import parse_tokens, render_tokens

from util import canonical, random_score


def test_header_and_empty_measures():
    score = tokens_to_score(parse_tokens("artist:band tempo:140 time_signature:4 start "
                                         "new_measure new_measure end"))
    assert score.artist == "band"
    assert score.header_tempo == 140
    assert len(score.measures) == 2
    assert all(not m.events for m in score.measures)


def test_low_e_open_string():
    score = tokens_to_score(parse_tokens("tempo:120 time_signature:4 start "
                                         "new_measure distorted0:note:s6:f0 wait:960 end"))
    (ev,) = score.measures[0].events
    assert ev.midi_pitch == 40
    assert ev.duration == 960
    assert ev.onset == 0


def test_note_before_measure_is_structural_error():
    with pytest.raises(StructureError):
        tokens_to_score(parse_tokens("tempo:120 start distorted0:note:s1:f0 wait:480"))


def test_fret_on_nonexistent_string():
    with pytest.raises(StructureError):
        tokens_to_score(parse_tokens("start new_measure bass:note:s5:f0 wait:480"))


def test_durations_follow_gap_rule():
    score = tokens_to_score(parse_tokens(
        "start new_measure clean0:note:s1:f0 wait:480 clean0:note:s2:f1 wait:960 end"))
    first, second = sorted(score.measures[0].events, key=lambda e: e.onset)
    assert (first.onset, first.duration) == (0, 480)
    assert (second.onset, second.duration) == (480, 960)


def test_simultaneous_notes_share_onset_and_emit_no_wait():
    text = "time_signature:4 tempo:120 start new_measure " \
           "clean0:note:s2:f1 clean0:note:s1:f0 wait:960 end"
    score = tokens_to_score(parse_tokens(text))
    a, b = score.measures[0].events
    assert a.onset == b.onset == 0
    assert render_tokens(score_to_tokens(score, include_artist=False)) == text


def test_effects_attach_to_their_note():
    score = tokens_to_score(parse_tokens(
        "start new_measure clean0:note:s1:f0 nfx:palm_mute wait:480 "
        "clean0:note:s1:f2 wait:480 end"))
    first, second = sorted(score.measures[0].events, key=lambda e: e.onset)
    assert first.effects == ("palm_mute",)
    assert second.effects == ()


def test_tokens_after_end_rejected():
    with pytest.raises(StructureError):
        tokens_to_score(parse_tokens("start end wait:480"))


def test_song_control_after_measure_rejected():
    with pytest.raises(StructureError):
        tokens_to_score(parse_tokens("start new_measure valence:high"))


def test_round_trip_random_scores():
    rng = random.Random(42)
    for _ in range(100):
        stream = score_to_tokens(random_score(rng, vary_tempo=True))
        text = render_tokens(stream)
        assert render_tokens(score_to_tokens(tokens_to_score(stream))) == text


def test_empty_score_renders_header_only():
    text = render_tokens(score_to_tokens(Score()))
    assert text == "time_signature:4 tempo:120 start end"
    assert tokens_to_score(parse_tokens(text)).measures == ()


def test_tempo_change_between_measures_round_trips():
    text = "time_signature:4 tempo:120 start new_measure clean0:note:s1:f0 wait:960 " \
           "tempo:90 new_measure end"
    score = tokens_to_score(parse_tokens(text))
    assert score.measures[0].tempo_bpm == 120
    assert score.measures[1].tempo_bpm == 90
    assert render_tokens(score_to_tokens(score, include_artist=False)) == text


def test_regularize_is_noop_on_4_4():
    rng = random.Random(7)
    score = canonical(random_score(rng))
    assert regularize_meter(score) == score


def test_regularize_splits_6_4_measure():
    events = tuple(
        NoteEvent("clean0", i * 960, 960, 55, 3, 0) for i in range(6)
    )
    score = Score(measures=(Measure(0, (6, 4), 120, events),))
    out = regularize_meter(score)
    assert len(out.measures) == 2
    assert [len(m.events) for m in out.measures] == [4, 2]
    assert all(m.time_signature == (4, 4) for m in out.measures)
    assert all(m.capacity == 3840 for m in out.measures)
    # onsets rebased into the second bar
    assert [e.onset for e in out.measures[1].events] == [0, 960]


def test_regularize_pads_2_4_measure():
    events = (NoteEvent("clean0", 0, 1920, 55, 3, 0),)
    score = Score(measures=(Measure(0, (2, 4), 120, events),))
    out = regularize_meter(score)
    assert len(out.measures) == 1
    assert out.measures[0].capacity == 3840
    assert out.measures[0].events[0].duration == 1920


def test_regularize_idempotent_and_preserves_notes():
    rng = random.Random(9)
    for _ in range(50):
        score = random_score(rng, numerators=(2, 3, 4, 5, 6))
        once = regularize_meter(score)
        assert regularize_meter(once) == once
        count = lambda s: sum(len(m.events) for m in s.measures)
        assert count(once) == count(score)
        assert all(m.capacity == 3840 for m in once.measures)
        total = lambda s: sum(e.duration for m in s.measures for e in m.events)
        assert total(once) == total(score)
