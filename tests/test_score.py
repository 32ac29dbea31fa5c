import hashlib
import random
from dataclasses import replace

import pytest

from looptab import score as score_mod
from looptab.score import (
    BAR_TICKS_4_4,
    Measure,
    NoteEvent,
    Score,
    StructureError,
    TokenTable,
    decode,
    regularize_meter,
    score_to_tokens,
    tokens_to_score,
)
from looptab.tokens import TENSION_FEATURES, parse_tokens, render_tokens

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


def test_note_off_the_strings_fails_at_its_index_every_time():
    table = TokenTable()
    for text, index in (("start new_measure bass:note:s5:f0 wait:480", 2),
                        ("start new_measure wait:480 bass:note:s5:f0", 3)):
        for decoded in (lambda: tokens_to_score(parse_tokens(text)),
                        lambda: decode(text.split(), table)):
            with pytest.raises(StructureError,
                               match=rf"^token {index}: string 5 does not exist on bass"):
                decoded()


def test_note_table_stops_growing_at_its_bound(monkeypatch):
    monkeypatch.setattr(score_mod, "TOKEN_CACHE_SIZE", 4)
    table = TokenTable()
    decode("start new_measure clean0:note:s1:f0 wait:480".split(), table)
    assert len(table) == 4
    song = decode("start new_measure clean0:note:s001:f0007 wait:480".split(), table)
    # the new strings would pass the bound, so the table starts over with this song's
    assert len(table) == 4 and "clean0:note:s1:f0" not in table.codes
    (ev,) = song.to_score().measures[0].events
    assert (ev.string, ev.fret, ev.midi_pitch) == (1, 7, 71)


def test_a_song_with_more_strings_than_the_bound_is_held_until_the_next(monkeypatch):
    monkeypatch.setattr(score_mod, "TOKEN_CACHE_SIZE", 4)
    table = TokenTable()
    text = "start new_measure clean0:note:s1:f0 wait:480 clean0:note:s1:f2 wait:480 end"
    song = decode(text.split(), table)
    # the table holds this song's own 6 strings, past the bound
    assert len(table) == 6 and [ev.fret for ev in song.to_score().measures[0].events] == [0, 2]
    decode(text.split(), table)  # no new strings: nothing is classified again
    assert len(table) == 6
    decode("start new_measure bass:note:s1:f0 wait:960".split(), table)
    assert sorted(table.codes) == ["bass:note:s1:f0", "new_measure", "start", "wait:960"]


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


def test_empty_stream_is_structural_error():
    with pytest.raises(StructureError, match="^no tokens$"):
        tokens_to_score(parse_tokens(""))


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


# note records ------------------------------------------------------------------

NOTE = NoteEvent("clean0", 0, 960, 60, 2, 1)
BAD_FIELDS = [({"onset": -1}, "onset must be >= 0"),
              ({"duration": 0}, "duration must be > 0"),
              ({"duration": -960}, "duration must be > 0"),
              ({"midi_pitch": -1}, r"midi pitch outside \[0, 127\]"),
              ({"midi_pitch": 128}, r"midi pitch outside \[0, 127\]")]


@pytest.mark.parametrize("build", ["constructor", "keywords", "_replace", "_make"])
@pytest.mark.parametrize("change,message", BAD_FIELDS)
def test_every_way_of_building_a_note_checks_it(build, change, message):
    fields = NOTE._asdict() | change
    with pytest.raises(ValueError, match=f"^{message}$"):
        if build == "constructor":
            NoteEvent(*fields.values())
        elif build == "keywords":
            NoteEvent(**fields)
        elif build == "_replace":
            NOTE._replace(**change)
        else:
            NoteEvent._make(fields.values())


def test_note_fields_cannot_be_assigned():
    with pytest.raises(AttributeError):
        NOTE.onset = 480
    with pytest.raises(AttributeError):
        NOTE.velocity = 100


def test_notes_with_equal_fields_are_equal_and_hash_equal():
    twin = NoteEvent("clean0", 0, 960, 60, string=2, fret=1)
    assert twin == NOTE and hash(twin) == hash(NOTE) and twin is not NOTE
    assert len({NOTE, twin, NOTE._replace(fret=1)}) == 1
    assert NOTE._replace(effects=("palm_mute",)) != NOTE
    assert (NOTE.end, NOTE.effects, NOTE.string) == (960, (), 2)
    assert NoteEvent._fields == ("track", "onset", "duration", "midi_pitch", "string", "fret",
                                 "effects")


def _overflowing_score(rng):
    bars = []
    for _ in range(rng.randint(1, 6)):
        body = []
        for _ in range(rng.randint(1, 8)):
            body.append(f"clean0:note:s{rng.randint(1, 6)}:f{rng.randint(0, 12)}")
            body.append(f"wait:{rng.choice((480, 960, 1920))}")
        bars.append(" ".join(["new_measure", *body]))
    numerator = rng.choice((3, 4, 5))
    return tokens_to_score(parse_tokens(f"time_signature:{numerator} start {' '.join(bars)} end"))


def test_regularize_meter_output_is_pinned():
    # sha256 of the regularized 3/4, 5/4 and overflowing scores below, as the
    # frozen-dataclass notes built with dataclasses.replace gave them
    rng = random.Random(2024)
    scores = [random_score(rng, numerators=(3,)) for _ in range(40)]
    scores += [random_score(rng, numerators=(5,)) for _ in range(40)]
    scores += [_overflowing_score(rng) for _ in range(40)]
    out = [regularize_meter(s) for s in scores]
    assert sum(len(s.measures) for s in out) > sum(len(s.measures) for s in scores)
    h = hashlib.sha256()
    for s in out:
        h.update(repr((s.header_time_signature, [
            (m.index, m.time_signature, m.tempo_bpm, [t.raw for t in m.bar_controls],
             [(e.track, e.onset, e.duration, e.midi_pitch, e.string, e.fret, e.effects)
              for e in m.events]) for m in s.measures])).encode())
    assert h.hexdigest() == "1e2182ea5c020296e216030e2e3d2454a3e7fa55b6e94f6076f7d44c189f5f28"


def quadratic_tokens(score: Score) -> list[str]:
    """Reference encoder: the measure body as first written, gathering each
    onset group by scanning the rest of the bar."""
    out = [t.raw for t in score_to_tokens(replace(score, measures=()))][:-1]
    running_tempo, running_ts = score.header_tempo, score.header_time_signature
    for m in score.measures:
        num = m.time_signature[0]
        if num != running_ts:
            out.append(f"time_signature:{num}")
            running_ts = num
        if m.tempo_bpm != running_tempo:
            out.append(f"tempo:{m.tempo_bpm}")
            running_tempo = m.tempo_bpm
        out.append("new_measure")
        by_feature = {t.fields["feature"]: t.raw for t in m.bar_controls}
        out.extend(by_feature[f] for f in TENSION_FEATURES if f in by_feature)
        events = sorted(m.events, key=lambda e: (e.onset, e.track, e.midi_pitch, e.string or 0))
        cursor = i = 0
        while i < len(events):
            onset = events[i].onset
            group = [e for e in events[i:] if e.onset == onset]
            if onset > cursor:
                out.append(f"wait:{onset - cursor}")
            for ev in group:
                out.append(f"drums:note:{ev.midi_pitch}" if ev.track == "drums"
                           else f"{ev.track}:note:s{ev.string}:f{ev.fret}")
                out.extend(f"nfx:{fx}" for fx in ev.effects)
            i += len(group)
            gap = events[i].onset - onset if i < len(events) else max(e.duration for e in group)
            out.append(f"wait:{gap}")
            cursor = onset + gap
    return out + ["end"]


def test_score_to_tokens_groups_onsets_like_the_quadratic_scan():
    rng = random.Random(11)
    scores = [random_score(rng, numerators=(3, 4, 5), vary_tempo=True) for _ in range(200)]
    # one 4/4 bar with an onset on each of its 3,840 ticks, some of them chords
    events = []
    for tick in range(BAR_TICKS_4_4):
        events.append(NoteEvent("clean0", tick, 1, 64, 1, 0))
        if tick % 7 == 0:
            events.append(NoteEvent("bass", tick, 2, 43, 1, 0, ("palm_mute",)))
    rng.shuffle(events)
    scores.append(Score(measures=(Measure(0, events=tuple(events)),)))
    for score in scores:
        assert [t.raw for t in score_to_tokens(score)] == quadratic_tokens(score)
