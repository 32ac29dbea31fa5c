import hashlib
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from looptab import score as score_mod
from looptab.score import (
    BAR_TICKS_4_4,
    StructureError,
    TokenTable,
    decode,
    key_order,
    regularize_meter,
    score_to_tokens,
    token_files,
    tokens_to_score,
)
from looptab.tokens import TENSION_FEATURES, parse_tokens, render_tokens

from util import bars_of, canonical, columns, random_score


def test_header_and_empty_measures():
    song = tokens_to_score(parse_tokens("artist:band tempo:140 time_signature:4 start "
                                        "new_measure new_measure end"))
    assert song.artist == "band"
    assert song.header_tempo == 140
    assert song.n_bars == 2
    assert len(song.bar) == 0


def test_low_e_open_string():
    song = tokens_to_score(parse_tokens("tempo:120 time_signature:4 start "
                                        "new_measure distorted0:note:s6:f0 wait:960 end"))
    assert song.midi.tolist() == [40]
    assert song.duration.tolist() == [960]
    assert song.onset.tolist() == [0]


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
    assert (song.string.tolist(), song.fret.tolist(), song.midi.tolist()) == ([1], [7], [71])


def test_a_song_with_more_strings_than_the_bound_is_held_until_the_next(monkeypatch):
    monkeypatch.setattr(score_mod, "TOKEN_CACHE_SIZE", 4)
    table = TokenTable()
    text = "start new_measure clean0:note:s1:f0 wait:480 clean0:note:s1:f2 wait:480 end"
    song = decode(text.split(), table)
    # the table holds this song's own 6 strings, past the bound
    assert len(table) == 6 and song.fret.tolist() == [0, 2]
    decode(text.split(), table)  # no new strings: nothing is classified again
    assert len(table) == 6
    decode("start new_measure bass:note:s1:f0 wait:960".split(), table)
    assert sorted(table.codes) == ["bass:note:s1:f0", "new_measure", "start", "wait:960"]


def test_durations_follow_gap_rule():
    song = tokens_to_score(parse_tokens(
        "start new_measure clean0:note:s1:f0 wait:480 clean0:note:s2:f1 wait:960 end"))
    assert list(zip(song.onset.tolist(), song.duration.tolist())) == [(0, 480), (480, 960)]


def test_simultaneous_notes_share_onset_and_emit_no_wait():
    text = "time_signature:4 tempo:120 start new_measure " \
           "clean0:note:s2:f1 clean0:note:s1:f0 wait:960 end"
    song = tokens_to_score(parse_tokens(text))
    assert song.onset.tolist() == [0, 0]
    assert render_tokens(score_to_tokens(song, include_artist=False)) == text


def test_effects_attach_to_their_note():
    song = tokens_to_score(parse_tokens(
        "start new_measure clean0:note:s1:f0 nfx:palm_mute wait:480 "
        "clean0:note:s1:f2 wait:480 end"))
    assert [song.effects[x] for x in song.fx.tolist()] == [("palm_mute",), ()]


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
    text = render_tokens(score_to_tokens(columns([])))
    assert text == "time_signature:4 tempo:120 start end"
    assert tokens_to_score(parse_tokens(text)).n_bars == 0


def test_tempo_change_between_measures_round_trips():
    text = "time_signature:4 tempo:120 start new_measure clean0:note:s1:f0 wait:960 " \
           "tempo:90 new_measure end"
    song = tokens_to_score(parse_tokens(text))
    assert song.tempo.tolist() == [120, 90]
    assert render_tokens(score_to_tokens(song, include_artist=False)) == text


def plain(song):
    return song.artist, song.header_tempo, song.header_time_signature, bars_of(song)


def test_regularize_is_noop_on_4_4():
    rng = random.Random(7)
    song = canonical(random_score(rng))
    assert plain(regularize_meter(song)) == plain(song)


def test_regularize_splits_6_4_measure():
    notes = [("clean0", i * 960, 960, 55, 3, 0) for i in range(6)]
    out = regularize_meter(columns([(6, 120, notes, ())]))
    assert out.n_bars == 2
    assert [len(bar[2]) for bar in bars_of(out)] == [4, 2]
    assert out.numerator.tolist() == [4, 4]
    assert out.capacity.tolist() == [3840, 3840]
    # onsets rebased into the second bar
    assert [note[1] for note in bars_of(out)[1][2]] == [0, 960]


def test_regularize_pads_2_4_measure():
    out = regularize_meter(columns([(2, 120, [("clean0", 0, 1920, 55, 3, 0)], ())]))
    assert out.n_bars == 1
    assert out.capacity.tolist() == [3840]
    assert out.duration.tolist() == [1920]


def test_regularize_idempotent_and_preserves_notes():
    rng = random.Random(9)
    for _ in range(50):
        song = random_score(rng, numerators=(2, 3, 4, 5, 6))
        once = regularize_meter(song)
        assert plain(regularize_meter(once)) == plain(once)
        assert len(once.bar) == len(song.bar)
        assert (once.capacity == 3840).all()
        assert once.duration.sum() == song.duration.sum()


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
    # frozen-dataclass notes built with dataclasses.replace gave them: per bar,
    # its index, metre, tempo, controls and notes
    rng = random.Random(2024)
    scores = [random_score(rng, numerators=(3,)) for _ in range(40)]
    scores += [random_score(rng, numerators=(5,)) for _ in range(40)]
    scores += [_overflowing_score(rng) for _ in range(40)]
    out = [regularize_meter(s) for s in scores]
    assert sum(s.n_bars for s in out) > sum(s.n_bars for s in scores)
    h = hashlib.sha256()
    for s in out:
        h.update(repr((s.header_time_signature, [
            (i, (numerator, 4), tempo, [t.raw for t in controls], notes)
            for i, (numerator, tempo, notes, controls) in enumerate(bars_of(s))])).encode())
    assert h.hexdigest() == "1e2182ea5c020296e216030e2e3d2454a3e7fa55b6e94f6076f7d44c189f5f28"


def quadratic_tokens(song) -> list[str]:
    """Reference encoder: the measure body as first written, gathering each
    onset group by scanning the rest of the bar."""
    out = [t.raw for t in song.song_controls] + [f"artist:{song.artist}"] * bool(song.artist)
    out += [f"time_signature:{song.header_time_signature}", f"tempo:{song.header_tempo}", "start"]
    running_tempo, running_ts = song.header_tempo, song.header_time_signature
    for num, tempo, notes, controls in bars_of(song):
        if num != running_ts:
            out.append(f"time_signature:{num}")
            running_ts = num
        if tempo != running_tempo:
            out.append(f"tempo:{tempo}")
            running_tempo = tempo
        out.append("new_measure")
        by_feature = {t.fields["feature"]: t.raw for t in controls}
        out.extend(by_feature[f] for f in TENSION_FEATURES if f in by_feature)
        # (track, onset, duration, midi, string, fret, effects)
        events = sorted(notes, key=lambda n: (n[1], n[0], n[3], n[4] or 0))
        cursor = i = 0
        while i < len(events):
            onset = events[i][1]
            group = [n for n in events[i:] if n[1] == onset]
            if onset > cursor:
                out.append(f"wait:{onset - cursor}")
            for track, _, _, midi, string, fret, effects in group:
                out.append(f"drums:note:{midi}" if track == "drums"
                           else f"{track}:note:s{string}:f{fret}")
                out.extend(f"nfx:{fx}" for fx in effects)
            i += len(group)
            gap = events[i][1] - onset if i < len(events) else max(n[2] for n in group)
            out.append(f"wait:{gap}")
            cursor = onset + gap
    return out + ["end"]


def test_score_to_tokens_groups_onsets_like_the_quadratic_scan():
    rng = random.Random(11)
    scores = [random_score(rng, numerators=(3, 4, 5), vary_tempo=True) for _ in range(200)]
    # one 4/4 bar with an onset on each of its 3,840 ticks, some of them chords
    events = []
    for tick in range(BAR_TICKS_4_4):
        events.append(("clean0", tick, 1, 64, 1, 0))
        if tick % 7 == 0:
            events.append(("bass", tick, 2, 43, 1, 0, ("palm_mute",)))
    rng.shuffle(events)
    scores.append(columns([(4, 120, events, ())]))
    for score in scores:
        assert [t.raw for t in score_to_tokens(score)] == quadratic_tokens(score)


def test_regularize_meter_bounds_the_bars_it_makes():
    bound = score_mod.MAX_BARS
    text = "start new_measure clean0:note:s1:f0 wait:{}"
    at_bound = decode(text.format(bound * BAR_TICKS_4_4).split(), TokenTable())
    assert regularize_meter(at_bound).n_bars == bound
    over = decode(text.format(bound * BAR_TICKS_4_4 + 1).split(), TokenTable())
    with pytest.raises(StructureError, match=f"^the song regularizes into {bound + 1} bars "
                                             f"of 4/4, more than {bound}$"):
        regularize_meter(over)


# a 6/4 bar, a 4/4 bar overflowing by one long note, and one overflowing by a
# note that starts past its end, each with bar controls, then a 4/4 bar
SPLIT_CONTROLS = ("time_signature:6 tempo:120 start "
                  "new_measure cloud_diameter:q1 tensile_strain:q4" + " clean0:note:s1:f0 wait:960" * 6
                  + " time_signature:4 new_measure tensile_strain:q2 cloud_diameter:q3 "
                  "clean0:note:s2:f1 wait:5760 "
                  "new_measure cloud_momentum:q4 clean0:note:s1:f0 wait:3840 clean0:note:s1:f2 "
                  "wait:960 "
                  "new_measure cloud_diameter:q2 clean0:note:s1:f3 wait:960 end")


def test_bar_controls_land_on_the_first_bar_of_a_split_bar():
    regular = regularize_meter(tokens_to_score(parse_tokens(SPLIT_CONTROLS)))
    out = [t.raw for t in score_to_tokens(regular)]
    bars = " ".join(out).split(" new_measure")[1:]
    leading = [[raw for raw in bar.split() if raw.split(":")[0] in TENSION_FEATURES]
               for bar in bars]
    # each control is written right after the new_measure of its first 4/4 bar
    assert leading == [["cloud_diameter:q1", "tensile_strain:q4"], [],
                       ["cloud_diameter:q3", "tensile_strain:q2"], [], ["cloud_momentum:q4"], [],
                       ["cloud_diameter:q2"]]
    for bar, controls in zip(bars, leading):
        assert bar.split()[:len(controls)] == controls
    assert out.count("time_signature:6") == 0 and out.count("time_signature:4") == 1
    assert regular.control_bar.tolist() == [0, 0, 2, 2, 4, 6]


INT64 = (-2 ** 63, 2 ** 63 - 1)


@st.composite
def key_lists(draw):
    """One to six int64 keys of one length: each over a range of 0 to 64
    bits from anywhere in int64, so that keys repeat, go negative, stay
    constant, and together often need more than one 63-bit word."""
    n = draw(st.integers(0, 30))
    keys = []
    for _ in range(draw(st.integers(1, 6))):
        low = draw(st.integers(*INT64))
        high = min(low + 2 ** draw(st.integers(0, 64)) - 1, INT64[1])
        keys.append(np.array(draw(st.lists(st.integers(low, high), min_size=n, max_size=n)),
                             np.int64))
    return keys


@given(key_lists())
@example([np.zeros(0, np.int64)] * 3)
@example([np.full(5, 3), np.full(5, INT64[0])])
def test_key_order_is_the_lexsort(keys):
    order = key_order(keys)
    expected = np.lexsort(keys)
    assert order.dtype == expected.dtype
    np.testing.assert_array_equal(order, expected)


@given(key_lists())
@example([np.zeros(0, np.int64)] * 3)
@example([np.full(5, 3), np.full(5, INT64[0])])
def test_distinct_ranks_the_distinct_rows(keys):
    heads, rank = score_mod._distinct(keys)
    rows = list(zip(*(key.tolist() for key in keys)))
    distinct = [rows[i] for i in heads.tolist()]
    assert len(set(distinct)) == len(distinct)
    assert [distinct[r] for r in rank.tolist()] == rows


def lexsort_words(monkeypatch, keys):
    """How many words ``key_order(keys)`` hands to ``np.lexsort``."""
    calls = []
    lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda words: calls.append(len(words)) or lexsort(words))
    order = key_order(keys)
    monkeypatch.undo()
    np.testing.assert_array_equal(order, np.lexsort(keys))
    return calls


def test_key_order_packs_keys_into_as_few_words_as_their_widths_need(monkeypatch):
    rng = np.random.default_rng(0)
    narrow = [rng.integers(-5, 5, 200), rng.integers(10 ** 6, 10 ** 6 + 3, 200),
              np.full(200, -7), rng.integers(0, 2 ** 20, 200)]
    assert lexsort_words(monkeypatch, narrow) == [1]
    wide = [rng.integers(-2 ** 40, 0, 200), rng.integers(0, 2 ** 30, 200),
            rng.integers(0, 2, 200)]  # 40 + 30 + 1 bits
    assert lexsort_words(monkeypatch, wide) == [2]
    whole = [rng.integers(0, 4, 200), np.array([INT64[0], INT64[1]] * 100), rng.integers(0, 4, 200)]
    assert lexsort_words(monkeypatch, whole) == [3]


def test_token_files_sort_as_their_paths(tmp_path):
    names = ["b.tokens", "B.tokens", "a10.tokens", "a9.tokens", "a.tokens", "_a.tokens",
             "10.tokens", "9.tokens", "é.tokens", "Z.tokens", "z.tokens", "Ä.tokens",
             "日本.tokens", "a.tokens.txt", "notes.txt"]
    for name in names:
        (tmp_path / name).write_text("start\n", encoding="utf-8")
    assert token_files(tmp_path) == sorted(tmp_path.glob("*.tokens"))
    assert token_files(str(tmp_path)) == sorted(Path(tmp_path, name) for name in names
                                                if name.endswith(".tokens"))
