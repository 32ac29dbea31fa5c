"""The column decoder against a token-by-token reference decoder.

``reference_tokens_to_score`` is the loop that built every note and bar as
it went, here as plain tuples (see ``util``). The decoder must give equal
bars for every valid stream and the same exception type and message for
every malformed one, and the per-bar computations on the decoded columns
must give what the reference oracles give on the plain bars.
``reference_bar_bodies`` is the loop that rendered each bar note by note;
``bar_bodies`` must render every bar list as it does.
"""

import random
import re
from itertools import accumulate

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from looptab import score as score_mod
from looptab.loops import LoopParams, LoopSpan, _onset_groups, extract_loops, \
    fingerprint_sequence
from looptab.score import (
    DEFAULT_TEMPO,
    MAX_TICKS,
    TRACKS,
    StructureError,
    SongBatch,
    TokenTable,
    bar_bodies,
    decode,
    decode_parts,
    key_order,
    regular_parts,
    regularize_many,
    regularize_meter,
    score_to_tokens,
    tokens_to_score,
)
from looptab.tension import (DEFAULT_PARAMS, TensionProfile, compute_tension_profile,
                             loop_tension_profiles)
from looptab.tokens import TICKS_PER_QUARTER, ParseError, Token, TokenCategory, parse_tokens

from test_loops import oracle_loops, reference_fingerprints
from test_score import quadratic_tokens
from test_tension import reference_profile
from util import bar_block, bars_of, block_bars, canonical, columns, random_score


def plain(song):
    """A decoded song as the reference decoder gives it."""
    return song.artist, song.header_tempo, song.header_time_signature, song.song_controls, \
        bars_of(song)


def reference_tokens_to_score(stream: list[Token]) -> tuple:
    """Decode token by token, building each note and bar as it closes:
    ``(artist, header tempo, header metre, song controls, bars)``."""
    if not stream:
        raise StructureError("no tokens")
    artist = None
    header_tempo = running_tempo = DEFAULT_TEMPO
    header_ts = running_ts = 4
    song_controls, measures = [], []
    in_measure = ended = False
    cursor = pending_onset = 0
    pending, events, bar_controls = [], [], []
    measure_tempo, measure_ts = running_tempo, running_ts

    def close_pending(upto):
        nonlocal pending
        if not pending:
            return
        duration = (upto if upto is not None else measure_ts * TICKS_PER_QUARTER) - pending_onset
        if duration <= 0:
            duration = TICKS_PER_QUARTER
        pending.sort(key=lambda n: (n[0], n[3], n[1] or 0))
        for track, string, fret, midi, fx in pending:
            events.append((track, pending_onset, duration, midi, string, fret, tuple(fx)))
        pending = []

    def close_measure():
        nonlocal events, bar_controls, cursor
        close_pending(cursor if cursor > pending_onset else None)
        measures.append((measure_ts, measure_tempo, events, tuple(bar_controls)))
        events, bar_controls, cursor = [], [], 0

    for i, tok in enumerate(stream):
        if ended:
            raise StructureError(f"token {i} ({tok.raw!r}) after end")
        cat, fields = tok.category, tok.fields
        if cat is TokenCategory.NOTE:
            if not in_measure:
                raise StructureError(f"token {i}: note {tok.raw!r} before first new_measure")
            if cursor > pending_onset and pending:
                close_pending(cursor)
            if not pending:
                pending_onset = cursor
            if fields["track"] == "drums":
                note = ("drums", None, None, fields["midi"])
            else:
                tuning = score_mod.DEFAULT_TUNINGS[fields["track"]]
                string, fret = fields["string"], fields["fret"]
                if string > len(tuning):
                    raise StructureError(f"token {i}: string {string} does not exist on "
                                         f"{fields['track']} ({len(tuning)} strings)")
                midi = tuning[string - 1] + fret
                if midi > 127:
                    raise StructureError(f"token {i}: pitch {midi} above midi range")
                note = (fields["track"], string, fret, midi)
            pending.append((*note, []))
        elif cat is TokenCategory.WAIT:
            if not in_measure:
                raise StructureError(f"token {i}: wait before first new_measure")
            cursor += fields["ticks"]
        elif cat is TokenCategory.STRUCTURE:
            if in_measure:
                close_measure()
            in_measure = True
            measure_tempo, measure_ts = running_tempo, running_ts
        elif cat is TokenCategory.EFFECT:
            if pending:
                pending[-1][4].append(fields["name"])
        elif cat is TokenCategory.BAR_CONTROL:
            if not in_measure:
                raise StructureError(f"token {i}: bar control {tok.raw!r} before first measure")
            bar_controls.append(tok)
        elif cat is TokenCategory.HEADER:
            key = fields["key"]
            if key == "end":
                ended = True
            elif key == "artist":
                if in_measure:
                    raise StructureError(f"token {i}: artist token after first measure")
                artist = fields["value"]
            elif key == "tempo":
                running_tempo = fields["value"]
                if not in_measure:
                    header_tempo = running_tempo
            elif key == "time_signature":
                running_ts = fields["value"]
                if not in_measure:
                    header_ts = running_ts
            elif key == "start" and in_measure:
                raise StructureError(f"token {i}: start token after first measure")
        elif cat is TokenCategory.SONG_CONTROL:
            if in_measure:
                raise StructureError(f"token {i}: song control {tok.raw!r} after first measure")
            song_controls.append(tok)
    if in_measure:
        close_measure()
    return artist, header_tempo, header_ts, tuple(song_controls), measures


def reference_bar_bodies(song, bars):
    """The raw tokens of each of ``bars``, one note at a time: its notes
    sorted by (onset, track, pitch, string), waits merging the gaps, and a
    trailing wait covering the last group's duration (its longest note)."""
    order = key_order((np.maximum(song.string, 0), song.midi, song.track, song.onset, song.bar))
    onsets, durations, tracks, midis, strings, frets, fxs = (
        c.take(order).tolist()
        for c in (song.onset, song.duration, song.track, song.midi, song.string, song.fret, song.fx))
    bounds = song.bounds.tolist()
    effects = [[f"nfx:{name}" for name in fx] for fx in song.effects]
    out = []
    for b in bars:
        end = bounds[b + 1]
        body = []
        cursor, i = 0, bounds[b]
        while i < end:
            onset = onsets[i]
            j = i + 1
            while j < end and onsets[j] == onset:  # sorted: one run per onset
                j += 1
            if onset > cursor:
                body.append(f"wait:{onset - cursor}")
            for k in range(i, j):
                if TRACKS[tracks[k]] == "drums":
                    body.append(f"drums:note:{midis[k]}")
                else:
                    body.append(f"{TRACKS[tracks[k]]}:note:s{strings[k]}:f{frets[k]}")
                body.extend(effects[fxs[k]])
            gap = onsets[j] - onset if j < end else max(durations[i:j])
            body.append(f"wait:{gap}")
            cursor, i = onset + gap, j
        out.append(body)
    return out


def outcome(decoder, stream):
    try:
        return decoder(stream)
    except (StructureError, ParseError) as exc:
        return type(exc), str(exc)


TABLE = TokenTable()  # shared by every example, as a command shares one among its songs


def check_same(text: str) -> None:
    """The reference and the decoder agree on ``text``: same bars, or same error."""
    try:
        stream = parse_tokens(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            decode(text.split(), TABLE)
        assert (str(got.value), got.value.index, got.value.token) == \
            (str(exc), exc.index, exc.token)
        return
    expected = outcome(reference_tokens_to_score, stream)
    assert outcome(lambda s: plain(tokens_to_score(s)), stream) == expected
    assert outcome(lambda s: plain(decode([t.raw for t in s], TABLE)), stream) == expected


NOTES = ("clean0:note:s1:f0", "clean0:note:s2:f3", "clean0:note:s02:f3", "distorted0:note:s6:f5",
         "bass:note:s4:f2", "bass:note:s1:f0", "leads:note:s3:f30", "drums:note:36",
         "drums:note:42")
WAITS = ("wait:240", "wait:480", "wait:960", "wait:1920", "wait:3840")


@st.composite
def valid_text(draw) -> str:
    """A well-formed song: drums, effects (one before any note), 3/4, 5/4
    and overflowing bars, tempo and metre changes, bars with and without a
    trailing wait."""
    out = draw(st.lists(st.sampled_from(("valence:high", "arousal:low", "mode:minor")),
                        max_size=3))
    out += draw(st.lists(st.sampled_from(("artist:band", "tempo:90", "time_signature:3",
                                          "time_signature:5", "nfx:bend")), max_size=4))
    out.append("start")
    for _ in range(draw(st.integers(0, 5))):
        out += draw(st.lists(st.sampled_from(("tempo:70", "tempo:160", "time_signature:3",
                                              "time_signature:4", "time_signature:5")),
                             max_size=2))
        out.append("new_measure")
        out += draw(st.lists(st.sampled_from(("cloud_diameter:q1", "tensile_strain:q4",
                                              "cloud_momentum:q2")), max_size=3))
        body = draw(st.lists(st.sampled_from(NOTES + WAITS + ("nfx:palm_mute", "nfx:slide",
                                                              "tempo:120")), max_size=12))
        out += body
        if draw(st.booleans()):
            out.append(draw(st.sampled_from(WAITS)))
    if draw(st.booleans()):
        out.append("end")
    return " ".join(out)


@settings(deadline=None, max_examples=400)
@given(valid_text())
def test_valid_streams_decode_to_the_reference_score(text):
    check_same(text)
    bars = reference_tokens_to_score(parse_tokens(text))[-1]
    # the per-bar computations match their oracles, also on bars whose
    # notes run past their capacity
    song = decode(text.split(), TABLE)
    params = LoopParams(min_rep_notes=1, min_rep_beats=1, min_loop_bars=1, max_loop_bars=2)
    assert fingerprint_sequence(song) == reference_fingerprints(bars)
    assert extract_loops(song, params) == oracle_loops(bars, params)
    assert compute_tension_profile(song) == reference_profile(bars, DEFAULT_PARAMS)
    assert [t.raw for t in score_to_tokens(song)] == quadratic_tokens(song)


POOL = ("new_measure", "start", "end", "artist:a", "tempo:100", "time_signature:3",
        "valence:high", "mode:major", "cloud_diameter:q3", "nfx:vibrato", "bass:note:s5:f0",
        "clean0:note:s7:f1", "drums:note:128", "tempo:x1", "frob", *NOTES, *WAITS)


@settings(deadline=None, max_examples=600)
@given(st.lists(st.sampled_from(POOL), max_size=14).map(" ".join))
def test_any_stream_fails_like_the_reference(text):
    check_same(text)


@pytest.mark.parametrize("text,message", [
    ("", "no tokens"),
    ("start clean0:note:s1:f0 new_measure", "token 1: note 'clean0:note:s1:f0' before first "
                                            "new_measure"),
    ("start wait:480 new_measure", "token 1: wait before first new_measure"),
    ("start cloud_diameter:q1 new_measure", "token 1: bar control 'cloud_diameter:q1' before "
                                            "first measure"),
    ("start new_measure end wait:480", "token 3 ('wait:480') after end"),
    ("start new_measure bass:note:s5:f0", "token 2: string 5 does not exist on bass (4 strings)"),
    ("start new_measure artist:a", "token 2: artist token after first measure"),
    ("new_measure start", "token 1: start token after first measure"),
    ("start new_measure mode:minor", "token 2: song control 'mode:minor' after first measure"),
    # several errors: the earliest is raised
    ("start new_measure bass:note:s5:f0 valence:high end wait:1", "token 2: string 5 does not "
                                                                  "exist on bass (4 strings)"),
    ("wait:1 new_measure artist:a", "token 0: wait before first new_measure"),
])
def test_each_malformed_stream_fails_as_the_reference(text, message):
    with pytest.raises(StructureError, match=f"^{re.escape(message)}$"):
        decode(text.split(), TokenTable())
    check_same(text)


def test_a_parse_error_comes_before_an_earlier_structure_error():
    text = "wait:480 new_measure tempo:x1"
    check_same(text)
    with pytest.raises(ParseError, match=r"^token 2 \('tempo:x1'\)"):
        decode(text.split(), TokenTable())


def test_a_pitch_above_midi_range_fails_as_the_reference(monkeypatch):
    monkeypatch.setitem(score_mod.DEFAULT_TUNINGS, "leads", (110,) * 6)
    text = "start new_measure leads:note:s1:f20 wait:480"
    check_same(text)
    with pytest.raises(StructureError, match=r"^token 2: pitch 130 above midi range$"):
        decode(text.split(), TokenTable())


def test_waits_and_bars_longer_than_the_columns_take_are_structure_errors():
    with pytest.raises(StructureError, match=rf"^token 3: wait of {MAX_TICKS + 1} ticks"):
        decode(f"start new_measure clean0:note:s1:f0 wait:{MAX_TICKS + 1}".split(), TokenTable())
    numerator = MAX_TICKS // TICKS_PER_QUARTER + 1
    with pytest.raises(StructureError, match=rf"^token 0: a {numerator}-beat bar is longer"):
        decode(f"time_signature:{numerator} start new_measure".split(), TokenTable())
    song = decode(f"start new_measure clean0:note:s1:f0 wait:{MAX_TICKS}".split(), TokenTable())
    assert song.duration.tolist() == [MAX_TICKS]


def test_the_table_classifies_each_string_once_and_skips_malformed_ones():
    table = TokenTable()
    decode("start new_measure clean0:note:s1:f0 wait:480 clean0:note:s1:f0 end".split(), table)
    assert sorted(table.codes) == sorted({"start", "new_measure", "clean0:note:s1:f0",
                                          "wait:480", "end"})
    with pytest.raises(ParseError):
        decode("start new_measure frob".split(), table)
    assert "frob" not in table.codes and len(table) == 5


# a batch of songs decodes each song as it decodes alone ---------------------

def check_batch(texts: list[str], table: TokenTable) -> tuple[dict, dict]:
    """Decode ``texts`` in parts with one table; each valid song's columns
    are the reference decoder's, and each malformed song is its part's
    error for that song, with the type and message it raises alone. Each
    decoded part's tension and each regularized part's onset groups and
    loops are its songs' own. Returns each failed song's error and each
    good song's columns, by song."""
    parts = list(decode_parts([text.split() for text in texts], table))
    assert [first for first, _ in parts] == [0, *accumulate(len(part) for _, part in parts)][:-1]
    assert sum(len(part) for _, part in parts) == len(texts)
    errors, songs = {}, {}
    for first, part in parts:
        assert len(part.starts) == len(part) + 1
        for j in range(len(part)):
            text = texts[first + j]
            try:
                expected = reference_tokens_to_score(parse_tokens(text))
            except (StructureError, ParseError):
                with pytest.raises((StructureError, ParseError)) as alone:
                    decode(text.split(), TokenTable())
                got = errors[first + j] = part.errors[j]
                assert (type(got), str(got)) == (type(alone.value), str(alone.value))
                assert part.starts[j] == part.starts[j + 1] and part.heads[j] is None
            else:
                assert j not in part.errors
                songs[first + j] = part.song(j)
                assert plain(songs[first + j]) == expected
        assert loop_tension_profiles(part.columns, part.spans) == [
            compute_tension_profile(part.song(j)) if j not in part.errors
            else TensionProfile((), (), ()) for j in range(len(part))]
        for _, regular in regular_parts(part):
            check_regular_part(regular)
    return errors, songs


def check_regular_part(batch: SongBatch) -> None:
    """The onset groups and loops of a regularized part are each song's
    own, with its bars and ticks offset."""
    good = [i for i in range(len(batch)) if i not in batch.errors]
    songs, starts = [batch.song(i) for i in good], [int(batch.starts[i]) for i in good]
    onsets, notes, gaps, owner, _ = _onset_groups(batch.columns, batch.starts)
    assert (owner[1:] >= owner[:-1]).all()
    for i, song in zip(good, songs):
        alone, alone_notes, alone_gaps, _, _ = _onset_groups(song)
        mine = (owner == i).nonzero()[0]
        assert [notes[j] for j in mine] == alone_notes and gaps[mine].tolist() == alone_gaps.tolist()
        assert len(set((onsets[mine] - alone).tolist())) <= 1
    params = LoopParams(min_rep_notes=1, min_rep_beats=1, min_loop_bars=1, max_loop_bars=2)
    assert extract_loops(batch.columns, params, batch.starts) == [
        LoopSpan(s.start_bar + start, s.end_bar + start, s.repetition_length_events)
        for song, start in zip(songs, starts) for s in extract_loops(song, params)]


@settings(deadline=None, max_examples=300)
@given(st.lists(st.one_of(valid_text(), st.lists(st.sampled_from(POOL), max_size=14).map(" ".join)),
                min_size=1, max_size=4))
def test_a_batch_decodes_each_song_as_the_song_alone(texts):
    check_batch(texts, TABLE)


def test_a_batch_decodes_on_where_the_token_table_must_empty_itself(monkeypatch):
    # each song brings new strings, so the table empties between songs and
    # the songs are decoded in parts
    monkeypatch.setattr(score_mod, "TOKEN_CACHE_SIZE", 12)
    rng = random.Random(3)
    texts = []
    for i in range(8):
        notes = [f"clean0:note:s{rng.randint(1, 6)}:f{rng.randint(0, 20)}" for _ in range(6)]
        fx = ["nfx:bend", "nfx:slide"][i % 2:]
        texts.append(" ".join(["tempo:90", "start", "new_measure", notes[0], *fx, "wait:480",
                               *notes[1:3], "wait:960", "time_signature:3", "new_measure",
                               *notes[3:], *(["frob"] if i == 5 else []), "end"]))
    parts = []
    decode_codes = score_mod._decode_codes
    monkeypatch.setattr(score_mod, "_decode_codes", lambda *a: parts.append(decode_codes(*a))
                        or parts[-1])
    errors, songs = check_batch(texts, TokenTable())
    assert list(errors) == [5] and len(parts) > 3
    assert [s.effects[x] for s in (songs[0], songs[1]) for x in s.fx.tolist()] == \
        [("bend", "slide"), (), (), (), (), (), ("slide",), (), (), (), (), ()]



def test_a_directory_past_the_token_bound_decodes_in_parts(monkeypatch):
    # the parts hold at most PART_TOKENS tokens, or one longer song, and
    # give each song as it decodes alone
    monkeypatch.setattr(score_mod, "PART_TOKENS", 40)
    rng = random.Random(4)
    texts = [" ".join(["tempo:90", "start", *(["new_measure", "clean0:note:s1:f3", "wait:960"]
                                              * rng.randint(1, 20)), "end"])
             for _ in range(12)]
    texts[4] = "start new_measure wait:0 end"
    parts = list(decode_parts([text.split() for text in texts], TokenTable()))
    assert [first for first, _ in parts] == [0, *accumulate(len(part) for _, part in parts)][:-1]
    assert sum(map(len, (part for _, part in parts))) == len(texts) and len(parts) > 4
    for first, part in parts:
        sizes = [len(texts[first + i].split()) for i in range(len(part)) if i not in part.errors]
        assert len(part) == 1 or sum(sizes) <= 40
        assert [first + i for i in part.errors] == [4] * (first <= 4 < first + len(part))
    check_batch(texts, TokenTable())


@pytest.mark.parametrize("part_tokens,cache_size", [(40, 1 << 14), (1 << 18, 12), (40, 12)])
def test_one_song_is_one_part(monkeypatch, part_tokens, cache_size):
    # decode reads the one part of one song: also of a song longer than
    # PART_TOKENS, and of one whose strings make the table empty mid-song
    monkeypatch.setattr(score_mod, "PART_TOKENS", part_tokens)
    monkeypatch.setattr(score_mod, "TOKEN_CACHE_SIZE", cache_size)
    notes = [f"clean0:note:s{string}:f{fret}" for string in (1, 2) for fret in range(10)]
    text = " ".join(["tempo:90", "start", *(f"new_measure {n} wait:480" for n in notes), "end"])
    assert len(text.split()) > 40 and len(set(text.split())) > 12
    table = TokenTable()
    decode("start new_measure bass:note:s1:f0 end".split(), table)
    parts = list(decode_parts([text.split()], table))
    assert [(first, len(part)) for first, part in parts] == [(0, 1)]
    assert plain(parts[0][1].song(0)) == reference_tokens_to_score(parse_tokens(text))
    assert ("bass:note:s1:f0" in table.codes) == (cache_size > 12)  # emptied mid-song
    assert plain(decode(text.split(), table)) == plain(parts[0][1].song(0))

# the per-bar computations on built columns and on their decoded tokens ------

def hand_built_scores():
    rng = random.Random(5)
    scores = [random_score(rng, numerators=(3, 4, 5), vary_tempo=True) for _ in range(60)]
    blocks = {c: bar_block(rng, 4) for c in "ABCD"}
    scores += [columns(block_bars(blocks, seq)) for seq in ("ABCDABCDA", "AABBAABBCDCD", "DCBA")]
    return scores


@pytest.mark.parametrize("score", hand_built_scores())
def test_per_bar_functions_agree_on_a_score_and_its_columns(score):
    """A song decoded from the tokens of built columns gives what the
    built columns give once their durations follow the gap rule."""
    regular = regularize_meter(canonical(score))
    decoded = regularize_meter(decode([t.raw for t in score_to_tokens(score)], TokenTable()))
    assert plain(decoded) == plain(regular)
    spans = [(s.start_bar, s.end_bar) for s in extract_loops(regular)]
    assert extract_loops(decoded) == extract_loops(regular)
    assert fingerprint_sequence(decoded) == fingerprint_sequence(regular)
    assert loop_tension_profiles(decoded, spans) == loop_tension_profiles(regular, spans)
    assert bar_bodies(decoded, range(decoded.n_bars)) == bar_bodies(regular,
                                                                     range(regular.n_bars))
    assert bar_bodies(score, range(score.n_bars)) == reference_bar_bodies(score,
                                                                         range(score.n_bars))


@settings(deadline=None, max_examples=300)
@given(st.lists(valid_text(), min_size=1, max_size=3), st.data())
def test_bar_bodies_render_any_bar_list_as_the_per_note_loop(texts, data):
    # decoded songs hold drums, effects, empty bars and 3/4, 5/4 and
    # overflowing bars; their regularized bars split the long ones
    for _, part in decode_parts([text.split() for text in texts], TABLE):
        for song in (part.columns, regularize_many(part).columns):
            every = range(song.n_bars)
            assert bar_bodies(song, every) == reference_bar_bodies(song, every)
            bars = data.draw(st.lists(st.sampled_from(every), max_size=12) if every
                             else st.just([]))  # any order, repeats included
            assert bar_bodies(song, bars) == reference_bar_bodies(song, bars)


def test_a_long_bar_among_short_ones_sums_like_the_rest():
    # one bar of 3,000 notes among 400 short bars sums as it does alone
    long_bar = (800, 120, [("clean0", i, 1, 60 + i % 5, 1, 0) for i in range(3000)], ())
    short_bars = [(4, 120, [("bass", 0, 960, 40 + i % 7, 1, 0)], ()) for i in range(1, 401)]
    score = columns([long_bar] + short_bars)
    reference = compute_tension_profile(columns([long_bar]))
    assert compute_tension_profile(score).cloud_diameter[0] == reference.cloud_diameter[0]
    got = loop_tension_profiles(score, [(0, 1), (1, 401)])
    assert got[0] == reference
    assert got[1] == compute_tension_profile(columns(short_bars))
