import pytest
from hypothesis import given
from hypothesis import strategies as st

from looptab.score import ScoreColumns, StructureError, score_to_tokens, tokens_to_score
from looptab.tokens import (
    ParseError,
    Token,
    TokenCategory,
    header_token,
    parse_tokens,
    render_tokens,
    token,
)

from util import columns


def test_new_measure_is_structure():
    stream = parse_tokens("new_measure")
    assert len(stream) == 1
    assert stream[0].category is TokenCategory.STRUCTURE


def test_empty_input_is_empty_stream():
    assert parse_tokens("") == []
    assert parse_tokens("   \n  ") == []


def test_note_and_wait():
    stream = parse_tokens("distorted0:note:s4:f7 wait:480")
    note, wait = stream
    assert note.category is TokenCategory.NOTE
    assert note.fields == {"track": "distorted0", "string": 4, "fret": 7}
    assert wait.category is TokenCategory.WAIT
    assert wait.fields == {"ticks": 480}


def test_malformed_token_reports_index():
    with pytest.raises(ParseError) as exc:
        parse_tokens("note:banana")
    assert exc.value.index == 0
    with pytest.raises(ParseError) as exc:
        parse_tokens("new_measure wait:480 frob:nope")
    assert exc.value.index == 2


@pytest.mark.parametrize("raw,category", [
    ("artist:metallica", TokenCategory.HEADER),
    ("tempo:120", TokenCategory.HEADER),
    ("time_signature:4", TokenCategory.HEADER),
    ("start", TokenCategory.HEADER),
    ("end", TokenCategory.HEADER),
    ("valence:high", TokenCategory.SONG_CONTROL),
    ("arousal:low", TokenCategory.SONG_CONTROL),
    ("mode:minor", TokenCategory.SONG_CONTROL),
    ("cloud_diameter:q1", TokenCategory.BAR_CONTROL),
    ("cloud_momentum:q4", TokenCategory.BAR_CONTROL),
    ("tensile_strain:q2", TokenCategory.BAR_CONTROL),
    ("bass:note:s4:f0", TokenCategory.NOTE),
    ("drums:note:38", TokenCategory.NOTE),
    ("wait:960", TokenCategory.WAIT),
    ("nfx:palm_mute", TokenCategory.EFFECT),
])
def test_grammar_coverage(raw, category):
    t = token(raw)
    assert t.category is category
    assert t.raw == raw


@pytest.mark.parametrize("raw", [
    "tempo:20", "tempo:999", "tempo:fast",
    "wait:0", "wait:-5",
    "valence:medium", "mode:dorian",
    "cloud_diameter:q5", "tensile_strain:high",
    "distorted0:note:s4:f31", "distorted0:note:f7", "drums:note:200",
    "banana", "nfx:", ":", "distorted9:note:s1:f0",
    "nfx:palm_mute!", "leads:note:s1:f2x",
])
def test_rejected_tokens(raw):
    with pytest.raises(ParseError):
        token(raw)


@pytest.mark.parametrize("raw", [
    "nfx:abc\n", "leads:note:s1:f2\n", "artist:my band", "artist:my\tband", " wait:480",
    "wait:480\u00a0", "new_measure\n", "",
])
def test_tokens_hold_no_whitespace(raw):
    with pytest.raises(ParseError):
        token(raw)


def test_an_artist_with_a_space_is_rejected_before_rendering():
    with pytest.raises(ParseError):
        header_token("artist", "my band")
    with pytest.raises(ParseError):
        score_to_tokens(columns([], artist="my band"))


def test_unknown_effect_names_pass_through():
    t = token("nfx:bend_release_3.5")
    assert t.category is TokenCategory.EFFECT
    assert t.fields["name"] == "bend_release_3.5"


def test_render_round_trip():
    text = "valence:high arousal:low mode:major time_signature:4 tempo:150 start " \
           "new_measure cloud_diameter:q2 distorted0:note:s6:f0 nfx:palm_mute wait:960 end"
    assert render_tokens(parse_tokens(text)) == text


def test_token_equality_ignores_parsed_fields():
    assert token("wait:480") == Token(TokenCategory.WAIT, "wait:480")


guitar_notes = st.builds(
    "{}:note:s{}:f{}".format,
    st.sampled_from(("distorted0", "distorted1", "distorted2", "clean0", "clean1", "leads")),
    st.integers(1, 6), st.integers(0, 30))
valid_tokens = st.one_of(
    guitar_notes,
    st.builds("bass:note:s{}:f{}".format, st.integers(1, 4), st.integers(0, 30)),
    st.builds("drums:note:{}".format, st.integers(0, 127)),
    st.builds("wait:{}".format, st.integers(1, 10_000)),
    st.builds("tempo:{}".format, st.integers(30, 300)),
    st.sampled_from(("new_measure", "start", "end", "valence:high", "arousal:low",
                     "mode:minor", "cloud_diameter:q3", "nfx:vibrato")),
)


@given(st.lists(valid_tokens, max_size=40))
def test_any_valid_stream_round_trips(raws):
    text = " ".join(raws)
    assert render_tokens(parse_tokens(text)) == text


@given(valid_tokens)
def test_single_token_render_is_identity(raw):
    assert token(raw).raw == raw


@pytest.mark.parametrize("raw", [
    "wait:\u00b2", "drums:note:\u00b3", "tempo:\uff11\uff12\uff10", "time_signature:\u0664",
    "distorted0:note:s\u0663:f\u0663", "bass:note:s2:f\u0663",
])
def test_numbers_take_ascii_digits_only(raw):
    with pytest.raises(ParseError) as exc:
        parse_tokens(f"start {raw}")
    assert (exc.value.index, exc.value.token) == (1, raw)


def test_fields_are_read_only():
    t = token("wait:480")
    with pytest.raises(TypeError):
        t.fields["ticks"] = 1
    given = {"ticks": 480}
    t = Token(TokenCategory.WAIT, "wait:480", given)
    given["ticks"] = 1
    assert t.fields == {"ticks": 480}
    assert Token(TokenCategory.STRUCTURE, "new_measure").fields == {}


def test_equal_strings_share_one_token():
    a, b = parse_tokens("wait:480 wait:480")
    assert a is b is token("wait:480")


def test_failures_are_not_cached():
    token.cache_clear()
    for text, index in (("new_measure wait:0", 1), ("start new_measure wait:480 wait:0", 3)):
        with pytest.raises(ParseError) as exc:
            parse_tokens(text)
        assert (exc.value.index, exc.value.token) == (index, "wait:0")
        assert str(exc.value) == f"token {index} ('wait:0'): wait ticks must be > 0"
    # wait:0 misses both times and is not kept; new_measure hits the second time
    info = token.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 5, 3)


def test_each_distinct_string_is_classified_once():
    raws = ["new_measure", "clean0:note:s2:f5", "wait:240", "nfx:vibrato"]
    text = " ".join(raws[i % 3 + (i % 7 == 0)] for i in range(200))
    token.cache_clear()
    stream = parse_tokens(text)
    info = token.cache_info()
    assert len(stream) == 200
    assert (info.misses, info.hits) == (len(set(text.split())), 200 - len(set(text.split())))


# Token text near the grammar: valid tokens, near misses and free text.
near_tokens = st.builds(
    "{}:{}".format,
    st.sampled_from(("tempo", "wait", "time_signature", "drums:note", "nfx", "artist",
                     "valence", "mode", "cloud_momentum", "leads:note", "bass:note", "frob")),
    st.text(alphabet="0123456789sf:q-_.\u00b2\u0663\uff11abhilnorw", max_size=8))
token_text = st.builds(
    "{} {}".format,
    st.sampled_from(("", "start new_measure")),
    st.lists(st.one_of(valid_tokens, near_tokens, st.text(max_size=10)), max_size=30
             ).map(" ".join))


@given(token_text)
def test_interned_parse_matches_the_uncached_classifier(text):
    classify = token.__wrapped__
    try:
        stream = parse_tokens(text)
    except ParseError as exc:
        raws = text.split()
        index = exc.index
        for raw in raws[:index]:
            classify(raw)
        with pytest.raises(ParseError):
            classify(raws[index])
        assert exc.token == raws[index]
        return
    expected = [classify(raw) for raw in text.split()]
    assert [(t.category, t.raw, dict(t.fields)) for t in stream] == \
        [(t.category, t.raw, dict(t.fields)) for t in expected]
    try:
        assert isinstance(tokens_to_score(stream), ScoreColumns)
    except (ParseError, StructureError):
        pass
