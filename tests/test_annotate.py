import json
import random
import re
import tempfile
from pathlib import Path

import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

from looptab import annotate
from looptab.annotate import (
    AnnotationError,
    AnnotationRecord,
    CsvFeaturesProvider,
    FeatureThresholds,
    HttpFeaturesProvider,
    build_corpus,
    compute_thresholds,
    feature_thresholds_to_json,
    fetch_annotations,
    inject_controls,
    load_annotations,
    save_annotations,
    song_control_tokens,
    strip_controls,
)
from looptab.loops import extract_loops, splice_loop
from looptab.score import regularize_meter, score_to_tokens, tokens_to_score
from looptab.tension import DEFAULT_PARAMS as DEFAULT_SPIRAL
from looptab.tension import (
    TensionProfile,
    TensionThresholds,
    discretize_profile,
    fit_tension_thresholds,
    thresholds_to_json,
)
from looptab.tokens import TokenCategory, parse_tokens, render_tokens, token

from test_tension import reference_profile
from util import bar_block, bars_of, block_bars, columns, random_measure


def rec(valence=0.5, energy=0.5, mode="major", artist="a", title="t"):
    return AnnotationRecord(artist, title, valence, energy, mode)


# records and CSV i/o ---------------------------------------------------------

def test_record_validation():
    with pytest.raises(AnnotationError):
        rec(valence=1.5)
    with pytest.raises(AnnotationError):
        rec(energy=-0.1)
    with pytest.raises(AnnotationError):
        rec(mode="dorian")


def test_load_annotations_round_trip(tmp_path):
    records = [rec(0.2, 0.9, "minor", "Band", "Song One"),
               rec(0.8, 0.1, "major", "Other", "Song Two")]
    path = tmp_path / "ann.csv"
    save_annotations(records, path)
    assert load_annotations(path) == records


def test_failed_annotation_save_keeps_the_previous_file(tmp_path):
    path = tmp_path / "ann.csv"
    save_annotations([rec(artist="Band", title="Kept")], path)
    before = path.read_bytes()

    def records():
        yield rec(artist="Band", title="Lost")
        raise RuntimeError("provider went away")

    with pytest.raises(RuntimeError):
        save_annotations(records(), path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_load_annotations_numeric_mode_alias(tmp_path):
    path = tmp_path / "ann.csv"
    path.write_text("artist,title,valence,energy,mode\na,t,0.5,0.5,1\nb,u,0.5,0.5,0\n")
    loaded = load_annotations(path)
    assert [r.mode for r in loaded] == ["major", "minor"]


def test_load_annotations_bad_header(tmp_path):
    path = tmp_path / "ann.csv"
    path.write_text("artist,title,valence\na,t,0.5\n")
    with pytest.raises(AnnotationError, match="header"):
        load_annotations(path)


def test_load_annotations_reports_line_number(tmp_path):
    path = tmp_path / "ann.csv"
    path.write_text("artist,title,valence,energy,mode\na,t,0.5,0.5,major\nb,u,2.0,0.5,major\n")
    with pytest.raises(AnnotationError, match="line 3"):
        load_annotations(path)


@pytest.mark.parametrize("row", ["A,b,0.5", "A", "A,b,0.5,0.5"])
def test_load_annotations_short_row_names_the_file_and_line(tmp_path, row):
    path = tmp_path / "ann.csv"
    path.write_text("artist,title,valence,energy,mode\n\na,t,0.5,0.5,major\n" + row + "\n")
    with pytest.raises(AnnotationError, match=f"^{re.escape(str(path))}: line 4: "):
        load_annotations(path)
    with pytest.raises(AnnotationError, match="line 4"):
        CsvFeaturesProvider(path)


def test_duplicate_annotations_last_wins(tmp_path, caplog):
    path = tmp_path / "ann.csv"
    path.write_text("artist,title,valence,energy,mode\n"
                    "A,T,0.1,0.1,major\n"
                    "a,  t ,0.9,0.9,minor\n")
    with caplog.at_level("WARNING"):
        loaded = load_annotations(path)
    assert len(loaded) == 1
    assert loaded[0].valence == 0.9
    assert any("duplicate" in r.message for r in caplog.records)


# thresholds and controls -----------------------------------------------------

def test_compute_thresholds_odd_and_even():
    odd = [rec(v, e) for v, e in ((0.1, 0.3), (0.5, 0.5), (0.9, 0.7))]
    assert compute_thresholds(odd) == FeatureThresholds(0.5, 0.5)
    even = [rec(v, v) for v in (0.1, 0.2, 0.6, 0.9)]
    assert compute_thresholds(even) == FeatureThresholds(0.4, 0.4)
    with pytest.raises(AnnotationError):
        compute_thresholds([])


def test_song_controls_threshold_is_inclusive_high():
    th = FeatureThresholds(0.5, 0.5)
    tokens = song_control_tokens(rec(0.5, 0.49, "minor"), th)
    assert [t.raw for t in tokens] == ["valence:high", "arousal:low", "mode:minor"]


def test_median_split_property():
    rng = random.Random(11)
    records = [rec(rng.random(), rng.random()) for _ in range(101)]
    th = compute_thresholds(records)
    highs = sum(1 for r in records if r.valence >= th.valence_median)
    # odd count with distinct values: the median itself goes high
    assert highs == 51


def test_feature_thresholds_json_round_trip():
    th = FeatureThresholds(0.433, 0.846)
    doc = json.loads(feature_thresholds_to_json(th))
    assert doc["format"] == "looptab-feature-thresholds"
    assert FeatureThresholds(doc["valence_median"], doc["arousal_median"]) == th


# injection and stripping -----------------------------------------------------

def two_bar_stream():
    return parse_tokens("time_signature:4 tempo:120 start "
                        "new_measure clean0:note:s1:f0 wait:3840 "
                        "new_measure clean0:note:s1:f2 wait:3840 end")


def leveled_profile(n=2):
    vals = tuple(float(i) for i in range(n))
    profile = TensionProfile(vals, vals, vals)
    th = TensionThresholds((0.5,) * 3, (0.5,) * 3, (0.5,) * 3)
    return discretize_profile(profile, th)


def test_inject_controls_layout():
    stream = two_bar_stream()
    out = inject_controls(stream, song_control_tokens(rec(0.9, 0.9), FeatureThresholds(0.5, 0.5)),
                          leveled_profile())
    text = render_tokens(out)
    assert text.startswith("valence:high arousal:high mode:major time_signature:4 tempo:120 start")
    assert "new_measure cloud_diameter:q1 cloud_momentum:q1 tensile_strain:q1 clean0:note:s1:f0" in text
    assert "new_measure cloud_diameter:q4 cloud_momentum:q4 tensile_strain:q4 clean0:note:s1:f2" in text
    assert len(out) == len(stream) + 3 + 6


def test_inject_requires_discretized_matching_profile():
    stream = two_bar_stream()
    with pytest.raises(ValueError, match="discretize"):
        inject_controls(stream, [], TensionProfile((0.0,) * 2, (0.0,) * 2, (0.0,) * 2))
    with pytest.raises(ValueError, match="bars"):
        inject_controls(stream, [], leveled_profile(3))


def test_strip_inverts_inject():
    stream = two_bar_stream()
    out = inject_controls(stream, song_control_tokens(rec(), FeatureThresholds(0.5, 0.5)),
                          leveled_profile())
    assert strip_controls(out) == stream
    # the injected stream still parses as a score
    tokens_to_score(out)


# providers -------------------------------------------------------------------

def test_csv_provider_lookup_normalizes(tmp_path):
    path = tmp_path / "ann.csv"
    save_annotations([rec(artist="My Band", title="The Song")], path)
    provider = CsvFeaturesProvider(path)
    assert provider.lookup("my  band", "the song") is not None
    assert provider.lookup("my band", "other") is None


class RecordingSession:
    def __init__(self):
        self.urls = []

    def get(self, url, headers=None, timeout=None):
        self.urls.append(url)
        return type("Reply", (), {"status_code": 404})()


def test_http_provider_quotes_artist_and_title():
    session = RecordingSession()
    provider = HttpFeaturesProvider("https://features.test/{artist}/{title}?q={title}",
                                    session=session)
    assert provider.lookup("AC/DC", "Rock & Roll") is None
    assert session.urls == ["https://features.test/AC%2FDC/Rock%20%26%20Roll?q=Rock%20%26%20Roll"]


class FlakyProvider:
    def __init__(self, fail_times):
        self.fail_times = fail_times
        self.calls = 0

    def lookup(self, artist, title):
        self.calls += 1
        if self.calls <= self.fail_times:
            raise ConnectionError("boom")
        if title == "missing":
            return None
        return rec(artist=artist, title=title)


def test_fetch_annotations_retries_then_succeeds():
    provider = FlakyProvider(fail_times=2)
    records, misses = fetch_annotations(provider, [("a", "t")], retries=3, backoff=0.0)
    assert len(records) == 1 and misses == []
    assert provider.calls == 3


def test_fetch_annotations_counts_misses():
    provider = FlakyProvider(fail_times=0)
    records, misses = fetch_annotations(
        provider, [("a", "t"), ("a", "missing")], retries=2, backoff=0.0)
    assert len(records) == 1
    assert misses == [("a", "missing")]


def test_fetch_annotations_gives_up_after_retries():
    provider = FlakyProvider(fail_times=99)
    records, misses = fetch_annotations(provider, [("a", "t")], retries=3, backoff=0.0)
    assert records == [] and misses == [("a", "t")]
    assert provider.calls == 3


def http_error(status):
    response = requests.Response()
    response.status_code = status
    return requests.HTTPError(f"{status}", response=response)


@pytest.mark.parametrize("error,calls", [
    (AnnotationError("valence 1.5 outside [0, 1]"), 1),
    (http_error(401), 1),
    (http_error(403), 1),
    (http_error(429), 3),
    (http_error(503), 3),
    (requests.ConnectionError("reset"), 3),
    (requests.Timeout("slow"), 3),
    ("<html>", 1),  # an HTTP 200 reply whose body is not JSON
])
def test_fetch_annotations_retries_only_transient_errors(monkeypatch, error, calls):
    sleeps = []
    monkeypatch.setattr(annotate.time, "sleep", sleeps.append)

    class Failing:
        lookups = 0

        def lookup(self, artist, title):
            self.lookups += 1
            raise error

    class Replying:
        lookups = 0

        def get(self, url, headers=None, timeout=None):
            self.lookups += 1
            reply = requests.Response()
            reply.status_code = 200
            reply._content = error.encode()
            return reply

    if isinstance(error, str):
        session = Replying()
        provider = HttpFeaturesProvider("https://features.test/{artist}/{title}", session=session)
    else:
        provider = session = Failing()
    assert fetch_annotations(provider, [("a", "t")], retries=3) == ([], [("a", "t")])
    assert session.lookups == calls
    assert len(sleeps) == calls - 1


# corpus building -------------------------------------------------------------

def write_song(tmp_path, name, sequence, blocks, tempo=120):
    score = columns(block_bars(blocks, sequence, tempo), header_tempo=tempo)
    (tmp_path / f"{name}.tokens").write_text(
        render_tokens(score_to_tokens(score, include_artist=False)) + "\n")


def test_build_corpus_end_to_end(tmp_path, monkeypatch):
    from looptab import cli

    written = []
    atomic_write = cli.atomic_write
    monkeypatch.setattr(cli, "atomic_write",
                        lambda path, text: (written.append(Path(path).name),
                                            atomic_write(path, text)))

    rng = random.Random(21)
    blocks = {c: bar_block(rng, 4) for c in "ABC"}
    scores, out = tmp_path / "scores", tmp_path / "out"
    scores.mkdir()
    out.mkdir()
    write_song(scores, "looped", "ABCAABCA", blocks, tempo=160)
    write_song(scores, "unlooped", "ABC", blocks)
    write_song(scores, "unannotated", "ABCAABCA", blocks)
    annotations = [
        rec(0.9, 0.9, "major", artist="", title="looped"),
        rec(0.1, 0.1, "minor", artist="", title="unlooped"),
    ]
    save_annotations(annotations, tmp_path / "annotations.csv")
    assert cli.main(["corpus", "--scores", str(scores),
                 "--annotations", str(tmp_path / "annotations.csv"),
                 "--out", str(out / "corpus.txt"),
                 "--out-tension-thresholds", str(out / "tension.json"),
                 "--out-feature-thresholds", str(out / "features.json")]) == 0
    assert sorted(written) == sorted(p.name for p in out.iterdir()) == \
        ["corpus.txt", "features.json", "tension.json"]
    lines = (out / "corpus.txt").read_text().splitlines()
    assert len(lines) >= 1
    for line in lines:
        assert line.startswith("valence:high arousal:high mode:major "
                               "time_signature:4 tempo:160 start new_measure")
        bars = bars_of(tokens_to_score(parse_tokens(line)))
        assert len(bars) == 4
        for _, _, _, controls in bars:
            features = {t.fields["feature"] for t in controls}
            assert features == {"cloud_diameter", "cloud_momentum", "tensile_strain"}
    features = json.loads((out / "features.json").read_text())
    assert FeatureThresholds(features["valence_median"], features["arousal_median"]) == \
        compute_thresholds(annotations)

    same, result = build_corpus(scores, annotations)
    assert same == lines
    assert (out / "tension.json").read_text() == \
        thresholds_to_json(result.tension_thresholds)
    assert result.songs_used == 1
    assert result.skipped_no_loops == 1
    assert result.skipped_no_annotation == 1
    assert result.lines == len(lines)


def test_build_corpus_is_deterministic(tmp_path):
    rng = random.Random(22)
    blocks = {c: bar_block(rng, 3) for c in "AB"}
    write_song(tmp_path, "s1", "ABABABAB", blocks)
    annotations = [rec(artist="", title="s1")]
    first, _ = build_corpus(tmp_path, annotations)
    second, _ = build_corpus(tmp_path, annotations)
    assert first == second


def test_build_corpus_skips_malformed_file(tmp_path, caplog):
    (tmp_path / "bad.tokens").write_text("start wait:480 banana\n")
    with caplog.at_level("ERROR"):
        lines, result = build_corpus(tmp_path, [rec(artist="", title="bad")])
    assert lines == []
    assert result.failed_files == 1


def test_build_corpus_skips_a_song_too_long_to_regularize(tmp_path, caplog):
    rng = random.Random(23)
    write_song(tmp_path, "looped", "ABABABAB", {c: bar_block(rng, 3) for c in "AB"})
    (tmp_path / "long.tokens").write_text("start new_measure clean0:note:s1:f0 "
                                          "wait:4294967296 end\n")
    with caplog.at_level("ERROR"):
        lines, result = build_corpus(tmp_path, [rec(artist="", title="looped"),
                                                rec(artist="", title="long")])
    assert lines and result.songs_used == 1 and result.failed_files == 1
    assert any("long.tokens" in r.getMessage() and "1118482" in r.getMessage()
               for r in caplog.records)


def reference_corpus(score_dir, annotations):
    """The corpus lines and tension thresholds of the token path: splice
    every loop, take its tension from its own bar clouds, and render
    ``score_to_tokens`` -> ``strip_controls`` -> ``inject_controls``."""
    by_key = {annotate._normalize_key(r.artist, r.title): r for r in annotations}
    spliced = []
    for path in sorted(Path(score_dir).glob("*.tokens")):
        score = tokens_to_score(parse_tokens(path.read_text()))
        rec_ = by_key.get(annotate._normalize_key(score.artist or "", path.stem))
        if rec_ is not None:
            regular = regularize_meter(score)
            spliced += [(rec_, splice_loop(regular, span)) for span in extract_loops(regular)]
    if not spliced:
        return [], None
    profiles = [reference_profile(bars_of(loop), DEFAULT_SPIRAL) for _, loop in spliced]
    thresholds = fit_tension_thresholds(profiles)
    features = compute_thresholds(annotations)
    return [render_tokens(inject_controls(
        strip_controls(score_to_tokens(loop, include_artist=False)),
        song_control_tokens(rec_, features), discretize_profile(profile, thresholds)))
        for (rec_, loop), profile in zip(spliced, profiles)], thresholds


BAR_CONTROLS = [f"{f}:{q}" for f in ("cloud_diameter", "cloud_momentum", "tensile_strain")
                for q in ("q1", "q4")]


@st.composite
def looped_scores(draw):
    """A song of random bars (any metre, drums, empty bars) with a repeated
    4- or 5-bar pattern, tempo changes, song controls and bar controls."""
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    blocks = [(4, 120, bar_block(rng, draw(st.integers(1, 4))), ())]
    blocks += [random_measure(rng, draw(st.sampled_from((3, 4, 4, 4, 5))))
               for _ in range(draw(st.integers(0, 3)))]  # any metre, drums, empty bars
    labels = st.integers(0, len(blocks) - 1)
    loop = [0] + draw(st.lists(labels, min_size=3, max_size=4))  # starts on an onset
    sequence = (draw(st.lists(labels, max_size=2)) + loop * draw(st.integers(2, 3))
                + draw(st.lists(labels, max_size=2)))
    tempo = st.sampled_from((90, 120, 160))
    bars = [(blocks[b][0], draw(tempo), blocks[b][2],
             tuple(token(t) for t in draw(st.lists(st.sampled_from(BAR_CONTROLS),
                                                    max_size=2, unique=True))))
            for b in sequence]
    controls = draw(st.lists(st.sampled_from(("valence:high", "arousal:low", "mode:minor")),
                             unique=True))
    return columns(bars, None, draw(tempo), bars[0][0], tuple(token(t) for t in controls))


@settings(deadline=None, max_examples=150)
@given(songs=st.lists(looped_scores(), min_size=1, max_size=3),
       values=st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6))
def test_corpus_lines_equal_the_token_path(songs, values):
    annotations = [rec(values[2 * i], values[2 * i + 1], ("major", "minor")[i % 2],
                       artist="", title=f"song{i}") for i in range(len(songs))]
    with tempfile.TemporaryDirectory() as tmp:
        for i, score in enumerate(songs):
            (Path(tmp) / f"song{i}.tokens").write_text(render_tokens(score_to_tokens(score)))
        lines, result = build_corpus(tmp, annotations)
        assert (lines, result.tension_thresholds) == reference_corpus(tmp, annotations)
