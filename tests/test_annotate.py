import random
from pathlib import Path

import pytest
import requests

from looptab import annotate
from looptab.annotate import (
    AnnotationError,
    AnnotationRecord,
    CsvFeaturesProvider,
    FeatureThresholds,
    HttpFeaturesProvider,
    build_corpus,
    compute_thresholds,
    feature_thresholds_from_json,
    feature_thresholds_to_json,
    fetch_annotations,
    inject_controls,
    load_annotations,
    save_annotations,
    song_control_tokens,
    strip_controls,
)
from looptab.score import score_to_tokens, tokens_to_score
from looptab.tension import TensionProfile, TensionThresholds, discretize_profile
from looptab.tokens import TokenCategory, parse_tokens, render_tokens

from util import bar_block, score_from_blocks


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
    assert feature_thresholds_from_json(feature_thresholds_to_json(th)) == th


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
])
def test_fetch_annotations_retries_only_transient_errors(monkeypatch, error, calls):
    sleeps = []
    monkeypatch.setattr(annotate.time, "sleep", sleeps.append)

    class Failing:
        lookups = 0

        def lookup(self, artist, title):
            self.lookups += 1
            raise error

    provider = Failing()
    assert fetch_annotations(provider, [("a", "t")], retries=3) == ([], [("a", "t")])
    assert provider.lookups == calls
    assert len(sleeps) == calls - 1


# corpus building -------------------------------------------------------------

def write_song(tmp_path, name, sequence, blocks, tempo=120):
    from dataclasses import replace
    score = score_from_blocks(blocks, sequence)
    score = replace(score, header_tempo=tempo,
                    measures=tuple(replace(m, tempo_bpm=tempo) for m in score.measures))
    (tmp_path / f"{name}.tokens").write_text(
        render_tokens(score_to_tokens(score, include_artist=False)) + "\n")


def test_build_corpus_end_to_end(tmp_path, monkeypatch):
    from looptab import cli
    from looptab.tension import thresholds_from_json

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
        score = tokens_to_score(parse_tokens(line))
        assert len(score.measures) == 4
        for m in score.measures:
            features = {t.fields["feature"] for t in m.bar_controls}
            assert features == {"cloud_diameter", "cloud_momentum", "tensile_strain"}
    assert feature_thresholds_from_json((out / "features.json").read_text()) == \
        compute_thresholds(annotations)
    thresholds_from_json((out / "tension.json").read_text())

    same, result = build_corpus(scores, annotations)
    assert same == lines
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
