import json
import random
from dataclasses import replace

import pytest

from looptab import cli
from looptab.cli import atomic_write, label_free, main
from looptab.loops import LoopSpan, extract_loops, splice_loop
from looptab.score import NoteEvent, score_to_tokens, tokens_to_score
from looptab.tension import (
    TensionProfile,
    compute_tension_profile,
    fit_tension_thresholds,
    thresholds_from_json,
)
from looptab.tokens import parse_tokens, render_tokens

from util import bar_block, score_from_blocks


def write_song(directory, name, sequence, blocks, tempo):
    score = score_from_blocks(blocks, sequence)
    score = replace(score, header_tempo=tempo,
                    measures=tuple(replace(m, tempo_bpm=tempo) for m in score.measures))
    (directory / f"{name}.tokens").write_text(
        render_tokens(score_to_tokens(score, include_artist=False)) + "\n")


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Scores, annotations and every derived artifact of the pipeline."""
    root = tmp_path_factory.mktemp("pipeline")
    scores = root / "scores"
    scores.mkdir()
    rng = random.Random(17)
    for i, (name, tempo) in enumerate((("bright_one", 160), ("bright_two", 170),
                                       ("dark_one", 80), ("dark_two", 90))):
        blocks = {c: bar_block(rng, 4) for c in "AB"}
        write_song(scores, name, "ABABABABAB", blocks, tempo)
    ann = root / "annotations.csv"
    ann.write_text("artist,title,valence,energy,mode\n"
                   ",bright_one,0.9,0.9,major\n"
                   ",bright_two,0.8,0.8,major\n"
                   ",dark_one,0.1,0.1,minor\n"
                   ",dark_two,0.2,0.2,minor\n")
    return root


def run(*argv):
    return main(list(argv))


def test_annotate_command(workspace, tmp_path):
    out = tmp_path / "features.json"
    assert run("annotate", "--annotations", str(workspace / "annotations.csv"),
               "--out-thresholds", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["valence_median"] == 0.5


def test_annotate_with_csv_provider(workspace, tmp_path):
    songs = tmp_path / "songs.csv"
    songs.write_text("artist,title\n,bright_one\n,nowhere\n")
    cache = tmp_path / "fetched.csv"
    assert run("annotate", "--songs", str(songs),
               "--provider-csv", str(workspace / "annotations.csv"),
               "--out-annotations", str(cache),
               "--out-thresholds", str(tmp_path / "th.json")) == 0
    assert "bright_one" in cache.read_text()


@pytest.mark.parametrize("header", ["artist,name\nx,y\n", "title\ny\n", ""])
def test_annotate_songs_csv_without_artist_or_title_exits_1(workspace, tmp_path, capsys,
                                                            header):
    songs = tmp_path / "songs.csv"
    songs.write_text(header)
    assert run("annotate", "--songs", str(songs),
               "--provider-csv", str(workspace / "annotations.csv")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "artist" in err and "title" in err
    assert err.count("\n") == 1


def test_tension_command(workspace, tmp_path):
    out = tmp_path / "tension.csv"
    assert run("tension", "--scores", str(workspace / "scores"),
               "--out-csv", str(out),
               "--out-thresholds", str(tmp_path / "tth.json")) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "song,bar,cd,cm,ts,cd_level,cm_level,ts_level"
    assert len(lines) == 1 + 4 * 10  # 4 songs x 10 bars
    assert all(line.split(",")[5] in ("q1", "q2", "q3", "q4") for line in lines[1:])


def test_loops_command(workspace, tmp_path):
    out = tmp_path / "loops.jsonl"
    assert run("loops", "--scores", str(workspace / "scores"), "--out", str(out)) == 0
    rows = [json.loads(l) for l in out.read_text().splitlines()]
    assert rows
    assert {"song", "start_bar", "end_bar", "rep_len"} <= set(rows[0])
    assert all(r["end_bar"] - r["start_bar"] == 4 for r in rows)


@pytest.fixture(scope="module")
def corpus(workspace):
    out = workspace / "corpus.txt"
    code = run("corpus", "--scores", str(workspace / "scores"),
               "--annotations", str(workspace / "annotations.csv"),
               "--out", str(out),
               "--out-tension-thresholds", str(workspace / "tension_thresholds.json"),
               "--out-feature-thresholds", str(workspace / "feature_thresholds.json"))
    assert code == 0
    return out


def test_corpus_lines_are_labeled_and_parse(corpus):
    lines = corpus.read_text().splitlines()
    assert len(lines) >= 4
    assert any(l.startswith("valence:high arousal:high mode:major") for l in lines)
    assert any(l.startswith("valence:low arousal:low mode:minor") for l in lines)
    for line in lines:
        parse_tokens(line)


@pytest.fixture(scope="module")
def model(workspace, corpus):
    out = workspace / "model.json"
    assert run("train-gen", "--corpus", str(corpus), "--out", str(out)) == 0
    return out


def test_generate_respects_tempo_and_is_deterministic(workspace, model, tmp_path):
    d1, d2 = tmp_path / "g1", tmp_path / "g2"
    for d in (d1, d2):
        assert run("generate", "--model", str(model), "--emotion", "happy",
                   "--count", "3", "--seed", "11", "--out-dir", str(d)) == 0
    files1 = sorted(d1.glob("*.tokens"))
    assert len(files1) == 3
    for f1 in files1:
        assert f1.read_text() == (d2 / f1.name).read_text()
        for raw in f1.read_text().split():
            if raw.startswith("tempo:"):
                assert int(raw.split(":")[1]) >= 150


def test_generate_sad_tempo(workspace, model, tmp_path):
    d = tmp_path / "sad"
    assert run("generate", "--model", str(model), "--emotion", "sad",
               "--count", "2", "--seed", "5", "--out-dir", str(d)) == 0
    for f in d.glob("*.tokens"):
        for raw in f.read_text().split():
            if raw.startswith("tempo:"):
                assert int(raw.split(":")[1]) <= 100


def test_generate_tension_ablation_strips_bar_controls(workspace, model, tmp_path):
    d = tmp_path / "ablated"
    assert run("generate", "--model", str(model), "--emotion", "happy",
               "--count", "1", "--seed", "2", "--ablate", "tension",
               "--out-dir", str(d)) == 0
    text = next(d.glob("*.tokens")).read_text()
    assert "cloud_diameter" not in text
    assert "tensile_strain" not in text


@pytest.fixture(scope="module")
def classifiers(workspace, corpus):
    out = workspace / "clf"
    assert run("train-clf", "--corpus", str(corpus), "--out-dir", str(out)) == 0
    return out


def test_eval_emotion_command(workspace, model, classifiers, tmp_path):
    happy_dir, sad_dir = tmp_path / "happy", tmp_path / "sad"
    assert run("generate", "--model", str(model), "--emotion", "happy",
               "--count", "4", "--seed", "0", "--out-dir", str(happy_dir)) == 0
    assert run("generate", "--model", str(model), "--emotion", "sad",
               "--count", "4", "--seed", "0", "--out-dir", str(sad_dir)) == 0
    out_json = tmp_path / "metrics.json"
    assert run("eval-emotion", "--happy", str(happy_dir), "--sad", str(sad_dir),
               "--valence-model", str(classifiers / "valence.json"),
               "--arousal-model", str(classifiers / "arousal.json"),
               "--out-json", str(out_json)) == 0
    doc = json.loads(out_json.read_text())
    assert len(doc["rows"]) == 3
    for row in doc["rows"]:
        if row["group"] != "difference":
            for key in ("HVP", "MVS", "HAP", "MAS"):
                assert 0.0 <= row[key] <= 1.0


def test_eval_loops_command(workspace, tmp_path):
    out = tmp_path / "loops.json"
    assert run("eval-loops", "--generations", str(workspace / "scores"),
               "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["generations"] == 4
    assert doc["loops_found"] >= 4
    assert doc["average_per_generation"] == doc["loops_found"] / 4


def test_eval_stats_wilcoxon(tmp_path, capsys):
    data = tmp_path / "paired.csv"
    data.write_text("a,b\n" + "".join(f"{i + 1}.0,0.0\n" for i in range(6)))
    assert run("eval-stats", "--method", "wilcoxon", "--input", str(data)) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["W"] == 0.0
    assert abs(doc["p_value"] - 0.03125) < 1e-12
    assert doc["exact"] is True


def test_eval_stats_friedman(tmp_path, capsys):
    data = tmp_path / "groups.csv"
    data.write_text("g1,g2,g3\n" + "1.0,2.0,3.0\n" * 3)
    assert run("eval-stats", "--method", "friedman", "--input", str(data)) == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["chi2"] - 6.0) < 1e-12
    assert doc["df"] == 2


def test_eval_stats_pairwise(tmp_path, capsys):
    rng = random.Random(23)
    rows = [f"{rng.random()},{rng.random() + 2},{rng.random()}" for _ in range(8)]
    data = tmp_path / "three.csv"
    data.write_text("a,b,c\n" + "\n".join(rows) + "\n")
    assert run("eval-stats", "--method", "pairwise", "--input", str(data)) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["comparisons"]) == 3
    assert all(abs(c["alpha_adjusted"] - 0.05 / 3) < 1e-12 for c in doc["comparisons"])


def test_survey_command(tmp_path, capsys):
    data = tmp_path / "responses.csv"
    data.write_text("participant,group,question,answer,target\n"
                    "p1,gen,heard,N,\n"
                    "p1,gen,composer,Human,\n"
                    "p1,gen,preference,5,\n"
                    "p1,gen,emotion,6,happy\n"
                    "p1,gen,emotion,2,sad\n")
    assert run("survey", "--responses", str(data)) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["not_heard_pct"]["gen"] == 100.0
    assert doc["likert_means"]["gen"]["preference"] == 1.0
    assert doc["emotion_by_target"]["gen"] == {"HES": 2.0, "SES": -2.0}


# error paths -----------------------------------------------------------------

def test_usage_error_exits_1(capsys):
    assert run("generate", "--emotion", "happy") == 1
    capsys.readouterr()


def test_missing_input_file_exits_2(tmp_path, capsys):
    assert run("train-gen", "--corpus", str(tmp_path / "absent.txt"),
               "--out", str(tmp_path / "m.json")) == 2
    capsys.readouterr()


def test_validation_error_exits_1(workspace, tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run("loops", "--scores", str(empty), "--out", str(tmp_path / "o.jsonl")) == 1
    assert run("tension", "--scores", str(empty), "--out-csv", str(tmp_path / "t.csv")) == 1
    assert run("corpus", "--scores", str(empty), "--out", str(tmp_path / "c.txt"),
               "--annotations", str(workspace / "annotations.csv")) == 1
    assert capsys.readouterr().err == f"error: no *.tokens files in {empty}\n" * 3
    assert list(tmp_path.iterdir()) == [empty]


def test_annotate_without_source_exits_1(capsys):
    assert run("annotate") == 1
    capsys.readouterr()


def test_main_builds_the_parser_once(monkeypatch, capsys):
    cli.build_parser.cache_clear()
    built = []
    add_subparsers = cli._Parser.add_subparsers
    monkeypatch.setattr(cli._Parser, "add_subparsers",
                        lambda self, **kw: built.append(self) or add_subparsers(self, **kw))
    assert run("annotate") == 1
    assert run("annotate") == 1
    assert len(built) == 1
    capsys.readouterr()


def arpeggio_bar(*pitches):
    """Four quarter notes on clean0, strings 3 and 5."""
    return [NoteEvent("clean0", i * 960, 960, p, 3 if p >= 55 else 5, p - (55 if p >= 55 else 45))
            for i, p in enumerate(pitches)]


def test_key_scope_is_the_song_for_tension_and_the_loop_for_corpus(tmp_path):
    """`looptab tension` estimates the key over each whole song, `looptab
    corpus` over each spliced loop. The song's key is C major; its loops on
    the F# major bars have another key."""
    scores = tmp_path / "scores"
    scores.mkdir()
    blocks = {"A": arpeggio_bar(60, 64, 67, 72), "B": arpeggio_bar(55, 59, 62, 67),
              "C": arpeggio_bar(53, 57, 60, 65), "D": arpeggio_bar(60, 64, 67, 64),
              "E": arpeggio_bar(66, 70, 73, 78), "F": arpeggio_bar(61, 65, 68, 73),
              "G": arpeggio_bar(59, 63, 66, 71), "H": arpeggio_bar(54, 58, 61, 66)}
    write_song(scores, "song", "ABCDABCDEFGHEFGH", blocks, 120)
    score = tokens_to_score(parse_tokens((scores / "song.tokens").read_text()))
    ann = tmp_path / "annotations.csv"
    ann.write_text("artist,title,valence,energy,mode\n,song,0.9,0.9,major\n")
    assert run("tension", "--scores", str(scores), "--out-csv", str(tmp_path / "t.csv")) == 0
    assert run("corpus", "--scores", str(scores), "--annotations", str(ann),
               "--out", str(tmp_path / "c.txt"),
               "--out-tension-thresholds", str(tmp_path / "th.json")) == 0

    per_song = compute_tension_profile(score).tensile_strain
    per_window = [v for i in range(0, 16, 4)
                  for v in compute_tension_profile(
                      splice_loop(score, LoopSpan(i, i + 4, 0))).tensile_strain]
    assert list(per_song) != per_window
    rows = [r.split(",") for r in (tmp_path / "t.csv").read_text().splitlines()[1:]]
    assert [r[4] for r in rows] == [f"{v:.9g}" for v in per_song]

    spans = extract_loops(score)
    per_loop = fit_tension_thresholds(
        compute_tension_profile(splice_loop(score, span)) for span in spans)
    song_key = [v for span in spans for v in per_song[span.start_bar:span.end_bar]]
    assert fit_tension_thresholds([TensionProfile(song_key, song_key, song_key)]
                                  ).tensile_strain != per_loop.tensile_strain
    written = thresholds_from_json((tmp_path / "th.json").read_text())
    assert written.tensile_strain == per_loop.tensile_strain


def test_eval_stats_ragged_csv_exits_1(tmp_path, capsys):
    data = tmp_path / "ragged.csv"
    data.write_text("a,b\n1,2\n3\n4,5\n")
    assert run("eval-stats", "--method", "wilcoxon", "--input", str(data)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "line 3 has 1 values" in err
    assert err.count("\n") == 1
    data.write_text("")
    assert run("eval-stats", "--method", "wilcoxon", "--input", str(data)) == 1
    assert capsys.readouterr().err == "error: no data rows\n"


# helpers ---------------------------------------------------------------------

def test_atomic_write_replaces_and_cleans_up(tmp_path):
    target = tmp_path / "out.txt"
    atomic_write(target, "one")
    atomic_write(target, "two")
    assert target.read_text() == "two"
    assert list(tmp_path.iterdir()) == [target]
    plain = tmp_path / "plain.txt"
    plain.write_text("x")
    assert target.stat().st_mode == plain.stat().st_mode  # the umask sets both


def test_label_free_strips_only_labels():
    toks = ["valence:high", "arousal:low", "mode:major", "tempo:160", "start"]
    assert label_free(toks) == ["mode:major", "tempo:160", "start"]
