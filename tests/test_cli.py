import hashlib
import json
import logging
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import looptab
from looptab import cli
from looptab.cli import atomic_write, label_free, main
from looptab.evaluate import (NEWTON_MAX_ITER, NEWTON_TOL, TEMPO_BUCKETS, classifier_features,
                              feature_columns, train_classifier)
from looptab.loops import LoopSpan, extract_loops, splice_loop
from looptab.score import score_to_tokens, tokens_to_score
from looptab.tension import (
    TensionProfile,
    compute_tension_profile,
    fit_tension_thresholds,
)
from looptab.tokens import parse_tokens, render_tokens

from test_evaluate import reference_features
from util import bar_block, block_bars, columns, random_measure


def write_song(directory, name, sequence, blocks, tempo):
    score = columns(block_bars(blocks, sequence, tempo), header_tempo=tempo)
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


@pytest.mark.parametrize("row", ["Someone", "Someone,", "Someone,  "])
def test_annotate_songs_row_without_title_exits_1_naming_the_line(workspace, tmp_path, capsys,
                                                                   row):
    songs = tmp_path / "songs.csv"
    songs.write_text(f"artist,title\n,bright_one\n{row}\n")
    assert run("annotate", "--songs", str(songs),
               "--provider-csv", str(workspace / "annotations.csv")) == 1
    assert capsys.readouterr().err == f"error: {songs}: line 3: a song needs a title\n"


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


def test_train_clf_with_an_unlabelled_line_writes_nothing(corpus, tmp_path, capsys):
    lines = corpus.read_text().splitlines()
    lines[-1] = " ".join(t for t in lines[-1].split() if not t.startswith("arousal:"))
    bad = tmp_path / "corpus.txt"
    bad.write_text("\n".join(lines) + "\n")
    out = tmp_path / "clf"
    assert run("train-clf", "--corpus", str(bad), "--out-dir", str(out)) == 1
    err = capsys.readouterr().err
    assert err == f"error: {bad}: line {len(lines)} carries no arousal label\n"
    assert not (out / "valence.json").exists()


def test_train_clf_label_error_counts_blank_lines(corpus, tmp_path, capsys):
    # it counted only the non-blank lines and reported line 2 here
    lines = corpus.read_text().splitlines()[:2]
    lines[1] = " ".join(t for t in lines[1].split() if not t.startswith("arousal:"))
    bad = tmp_path / "corpus.txt"
    bad.write_text(f"{lines[0]}\n\n{lines[1]}\n")
    assert run("train-clf", "--corpus", str(bad), "--out-dir", str(tmp_path / "clf")) == 1
    assert capsys.readouterr().err == f"error: {bad}: line 3 carries no arousal label\n"


def test_train_clf_logs_each_fit(corpus, tmp_path, caplog):
    with caplog.at_level(logging.INFO, logger="looptab"):
        assert run("train-clf", "--corpus", str(corpus), "--out-dir", str(tmp_path)) == 0
    for target in ("valence", "arousal"):
        accuracy = json.loads((tmp_path / f"{target}.json").read_text())["holdout_accuracy"]
        [line] = [m for m in caplog.messages if m.startswith(f"{target} classifier:")]
        fit = re.fullmatch(rf"{target} classifier: (\d+) Newton iterations, gradient max-norm "
                           rf"(\S+), held-out accuracy {accuracy}", line)
        assert fit and 1 <= int(fit[1]) <= NEWTON_MAX_ITER and float(fit[2]) <= NEWTON_TOL


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


@pytest.mark.parametrize("command", ["loops", "eval-loops"])
def test_a_song_too_long_to_regularize_exits_1_naming_it(tmp_path, capsys, command):
    # one wait of 2**32 ticks would become 1,118,482 bars of 4/4
    scores = tmp_path / "scores"
    scores.mkdir()
    song = scores / "long.tokens"
    song.write_text("start new_measure clean0:note:s1:f0 wait:4294967296 end\n")
    argv = (["loops", "--scores", str(scores), "--out", str(tmp_path / "loops.jsonl")]
            if command == "loops" else ["eval-loops", "--generations", str(scores)])
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {song}: ") and "1118482" in err and err.count("\n") == 1
    assert not (tmp_path / "loops.jsonl").exists()


def test_many_songs_at_the_bar_limit_run_in_bounded_memory(tmp_path):
    # each song becomes 65,536 bars of 4/4, the most one song may; held at
    # once, 300 of them would take arrays of 150 MiB each
    pytest.importorskip("resource")
    scores = tmp_path / "scores"
    scores.mkdir()
    names = [f"s{i:03d}" for i in range(300)]
    for name in names:
        (scores / f"{name}.tokens").write_text("start new_measure clean0:note:s1:f0 "
                                               "wait:251658240 end\n")
    ann = tmp_path / "annotations.csv"
    ann.write_text("artist,title,valence,energy,mode\n"
                   + "".join(f",{name},0.5,0.5,major\n" for name in names))
    code = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (500 * 2**20,) * 2); "
            "from looptab.cli import main; sys.exit(main(sys.argv[1:]))")
    env = dict(os.environ, PYTHONPATH=str(Path(looptab.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    for argv, status, err in [
        (["loops", "--scores", scores, "--out", tmp_path / "loops.jsonl"], 0, "found 0 loops\n"),
        (["eval-loops", "--generations", scores], 0, ""),
        (["corpus", "--scores", scores, "--annotations", ann, "--out", tmp_path / "c.txt"], 1,
         f"error: no corpus lines from {scores} (skipped: 0 unannotated, 300 loop-free, "
         "0 failed)\n"),
    ]:
        proc = subprocess.run([sys.executable, "-c", code, *map(str, argv)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (status, err)
    assert (tmp_path / "loops.jsonl").read_text() == ""


@pytest.mark.parametrize("bad,message", [
    ("tempo:x1", "tempo must be a non-negative integer, got 'x1'"),
    ("garbage!!", "no grammar rule matches 'garbage!!'"),
])
def test_a_malformed_generated_token_exits_1_naming_the_file_and_token(
        workspace, classifiers, tmp_path, capsys, bad, message):
    happy = tmp_path / "happy"
    happy.mkdir()
    (happy / "gen_0000.tokens").write_text("tempo:120 start new_measure "
                                           "clean0:note:s1:f0 wait:960 end\n")
    path = happy / "gen_0001.tokens"
    path.write_text(f"tempo:120 start new_measure {bad} wait:960 end\n")
    capsys.readouterr()
    assert run("eval-emotion", "--happy", str(happy), "--sad", str(workspace / "scores"),
               "--valence-model", str(classifiers / "valence.json"),
               "--arousal-model", str(classifiers / "arousal.json")) == 1
    assert capsys.readouterr().err == f"error: {path}: token 3 ({bad!r}): {message}\n"


def test_eval_stats_wilcoxon(tmp_path, capsys):
    data = tmp_path / "paired.csv"
    data.write_text("a,b\n" + "".join(f"{i + 1}.0,0.0\n" for i in range(6)))
    assert run("eval-stats", "--method", "wilcoxon", "--input", str(data)) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["W"] == 0.0
    assert abs(doc["p_value"] - 0.03125) < 1e-12
    assert doc["exact"] is True


def test_eval_stats_wilcoxon_is_exact_at_listening_test_size(tmp_path, capsys):
    rng = random.Random(4)
    data = tmp_path / "paired.csv"
    data.write_text("a,b\n" + "".join(f"{rng.uniform(0, 2)},{rng.uniform(0, 1.5)}\n"
                                      for _ in range(50)))
    assert run("eval-stats", "--method", "wilcoxon", "--input", str(data)) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n"] == 50 and doc["exact"] is True and 0.0 < doc["p_value"] < 1.0


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


@pytest.mark.parametrize("alpha", ["nan", "inf", "-1", "0", "1"])
def test_eval_stats_pairwise_alpha_outside_0_to_1_exits_1(tmp_path, capsys, alpha):
    data = tmp_path / "three.csv"
    data.write_text("a,b,c\n" + "".join(f"{i},{i + 2.5},{i * 2}\n" for i in range(1, 9)))
    out = tmp_path / "out.json"
    assert run("eval-stats", "--method", "pairwise", "--input", str(data), "--alpha", alpha,
               "--out", str(out)) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: alpha must be a finite number in (0, 1), got {float(alpha)}\n"
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("alpha", ["nan", "inf", "-1", "0"])
def test_train_gen_alpha_that_is_not_a_finite_number_above_0_exits_1(tmp_path, capsys, alpha):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("valence:high tempo:160 start new_measure end\n")
    out = tmp_path / "model.json"
    assert run("train-gen", "--corpus", str(corpus), "--out", str(out), "--alpha", alpha) == 1
    err = capsys.readouterr().err
    assert err == f"error: alpha must be a finite number > 0, got {float(alpha)}\n"
    assert not out.exists()


@pytest.mark.parametrize("setting", [False, True])
@pytest.mark.parametrize("given,missing", [("--happy", "--sad"), ("--sad", "--happy")])
def test_eval_emotion_with_happy_or_sad_alone_exits_1_naming_the_other(workspace, tmp_path, capsys,
                                                                       given, missing, setting):
    scores = str(workspace / "scores")
    absent = str(tmp_path / "absent.json")  # no classifier is read first
    out = tmp_path / "metrics.json"
    argv = ["eval-emotion", given, scores, "--valence-model", absent, "--arousal-model", absent,
            "--out-json", str(out)] + (["--setting", "x", scores, scores] if setting else [])
    capsys.readouterr()
    assert run(*argv) == 1
    assert capsys.readouterr().err == f"error: {given} needs {missing}\n"
    assert not out.exists()


def test_survey_answer_error_names_the_file_and_the_line_csv_reads(tmp_path, capsys):
    data = tmp_path / "responses.csv"
    data.write_text("participant,group,question,answer\np1,gen,preference,5\n\n"
                    "p1,gen,preference,9\np1,gen,tempo,4\n")
    assert run("survey", "--responses", str(data)) == 1
    assert capsys.readouterr().err == f"error: {data}: line 4: Likert answer 9 outside 1..7\n"
    data.write_text("participant,group,question,answer\n\np1,gen,preference,5\np1,gen,tempo,4\n")
    assert run("survey", "--responses", str(data)) == 1
    assert capsys.readouterr().err == f"error: {data}: line 4: unknown question 'tempo'\n"


def test_survey_bad_header_names_the_file(tmp_path, capsys):
    data = tmp_path / "responses.csv"
    data.write_text("participant,question,answer\np1,preference,5\n")
    assert run("survey", "--responses", str(data)) == 1
    assert capsys.readouterr().err == (f"error: {data}: survey CSV must have header "
                                       "['answer', 'group', 'participant', 'question']\n")


@pytest.mark.parametrize("command", ["annotate", "corpus"])
def test_header_only_annotations_name_the_file(workspace, tmp_path, capsys, command):
    ann = tmp_path / "annotations.csv"
    ann.write_text("artist,title,valence,energy,mode\n")
    argv = {"annotate": ["annotate", "--annotations", str(ann)],
            "corpus": ["corpus", "--scores", str(workspace / "scores"), "--annotations", str(ann),
                       "--out", str(tmp_path / "corpus.txt")]}[command]
    assert run(*argv) == 1
    assert capsys.readouterr().err == f"error: {ann}: no records\n"


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

def test_survey_row_cut_short_exits_1_naming_the_line(tmp_path, capsys):
    # found by tests/test_fuzz.py: the row's answer was None, and int(None) a TypeError
    data = tmp_path / "responses.csv"
    data.write_text("participant,group,question,answer,target\np1,gen,heard,N,\n"
                    "p1,gen,composer,Human,\np1,gen,preference")
    assert run("survey", "--responses", str(data)) == 1
    assert capsys.readouterr().err == f"error: {data}: line 4: row has no answer\n"


NUL_TABLES = {"survey": ("participant,group,question,answer\np1,gen,preference,\0\n",
                         ["survey", "--responses"]),
              "eval-stats": ("a,b\n1.0,\0\n2.0,3.0\n", ["eval-stats", "--method", "wilcoxon",
                                                          "--input"]),
              "songs": ("artist,title\n\0,song\n", ["annotate", "--provider-csv", "{ann}",
                                                       "--songs"]),
              "annotations": ("artist,title,valence,energy,mode\nA,b,\0,0.5,major\n",
                              ["annotate", "--annotations"]),
              "header": ("\0artist,title\n,song\n", ["annotate", "--provider-csv", "{ann}",
                                                        "--songs"])}


@pytest.mark.parametrize("name", sorted(NUL_TABLES))
def test_a_nul_byte_in_a_csv_exits_1_with_one_error_line(workspace, tmp_path, capsys, name):
    # Python 3.10's csv module raises csv.Error on a NUL byte; later ones read it
    text, argv = NUL_TABLES[name]
    data = tmp_path / "table.csv"
    data.write_text(text)
    argv = [a.format(ann=workspace / "annotations.csv") for a in argv] + [str(data)]
    capsys.readouterr()
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert sum(l.startswith("error: ") for l in err.splitlines()) == 1 and "Traceback" not in err



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
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "song.tokens").write_text("start new_measure wait:0\n")
    assert run("eval-loops", "--generations", str(bad)) == 1
    assert run("loops", "--scores", str(bad), "--out", str(tmp_path / "o.jsonl")) == 1
    assert run("tension", "--scores", str(bad), "--out-csv", str(tmp_path / "t.csv")) == 1
    line = f"error: {bad / 'song.tokens'}: token 2 ('wait:0'): wait ticks must be > 0\n"
    assert capsys.readouterr().err == line * 3
    assert sorted(tmp_path.iterdir()) == [bad, empty]


MALFORMED_CONFIGS = {
    "array": "[]",
    "section_array": '{"format": "looptab-config", "loop_params": [4, 2, 4, 4]}',
    "int_as_text": '{"format": "looptab-config", "loop_params": {"min_rep_notes": "4"}}',
    "flag_as_int": '{"format": "looptab-config", "loop_params": {"allow_overlap": 1}}',
    "int_as_float": '{"format": "looptab-config", "happy_tempo_min": 150.5}',
    "short_triple": '{"format": "looptab-config", "spiral_params": {"key_weights": [0.5, 0.5]}}',
    "nan": '{"format": "looptab-config", "generator": {"temperature": NaN}}',
}


@pytest.mark.parametrize("name", sorted(MALFORMED_CONFIGS))
def test_malformed_config_exits_1(workspace, tmp_path, capsys, name):
    config = tmp_path / "config.json"
    config.write_text(MALFORMED_CONFIGS[name])
    assert run("--config", str(config), "loops", "--scores", str(workspace / "scores"),
               "--out", str(tmp_path / "loops.jsonl")) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [config]


# File contents that are not JSON text at all.
NOT_JSON = {"empty": b"", "cut_short": b'{"format": "looptab', "not_utf8": b'{"format": "\xff"}'}


@pytest.mark.parametrize("content", sorted(NOT_JSON))
@pytest.mark.parametrize("kind", ["model", "classifier", "config"])
def test_json_file_that_does_not_decode_exits_1_naming_it(workspace, classifiers, tmp_path,
                                                          capsys, kind, content):
    # an empty model printed "error: Expecting value: ..." with exit 2, and
    # invalid UTF-8 exited 1 without naming the file
    bad = tmp_path / f"{kind}.json"
    bad.write_bytes(NOT_JSON[content])
    scores = str(workspace / "scores")
    argv = {
        "model": ["generate", "--model", str(bad), "--emotion", "sad",
                  "--out-dir", str(tmp_path / "out")],
        "classifier": ["eval-emotion", "--happy", scores, "--sad", scores,
                       "--valence-model", str(bad),
                       "--arousal-model", str(classifiers / "arousal.json")],
        "config": ["--config", str(bad), "loops", "--scores", scores,
                   "--out", str(tmp_path / "loops.jsonl")],
    }[kind]
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [bad]


def test_corpus_without_lines_exits_1_with_the_skip_counts(workspace, tmp_path, capsys):
    # it wrote an empty corpus and exited 0; train-gen failed on it later
    scores = tmp_path / "scores"
    scores.mkdir()
    (scores / "broken.tokens").write_text("")
    blocks = {c: bar_block(random.Random(3), 4) for c in "AB"}
    write_song(scores, "stranger", "ABABABAB", blocks, 160)  # not annotated
    write_song(scores, "bright_one", "AB", blocks, 160)  # annotated, no loop
    out = tmp_path / "corpus.txt"
    assert run("corpus", "--scores", str(scores), "--annotations",
               str(workspace / "annotations.csv"), "--out", str(out)) == 1
    errors = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error: ")]
    assert errors == [f"error: no corpus lines from {scores} (skipped: 1 unannotated, "
                      "1 loop-free, 1 failed)"]
    assert not out.exists()


MALFORMED_CLASSIFIERS = {
    "array": lambda doc: [doc],
    "no_feature_names": lambda doc: {k: v for k, v in doc.items() if k != "feature_names"},
    "no_weights": lambda doc: {k: v for k, v in doc.items() if k != "weights"},
    "feature_name_not_text": lambda doc: {**doc, "feature_names": doc["feature_names"][:-1] + [7]},
    "feature_name_repeated": lambda doc: {**doc, "feature_names":
                                          doc["feature_names"][:-1] + doc["feature_names"][:1]},
    "weights_short": lambda doc: {**doc, "weights": doc["weights"][1:]},
    "weight_text": lambda doc: {**doc, "weights": ["0.5"] * len(doc["weights"])},
    "bias_null": lambda doc: {**doc, "bias": None},
    "truncate_zero": lambda doc: {**doc, "truncate": 0},
}


@pytest.mark.parametrize("name", sorted(MALFORMED_CLASSIFIERS))
def test_malformed_classifier_exits_1(workspace, classifiers, tmp_path, capsys, name):
    doc = json.loads((classifiers / "valence.json").read_text())
    bad = tmp_path / "valence.json"
    bad.write_text(json.dumps(MALFORMED_CLASSIFIERS[name](doc)))
    assert run("eval-emotion", "--happy", str(workspace / "scores"),
               "--sad", str(workspace / "scores"), "--valence-model", str(bad),
               "--arousal-model", str(classifiers / "arousal.json")) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1


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
    return [("clean0", i * 960, 960, p, 3 if p >= 55 else 5, p - (55 if p >= 55 else 45))
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
    written = json.loads((tmp_path / "th.json").read_text())
    assert tuple(written["tensile_strain"]) == per_loop.tensile_strain


def test_eval_stats_ragged_csv_exits_1(tmp_path, capsys):
    data = tmp_path / "ragged.csv"
    data.write_text("a,b\n1,2\n3\n4,5\n")
    assert run("eval-stats", "--method", "wilcoxon", "--input", str(data)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "line 3 has 1 values" in err
    assert err.count("\n") == 1
    data.write_text("")
    assert run("eval-stats", "--method", "wilcoxon", "--input", str(data)) == 1
    assert capsys.readouterr().err == f"error: {data}: no data rows\n"
    data.write_text("a,b\n")
    assert run("eval-stats", "--method", "wilcoxon", "--input", str(data)) == 1
    assert capsys.readouterr().err == f"error: {data}: no data rows\n"


@pytest.mark.parametrize("method", ["wilcoxon", "friedman", "pairwise"])
@pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-inf", "Infinity", "1e999", "abc"])
def test_eval_stats_cell_that_is_not_a_finite_number_exits_1(tmp_path, capsys, method, cell):
    # a NaN difference used to be ranked as nonzero: wilcoxon printed p = 0.03125
    data = tmp_path / "paired.csv"
    data.write_text("a,b,c\n1,0,2\n2,0,3\n3,0,1\n4,0,5\n5,0,4\n" + f"0,{cell},1\n")
    assert run("eval-stats", "--method", method, "--input", str(data),
               "--out", str(tmp_path / "stats.json")) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {data}: line 7 ") and repr(cell) in err
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [data]


def test_eval_stats_non_finite_first_row_is_data_and_rejected(tmp_path, capsys):
    data = tmp_path / "paired.csv"
    data.write_text("nan,0\n1,0\n")
    assert run("eval-stats", "--method", "wilcoxon", "--input", str(data)) == 1
    assert capsys.readouterr().err.startswith(f"error: {data}: line 1 ")


# The CLI loads requests (and with it subprocess) only for --provider-url;
# the package root exports only __version__.
UNWANTED_ON_IMPORT = {"looptab.cli": "m in ('requests', 'subprocess')",
                      "looptab": "m.startswith('looptab.') or m == 'numpy'"}


@pytest.mark.parametrize("module", sorted(UNWANTED_ON_IMPORT))
def test_importing_loads_no_module_it_does_not_need(module):
    code = (f"import sys, {module}; "
            f"print(sorted(m for m in sys.modules if {UNWANTED_ON_IMPORT[module]}))")
    env = dict(os.environ, PYTHONPATH=str(Path(looptab.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


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


# Tokens of every kind a corpus line holds, tempo tokens of every bucket
# among them; the labels are put in apart.
LINE_TOKENS = ("mode:major", "mode:minor", "time_signature:4", "tempo:40", "tempo:99",
               "tempo:100", "tempo:149", "tempo:150", "tempo:300", "start", "new_measure",
               "cloud_diameter:q2", "clean0:note:s1:f3", "drums:note:36", "wait:480", "nfx:bend")
LABEL_TOKENS = ("valence:high", "valence:low", "arousal:high", "arousal:low")


@st.composite
def labelled_lines(draw):
    """Corpus lines: blank ones, and lines whose labels stand anywhere,
    repeated with either level, and now and then missing."""
    lines = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(("", "  "))))
            continue
        toks = draw(st.lists(st.sampled_from(LINE_TOKENS), max_size=20))
        labels = [f"{target}:{draw(st.sampled_from(('high', 'low')))}"
                  for target in cli.LABELS if draw(st.integers(0, 9))]
        for label in labels + draw(st.lists(st.sampled_from(LABEL_TOKENS), max_size=3)):
            toks.insert(draw(st.integers(0, len(toks))), label)
        lines.append(" ".join(toks))
    return lines


@settings(deadline=None, max_examples=300)
@given(labelled_lines(), st.integers(1, 30))
def test_train_clf_features_are_those_of_the_label_free_lines(tmp_path_factory, lines, truncate):
    corpus = tmp_path_factory.mktemp("clf") / "corpus.txt"
    corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
    numbered = [(number, line.split()) for number, line in enumerate(lines, 1) if line.split()]
    if not numbered:
        with pytest.raises(ValueError, match="empty corpus"):
            cli._classifier_corpus(corpus, truncate)
        return
    labels = {}
    for target in cli.LABELS:
        labels[target] = []
        for number, toks in numbered:
            first = next((t for t in toks if t.startswith(f"{target}:")), None)  # the first decides
            if first is None:
                with pytest.raises(ValueError) as error:
                    cli._classifier_corpus(corpus, truncate)
                assert str(error.value) == f"{corpus}: line {number} carries no {target} label"
                return
            labels[target].append(first == f"{target}:high")
    streams = [label_free(toks) for _, toks in numbered]
    names, x = classifier_features(streams, truncate)
    assert names == sorted({t for s in streams for t in s[:truncate]} | set(TEMPO_BUCKETS))
    for row, stream in zip(x, streams):
        assert np.array_equal(row, reference_features(stream, feature_columns(names), truncate))
    got_labels, got_names, got_x = cli._classifier_corpus(corpus, truncate)
    assert got_labels == labels and got_names == names
    assert got_x.dtype == x.dtype and got_x.shape == x.shape and got_x.tobytes() == x.tobytes()


def test_train_clf_writes_what_train_classifier_saves(corpus, classifiers, tmp_path):
    lines = [line.split() for line in corpus.read_text().splitlines()]
    streams = [label_free(toks) for toks in lines]
    for target in ("valence", "arousal"):
        labels = [f"{target}:high" in toks for toks in lines]
        train_classifier(streams, labels).save(tmp_path / f"{target}.json")
        assert ((tmp_path / f"{target}.json").read_bytes()
                == (classifiers / f"{target}.json").read_bytes())


def golden_songs(directory):
    """Ten seeded songs, each with a planted repeat: bar-block songs with
    tempo changes, and random songs with drums, effects, an artist header
    and 3/4 or 5/4 bars. The last song has no annotation."""
    rng = random.Random(2024)

    def bars(n):
        return [random_measure(rng, rng.choice((3, 4, 4, 4, 4, 5)), rng.choice((90, 120, 160)))
                for _ in range(n)]

    rows = ["artist,title,valence,energy,mode"]
    for i in range(10):
        if i % 2:
            measures = bars(rng.randint(0, 2)) + bars(4) * rng.randint(2, 3) + bars(1)
            score = columns(measures, artist=rng.choice((None, "band")),
                            header_tempo=measures[0][1], header_time_signature=measures[0][0])
        else:
            blocks = {c: bar_block(rng, rng.randint(2, 8)) for c in "ABCD"}
            loop = "".join(rng.choice("ABCD") for _ in range(rng.randint(1, 4)))
            sequence = "".join(rng.choice("ABCD") for _ in range(rng.randint(0, 3)))
            sequence += loop * rng.randint(2, 4) + rng.choice(("", "D", "CA"))
            tempi = [rng.choice((70, 96, 120, 150, 200)) for _ in sequence]
            score = columns([(4, t, blocks[c], ()) for c, t in zip(sequence, tempi)],
                            header_tempo=tempi[0])
        (directory / f"song{i}.tokens").write_text(render_tokens(score_to_tokens(score)) + "\n")
        if i < 9:
            rows.append(f"{score.artist or ''},song{i},{rng.random():.3f},{rng.random():.3f},"
                        f"{rng.choice(('major', 'minor'))}")
    return "\n".join(rows) + "\n"


# sha256 over (file name, NUL, bytes) of each output, in argument order.
SONG_PATH_GOLDEN = {
    "corpus": "04c12fd7fccbd26fad180f843b1c8da4467aba9c7d896b43a5d5137a975b0c58",
    "loops": "5b63dd0b369843e1796631fd7e5c92d87c17aff8262c79d59a6205eab1e9c0bc",
    "tension": "acbd8e1b6040d6c37649e45404ba8f8c190a92b1730cde23ef204ab712cb573f",
}


@pytest.mark.parametrize("command", sorted(SONG_PATH_GOLDEN))
def test_song_path_matches_golden_hash(tmp_path, command):
    scores = tmp_path / "scores"
    scores.mkdir()
    annotations = tmp_path / "annotations.csv"
    annotations.write_text(golden_songs(scores))
    out = tmp_path / "out"
    out.mkdir()
    if command == "tension":
        files = [out / "tension.csv", out / "thresholds.json"]
        argv = ["--out-csv", str(files[0]), "--out-thresholds", str(files[1])]
    elif command == "loops":
        files = [out / "loops.jsonl"]
        argv = ["--out", str(files[0])]
    else:
        files = [out / "corpus.txt", out / "tension.json", out / "features.json"]
        argv = ["--annotations", str(annotations), "--out", str(files[0]),
                "--out-tension-thresholds", str(files[1]),
                "--out-feature-thresholds", str(files[2])]
    assert run(command, "--scores", str(scores), *argv) == 0
    h = hashlib.sha256()
    for f in files:
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    assert h.hexdigest() == SONG_PATH_GOLDEN[command]


# Every subcommand on an empty directory and on an empty or header-only file.
@pytest.mark.parametrize("command,outputs", [("train-gen", ["model.json"]),
                                             ("train-clf", ["clf/valence.json",
                                                            "clf/arousal.json"])])
def test_a_malformed_corpus_token_exits_1_naming_the_file_line_and_token(corpus, tmp_path,
                                                                        capsys, command,
                                                                        outputs):
    lines = corpus.read_text().splitlines()
    lines[2] += " tempo:x1"
    bad = tmp_path / "corpus.txt"
    bad.write_text("\n".join(lines) + "\n")
    target = ["--out", str(tmp_path / "model.json")] if command == "train-gen" else \
        ["--out-dir", str(tmp_path / "clf")]
    capsys.readouterr()
    assert run(command, "--corpus", str(bad), *target) == 1
    index = len(lines[2].split()) - 1
    assert capsys.readouterr().err == (
        f"error: {bad}: line 3: token {index} ('tempo:x1'): tempo must be a non-negative "
        f"integer, got 'x1'\n")
    assert not any((tmp_path / name).exists() for name in outputs)


@pytest.mark.parametrize("command,target", [("train-gen", "--out"), ("train-clf", "--out-dir")])
def test_a_corpus_of_blank_lines_exits_1_naming_the_file(tmp_path, capsys, command, target):
    blank = tmp_path / "corpus.txt"
    blank.write_text("\n \n")
    capsys.readouterr()
    assert run(command, "--corpus", str(blank), target, str(tmp_path / "out")) == 1
    assert capsys.readouterr().err == f"error: {blank}: empty corpus\n"
    assert not (tmp_path / "out").exists()


# Every command that reads a song directory, given a path that is none.
SONG_DIRECTORY_COMMANDS = {
    "tension": ["tension", "--scores", "{path}", "--out-csv", "{out}"],
    "loops": ["loops", "--scores", "{path}", "--out", "{out}"],
    "corpus": ["corpus", "--scores", "{path}", "--annotations", "{ann}", "--out", "{out}"],
    "eval-loops": ["eval-loops", "--generations", "{path}", "--out", "{out}"],
    "eval-emotion": ["eval-emotion", "--happy", "{path}", "--sad", "{path}",
                     "--valence-model", "{clf}/valence.json",
                     "--arousal-model", "{clf}/arousal.json", "--out-json", "{out}"],
}


@pytest.mark.parametrize("kind", ["missing", "file"])
@pytest.mark.parametrize("command", sorted(SONG_DIRECTORY_COMMANDS))
def test_a_song_directory_that_is_none_exits_2_naming_it(workspace, classifiers, tmp_path,
                                                         capsys, command, kind):
    path = tmp_path / "songs"
    if kind == "file":
        path.write_text("")
    paths = {"path": path, "out": tmp_path / "out", "ann": workspace / "annotations.csv",
             "clf": classifiers}
    capsys.readouterr()
    assert main([arg.format(**paths) for arg in SONG_DIRECTORY_COMMANDS[command]]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert str(path) in captured.err
    assert "Traceback" not in captured.err + captured.out
    assert not (tmp_path / "out").exists()


# "{dir}" is an empty directory, "{empty}" an empty file, "{songs}" a directory
# holding one empty .tokens file, "{header}" a file holding only the CSV
# header the command expects, "{clf}" a trained classifier directory and
# "{ann}" a valid annotations file, "{short}" an annotations file whose one
# row has three of its five fields, "{notitle}" a songs CSV with one good row
# and one row without a title.
MALFORMED_INPUTS = {
    "annotate-dir": ["annotate", "--annotations", "{dir}"],
    "annotate-empty": ["annotate", "--annotations", "{empty}"],
    "annotate-header": ["annotate", "--annotations", "{header}"],
    "annotate-songs-header": ["annotate", "--songs", "{header}", "--provider-csv", "{ann}"],
    "annotate-short-row": ["annotate", "--annotations", "{short}"],
    "annotate-songs-short-row": ["annotate", "--songs", "{ann}", "--provider-csv", "{short}"],
    "annotate-songs-no-title": ["annotate", "--songs", "{notitle}", "--provider-csv", "{ann}"],
    "tension-dir": ["tension", "--scores", "{dir}", "--out-csv", "{out}"],
    "tension-empty": ["tension", "--scores", "{songs}", "--out-csv", "{out}"],
    "loops-dir": ["loops", "--scores", "{dir}", "--out", "{out}"],
    "loops-empty": ["loops", "--scores", "{songs}", "--out", "{out}"],
    "corpus-dir": ["corpus", "--scores", "{dir}", "--annotations", "{ann}", "--out", "{out}"],
    "corpus-header": ["corpus", "--scores", "{songs}", "--annotations", "{header}",
                      "--out", "{out}"],
    "corpus-short-row": ["corpus", "--scores", "{songs}", "--annotations", "{short}",
                         "--out", "{out}"],
    "train-gen-dir": ["train-gen", "--corpus", "{dir}", "--out", "{out}"],
    "train-gen-empty": ["train-gen", "--corpus", "{empty}", "--out", "{out}"],
    "generate-dir": ["generate", "--model", "{dir}", "--emotion", "sad", "--out-dir", "{out}"],
    "generate-empty": ["generate", "--model", "{empty}", "--emotion", "sad", "--out-dir", "{out}"],
    "train-clf-dir": ["train-clf", "--corpus", "{dir}", "--out-dir", "{out}"],
    "train-clf-empty": ["train-clf", "--corpus", "{empty}", "--out-dir", "{out}"],
    "eval-emotion-dir": ["eval-emotion", "--happy", "{dir}", "--sad", "{dir}",
                         "--valence-model", "{clf}/valence.json",
                         "--arousal-model", "{clf}/arousal.json"],
    "eval-emotion-empty": ["eval-emotion", "--happy", "{dir}", "--sad", "{dir}",
                           "--valence-model", "{empty}", "--arousal-model", "{empty}"],
    "eval-loops-dir": ["eval-loops", "--generations", "{dir}"],
    "eval-loops-empty": ["eval-loops", "--generations", "{songs}"],
    "eval-stats-dir": ["eval-stats", "--method", "wilcoxon", "--input", "{dir}"],
    "eval-stats-empty": ["eval-stats", "--method", "friedman", "--input", "{empty}"],
    "eval-stats-header": ["eval-stats", "--method", "pairwise", "--input", "{header}"],
    "survey-dir": ["survey", "--responses", "{dir}"],
    "survey-empty": ["survey", "--responses", "{empty}"],
    "survey-header": ["survey", "--responses", "{header}"],
}
ANNOTATIONS_HEADER = "artist,title,valence,energy,mode"
CSV_HEADERS = {"annotate": ANNOTATIONS_HEADER, "corpus": ANNOTATIONS_HEADER,
               "eval-stats": "a,b", "survey": "participant,group,question,answer"}


def test_the_malformed_input_sweep_covers_every_subcommand():
    commands = set(cli.build_parser()._subparsers._group_actions[0].choices)
    assert {argv[0] for argv in MALFORMED_INPUTS.values()} == commands


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_exits_with_one_error_line(workspace, classifiers, tmp_path, capsys,
                                                   case):
    argv = MALFORMED_INPUTS[case]
    (tmp_path / "dir").mkdir()
    (tmp_path / "empty").write_text("")
    (tmp_path / "songs").mkdir()
    (tmp_path / "songs" / "song.tokens").write_text("")
    (tmp_path / "header").write_text(CSV_HEADERS.get(argv[0], "artist,title") + "\n")
    (tmp_path / "short").write_text(ANNOTATIONS_HEADER + "\nA,b,0.5\n")
    (tmp_path / "notitle").write_text("artist,title\n,bright_one\nSomeone\n")
    paths = {name: tmp_path / name
             for name in ("dir", "empty", "songs", "header", "short", "notitle", "out")}
    paths |= {"clf": classifiers, "ann": workspace / "annotations.csv"}
    capsys.readouterr()
    code = main([arg.format(**paths) for arg in argv])
    captured = capsys.readouterr()
    assert code in (1, 2)
    assert sum(l.startswith("error: ") for l in captured.err.splitlines()) == 1
    assert "Traceback" not in captured.err + captured.out
