"""Damaged input files: one truncation, flipped byte or stray quote
anywhere in a valid model, classifier, song, annotations or corpus file
must end the commands that read it with exit code 0 (the damage left a
valid file), or with 1 or 2 and exactly one ``error:`` line; never with a
traceback."""

import contextlib
import io
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from looptab.cli import main
from looptab.evaluate import train_classifier
from looptab.generate import save_model, train_generator
from looptab.score import score_to_tokens
from looptab.tokens import render_tokens

from test_generate import CORPUS
from util import bar_block, score_from_blocks


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "corpus.txt").write_text("".join(line + "\n" for line in CORPUS))
    save_model(train_generator(CORPUS), root / "model.json")
    streams = [line.split() for line in CORPUS]
    train_classifier(streams, [True, True, False, False]).save(root / "valence.json")
    for emotion in ("happy", "sad"):
        (root / emotion).mkdir()
        (root / emotion / "gen_0000.tokens").write_text(CORPUS[0] + "\n")
    rng = random.Random(3)
    blocks = {c: bar_block(rng, 3) for c in "ABCD"}
    song = score_from_blocks(blocks, "DABCDABCDA")  # a 4-bar loop, so corpus writes lines
    (root / "songs").mkdir()
    (root / "songs" / "song.tokens").write_text(render_tokens(score_to_tokens(song)) + "\n")
    (root / "annotations.csv").write_text("artist,title,valence,energy,mode\n"
                                          ",song,0.8,0.3,major\n\"Band, The\",other,0.2,0.6,0\n")
    return root


@st.composite
def damage(draw, data: bytes) -> bytes:
    """``data`` cut short, with one byte flipped, or with a stray quote."""
    at = draw(st.integers(0, len(data) - 1))
    kind = draw(st.sampled_from(["truncate", "flip", "quote"]))
    if kind == "truncate":
        return data[:at]
    if kind == "flip":
        return data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1:]
    return data[:at] + b'"' + data[at:]


def run(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


def check_outcome(code: int, err: str) -> None:
    errors = [line for line in err.splitlines() if line.startswith("error: ")]
    assert "Traceback" not in err
    assert (code == 0 and not errors) or (code in (1, 2) and len(errors) == 1), (code, err)


@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_damaged_model_file(files, data):
    damaged = data.draw(damage((files / "model.json").read_bytes()))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        path.write_bytes(damaged)
        check_outcome(*run(["generate", "--model", str(path), "--emotion", "happy",
                            "--max-tokens", "40", "--out-dir", str(Path(tmp) / "out")]))


@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_damaged_classifier_file(files, data):
    damaged = data.draw(damage((files / "valence.json").read_bytes()))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "valence.json"
        path.write_bytes(damaged)
        check_outcome(*run(["eval-emotion", "--happy", str(files / "happy"),
                            "--sad", str(files / "sad"), "--valence-model", str(path),
                            "--arousal-model", str(files / "valence.json")]))


def song_path_runs(songs: Path, annotations: Path, out: Path) -> list[list[str]]:
    return [["loops", "--scores", str(songs), "--out", str(out / "loops.jsonl")],
            ["tension", "--scores", str(songs), "--out-csv", str(out / "tension.csv")],
            ["corpus", "--scores", str(songs), "--annotations", str(annotations),
             "--out", str(out / "corpus.txt")],
            ["eval-loops", "--generations", str(songs)],
            ["annotate", "--annotations", str(annotations)]]


def test_the_undamaged_song_files_pass_every_command(files, tmp_path):
    for argv in song_path_runs(files / "songs", files / "annotations.csv", tmp_path):
        code, err = run(argv)
        assert code == 0, err
    assert (tmp_path / "corpus.txt").read_text()


@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_damaged_song_file(files, data):
    damaged = data.draw(damage((files / "songs" / "song.tokens").read_bytes()))
    with tempfile.TemporaryDirectory() as tmp:
        songs = Path(tmp) / "songs"
        songs.mkdir()
        (songs / "song.tokens").write_bytes(damaged)
        for argv in song_path_runs(songs, files / "annotations.csv", Path(tmp)):
            check_outcome(*run(argv))


@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_damaged_annotations_file(files, data):
    damaged = data.draw(damage((files / "annotations.csv").read_bytes()))
    with tempfile.TemporaryDirectory() as tmp:
        songs = Path(tmp) / "songs"
        songs.mkdir()
        (songs / "song.tokens").write_bytes((files / "songs" / "song.tokens").read_bytes())
        annotations = Path(tmp) / "annotations.csv"
        annotations.write_bytes(damaged)
        for argv in song_path_runs(songs, annotations, Path(tmp)):
            check_outcome(*run(argv))


def corpus_runs(corpus: Path, out: Path) -> list[list[str]]:
    return [["train-clf", "--corpus", str(corpus), "--out-dir", str(out / "clf")],
            ["train-gen", "--corpus", str(corpus), "--out", str(out / "model.json")]]


def test_the_undamaged_corpus_passes_every_command(files, tmp_path):
    for argv in corpus_runs(files / "corpus.txt", tmp_path):
        code, err = run(argv)
        assert code == 0, err


@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_damaged_corpus_file(files, data):
    damaged = data.draw(damage((files / "corpus.txt").read_bytes()))
    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp) / "corpus.txt"
        corpus.write_bytes(damaged)
        for argv in corpus_runs(corpus, Path(tmp)):
            check_outcome(*run(argv))
