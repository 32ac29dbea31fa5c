"""Damaged model and classifier files: one truncation, flipped byte or
stray quote anywhere in a valid file must end ``generate`` or
``eval-emotion`` with exit code 0 (the damage left a valid file), or with
1 or 2 and exactly one ``error:`` line; never with a traceback."""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from looptab.cli import main
from looptab.evaluate import train_classifier
from looptab.generate import save_model, train_generator

from test_generate import CORPUS


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    save_model(train_generator(CORPUS), root / "model.json")
    streams = [line.split() for line in CORPUS]
    train_classifier(streams, [True, True, False, False]).save(root / "valence.json")
    for emotion in ("happy", "sad"):
        (root / emotion).mkdir()
        (root / emotion / "gen_0000.tokens").write_text(CORPUS[0] + "\n")
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
