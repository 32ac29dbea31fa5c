import base64
import contextlib
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
import weakref
import zlib
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest

import looptab
from looptab import generate
from looptab.cli import main
from looptab.generate import (
    COLUMNS,
    CONTROL_VOCAB,
    HAPPY_PROMPT,
    HAPPY_TEMPO_MIN,
    SAD_TEMPO_MAX,
    SamplingConstraints,
    SamplingError,
    ablated_prompt,
    build_prompt,
    load_model,
    mask_tempo,
    sample_sequence,
    save_model,
    train_generator,
)
from looptab.score import tokens_to_score
from looptab.tokens import parse_tokens

from util import dense


def make_line(tempo, notes=("clean0:note:s1:f0", "clean0:note:s1:f2"), emotion="happy"):
    head = ("valence:high arousal:high mode:major" if emotion == "happy"
            else "valence:low arousal:low mode:minor")
    bars = " ".join(
        f"new_measure cloud_diameter:q{i + 1} cloud_momentum:q2 tensile_strain:q1 {n} wait:3840"
        for i, n in enumerate(notes))
    return f"{head} time_signature:4 tempo:{tempo} start {bars} end"


CORPUS = [make_line(160), make_line(170, ("distorted0:note:s6:f0", "distorted0:note:s6:f3")),
          make_line(90, emotion="sad"), make_line(80, ("bass:note:s4:f0", "bass:note:s4:f5"),
                                                  emotion="sad")]


# prompts ---------------------------------------------------------------------

def test_prompt_contents():
    assert [t.raw for t in build_prompt("happy")] == \
        ["valence:high", "arousal:high", "mode:major", "time_signature:4"]
    assert [t.raw for t in build_prompt("sad")] == \
        ["valence:low", "arousal:low", "mode:minor", "time_signature:4"]
    with pytest.raises(ValueError):
        build_prompt("angry")


def test_ablated_prompts():
    assert ablated_prompt("happy", None) == build_prompt("happy")
    assert ablated_prompt("happy", "tension") == build_prompt("happy")
    assert [t.raw for t in ablated_prompt("happy", "emotion_labels")] == \
        ["mode:major", "time_signature:4"]
    assert [t.raw for t in ablated_prompt("sad", "psychology")] == \
        ["valence:low", "arousal:low", "time_signature:4"]
    with pytest.raises(ValueError):
        ablated_prompt("happy", "dynamics")


# n-gram model ----------------------------------------------------------------

def dense_next(model, context):
    """The model's vocabulary-length distribution after the tokens
    ``context``; a token outside the vocabulary becomes the id -1."""
    ids = [model.index.get(t, -1) for t in context]
    return dense(model.next_token_distribution(ids), len(model.vocabulary))


def test_bigram_probability_formula():
    model = train_generator(["a b a b"], order=2, alpha=0.01)
    v = len(model.vocabulary)
    probs = dense_next(model, ["a"])
    expected = (2 + 0.01) / (2 + 0.01 * v)
    assert abs(probs[model.index["b"]] - expected) < 1e-12
    # unseen continuation gets pure smoothing mass
    assert abs(probs[model.index["a"]] - 0.01 / (2 + 0.01 * v)) < 1e-12
    assert abs(probs.sum() - 1.0) < 1e-12


def test_backoff_to_shorter_context():
    model = train_generator(["a b c", "x b d"], order=3, alpha=0.01)
    # context ("q", "b") unseen; falls back to ("b",) which saw c and d once each
    probs = dense_next(model, ["q", "b"])
    assert abs(probs[model.index["c"]] - probs[model.index["d"]]) < 1e-12
    assert probs[model.index["c"]] > probs[model.index["a"]]


def test_empty_context_uses_unigram_counts():
    model = train_generator(["a a a b"], order=3, alpha=0.01)
    probs = dense_next(model, [])
    # counts a:3, b:1, end:1 (the line terminator)
    assert probs[model.index["a"]] > probs[model.index["b"]] > 0
    assert abs(probs[model.index["b"]] - probs[model.index["end"]]) < 1e-12


def test_vocabulary_always_contains_controls_and_end():
    model = train_generator(["a b"])
    assert set(CONTROL_VOCAB) <= set(model.vocabulary)
    assert "end" in model.vocabulary


def test_train_rejects_empty_corpus_and_bad_params():
    with pytest.raises(ValueError):
        train_generator([])
    with pytest.raises(ValueError):
        train_generator(["a"], order=1)
    for alpha in (0.0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="^alpha must be a finite number > 0, got "):
            train_generator(["a"], alpha=alpha)
    # a, end and the 18 control tokens: 20 * 1e308 overflows every denominator
    with pytest.raises(ValueError, match=r"^alpha 1e\+308 times the vocabulary size 20 "
                                         "is not a finite number$"):
        train_generator(["a"], alpha=1e308)


def test_model_save_load_round_trip(tmp_path):
    model = train_generator(CORPUS, order=4, alpha=0.01)
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.vocabulary == model.vocabulary
    ctx = ["tempo:160", "start"]
    assert np.allclose(dense_next(loaded, ctx), dense_next(model, ctx), atol=0, rtol=0)


def test_save_writes_each_column_in_the_narrowest_dtype(tmp_path):
    path = tmp_path / "model.json"
    for counts, dtype in ((2 ** 16 - 1, "<u2"), (2 ** 16, "<i4"), (2 ** 31 - 1, "<i4"),
                          (2 ** 31, "<i8")):
        # one context, (), seen followed by "a" ``counts`` times
        model = generate.NGramModel(2, 0.01, ["a", "end"], [0], [], [0, 1], [0], [counts])
        save_model(model, path)
        doc = json.loads(path.read_text())
        assert doc["counts"]["dtype"] == dtype and doc["tokens"]["dtype"] == "<u2"
        assert decoded(doc, "counts").tolist() == [counts]
        assert load_model(path).counts.tolist() == [counts]


def wide_corpus():
    """100 lines of 250 random drum notes, waits and bars: an order-4 model
    of 71k entries over 46k contexts and 279 ids, so that its row_ptr is
    written as ``<i4`` and its context keys pass 2**16, while its other
    columns are ``<u2``."""
    rng = np.random.default_rng(12)
    body = ([f"drums:note:{midi}" for midi in range(128)]
            + [f"wait:{ticks}" for ticks in range(1, 129)] + ["new_measure"])
    head = " ".join(HAPPY_PROMPT) + " tempo:160 start"
    return [f"{head} {' '.join(rng.choice(body, 250))} end" for _ in range(100)]


def test_a_model_past_2_16_entries_is_held_in_the_dtypes_of_its_file(tmp_path):
    model = train_generator(wide_corpus())
    path = tmp_path / "model.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    dtypes = {name: doc[name]["dtype"] for name in COLUMNS}
    assert dtypes == {"context_lengths": "<u2", "context_tokens": "<u2", "row_ptr": "<i4",
                      "tokens": "<u2", "counts": "<u2"}
    assert model._keys.max() >= 2 ** 16
    loaded = load_model(path)
    for held in (model, loaded):
        assert {name: getattr(held, name).dtype for name in COLUMNS} == \
            {name: np.dtype(dtype) for name, dtype in dtypes.items()}
    save_model(loaded, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()
    for seed in range(3):
        raws = sample_raws(loaded, "happy", rng_seed=seed, max_tokens=400)
        assert len(raws) > 100 and raws == sample_raws(model, "happy", rng_seed=seed,
                                                      max_tokens=400)


def test_load_and_one_sample_allocate_less_than_290_bytes_per_context(tmp_path):
    # 241 bytes a context with every column held in its file dtype; 369 with
    # every column widened to int64 and the rows' bounds, the probabilities of
    # their unlisted ids and their admitted counts held as lists
    path = tmp_path / "model.json"
    model = train_generator(wide_corpus())
    save_model(model, path)
    sample_raws(model, "happy", max_tokens=20)  # the vocabulary's tokens are cached
    del model
    tracemalloc.start()
    try:
        model = load_model(path)
        assert len(sample_raws(model, "happy", max_tokens=20)) == 20
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 290 * len(model.context_lengths)


def test_load_model_rejects_foreign_json(tmp_path):
    path = tmp_path / "other.json"
    path.write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(ValueError):
        load_model(path)


def column(values, dtype="<i4"):
    """A version-3 model column: ``values`` as ``dtype`` bytes,
    zlib-compressed and base64-encoded."""
    data = zlib.compress(np.array(values, dtype=dtype).tobytes())
    return {"dtype": dtype, "data": base64.b64encode(data).decode("ascii")}


def decoded(doc, name):
    col = doc[name]
    return np.frombuffer(zlib.decompress(base64.b64decode(col["data"])), col["dtype"])


def model_doc(dtype="<i4", **changes):
    """A version-3 model document. Its contexts are (), ("a",), ("b",) and
    its vocabulary ids a=0, b=1, end=2. A list given for a column is
    encoded as ``dtype``, a ``(values, dtype)`` pair as that dtype; None
    drops the key."""
    doc = {"format": "looptab-ngram", "version": 3, "order": 2, "alpha": 0.01,
           "vocabulary": ["a", "b", "end"],
           "context_lengths": [0, 1, 1], "context_tokens": [0, 1],
           "row_ptr": [0, 2, 3, 4], "tokens": [0, 1, 1, 2], "counts": [2, 1, 2, 1]}
    doc.update(changes)
    for name in COLUMNS:
        if isinstance(doc.get(name), list):
            doc[name] = column(doc[name], dtype)
        elif isinstance(doc.get(name), tuple):
            doc[name] = column(*doc[name])
    return {k: v for k, v in doc.items() if v is not None}


def with_data(name, data, dtype="<i4"):
    """``model_doc`` whose column ``name`` carries the base64 text ``data``."""
    return model_doc(**{name: {"dtype": dtype, "data": data}})


VERSION_2 = {"format": "looptab-ngram", "version": 2, "order": 2, "alpha": 0.01,
             "vocabulary": ["a", "b", "end"], "context_lengths": [0, 1, 1],
             "context_tokens": [0, 1], "row_ptr": [0, 2, 3, 4], "tokens": [0, 1, 1, 2],
             "counts": [2, 1, 2, 1]}
# the counts column with its zlib checksum (the last 4 bytes) broken
BAD_CHECKSUM = zlib.compress(np.array([2, 1, 2, 1], "<i4").tobytes())
BAD_CHECKSUM = base64.b64encode(BAD_CHECKSUM[:-1] + bytes([BAD_CHECKSUM[-1] ^ 1])).decode()

MALFORMED_MODELS = {  # name: (document, the reason the error line gives)
    "header_only": ({"format": "looptab-ngram", "version": 3}, "lacks order"),
    "no_counts": (model_doc(counts=None), "lacks counts"),
    "no_row_ptr": (model_doc(row_ptr=None), "lacks row_ptr"),
    "no_vocabulary": (model_doc(vocabulary=None), "lacks vocabulary"),
    "no_order": (model_doc(order=None), "lacks order"),
    "no_alpha": (model_doc(alpha=None), "lacks alpha"),
    "not_an_object": (["looptab-ngram"], "not a looptab n-gram model"),
    "newer_version": (model_doc(version=4), "version 4 is not 3"),
    "version_2": (VERSION_2, "version 2 is not 3; re-run train-gen"),
    "order_text": (model_doc(order="4"), "order must be an integer"),
    "alpha_text": (model_doc(alpha="0.01"), "alpha a number"),
    "vocabulary_not_list": (model_doc(vocabulary="a b end"), "vocabulary must be"),
    "vocabulary_not_text": (model_doc(vocabulary=["a", "b", "end", 7]), "vocabulary must be"),
    "vocabulary_repeats": (model_doc(vocabulary=["a", "b", "end", "a"]), "vocabulary must be"),
    "counts_not_list": (model_doc(counts={"a": 2}), "counts must be an object of dtype and data"),
    "context_not_list": (model_doc(context_tokens="a b"), "context_tokens must be an object"),
    "context_object": (model_doc(context_lengths={"dtype": "<i4"}),
                       "context_lengths must be an object"),
    "column_list": (model_doc(counts=column([2, 1, 2, 1])["data"]), "counts must be an object"),
    "order_one": (model_doc(order=1), "order must be >= 2"),
    "count_zero": (model_doc(counts=[2, 0, 2, 1]), "counts must be >= 1"),
    "count_negative": (model_doc(counts=[2, -1, 2, 1]), "counts must be >= 1"),
    "count_fraction": (model_doc(counts=([2, 1.5, 2, 1], "<f8")), "counts: dtype must be one of"),
    "count_boolean": (model_doc(counts=([True, True, True, True], "|b1")), "dtype must be one of"),
    "count_text": (model_doc(counts=(["2", "1", "2", "1"], "<U1")), "dtype must be one of"),
    "count_huge": (model_doc(counts=([2, 2 ** 53, 2, 1], "<i8")), "less than 2\\*\\*53"),
    "count_past_64_bits": (model_doc(counts=([2, 1, 2 ** 64 - 1, 1], "<u8")),
                           "dtype must be one of <u2, <i4, <i8"),
    "dtype_big_endian": (model_doc(tokens=([0, 1, 1, 2], ">u2")), "tokens: dtype must be"),
    "dtype_not_text": (with_data("row_ptr", column([0, 2, 3, 4])["data"], dtype=4),
                       "row_ptr: dtype must be"),
    "data_not_text": (with_data("counts", [2, 1, 2, 1]), "counts: data must be a base64 string"),
    "data_not_base64": (with_data("counts", "AAAA*AAA"), "counts: data is not base64"),
    "data_base64_padding": (with_data("counts", "eJw"), "counts: data is not base64"),
    "data_not_zlib": (with_data("counts", base64.b64encode(b"\2\0\0\0").decode()),
                      "counts: data is not zlib-compressed"),
    "data_zlib_checksum": (with_data("counts", BAD_CHECKSUM), "counts: data is not zlib"),
    "data_ragged": (with_data("counts", base64.b64encode(zlib.compress(b"\2\0\0")).decode()),
                    "counts: 3 bytes are not a whole number of <i4 values"),
    "context_token_unknown": (model_doc(context_tokens=[0, 3]), "ids must lie in"),
    "context_token_negative": (model_doc(context_tokens=[0, -1]), "ids must lie in"),
    "context_token_text": (model_doc(context_tokens=(["a", "b"], "<U1")), "dtype must be one of"),
    "continuation_unknown": (model_doc(tokens=[0, 1, 1, 3]), "ids must lie in"),
    "token_id_text": (model_doc(tokens=(["a", "b", "b", "end"], "<U3")), "dtype must be one of"),
    "continuation_empty": (model_doc(row_ptr=[0, 2, 2, 4]), "strictly increase"),
    "row_ptr_decreasing": (model_doc(row_ptr=[0, 3, 2, 4]), "strictly increase"),
    "row_ptr_not_from_zero": (model_doc(row_ptr=[1, 2, 3, 4]), "start at 0"),
    "row_ptr_short_of_tokens": (model_doc(row_ptr=[0, 2, 3, 3]), "end at len"),
    "row_ptr_missing_a_row": (model_doc(row_ptr=[0, 2, 4]), "column lengths disagree"),
    "length_mismatch": (model_doc(counts=[2, 1, 2]), "column lengths disagree"),
    "context_lengths_sum": (model_doc(context_lengths=[0, 1, 2]), "sum to len"),
    "context_duplicate": (model_doc(context_tokens=[0, 0]), "appears twice"),
    "context_empty_twice": (model_doc(context_lengths=[0, 0, 1], context_tokens=[0]),
                            "appears twice"),
    # ("a", "b") twice: among the longest contexts, and among the middle ones
    "context_duplicate_longest": (model_doc(order=3, context_lengths=[0, 1, 1, 2, 2],
                                            context_tokens=[0, 1, 0, 1, 0, 1],
                                            row_ptr=[0, 1, 2, 3, 4, 5], tokens=[0, 1, 2, 0, 1],
                                            counts=[1, 1, 1, 1, 1]), "appears twice"),
    "context_duplicate_middle": (model_doc(order=4, context_lengths=[0, 1, 1, 2, 2, 3],
                                           context_tokens=[0, 1, 0, 1, 0, 1, 0, 0, 1],
                                           row_ptr=[0, 1, 2, 3, 4, 5, 6],
                                           tokens=[0, 1, 2, 0, 1, 2], counts=[1] * 6),
                                 "appears twice"),
    "context_too_long": (model_doc(context_lengths=[0, 1, 2], context_tokens=[0, 0, 1]),
                         r"lie in \[0, 1\]"),
    # order 3: the suffix ("end",) of the context ("b", "end") is no context
    "context_suffix_missing": (model_doc(order=3, context_lengths=[0, 1, 2],
                                         context_tokens=[0, 1, 2]),
                               "the suffix of a context is not a context"),
    # order 4: ("b",) is a context, but the suffix ("a", "b") of ("a", "a", "b") is not
    "context_suffix_two_short": (model_doc(order=4, context_lengths=[0, 1, 3],
                                           context_tokens=[1, 0, 0, 1]),
                                 "the suffix of a context is not a context"),
    # 3 * 1e308 overflows every denominator
    "alpha_overflows": (model_doc(alpha=1e308), r"alpha 1e\+308 times the vocabulary size 3 "),
    # rows above with every column <u2, as train-gen writes a small model:
    # a difference or a key computed in the column's own dtype would wrap
    "row_ptr_decreasing_u2": (model_doc("<u2", row_ptr=[0, 3, 2, 4]), "strictly increase"),
    "continuation_empty_u2": (model_doc("<u2", row_ptr=[0, 2, 2, 4]), "strictly increase"),
    "count_zero_u2": (model_doc("<u2", counts=[2, 0, 2, 1]), "counts must be >= 1"),
    "context_duplicate_u2": (model_doc("<u2", context_tokens=[0, 0]), "appears twice"),
    "context_suffix_missing_u2": (model_doc("<u2", order=3, context_lengths=[0, 1, 2],
                                            context_tokens=[0, 1, 2]),
                                  "the suffix of a context is not a context"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_MODELS))
def test_load_model_rejects_malformed_document(tmp_path, capsys, name):
    doc, reason = MALFORMED_MODELS[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"{name}.json: .*{reason}"):
        load_model(path)
    assert main(["generate", "--model", str(path), "--emotion", "happy",
                 "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1


def test_load_model_accepts_the_well_formed_document(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_doc()))
    model = load_model(path)
    v = 3
    assert model.vocabulary == ["a", "b", "end"]
    np.testing.assert_array_equal(dense_next(model, ["a"]),
                                  [0.01 / (2 + 0.01 * v), 2.01 / (2 + 0.01 * v),
                                   0.01 / (2 + 0.01 * v)])
    np.testing.assert_array_equal(dense_next(model, ["end"]),
                                  [2.01 / (3 + 0.01 * v), 1.01 / (3 + 0.01 * v),
                                   0.01 / (3 + 0.01 * v)])


def test_model_without_the_empty_context_is_rejected(tmp_path, capsys):
    # every context backs off to the empty one, so train-gen always writes it
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_doc(context_lengths=[1, 1], context_tokens=[0, 1],
                                         row_ptr=[0, 1, 2], tokens=[1, 2], counts=[2, 1])))
    out = tmp_path / "out"
    assert main(["generate", "--model", str(path), "--emotion", "happy",
                 "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {path}: the empty context is not a context\n"
    assert not out.exists()


def test_distribution_is_a_read_only_view_of_one_row(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_doc()))
    model = load_model(path)
    indices, probs, rest = model.next_token_distribution([0])  # row 1: a -> b twice
    assert indices.tolist() == [1] and probs.tolist() == [2.01 / (2 + 0.01 * 3)]
    assert rest == 0.01 / (2 + 0.01 * 3)
    assert not indices.flags.writeable and not probs.flags.writeable


def test_version_1_model_is_rejected_with_a_request_to_retrain(tmp_path, capsys):
    path = tmp_path / "old.json"
    path.write_text(json.dumps({"format": "looptab-ngram", "version": 1, "order": 2,
                                "alpha": 0.01, "vocabulary": ["a", "end"],
                                "counts": [[[], {"a": 1, "end": 1}]]}))
    assert main(["generate", "--model", str(path), "--emotion", "happy",
                 "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"error: {path}: model version 1 ") and "re-run train-gen" in err


def test_generate_with_malformed_model_exits_1(tmp_path, capsys):
    header_only = tmp_path / "header_only.json"
    header_only.write_text(json.dumps(MALFORMED_MODELS["header_only"][0]))
    # a trained model whose last continuation is a token outside its vocabulary
    unknown = tmp_path / "unknown_token.json"
    save_model(train_generator(CORPUS), unknown)
    doc = json.loads(unknown.read_text())
    tokens = decoded(doc, "tokens").copy()
    tokens[-1] = len(doc["vocabulary"])
    doc["tokens"] = column(tokens, doc["tokens"]["dtype"])
    unknown.write_text(json.dumps(doc))
    for path in (header_only, unknown):
        assert main(["generate", "--model", str(path), "--emotion", "happy",
                     "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and path.name in err
        assert err.count("\n") == 1


# tempo masking ---------------------------------------------------------------

def test_tempo_admissibility_bounds():
    happy = SamplingConstraints(emotion="happy")
    sad = SamplingConstraints(emotion="sad")
    assert happy.tempo_admissible(150) and happy.tempo_admissible(300)
    assert not happy.tempo_admissible(149)
    assert sad.tempo_admissible(100) and sad.tempo_admissible(30)
    assert not sad.tempo_admissible(101)
    for bpm in range(101, 150):
        assert not happy.tempo_admissible(bpm)
        assert not sad.tempo_admissible(bpm)


def test_mask_preserves_relative_probabilities():
    # tempo:90, tempo:160, clean0:note:s1:f0, wait:480 under the happy bound
    admissible = np.array([0.0, 1.0, 1.0, 1.0])
    indices, probs = np.array([2, 0, 1]), np.array([0.3, 0.4, 0.2])
    masked_indices, weights, rest = mask_tempo((indices, probs, 0.1), admissible, 3)
    assert masked_indices is indices and rest == 0.1
    np.testing.assert_array_equal(weights, [0.3, 0.0, 0.2])
    assert probs.tolist() == [0.3, 0.4, 0.2]
    # the dense masked vector keeps the relative probabilities
    masked = dense((indices, weights, rest), 4) * admissible
    original = dense((indices, probs, 0.1), 4)
    assert masked[0] == 0.0
    for i, j in ((1, 2), (2, 3)):
        assert masked[i] / masked[j] == original[i] / original[j]


def test_mask_with_no_admissible_tempo_raises():
    for (indices, probs, rest), admissible in (
            # every listed token an inadmissible tempo, nothing left for the rest
            (([0, 1], [0.5, 0.5], 0.0), [0.0, 0.0, 1.0]),
            # the one admissible token is listed without mass
            (([2], [0.0], 0.5), [0.0, 0.0, 1.0]),
            # no row at all, and no admissible token
            (([], [], 0.5), [0.0, 0.0])):
        admissible = np.array(admissible)
        with pytest.raises(SamplingError, match="all its mass on inadmissible tempi"):
            mask_tempo((np.array(indices, dtype=np.int64), np.array(probs), rest), admissible,
                       int(np.count_nonzero(admissible)))


def test_mask_keeps_the_mass_of_unlisted_admissible_tokens():
    admissible = np.array([0.0, 0.0, 1.0])
    _, weights, rest = mask_tempo((np.array([0, 1]), np.array([0.5, 0.4]), 0.1), admissible, 1)
    assert weights.tolist() == [0.0, 0.0] and rest == 0.1


def test_constraint_validation():
    for changes in ({"emotion": "angry"}, {"temperature": -0.5}, {"temperature": math.inf},
                    {"temperature": -math.inf}, {"temperature": math.nan},
                    {"max_tokens": 0}, {"max_tokens": -3}, {"max_bars": 0}):
        with pytest.raises(ValueError):
            SamplingConstraints(**changes)


# sampling --------------------------------------------------------------------

def sample_raws(model, emotion, **kwargs):
    constraints = SamplingConstraints(emotion=emotion, **kwargs)
    return [t.raw for t in sample_sequence(model, build_prompt(emotion), constraints)]


def test_sampling_deterministic_per_seed():
    model = train_generator(CORPUS)
    a = sample_raws(model, "happy", rng_seed=7)
    b = sample_raws(model, "happy", rng_seed=7)
    assert a == b


def test_greedy_reproduces_single_line_corpus():
    line = make_line(160)
    model = train_generator([line])
    out = sample_raws(model, "happy", temperature=0.0)
    assert out == line.split()


def test_happy_and_sad_tempo_constraints_hold():
    model = train_generator(CORPUS)
    for seed in range(20):
        for emotion, check in (("happy", lambda b: b >= HAPPY_TEMPO_MIN),
                               ("sad", lambda b: b <= SAD_TEMPO_MAX)):
            for raw in sample_raws(model, emotion, rng_seed=seed, max_bars=8):
                if raw.startswith("tempo:"):
                    assert check(int(raw.split(":")[1])), (emotion, raw)


def test_psychology_ablated_sampling_respects_constraints():
    model = train_generator(CORPUS)
    prompt = ablated_prompt("sad", "psychology")
    for seed in range(10):
        constraints = SamplingConstraints(emotion="sad", rng_seed=seed, max_bars=8)
        for t in sample_sequence(model, prompt, constraints):
            if t.fields.get("key") == "tempo":
                assert t.fields["value"] <= SAD_TEMPO_MAX


def test_sampled_streams_decode_to_scores():
    model = train_generator(CORPUS)
    for seed in range(10):
        stream = sample_sequence(model, build_prompt("happy"),
                                 SamplingConstraints(emotion="happy", rng_seed=seed,
                                                     max_bars=8))
        score = tokens_to_score(stream)
        assert score.header_tempo is None or score.header_tempo >= HAPPY_TEMPO_MIN


def test_bar_budget_terminates_sampling():
    model = train_generator(CORPUS)
    raws = sample_raws(model, "happy", rng_seed=3, max_bars=2)
    assert raws.count("new_measure") <= 2
    assert raws[-1] == "end"


def test_prompt_must_be_in_vocabulary():
    model = train_generator(CORPUS)
    from looptab.tokens import token
    with pytest.raises(ValueError, match="vocabulary"):
        sample_sequence(model, [token("artist:nobody")], SamplingConstraints())


# the sparse step against the dense vector ------------------------------------

def random_corpus(rng, lines):
    """Lines of one to four bars over 48 notes and tempi anywhere in 30-300."""
    notes = [f"{track}:note:s{string}:f{fret}" for track in ("clean0", "bass")
             for string in (1, 2, 3, 4) for fret in range(6)]
    return [make_line(int(rng.integers(30, 301)),
                      tuple(rng.choice(notes, size=int(rng.integers(1, 5)))),
                      emotion=str(rng.choice(["happy", "sad"])))
            for _ in range(lines)]


def random_models(rng, models):
    """(model, constraints, tables) over random models and emotions (so
    random tempo masks); ``constraints`` carries the emotion."""
    for _ in range(models):
        model = train_generator(random_corpus(rng, 30), order=int(rng.integers(2, 5)),
                                alpha=float(rng.choice([0.01, 0.5, 1e-3])))
        constraints = SamplingConstraints(emotion=str(rng.choice(["happy", "sad"])))
        yield model, constraints, generate._sampling_tables(
            tuple(model.vocabulary), constraints.emotion)


def random_cases(rng, models, contexts):
    """(model, tables, context, seen_measure) over random models, emotions,
    contexts and both structural states."""
    for model, _, tables in random_models(rng, models):
        for _ in range(contexts):
            context = rng.choice(len(model.vocabulary), size=int(rng.integers(0, 6))).tolist()
            yield model, tables, context, bool(rng.integers(2))


def masked_step(distribution, tables, seen_measure):
    """The step's distribution masked to the admissible tempi and then to
    the structurally valid tokens, or None if no valid token has mass: the
    per-step masking that the sampler's masked columns replace."""
    indices, weights, rest = mask_tempo(distribution, tables.admissible,
                                        tables.admissible_count)
    keep = tables.masks[seen_measure][indices]
    weights = weights * keep
    unlisted = len(tables.mask_ids[seen_measure]) - int(np.count_nonzero(keep))
    if rest * unlisted <= 0.0 and not weights.any():
        return None
    return indices, weights, rest, unlisted


def implied(masked, ids, size):
    """The vocabulary-length distribution a masked sparse step draws from."""
    indices, weights, rest, unlisted = masked
    assert unlisted == len(np.setdiff1d(ids, indices))
    vector = np.zeros(size)
    vector[ids] = rest
    vector[indices] = weights
    return vector / vector.sum()


def tempered(p, temperature):
    """``p ** (1 / temperature)``, renormalized, computed in log space."""
    out = np.zeros_like(p)
    live = p > 0
    out[live] = np.exp((np.log(p[live]) - np.log(p[live].max())) / temperature)
    return out / out.sum()


@pytest.mark.parametrize("temperature", [1.0, 0.7, 1.5, 4.0, 0.05, 1e-3, 2e-6])
def test_sparse_step_equals_the_dense_masked_vector(temperature):
    rng = np.random.default_rng(int(temperature * 1e6))
    for model, tables, context, seen in random_cases(rng, 12, 25):
        v = len(model.vocabulary)
        distribution = model.next_token_distribution(context)
        # the dense path: mask the tempi, renormalize, mask the structure, renormalize
        p = dense(distribution, v) * tables.admissible
        p /= p.sum()
        p *= tables.masks[seen]
        p /= p.sum()
        masked = masked_step(distribution, tables, seen)
        ids, positions = tables.mask_ids[seen], tables.ranks[seen][distribution[0]]
        assert generate._argmax(masked, ids, positions) == int(np.argmax(p))
        if temperature != 1.0:
            masked = generate._sharpen(masked, 1.0 / temperature)
        np.testing.assert_allclose(implied(masked, ids, v), tempered(p, temperature),
                                   rtol=0, atol=1e-12)


def chi_square(counts, p):
    """Pearson's statistic and its degrees of freedom, bins expecting
    fewer than 5 draws pooled into one."""
    expected = counts.sum() * p
    small = expected < 5
    observed = np.append(counts[~small], counts[small].sum())
    expected = np.append(expected[~small], expected[small].sum())
    if expected[-1] == 0:
        observed, expected = observed[:-1], expected[:-1]
    return float(((observed - expected) ** 2 / expected).sum()), len(expected) - 1


@pytest.mark.parametrize("temperature", [1.0, 0.6, 2.5])
def test_draws_follow_the_masked_distribution(temperature):
    rng = np.random.default_rng(3)
    draws = np.random.default_rng(4)
    cases = [case for case in random_cases(rng, 4, 30)
             if len(case[0].next_token_distribution(case[2])[0]) > 2][:6]
    assert len(cases) == 6
    for model, tables, context, seen in cases:
        v = len(model.vocabulary)
        masked = masked_step(model.next_token_distribution(context), tables, seen)
        if temperature != 1.0:
            masked = generate._sharpen(masked, 1.0 / temperature)
        ids, positions = tables.mask_ids[seen], tables.ranks[seen][masked[0]]
        p = implied(masked, ids, v)
        counts = np.bincount([generate._choose(masked, ids, positions, draws.random())
                              for _ in range(20_000)], minlength=v)
        assert counts[p == 0].sum() == 0
        statistic, df = chi_square(counts, p)
        assert statistic < df + 6 * math.sqrt(2 * df), (statistic, df)


def test_draw_never_lands_on_a_token_without_mass():
    # a uniform number equal to a cumulative sum moves past the tokens
    # without mass, as in Generator.choice
    ids = np.arange(4)
    row = np.array([3, 1, 2])
    positions = row  # every id is admitted, at its own position
    assert generate._choose((row, np.array([0.0, 0.0, 1.0]), 0.0, 0), ids, positions, 0.0) == 2
    assert generate._choose((row, np.array([0.5, 0.0, 0.5]), 0.0, 0), ids, positions, 0.5) == 2
    # past the listed mass, the unlisted id 0 is drawn
    assert generate._choose((row, np.array([0.5, 0.0, 0.0]), 0.5, 1), ids, positions, 0.5) == 0


def test_nth_unlisted_skips_the_listed_ids():
    rng = np.random.default_rng(8)
    for _ in range(300):
        v = int(rng.integers(1, 40))
        ids = np.flatnonzero(rng.random(v) < 0.6)
        ranks = np.full(v, v)
        ranks[ids] = np.arange(len(ids))
        listed = rng.permutation(v)[:int(rng.integers(0, v + 1))]
        unlisted = [i for i in ids if i not in listed]
        for n, expected in enumerate(unlisted):
            assert generate._nth_unlisted(ids, ranks[listed], n) == expected


class RowModel(generate.NGramModel):
    """An order-2 model with the given rows in place of add-alpha ones:
    ``rows`` maps the empty context (None) or a one-token context's id to
    its listed ids, their probabilities and the probability of each id it
    does not list."""

    def __init__(self, vocabulary, rows):
        contexts = list(rows)
        listed = [np.array(rows[c][0], dtype=np.int64) for c in contexts]
        super().__init__(2, 1.0, vocabulary, [c is not None for c in contexts],
                         [c for c in contexts if c is not None],
                         np.cumsum([0, *map(len, listed)]), np.concatenate(listed),
                         np.ones(sum(map(len, listed))))
        self.rows = [rows[c] for c in contexts]

    @cached_property
    def _index(self):
        """The add-alpha index with the given probabilities in its place."""
        index = super()._index
        index.seen = np.concatenate([np.array(probs, dtype=float) for _, probs, _ in self.rows])
        index.unseen = [rest for _, _, rest in self.rows]
        return index


class OneRowModel(RowModel):
    """A model whose every distribution is the same sparse row."""

    def __init__(self, vocabulary, indices, probs, rest):
        super().__init__(vocabulary, {None: (indices, probs, rest)})
        self.row = (self.tokens, self._index.seen, rest)


# ids: 0-3 the happy prompt, 4 new_measure, 5 tempo:120 (inadmissible when
# happy), 6 tempo:160, 7 tempo:170, 8 wait:480 (blocked before a bar), 9 end
ONE_ROW_VOCAB = [*HAPPY_PROMPT, "new_measure", "tempo:120", "tempo:160", "tempo:170",
                 "wait:480", "end"]


def first_step(indices, probs, rest, **constraints):
    model = OneRowModel(ONE_ROW_VOCAB, indices, probs, rest)
    constraints = SamplingConstraints(emotion="happy", max_tokens=len(HAPPY_PROMPT) + 1,
                                      **constraints)
    return [t.raw for t in sample_sequence(model, build_prompt("happy"), constraints)][4:]


@pytest.mark.parametrize("indices,probs,rest,expected", [
    ([7, 6], [0.4, 0.4], 0.05, "tempo:160"),      # listed tie: the lower id
    ([6, 7], [0.4, 0.4], 0.05, "tempo:160"),
    ([5, 0], [0.9, 0.0], 0.01, "arousal:high"),   # the lowest admissible unlisted id
    ([8, 9], [0.5, 0.4], 0.01, "end"),            # the wait is blocked before a bar
    ([6], [0.01], 0.01, "valence:high"),          # listed = rest: the unlisted id is lower
    ([0], [0.01], 0.01, "valence:high"),          # listed = rest: the listed id is lower
    ([4], [0.001], 0.01, "valence:high"),         # rest wins
])
def test_greedy_takes_the_lowest_id_of_the_largest_probability(indices, probs, rest, expected):
    assert first_step(indices, probs, rest, temperature=0.0) == [expected]
    tables = generate._sampling_tables(tuple(ONE_ROW_VOCAB), "happy")
    row = OneRowModel(ONE_ROW_VOCAB, indices, probs, rest).row
    masked = dense(row, len(ONE_ROW_VOCAB)) * tables.masks[False]
    assert ONE_ROW_VOCAB[int(np.argmax(masked))] == expected


@pytest.mark.parametrize("temperature", [0.0, 1.0, 0.5])
def test_structural_dead_end_stops_the_sample(temperature):
    # all the mass on a wait before the first bar
    assert first_step([8], [1.0], 0.0, temperature=temperature) == []


def per_step_choice(model, tables, history, seen_measure, temperature, u):
    """The id the per-step masks give after ``history``, or None at the
    structural dead end."""
    masked = masked_step(model.next_token_distribution(history), tables, seen_measure)
    if masked is None:
        return None
    ids, positions = tables.mask_ids[seen_measure], tables.ranks[seen_measure][masked[0]]
    if temperature < 1e-6:
        return generate._argmax(masked, ids, positions)
    if temperature != 1.0:
        masked = generate._sharpen(masked, 1.0 / temperature)
    return generate._choose(masked, ids, positions, u)


@pytest.mark.parametrize("temperature", [1.0, 0.7, 1e-3, 0.0])
def test_each_step_draws_what_the_per_step_masks_give(temperature):
    rng = np.random.default_rng(int(temperature * 1e3) + 11)
    steps = [0, 0]  # by structural state
    for model, constraints, tables in random_models(rng, 8):
        bar = model.index["new_measure"]
        for seed in range(6):
            prompt = [i for i in rng.choice(len(model.vocabulary), size=int(rng.integers(0, 5)))
                      if i != bar] + [bar] * (seed % 2)
            budget = dataclasses.replace(constraints, max_tokens=len(prompt) + 20,
                                         temperature=temperature, rng_seed=seed)
            stream = sample_sequence(model, [tables.tokens[i] for i in prompt], budget)
            # one uniform number per step, unless greedy: the seed's own stream
            uniforms = iter(np.random.default_rng(seed).random(20).tolist())
            history, seen = list(prompt), bool(seed % 2)
            for t in stream[len(prompt):]:
                u = next(uniforms) if temperature >= 1e-6 else None
                choice = per_step_choice(model, tables, history, seen, temperature, u)
                assert choice is not None and model.vocabulary[choice] == t.raw
                steps[seen] += 1
                history.append(choice)
                seen |= choice == bar
            if stream[-1].raw != "end" and len(stream) < budget.max_tokens:
                assert per_step_choice(model, tables, history, seen, temperature, 0.5) is None
    assert min(steps) > 40, steps


def test_a_long_sample_draws_one_uniform_stream_from_its_seed():
    # tempo:160 or tempo:170, each half the mass, forever: past several
    # chunks of drawn numbers
    model = OneRowModel(ONE_ROW_VOCAB, [6, 7], [0.5, 0.5], 0.0)
    constraints = SamplingConstraints(emotion="happy", max_tokens=len(HAPPY_PROMPT) + 600,
                                      rng_seed=5)
    raws = [t.raw for t in sample_sequence(model, build_prompt("happy"), constraints)][4:]
    assert raws == ["tempo:160" if u < 0.5 else "tempo:170"
                    for u in np.random.default_rng(5).random(600)]


@pytest.mark.parametrize("temperature", [1.0, 0.0])
def test_sampling_error_fires_at_the_step_whose_mass_is_on_inadmissible_tempi(temperature):
    # after the prompt, the empty context's row lists new_measure alone; after
    # new_measure, the row lists tempo:120 alone, which the happy bound forbids
    model = RowModel(ONE_ROW_VOCAB, {None: ([4], [1.0], 0.0), 4: ([5], [1.0], 0.0)})
    prompt = build_prompt("happy")
    one = SamplingConstraints(emotion="happy", max_tokens=len(prompt) + 1,
                              temperature=temperature)
    assert [t.raw for t in sample_sequence(model, prompt, one)][4:] == ["new_measure"]
    with pytest.raises(SamplingError, match="all its mass on inadmissible tempi"):
        sample_sequence(model, prompt, dataclasses.replace(one, max_tokens=len(prompt) + 2))
    tables = generate._sampling_tables(tuple(ONE_ROW_VOCAB), "happy")
    history = [ONE_ROW_VOCAB.index(t.raw) for t in prompt]
    assert per_step_choice(model, tables, history, False, temperature, 0.5) == 4
    with pytest.raises(SamplingError):
        per_step_choice(model, tables, history + [4], True, temperature, 0.5)


def test_tiny_temperature_draws_a_most_likely_token(corpus_model, tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["generate", "--model", str(corpus_model), "--emotion", "sad",
                     "--count", "3", "--temperature", "0.00001",
                     "--out-dir", str(tmp_path)]) == 0
    model = load_model(corpus_model)
    tables = generate._sampling_tables(tuple(model.vocabulary), "sad")
    for f in sorted(tmp_path.glob("*.tokens")):
        raws = f.read_text().split()
        for i in range(len(build_prompt("sad")), len(raws)):
            p = dense_next(model, raws[:i]) * tables.masks["new_measure" in raws[:i]]
            assert p[model.index[raws[i]]] == p.max(), (f.name, i, raws[i])


# golden CLI outputs ------------------------------------------------------------

# sha256 over gen_0000..gen_0004 (seeds 0-4) of `generate --count 5 --seed 0`
# on a model trained from CORPUS; regenerated when the draw became sparse
# (one uniform number picks a listed id or the r-th admissible unlisted one).
# Greedy decoding (`--temperature 0`) kept its hash.
GOLDEN = [
    ("happy", (),
     "f01bc07af6b91bc5ad3a9fcbe534b239a9931ce85eaeb2085a52e2ba5149b7ef"),
    ("sad", (),
     "daa72baa1e65d9c4097aae0e66bb22a6fc9c4d9aa8b00065f77e7603e82bd7a9"),
    ("happy", ("--ablate", "emotion_labels"),
     "c113e84af42ad4bec04547fc12a507b19a5b8e090a58fe360dc785e37fdbf7bc"),
    ("sad", ("--ablate", "emotion_labels"),
     "4c4567655467fd7a408e90cc05c7140f3703639cd7e8f46e8413ad6c8951ec36"),
    ("happy", ("--ablate", "tension"),
     "ebe61730f446e23c7ee71aa9cd5d7844d9c74ab149155977e782648ca704bac4"),
    ("sad", ("--ablate", "tension"),
     "9287cf0a7b054e3662ec8791271841eda30d6ac32fb440d0f563900cd14fecf5"),
    ("happy", ("--temperature", "0.7"),
     "0c45d733f9b8a0e95887688a37afe88e5e168863302e7e760c880096a8462c31"),
    ("sad", ("--temperature", "0"),
     "fe57597c6b912973a1d963dbfd20b0572efa4fc01925652165b7dc4ff0e4d717"),
]


# sha256 of the model.json that train-gen writes for CORPUS (format version
# 3); its column bytes are deflated by the reference zlib at level 1.
GOLDEN_MODEL = "ac482b7fd7bd398e2909ee0f1703c96d11ff754c827799f4ff9786083124ea19"


@pytest.fixture(scope="module")
def corpus_model(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    corpus = root / "corpus.txt"
    corpus.write_text("".join(line + "\n" for line in CORPUS))
    model = root / "model.json"
    assert main(["train-gen", "--corpus", str(corpus), "--out", str(model)]) == 0
    return model


def generate_files(model, out_dir, emotion, *extra):
    assert main(["generate", "--model", str(model), "--emotion", emotion, "--count", "5",
                 "--seed", "0", *extra, "--out-dir", str(out_dir)]) == 0
    return sorted(out_dir.glob("*.tokens"))


def test_model_file_matches_golden_hash(corpus_model):
    assert hashlib.sha256(corpus_model.read_bytes()).hexdigest() == GOLDEN_MODEL


@pytest.mark.parametrize("emotion,extra,digest", GOLDEN)
def test_generate_matches_golden_hash(corpus_model, tmp_path, emotion, extra, digest):
    h = hashlib.sha256()
    for f in generate_files(corpus_model, tmp_path, emotion, *extra):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    assert h.hexdigest() == digest


def test_psychology_ablation_outputs_parse_within_tempo_bound(corpus_model, tmp_path):
    for emotion in ("happy", "sad"):
        for f in generate_files(corpus_model, tmp_path / emotion, emotion,
                                "--ablate", "psychology"):
            stream = parse_tokens(f.read_text())
            tokens_to_score(stream)
            for t in stream:
                if t.fields.get("key") == "tempo":
                    bpm = t.fields["value"]
                    assert bpm >= HAPPY_TEMPO_MIN if emotion == "happy" else bpm <= SAD_TEMPO_MAX


def test_greedy_psychology_ablation_terminates(corpus_model, tmp_path):
    # Greedy decoding after the mode-free sad prompt: the argmax tempo is
    # tempo:160 (ties break toward the lowest vocabulary index), which the
    # sad constraint forbids.
    env = dict(os.environ, PYTHONPATH=str(Path(looptab.__file__).parents[1]))
    argv = [sys.executable, "-m", "looptab.cli", "generate", "--model", str(corpus_model),
            "--emotion", "sad", "--temperature", "0", "--ablate", "psychology",
            "--out-dir", str(tmp_path)]
    try:
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    except subprocess.TimeoutExpired:
        pytest.fail("greedy psychology-ablated sampling did not terminate")
    assert proc.returncode == 0, proc.stderr
    tempi = [int(raw[6:]) for raw in (tmp_path / "gen_0000.tokens").read_text().split()
             if raw.startswith("tempo:")]
    assert tempi and all(bpm <= SAD_TEMPO_MAX for bpm in tempi)


@pytest.mark.parametrize("flags", [
    ("--temperature=inf",), ("--temperature=-inf",), ("--temperature=nan",),
    ("--temperature", "-0.5"),
    ("--max-tokens", "0"), ("--max-tokens", "-3"),
    ("--count", "0"), ("--count", "-1"),
])
def test_generate_rejects_bad_settings_before_writing(corpus_model, tmp_path, capsys, flags):
    # at T = inf, 0 ** 0 == 1 gave masked tempi their mass back; T = nan
    # repeated one token; --max-tokens 0 fell back to the configured 4096
    out = tmp_path / "out"
    assert main(["generate", "--model", str(corpus_model), "--emotion", "sad", *flags,
                 "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_generate_rejects_a_configured_bar_budget_below_1(corpus_model, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text('{"format": "looptab-config", "generator": {"max_bars": 0}}')
    assert main(["--config", str(config), "generate", "--model", str(corpus_model),
                 "--emotion", "sad", "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "max_bars" in err and err.count("\n") == 1


@pytest.mark.parametrize("ablate", [(), ("--ablate", "psychology")])
def test_generate_max_tokens_within_the_prompt_exits_1(corpus_model, tmp_path, capsys, ablate):
    # it wrote the prompt alone, with no sampled token, and exited 0
    prompt = len(ablated_prompt("happy", ablate[1] if ablate else None))
    for budget in (1, prompt):
        out = tmp_path / f"out{budget}"
        assert main(["generate", "--model", str(corpus_model), "--emotion", "happy", *ablate,
                     "--max-tokens", str(budget), "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{prompt}-token prompt" in err
        assert not out.exists()


def test_generate_rejects_a_negative_seed_before_writing(corpus_model, tmp_path, capsys):
    # numpy's "expected non-negative integer" came after --out-dir was made
    out = tmp_path / "out"
    assert main(["generate", "--model", str(corpus_model), "--emotion", "happy",
                 "--seed", "-1", "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"
    assert not out.exists()


def test_generate_rejects_a_prompt_token_outside_the_vocabulary_before_writing(tmp_path, capsys):
    # the model never saw time_signature:4, which both prompts carry
    model = tmp_path / "model.json"
    save_model(train_generator(["new_measure clean0:note:s1:f0 wait:480"]), model)
    out = tmp_path / "out"
    assert main(["generate", "--model", str(model), "--emotion", "sad",
                 "--out-dir", str(out)]) == 1
    assert (capsys.readouterr().err
            == "error: prompt token 'time_signature:4' not in model vocabulary\n")
    assert not out.exists()


def test_generate_max_tokens_is_taken_as_given(corpus_model, tmp_path):
    assert main(["generate", "--model", str(corpus_model), "--emotion", "happy",
                 "--max-tokens", "6", "--out-dir", str(tmp_path)]) == 0
    assert len((tmp_path / "gen_0000.tokens").read_text().split()) <= 6


# sampling errors --------------------------------------------------------------

def tempo_only_model():
    """A model that puts all its mass on a tempo the happy bound forbids."""
    vocabulary = [*HAPPY_PROMPT, "new_measure", "tempo:120", "end"]
    return OneRowModel(vocabulary, [vocabulary.index("tempo:120")], [1.0], 0.0)


def test_all_mass_on_inadmissible_tempi_exits_1(tmp_path, monkeypatch, capsys):
    # An n-gram with alpha > 0 leaves mass on every token, so only a stub
    # model reaches this error.
    monkeypatch.setattr(looptab.generate, "load_model", lambda path: tempo_only_model())
    assert main(["generate", "--model", "stub", "--emotion", "happy",
                 "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == "error: the model puts all its mass on inadmissible tempi\n"
    assert not list((tmp_path / "out").iterdir())


# one generate run ------------------------------------------------------------

def test_generate_count_parses_the_vocabulary_once(tmp_path, monkeypatch):
    corpus = tmp_path / "corpus.txt"
    # an artist of its own gives this test a vocabulary no other test samples from
    corpus.write_text("".join(line + "\n" for line in CORPUS) + "artist:reuse_check end\n")
    model = tmp_path / "model.json"
    assert main(["train-gen", "--corpus", str(corpus), "--out", str(model)]) == 0
    vocab_size = len(json.loads(model.read_text())["vocabulary"])

    parsed = []
    real_token = looptab.generate.token
    monkeypatch.setattr(looptab.generate, "token", lambda raw: parsed.append(raw) or real_token(raw))
    assert main(["generate", "--model", str(model), "--emotion", "happy", "--count", "8",
                 "--seed", "3", "--out-dir", str(tmp_path / "batch")]) == 0
    assert vocab_size <= len(parsed) <= vocab_size + 8
    monkeypatch.undo()

    for i in range(8):
        single = tmp_path / f"single{i}"
        assert main(["generate", "--model", str(model), "--emotion", "happy",
                     "--seed", str(3 + i), "--out-dir", str(single)]) == 0
        assert ((tmp_path / "batch" / f"gen_{i:04d}.tokens").read_bytes()
                == (single / "gen_0000.tokens").read_bytes())


def test_a_run_builds_the_masked_columns_once_per_state_and_they_go_with_the_model(
        corpus_model, tmp_path, monkeypatch):
    built, samples, models = [], [], []
    real_build, real_sample, real_load = (generate._state_columns, generate.sample_sequence,
                                          generate.load_model)
    monkeypatch.setattr(generate, "_state_columns",
                        lambda model, mask, ranks: built.append(id(mask)) or
                        real_build(model, mask, ranks))
    monkeypatch.setattr(generate, "sample_sequence",
                        lambda *args: samples.append(1) or real_sample(*args))

    def load(path):
        model = real_load(path)
        models.append(weakref.ref(model))
        return model

    monkeypatch.setattr(generate, "load_model", load)
    assert main(["generate", "--model", str(corpus_model), "--emotion", "sad", "--count", "5",
                 "--out-dir", str(tmp_path)]) == 0
    assert len(samples) == 5 and len(models) == 1
    assert len(built) == len(set(built)) == 2  # one per structural state
    # the columns are the model's: no module-level cache holds it
    assert models[0]() is None

    model = real_load(corpus_model)
    sad = SamplingConstraints(emotion="sad")
    sample_sequence(model, build_prompt("sad"), sad)
    columns = model._sampling["sad"]
    sample_sequence(model, build_prompt("sad"), dataclasses.replace(sad, rng_seed=1))
    assert model._sampling["sad"] is columns
    assert len(built) == 4
    ref = weakref.ref(model)
    del model
    assert ref() is None


def count_index_builds(monkeypatch) -> list:
    """The models whose sampling index (``NGramModel._index``) is built,
    one entry a build, from now on."""
    built = []
    build = generate.NGramModel._index.func
    monkeypatch.setattr(generate.NGramModel._index, "func",
                        lambda model: built.append(model) or build(model))
    return built


def test_training_and_train_gen_leave_the_sampling_index_unbuilt(tmp_path, monkeypatch):
    built = count_index_builds(monkeypatch)
    model = train_generator(CORPUS)
    assert "_index" not in vars(model)
    trained, train = [], generate.train_generator
    monkeypatch.setattr(generate, "train_generator",
                        lambda *args, **kw: trained.append(train(*args, **kw)) or trained[-1])
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("".join(line + "\n" for line in CORPUS))
    assert main(["train-gen", "--corpus", str(corpus), "--out", str(tmp_path / "model.json")]) == 0
    assert len(trained) == 1 and "_index" not in vars(trained[0])
    load_model(tmp_path / "model.json")  # nor does loading a model
    assert built == []


def test_the_first_sample_builds_the_sampling_index_and_every_sample_shares_it(
        corpus_model, tmp_path, monkeypatch):
    built = count_index_builds(monkeypatch)
    models, indexes = [], []
    real_load, real_sample = generate.load_model, generate.sample_sequence

    def load(path):
        model = real_load(path)
        assert "_index" not in vars(model)
        models.append(model)
        return model

    def sample(model, *args):
        stream = real_sample(model, *args)
        indexes.append(vars(model)["_index"])
        return stream

    monkeypatch.setattr(generate, "load_model", load)
    monkeypatch.setattr(generate, "sample_sequence", sample)
    assert main(["generate", "--model", str(corpus_model), "--emotion", "happy", "--count", "5",
                 "--out-dir", str(tmp_path)]) == 0
    assert len(models) == 1 and built == models
    assert len(indexes) == 5 and all(index is indexes[0] for index in indexes)

    # a distribution builds it too, and a sample then reads the same one
    model = real_load(corpus_model)
    model.next_token_distribution([])
    assert built == [models[0], model]
    index = vars(model)["_index"]
    real_sample(model, build_prompt("sad"), SamplingConstraints(emotion="sad"))
    assert vars(model)["_index"] is index and len(built) == 2


def test_a_smaller_count_into_an_older_out_dir_exits_1_naming_the_stale_file(
        corpus_model, tmp_path, capsys):
    # gen_0002 and gen_0003 of the larger run stayed, and eval-loops and
    # eval-emotion scored them with the new run's two files
    out = tmp_path / "out"
    argv = ["generate", "--model", str(corpus_model), "--emotion", "happy", "--out-dir", str(out)]
    assert main([*argv, "--count", "4"]) == 0
    before = {f.name: f.read_bytes() for f in out.iterdir()}
    capsys.readouterr()
    assert main([*argv, "--count", "2", "--seed", "9"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(out / "gen_0002.tokens") in err and "gen_0003" not in err
    assert {f.name: f.read_bytes() for f in out.iterdir()} == before
    # a run that overwrites every file there, and other files, are fine
    (out / "notes.txt").write_text("kept\n")
    assert main([*argv, "--count", "4", "--seed", "9"]) == 0
    assert main([*argv, "--count", "5"]) == 0
    assert sorted(f.name for f in out.glob("*.tokens")) == [f"gen_{i:04d}.tokens" for i in range(5)]


@pytest.mark.parametrize("flags", [("--count", "0"), ("--max-tokens", "4")])
def test_bad_settings_exit_1_before_the_model_is_read(tmp_path, capsys, flags):
    # an unreadable model exited 2 first
    assert main(["generate", "--model", str(tmp_path / "missing.json"), "--emotion", "happy",
                 *flags, "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "missing.json" not in err


def test_failed_model_save_keeps_the_previous_file(tmp_path, monkeypatch):
    model = train_generator(CORPUS)
    path = tmp_path / "model.json"
    save_model(model, path)
    before = path.read_bytes()
    real_open = looptab.generate.atomic_open

    @contextlib.contextmanager
    def disk_full_halfway(target):
        with real_open(target) as fh:
            class Half:
                def write(self, text):
                    fh.write(text[:len(text) // 2])
                    raise OSError(28, "No space left on device")
            yield Half()

    monkeypatch.setattr(looptab.generate, "atomic_open", disk_full_halfway)
    with pytest.raises(OSError):
        save_model(train_generator(CORPUS[:1]), path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]
