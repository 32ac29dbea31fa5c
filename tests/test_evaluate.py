import logging
import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from looptab.evaluate import (
    HIGH_CUT,
    NEWTON_MAX_ITER,
    NEWTON_TOL,
    TEMPO_BUCKETS,
    ClassifierConfig,
    LinearTokenClassifier,
    SurveyError,
    _tempo_bucket,
    classifier_features,
    emotion_metrics,
    feature_columns,
    feature_matrix,
    fit_classifier,
    fit_classifiers,
    likert_to_signed,
    load_survey_csv,
    loop_metric,
    metrics_report,
    metrics_table,
    survey_summary,
    token_features,
    train_classifier,
)
from looptab.loops import LoopParams
from looptab.score import TokenTable, decode_parts, regular_parts, score_to_tokens

from util import bar_block, block_bars, columns


class FixedModel:
    """Classifier stub returning scripted scores in order."""

    def __init__(self, scores):
        self.fixed = list(scores)
        self.i = 0

    def score(self, tokens):
        s = self.fixed[self.i % len(self.fixed)]
        self.i += 1
        return s

    def scores(self, streams):
        return [self.score(s) for s in streams]


# features --------------------------------------------------------------------

def test_token_features_counts_and_normalizes():
    names = ["a", "b", "tempo_fast"]
    x = token_features(["a", "a", "b", "tempo:160"], feature_columns(names))
    assert np.allclose(x, [2 / 4, 1 / 4, 1 / 4])


def test_token_features_permutation_invariant():
    rng = random.Random(1)
    tokens = ["a"] * 3 + ["b"] * 5 + ["tempo:90"] * 2
    columns = feature_columns(["a", "b", "tempo_slow", "tempo_mid"])
    base = token_features(tokens, columns)
    rng.shuffle(tokens)
    assert np.array_equal(token_features(tokens, columns), base)


def test_token_features_truncation():
    columns = feature_columns(["a", "b"])
    tokens = ["a"] * 10 + ["b"] * 10
    x = token_features(tokens, columns, truncate=10)
    assert np.allclose(x, [1.0, 0.0])


def test_tempo_buckets():
    columns = feature_columns(["tempo_slow", "tempo_mid", "tempo_fast"])
    assert np.argmax(token_features(["tempo:99"], columns)) == 0
    assert np.argmax(token_features(["tempo:100"], columns)) == 1
    assert np.argmax(token_features(["tempo:149"], columns)) == 1
    assert np.argmax(token_features(["tempo:150"], columns)) == 2


def reference_features(tokens, columns, truncate):
    """One stream's features, one token at a time."""
    window = list(tokens[:truncate])
    x = np.zeros(len(columns), dtype=float)
    for raw in window:
        i = columns.get(raw)
        if i is not None:
            x[i] += 1.0
        bucket = _tempo_bucket(raw)
        if bucket is not None and bucket in columns:
            x[columns[bucket]] += 1.0
    if window:
        x /= len(window)
    return x


# Plain tokens, tempo tokens of every bucket and the bucket names themselves;
# a drawn column set leaves some of each unseen.
FEATURE_TOKENS = ("a", "b", "c", "tempo:40", "tempo:99", "tempo:100", "tempo:149",
                  "tempo:150", "tempo:300") + TEMPO_BUCKETS


@settings(deadline=None, max_examples=300)
@given(streams=st.lists(st.lists(st.sampled_from(FEATURE_TOKENS), max_size=12), max_size=8),
       names=st.lists(st.sampled_from(FEATURE_TOKENS), unique=True),
       truncate=st.integers(1, 14))
def test_feature_matrix_equals_the_per_stream_loop(streams, names, truncate):
    columns = feature_columns(names)
    x = feature_matrix(streams, columns, truncate)
    assert x.shape == (len(streams), len(names)) and x.dtype == np.float64
    for row, stream in zip(x, streams):
        assert np.array_equal(row, reference_features(stream, columns, truncate))
        assert np.array_equal(token_features(stream, columns, truncate), row)


def test_feature_matrix_counts_an_unseen_tempo_token_toward_its_bucket():
    columns = feature_columns(["a", "tempo_mid", "tempo:60"])
    x = feature_matrix([["tempo:120", "a"], [], ["tempo:60", "tempo:120", "b", "a"]], columns, 3)
    assert np.array_equal(x, [[1 / 2, 1 / 2, 0.0], [0.0, 0.0, 0.0], [0.0, 1 / 3, 1 / 3]])


def test_classifier_features_match_the_per_stream_loop():
    rng = random.Random(11)
    streams = synth_streams(rng, 12, ["a", "b", "tempo:90"], 160) + [[]]
    names, x = classifier_features(streams, truncate=20)
    assert names == sorted({t for s in streams for t in s[:20]} | set(TEMPO_BUCKETS))
    columns = feature_columns(names)
    assert np.array_equal(x, np.stack([reference_features(s, columns, 20) for s in streams]))


def test_one_matrix_fits_several_targets():
    rng = random.Random(12)
    streams = synth_streams(rng, 15, ["a", "b"], 160) + synth_streams(rng, 15, ["c", "d"], 80)
    first = [True] * 15 + [False] * 15
    second = [i % 2 == 0 for i in range(30)]
    names, x = classifier_features(streams)
    before = x.copy()
    for labels in (first, second):
        fitted = fit_classifier(names, x, labels)
        trained = train_classifier(streams, labels)
        assert np.array_equal(fitted.weights, trained.weights)
        assert (fitted.bias, fitted.holdout_accuracy) == (trained.bias, trained.holdout_accuracy)
    assert np.array_equal(x, before)


def test_classifier_builds_its_columns_once(monkeypatch):
    rng = random.Random(7)
    clf = train_classifier(synth_streams(rng, 10, ["a", "b"], 160)
                           + synth_streams(rng, 10, ["x", "y"], 80), [True] * 10 + [False] * 10)
    built = []
    real = feature_columns
    monkeypatch.setattr("looptab.evaluate.feature_columns",
                        lambda names: built.append(names) or real(names))
    for s in synth_streams(rng, 5, ["a", "x"], 120):
        clf.score(s)
    assert len(built) == 1
    assert clf.columns == {name: i for i, name in enumerate(clf.feature_names)}


# classifier ------------------------------------------------------------------

def synth_streams(rng, n, vocab, tempo):
    out = []
    for _ in range(n):
        toks = [f"tempo:{tempo}"] + [rng.choice(vocab) for _ in range(30)]
        out.append(toks)
    return out


def test_classifier_separates_disjoint_vocabularies():
    rng = random.Random(5)
    pos = synth_streams(rng, 30, ["a", "b", "c"], 160)
    neg = synth_streams(rng, 30, ["x", "y", "z"], 80)
    clf = train_classifier(pos + neg, [True] * 30 + [False] * 30)
    assert all(clf.scores([s])[0] > HIGH_CUT for s in pos)
    assert not any(clf.scores([s])[0] > HIGH_CUT for s in neg)
    assert clf.holdout_accuracy == 1.0
    # separable data has no unregularized optimum; the l2 term gives it one
    assert np.isfinite(clf.weights).all() and math.isfinite(clf.bias)
    assert clf.fit.iterations <= NEWTON_MAX_ITER and clf.fit.gradient_norm <= NEWTON_TOL


def test_a_fit_stopped_by_the_iteration_cap_logs_a_warning(monkeypatch, caplog):
    monkeypatch.setattr("looptab.evaluate.NEWTON_MAX_ITER", 1)
    rng = random.Random(5)
    streams = synth_streams(rng, 30, ["a", "b", "c"], 160) + synth_streams(rng, 30, ["x"], 80)
    names, x = classifier_features(streams)
    with caplog.at_level(logging.WARNING, logger="looptab.evaluate"):
        clf = fit_classifiers(names, x, {"valence": [True] * 30 + [False] * 30})["valence"]
    assert clf.fit.iterations == 1 and clf.fit.gradient_norm > NEWTON_TOL
    assert caplog.messages == [f"valence classifier: stopped at the cap of 1 Newton iterations, "
                               f"gradient max-norm {clf.fit.gradient_norm:.3g} > {NEWTON_TOL:g}"]


@pytest.mark.parametrize("seed,l2", [(91, 1e-10), (102, 1e-8)])
def test_newton_steps_converge_on_coarsely_scaled_rows(seed, l2):
    # Nearly separable rows at a coarse scale. Undamped, the steps on seed 91
    # saturate every p and the next Hessian is singular. On seed 102 the last
    # steps change the loss by less than its rounding; halving them as if the
    # loss rose stalls the fit above the tolerance.
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((45, 3)) * 10
    labels = (x[:, 0] + rng.standard_normal(45) > 0).tolist()
    clf = fit_classifier(["a", "b", "c"], x, labels, ClassifierConfig(l2=l2))
    assert clf.fit.gradient_norm <= NEWTON_TOL


# 78 notes give 83 features, fewer than the 160 training rows, so the fit
# runs on x itself; 160 notes give 165, so it runs in the rows' span.
NOTES = [f"clean0:note:s{s}:f{f}" for s in range(1, 7) for f in range(40)]


@pytest.mark.parametrize("notes,row_space", [(NOTES[:78], False), (NOTES[:160], True)],
                         ids=["features", "row_span"])
def test_fit_converges_where_the_label_follows_one_token(notes, row_space):
    rng = random.Random(13)
    labels = [rng.random() < 0.5 for _ in range(200)]
    streams = [["mode:major" if high else "mode:minor"] + [rng.choice(notes) for _ in range(60)]
               for high in labels]
    names, x = classifier_features(streams)
    # The mode token is 1/61 of each window, so separating on it takes large
    # weights; the default l2 of 1e-4 charges more for them than they gain.
    config = ClassifierConfig(l2=1e-6)
    train = np.random.default_rng(config.seed).permutation(200)[int(200 * config.holdout_fraction):]
    assert (len(train) < len(names)) == row_space
    clf = fit_classifier(names, x, labels, config)
    assert clf.holdout_accuracy >= 0.95
    # the gradient of the mean log-loss plus l2/2 |w|^2 at the returned weights
    xt, y = x[train], np.asarray(labels, dtype=float)[train]
    p = 1.0 / (1.0 + np.exp(-(xt @ clf.weights + clf.bias)))
    grad = np.append(xt.T @ (p - y) / len(y) + config.l2 * clf.weights, np.mean(p - y))
    assert np.abs(grad).max() <= 1e-8


def test_fit_allocates_less_than_half_of_x():
    rng = np.random.default_rng(4)
    x = rng.random((4000, 100))  # more rows than features
    x /= x.sum(axis=1, keepdims=True)
    labels = (rng.random(4000) < 0.5).tolist()
    names = [f"t{i}" for i in range(100)]
    tracemalloc.start()
    try:
        clf = fit_classifier(names, x, labels)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < x.nbytes / 2
    assert clf.fit.gradient_norm <= NEWTON_TOL


def test_scores_are_the_sigmoid_of_each_margin():
    clf = LinearTokenClassifier(["a", "b"], np.array([2000.0, -2000.0]), 0.25)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow at large margins
        scores = clf.scores([["a"], ["b"], ["a", "b"], []])
    assert scores == [1.0, 0.0, 1.0 / (1.0 + math.exp(-0.25)), 1.0 / (1.0 + math.exp(-0.25))]


def test_classifier_chance_level_on_permuted_labels():
    rng = random.Random(6)
    streams = synth_streams(rng, 200, ["a", "b", "c"], 120)
    labels = [rng.random() < 0.5 for _ in streams]
    if all(labels) or not any(labels):
        labels[0] = not labels[0]
    clf = train_classifier(streams, labels)
    accuracy = np.mean([(clf.scores([s])[0] > HIGH_CUT) == l for s, l in zip(streams, labels)])
    assert 0.35 <= accuracy <= 0.72  # near chance on pure noise


def test_classifier_rejects_single_class():
    with pytest.raises(ValueError):
        train_classifier([["a"], ["b"], ["c"]], [True, True, True])
    with pytest.raises(ValueError):
        train_classifier([["a"], ["b"], ["c"]], [True, True, False])


def test_classifier_deterministic():
    rng = random.Random(7)
    streams = synth_streams(rng, 20, ["a", "b"], 120) + synth_streams(rng, 20, ["c", "d"], 120)
    labels = [True] * 20 + [False] * 20
    c1 = train_classifier(streams, labels, ClassifierConfig(seed=3))
    c2 = train_classifier(streams, labels, ClassifierConfig(seed=3))
    assert np.array_equal(c1.weights, c2.weights)
    assert c1.bias == c2.bias


def test_classifier_save_load(tmp_path):
    rng = random.Random(8)
    streams = synth_streams(rng, 10, ["a"], 160) + synth_streams(rng, 10, ["b"], 80)
    clf = train_classifier(streams, [True] * 10 + [False] * 10)
    path = tmp_path / "clf.json"
    clf.save(path)
    loaded = LinearTokenClassifier.load(path)
    for s in streams:
        assert abs(loaded.score(s) - clf.score(s)) < 1e-12


def test_failed_classifier_save_keeps_the_previous_file(tmp_path):
    clf = LinearTokenClassifier(["a", "b"], np.array([1.0, -1.0]), 0.5)
    path = tmp_path / "valence.json"
    clf.save(path)
    before = path.read_bytes()
    clf.holdout_accuracy = object()  # written last; not serializable
    with pytest.raises(TypeError):
        clf.save(path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


# metrics ---------------------------------------------------------------------

def test_emotion_metrics_arithmetic():
    happy = [["h"]] * 3
    sad = [["s"]] * 3
    valence = FixedModel([0.7, 0.4, 0.6, 0.2, 0.3, 0.1])  # happy then sad
    arousal = FixedModel([0.9, 0.9, 0.9, 0.1, 0.1, 0.1])
    em = emotion_metrics(happy, sad, valence, arousal)
    assert abs(em.happy.hvp - 2 / 3) < 1e-12
    assert abs(em.happy.mvs - (0.7 + 0.4 + 0.6) / 3) < 1e-12
    assert abs(em.sad.hvp - 0.0) < 1e-12
    assert abs(em.difference.hvp - 2 / 3) < 1e-12
    assert abs(em.difference.mas - 0.8) < 1e-12


def test_high_cut_is_strict():
    em = emotion_metrics([["h"]], [["s"]],
                         FixedModel([0.5, 0.5]), FixedModel([0.5001, 0.5]))
    assert em.happy.hvp == 0.0  # exactly 0.5 is not high
    assert em.happy.hap == 1.0


def test_emotion_metrics_rejects_empty_group():
    with pytest.raises(ValueError):
        emotion_metrics([], [["s"]], FixedModel([0.5]), FixedModel([0.5]))


def regular_batches(*songs):
    """The regularized parts of ``songs`` decoded from their tokens, as the
    song commands make them."""
    streams = [[t.raw for t in score_to_tokens(song)] for song in songs]
    return [part for _, decoded in decode_parts(streams, TokenTable())
            for _, part in regular_parts(decoded)]


def test_loop_metric_counts():
    rng = random.Random(9)
    blocks = {c: bar_block(rng, 4) for c in "AB"}
    looped = columns(block_bars(blocks, "ABABABAB"))
    bare = columns(block_bars(blocks, "AB"))
    total, avg = loop_metric(regular_batches(looped, bare))
    assert total >= 1
    assert avg == total / 2
    assert loop_metric(regular_batches(looped) + regular_batches(bare)) == (total, avg)
    assert loop_metric([], LoopParams()) == (0, 0.0)


def test_metrics_report_and_table_shape():
    em = emotion_metrics([["h"]] * 2, [["s"]] * 2,
                         FixedModel([0.9, 0.8, 0.2, 0.1]),
                         FixedModel([0.7, 0.6, 0.3, 0.2]))
    report = metrics_report({"full": em, "ablated": em})
    assert len(report["rows"]) == 6
    assert {r["group"] for r in report["rows"]} == {"happy", "sad", "difference"}
    for row in report["rows"]:
        for key in ("HVP", "MVS", "HAP", "MAS"):
            assert isinstance(row[key], float)
    table = metrics_table({"full": em})
    assert "HVP" in table.splitlines()[0]
    assert len(table.splitlines()) == 4


# surveys ---------------------------------------------------------------------

def test_likert_recode():
    assert likert_to_signed(4) == 0
    assert likert_to_signed(1) == -3
    assert likert_to_signed(7) == 3
    with pytest.raises(SurveyError):
        likert_to_signed(0)


def survey_rows(entries):
    return [{"participant": f"p{i}", "group": g, "question": q, "answer": a,
             **({"target": t} if t else {})}
            for i, (g, q, a, t) in enumerate(entries)]


def test_survey_all_neutral_means_zero():
    rows = survey_rows([("gen", "preference", 4, None)] * 6)
    assert survey_summary(rows).likert_means["gen"]["preference"] == 0.0


def test_survey_opposite_extremes_cancel():
    rows = survey_rows([("gen", "loop", 1, None), ("gen", "loop", 7, None)])
    assert survey_summary(rows).likert_means["gen"]["loop"] == 0.0


def test_survey_binary_percentages():
    rows = survey_rows([("gen", "heard", "Y", None), ("gen", "heard", "n", None),
                        ("gen", "heard", "N", None), ("gen", "heard", "N", None),
                        ("gen", "composer", "Human", None),
                        ("gen", "composer", "machine", None)])
    s = survey_summary(rows)
    assert s.heard_pct["gen"] == 25.0
    assert s.not_heard_pct["gen"] == 75.0
    assert s.human_pct["gen"] == 50.0


def test_survey_emotion_split_by_target():
    rows = survey_rows([("gen", "emotion", 6, "happy"), ("gen", "emotion", 7, "happy"),
                        ("gen", "emotion", 2, "sad"), ("gen", "emotion", 3, "sad")])
    s = survey_summary(rows)
    assert s.emotion_by_target["gen"]["HES"] == 2.5
    assert s.emotion_by_target["gen"]["SES"] == -1.5


def test_survey_rejects_unknown_question_and_bad_answer():
    with pytest.raises(SurveyError):
        survey_summary(survey_rows([("gen", "tempo", 4, None)]))
    with pytest.raises(SurveyError, match="row 2"):
        survey_summary(survey_rows([("gen", "preference", 9, None)]))


def test_load_survey_csv(tmp_path):
    path = tmp_path / "survey.csv"
    path.write_text("participant,group,question,answer\np1,gen,preference,5\n")
    rows = load_survey_csv(path)
    assert rows[0]["question"] == "preference"
    bad = tmp_path / "bad.csv"
    bad.write_text("participant,question\np1,preference\n")
    with pytest.raises(SurveyError):
        load_survey_csv(bad)
