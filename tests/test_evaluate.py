import random

import numpy as np
import pytest

from looptab.evaluate import (
    ClassifierConfig,
    LinearTokenClassifier,
    SurveyError,
    emotion_metrics,
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
from looptab.score import Score

from util import bar_block, score_from_blocks


class FixedModel:
    """Classifier stub returning scripted scores in order."""

    def __init__(self, scores):
        self.scores = list(scores)
        self.i = 0

    def score(self, tokens):
        s = self.scores[self.i % len(self.scores)]
        self.i += 1
        return s


# features --------------------------------------------------------------------

def test_token_features_counts_and_normalizes():
    names = ["a", "b", "tempo_fast"]
    x = token_features(["a", "a", "b", "tempo:160"], names)
    assert np.allclose(x, [2 / 4, 1 / 4, 1 / 4])


def test_token_features_permutation_invariant():
    rng = random.Random(1)
    tokens = ["a"] * 3 + ["b"] * 5 + ["tempo:90"] * 2
    names = ["a", "b", "tempo_slow", "tempo_mid"]
    base = token_features(tokens, names)
    rng.shuffle(tokens)
    assert np.array_equal(token_features(tokens, names), base)


def test_token_features_truncation():
    names = ["a", "b"]
    tokens = ["a"] * 10 + ["b"] * 10
    x = token_features(tokens, names, truncate=10)
    assert np.allclose(x, [1.0, 0.0])


def test_tempo_buckets():
    names = ["tempo_slow", "tempo_mid", "tempo_fast"]
    assert np.argmax(token_features(["tempo:99"], names)) == 0
    assert np.argmax(token_features(["tempo:100"], names)) == 1
    assert np.argmax(token_features(["tempo:149"], names)) == 1
    assert np.argmax(token_features(["tempo:150"], names)) == 2


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
    assert all(clf.label(s) for s in pos)
    assert not any(clf.label(s) for s in neg)
    assert clf.holdout_accuracy == 1.0


def test_classifier_chance_level_on_permuted_labels():
    rng = random.Random(6)
    streams = synth_streams(rng, 200, ["a", "b", "c"], 120)
    labels = [rng.random() < 0.5 for _ in streams]
    if all(labels) or not any(labels):
        labels[0] = not labels[0]
    clf = train_classifier(streams, labels)
    accuracy = np.mean([clf.label(s) == l for s, l in zip(streams, labels)])
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


def test_loop_metric_counts():
    rng = random.Random(9)
    blocks = {c: bar_block(rng, 4) for c in "AB"}
    looped = score_from_blocks(blocks, "ABABABAB")
    bare = score_from_blocks(blocks, "AB")
    total, avg = loop_metric([looped, bare])
    assert total >= 1
    assert avg == total / 2
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
