"""Emotion-separation metrics, loop counting and survey summaries.

Classifier scores live in [0, 1]; the high/low label cut is fixed at 0.5
(strictly greater counts as high). The built-in classifier is a logistic
regression over order-free token-count features; external classifiers can
implement the same ``scores(streams)`` surface.

A corpus is featurized once, as one matrix (:func:`feature_matrix`), and
one matrix serves both the valence and the arousal fit. The fit runs on
BLAS, so a classifier file is byte-reproducible only for a fixed BLAS
thread count: on the corpus_many seed-1 benchmark corpus the weights moved
by up to 3.5e-18 between ``OPENBLAS_NUM_THREADS=1`` and ``2``.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Protocol, Sequence

import numpy as np

from . import loops as loops_mod
from .atomic import atomic_open, read_json
from .generate import HAPPY_TEMPO_MIN, SAD_TEMPO_MAX
from .score import SongBatch

TRUNCATE_TOKENS = 768
HIGH_CUT = 0.5

TEMPO_BUCKETS = ("tempo_slow", "tempo_mid", "tempo_fast")  # <100, 100..149, >=150


class ClassifierModel(Protocol):
    def scores(self, streams: Sequence[Sequence[str]]) -> Sequence[float]: ...


@dataclass(frozen=True)
class ClassifierConfig:
    epochs: int = 300
    learning_rate: float = 0.5
    l2: float = 1e-4
    holdout_fraction: float = 0.2
    seed: int = 0
    truncate: int = TRUNCATE_TOKENS


def _tempo_bucket(raw: str) -> str | None:
    if not raw.startswith("tempo:"):
        return None
    bpm = int(raw.split(":", 1)[1])
    if bpm < SAD_TEMPO_MAX:
        return TEMPO_BUCKETS[0]
    if bpm < HAPPY_TEMPO_MIN:
        return TEMPO_BUCKETS[1]
    return TEMPO_BUCKETS[2]


def feature_matrix(streams: Sequence[Sequence[str]], columns: Mapping[str, int],
                   truncate: int = TRUNCATE_TOKENS) -> np.ndarray:
    """One row per stream: normalized unigram counts plus tempo-bucket
    indicators, over the feature columns ``{name: column}`` (see
    :func:`feature_columns`).

    A row reads only the stream's first ``truncate`` tokens, its window.
    Each token counts toward its own column, if it has one, and a
    ``tempo:N`` token also toward its bucket's column, whether or not the
    token has a column of its own. A row is then divided by its window
    length, so it is order-free: permuting the tokens leaves it unchanged.
    An empty window gives a row of zeros.

    Each distinct token is resolved once; the counts of all rows are added
    in one ``np.add.at`` over flat ``row * width + column`` ids.
    """
    windows = [s[:truncate] for s in streams]
    lengths = np.fromiter(map(len, windows), dtype=np.intp, count=len(windows))
    tokens = list(itertools.chain.from_iterable(windows))
    index = {raw: k for k, raw in enumerate(dict.fromkeys(tokens))}
    # Per distinct token: its own column and its tempo bucket's, -1 for none.
    targets = np.fromiter(itertools.chain.from_iterable(
        (columns.get(raw, -1), columns.get(_tempo_bucket(raw), -1)) for raw in index),
        dtype=np.intp, count=2 * len(index)).reshape(-1, 2)
    hits = targets[np.fromiter(map(index.__getitem__, tokens), dtype=np.intp, count=len(tokens))]
    found = hits >= 0
    width = len(columns)
    hits += np.repeat(np.arange(len(windows), dtype=np.intp) * width, lengths)[:, None]
    x = np.zeros((len(windows), width))
    np.add.at(x.reshape(-1), hits[found], 1.0)
    x /= np.maximum(lengths, 1)[:, None]  # an empty window's row stays zero
    return x


def token_features(tokens: Sequence[str], columns: Mapping[str, int],
                   truncate: int = TRUNCATE_TOKENS) -> np.ndarray:
    """The :func:`feature_matrix` row of one stream."""
    return feature_matrix([tokens], columns, truncate)[0]


def is_finite_number(value) -> bool:
    """A JSON number (not a boolean) that is neither NaN nor infinite."""
    return type(value) in (int, float) and math.isfinite(value)


def feature_columns(feature_names: Sequence[str]) -> dict[str, int]:
    """The column of each feature name, built once per classifier."""
    return {name: i for i, name in enumerate(feature_names)}


@dataclass
class LinearTokenClassifier:
    feature_names: list[str]
    weights: np.ndarray
    bias: float
    truncate: int = TRUNCATE_TOKENS
    holdout_accuracy: float | None = None

    @cached_property
    def columns(self) -> dict[str, int]:
        return feature_columns(self.feature_names)

    def score(self, tokens: Sequence[str]) -> float:
        return self.scores([tokens])[0]

    def scores(self, streams: Sequence[Sequence[str]]) -> list[float]:
        """The score of each stream; the streams are featurized as one
        matrix."""
        return [1.0 / (1.0 + np.exp(-float(np.dot(self.weights, x) + self.bias)))
                for x in feature_matrix(streams, self.columns, self.truncate)]

    def label(self, tokens: Sequence[str]) -> bool:
        return self.score(tokens) > HIGH_CUT

    def save(self, path) -> None:
        with atomic_open(path) as fh:
            json.dump({
                "format": "looptab-linear-classifier",
                "version": 1,
                "feature_names": self.feature_names,
                "weights": self.weights.tolist(),
                "bias": self.bias,
                "truncate": self.truncate,
                "holdout_accuracy": self.holdout_accuracy,
            }, fh)

    @classmethod
    def load(cls, path) -> "LinearTokenClassifier":
        """Read a classifier document, raising ``ValueError`` naming
        ``path`` if it is not a well-formed looptab classifier."""
        doc = read_json(path)
        if not isinstance(doc, dict) or doc.get("format") != "looptab-linear-classifier":
            raise ValueError(f"{path}: not a looptab classifier file")
        names, weights = doc.get("feature_names"), doc.get("weights")
        if not isinstance(names, list) or not set(map(type, names)) <= {str}:
            raise ValueError(f"{path}: feature_names must be a list of strings")
        if len(set(names)) != len(names):
            raise ValueError(f"{path}: feature_names must not repeat a name")
        if (not isinstance(weights, list) or len(weights) != len(names)
                or not all(map(is_finite_number, weights))):
            raise ValueError(f"{path}: weights must be one finite number per feature name")
        bias, truncate = doc.get("bias"), doc.get("truncate", TRUNCATE_TOKENS)
        if not is_finite_number(bias) or type(truncate) is not int or truncate < 1:
            raise ValueError(f"{path}: bias must be a finite number and truncate an integer >= 1")
        return cls(names, np.asarray(weights, dtype=float), bias, truncate,
                   doc.get("holdout_accuracy"))


def classifier_features(streams: Sequence[Sequence[str]], truncate: int = TRUNCATE_TOKENS
                        ) -> tuple[list[str], np.ndarray]:
    """The feature names of a training corpus (every token seen in a
    window, plus the tempo buckets, sorted) and its :func:`feature_matrix`."""
    windows = (s[:truncate] for s in streams)
    names = sorted(set(itertools.chain.from_iterable(windows)) | set(TEMPO_BUCKETS))
    return names, feature_matrix(streams, feature_columns(names), truncate)


def fit_classifier(feature_names: list[str], x: np.ndarray, labels: Sequence[bool],
                   config: ClassifierConfig = ClassifierConfig()) -> LinearTokenClassifier:
    """Full-batch gradient-descent logistic regression on the feature rows
    ``x``; deterministic given data, seed, epochs and the BLAS thread
    count. Raises on single-class data. ``x`` is not modified, so one
    matrix serves several targets."""
    if len(x) != len(labels):
        raise ValueError("feature rows and labels must align")
    y = np.asarray(labels, dtype=float)
    if y.min() == y.max():
        raise ValueError("training data contains a single class")
    if (y == 1).sum() < 2 or (y == 0).sum() < 2:
        raise ValueError("need at least 2 examples per class")

    rng = np.random.default_rng(config.seed)
    perm = rng.permutation(len(x))
    n_hold = int(len(x) * config.holdout_fraction)
    hold, train = perm[:n_hold], perm[n_hold:]
    if len(train) == 0 or y[train].min() == y[train].max():
        hold, train = perm[:0], perm  # fall back to training on everything

    w = np.zeros(len(feature_names))
    b = 0.0
    xt, yt = x[train], y[train]
    for _ in range(config.epochs):
        z = xt @ w + b
        p = 1.0 / (1.0 + np.exp(-z))
        grad_w = xt.T @ (p - yt) / len(yt) + config.l2 * w
        grad_b = float(np.mean(p - yt))
        w -= config.learning_rate * grad_w
        b -= config.learning_rate * grad_b

    clf = LinearTokenClassifier(feature_names, w, b, config.truncate)
    if len(hold) > 0:
        preds = (1.0 / (1.0 + np.exp(-(x[hold] @ w + b)))) > HIGH_CUT
        clf.holdout_accuracy = float(np.mean(preds == (y[hold] > 0.5)))
    return clf


def train_classifier(streams: Sequence[Sequence[str]], labels: Sequence[bool],
                     config: ClassifierConfig = ClassifierConfig()) -> LinearTokenClassifier:
    """:func:`classifier_features` then :func:`fit_classifier`."""
    names, x = classifier_features(streams, config.truncate)
    return fit_classifier(names, x, labels, config)


@dataclass(frozen=True)
class GroupMetrics:
    hvp: float
    mvs: float
    hap: float
    mas: float

    def as_dict(self) -> dict:
        return {"HVP": self.hvp, "MVS": self.mvs, "HAP": self.hap, "MAS": self.mas}


@dataclass(frozen=True)
class EmotionMetrics:
    happy: GroupMetrics
    sad: GroupMetrics
    difference: GroupMetrics


def _group_metrics(streams: Sequence[Sequence[str]],
                   valence_model: ClassifierModel,
                   arousal_model: ClassifierModel) -> GroupMetrics:
    v = valence_model.scores(streams)
    a = arousal_model.scores(streams)
    return GroupMetrics(
        hvp=sum(1 for s in v if s > HIGH_CUT) / len(v),
        mvs=sum(v) / len(v),
        hap=sum(1 for s in a if s > HIGH_CUT) / len(a),
        mas=sum(a) / len(a),
    )


def emotion_metrics(happy_streams: Sequence[Sequence[str]],
                    sad_streams: Sequence[Sequence[str]],
                    valence_model: ClassifierModel,
                    arousal_model: ClassifierModel) -> EmotionMetrics:
    """HVP/MVS/HAP/MAS per group plus happy minus sad differences."""
    if not happy_streams or not sad_streams:
        raise ValueError("both groups must be nonempty")
    happy = _group_metrics(happy_streams, valence_model, arousal_model)
    sad = _group_metrics(sad_streams, valence_model, arousal_model)
    diff = GroupMetrics(happy.hvp - sad.hvp, happy.mvs - sad.mvs,
                        happy.hap - sad.hap, happy.mas - sad.mas)
    return EmotionMetrics(happy, sad, diff)


def loop_metric(generated: Iterable[SongBatch],
                params: loops_mod.LoopParams = loops_mod.DEFAULT_PARAMS
                ) -> tuple[int, float]:
    """(total loops found, average loops per generation) over batches of
    regularized generations, each batch searched at once."""
    total = songs = 0
    for batch in generated:
        total += len(loops_mod.extract_loops(batch.columns, params, batch.starts))
        songs += len(batch)
    return total, total / songs if songs else 0.0


def metrics_report(settings: dict[str, EmotionMetrics]) -> dict:
    """JSON-ready report: one row per setting and group, like the
    comparison tables."""
    rows = []
    for name, em in settings.items():
        rows.append({"setting": name, "group": "happy", **em.happy.as_dict()})
        rows.append({"setting": name, "group": "sad", **em.sad.as_dict()})
        rows.append({"setting": name, "group": "difference", **em.difference.as_dict()})
    return {"format": "looptab-emotion-report", "version": 1, "rows": rows}


def metrics_table(settings: dict[str, EmotionMetrics]) -> str:
    lines = [f"{'Settings':<28} {'HVP':>8} {'MVS':>8} {'HAP':>8} {'MAS':>8}"]
    for name, em in settings.items():
        for group, gm in (("Happy", em.happy), ("Sad", em.sad), ("Difference", em.difference)):
            lines.append(f"{name + ' - ' + group:<28} {gm.hvp:>8.4f} {gm.mvs:>8.4f} "
                         f"{gm.hap:>8.4f} {gm.mas:>8.4f}")
    return "\n".join(lines)


# Survey summaries -----------------------------------------------------------

LIKERT_QUESTIONS = ("preference", "loop", "emotion")
BINARY_QUESTIONS = ("heard", "composer")


class SurveyError(ValueError):
    pass


def likert_to_signed(answer: int) -> int:
    """7-point Likert recoded to -3..3 with the neutral answer at 0."""
    if not 1 <= answer <= 7:
        raise SurveyError(f"Likert answer {answer} outside 1..7")
    return answer - 4


@dataclass
class SurveySummary:
    heard_pct: dict[str, float] = field(default_factory=dict)
    not_heard_pct: dict[str, float] = field(default_factory=dict)
    human_pct: dict[str, float] = field(default_factory=dict)
    machine_pct: dict[str, float] = field(default_factory=dict)
    likert_means: dict[str, dict[str, float]] = field(default_factory=dict)  # group -> question -> mean
    emotion_by_target: dict[str, dict[str, float]] = field(default_factory=dict)  # group -> HES/SES

    def as_dict(self) -> dict:
        return {
            "format": "looptab-survey-report",
            "version": 1,
            "heard_pct": self.heard_pct,
            "not_heard_pct": self.not_heard_pct,
            "human_pct": self.human_pct,
            "machine_pct": self.machine_pct,
            "likert_means": self.likert_means,
            "emotion_by_target": self.emotion_by_target,
        }


def survey_summary(rows: Sequence[dict]) -> SurveySummary:
    """Summarize listening-test responses.

    Rows need participant, group, question and answer fields; an optional
    target field (happy/sad) splits the emotion question into HES/SES.
    Binary questions accept Y/N and Human/Machine; Likert answers are
    integers 1..7 mapped to -3..3.
    """
    summary = SurveySummary()
    binary: dict[tuple[str, str], list[str]] = {}
    likert: dict[tuple[str, str], list[int]] = {}
    emotion_t: dict[tuple[str, str], list[int]] = {}

    for lineno, row in enumerate(rows, start=2):
        group = row["group"]
        question = row["question"]
        answer = row["answer"]
        if question in BINARY_QUESTIONS:
            binary.setdefault((group, question), []).append(str(answer).strip().lower())
        elif question in LIKERT_QUESTIONS:
            try:
                value = likert_to_signed(int(answer))
            except (ValueError, SurveyError) as exc:
                raise SurveyError(f"row {lineno}: {exc}") from None
            likert.setdefault((group, question), []).append(value)
            if question == "emotion":
                target = str(row.get("target", "")).strip().lower()
                if target in ("happy", "sad"):
                    emotion_t.setdefault((group, target), []).append(value)
        else:
            raise SurveyError(f"row {lineno}: unknown question {question!r}")

    for (group, question), answers in binary.items():
        n = len(answers)
        if question == "heard":
            yes = sum(1 for a in answers if a in ("y", "yes"))
            summary.heard_pct[group] = 100.0 * yes / n
            summary.not_heard_pct[group] = 100.0 * (n - yes) / n
        else:
            human = sum(1 for a in answers if a == "human")
            summary.human_pct[group] = 100.0 * human / n
            summary.machine_pct[group] = 100.0 * (n - human) / n
    for (group, question), values in likert.items():
        summary.likert_means.setdefault(group, {})[question] = sum(values) / len(values)
    for (group, target), values in emotion_t.items():
        key = "HES" if target == "happy" else "SES"
        summary.emotion_by_target.setdefault(group, {})[key] = sum(values) / len(values)
    return summary


def load_survey_csv(path) -> list[dict]:
    """The response rows of a survey CSV; a row short of a required field
    or a CSV error raises :class:`SurveyError` naming the file and line."""
    required = ("participant", "group", "question", "answer")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        try:
            if reader.fieldnames is None or not set(required).issubset(reader.fieldnames):
                raise SurveyError(f"survey CSV must have header {sorted(required)}")
            rows = []
            for row in reader:
                missing = [f for f in required if row[f] is None]  # DictReader pads short rows
                if missing:
                    raise SurveyError(f"{path}: line {reader.line_num}: row has no "
                                      f"{', '.join(missing)}")
                rows.append(row)
        except csv.Error as exc:
            raise SurveyError(f"{path}: line {reader.line_num}: {exc}") from None
    if not rows:
        raise SurveyError(f"{path}: no responses")
    return rows
