"""Emotion-separation metrics, loop counting and survey summaries.

Classifier scores live in [0, 1]; the high/low label cut is fixed at 0.5
(strictly greater counts as high). The built-in classifier is a logistic
regression over order-free token-count features; external classifiers can
implement the same ``score(tokens)`` surface.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from typing import Protocol, Sequence

import numpy as np

from . import loops as loops_mod
from .atomic import atomic_open
from .generate import HAPPY_TEMPO_MIN, SAD_TEMPO_MAX
from .score import Score

TRUNCATE_TOKENS = 768
HIGH_CUT = 0.5

TEMPO_BUCKETS = ("tempo_slow", "tempo_mid", "tempo_fast")  # <100, 100..149, >=150


class ClassifierModel(Protocol):
    def score(self, tokens: Sequence[str]) -> float: ...


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


def token_features(tokens: Sequence[str], feature_names: Sequence[str],
                   truncate: int = TRUNCATE_TOKENS) -> np.ndarray:
    """Normalized unigram counts plus tempo-bucket indicators.

    Order-free by construction: permuting the tokens leaves the vector
    unchanged. Streams are truncated to the first ``truncate`` tokens.
    """
    window = list(tokens[:truncate])
    index = {name: i for i, name in enumerate(feature_names)}
    x = np.zeros(len(feature_names), dtype=float)
    for raw in window:
        i = index.get(raw)
        if i is not None:
            x[i] += 1.0
        bucket = _tempo_bucket(raw)
        if bucket is not None and bucket in index:
            x[index[bucket]] += 1.0
    if window:
        x /= len(window)
    return x


@dataclass
class LinearTokenClassifier:
    feature_names: list[str]
    weights: np.ndarray
    bias: float
    truncate: int = TRUNCATE_TOKENS
    holdout_accuracy: float | None = None

    def score(self, tokens: Sequence[str]) -> float:
        x = token_features(tokens, self.feature_names, self.truncate)
        z = float(np.dot(self.weights, x) + self.bias)
        return 1.0 / (1.0 + np.exp(-z))

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
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc.get("format") != "looptab-linear-classifier":
            raise ValueError("not a looptab classifier file")
        return cls(doc["feature_names"], np.asarray(doc["weights"]), doc["bias"],
                   doc.get("truncate", TRUNCATE_TOKENS), doc.get("holdout_accuracy"))


def train_classifier(streams: Sequence[Sequence[str]], labels: Sequence[bool],
                     config: ClassifierConfig = ClassifierConfig()) -> LinearTokenClassifier:
    """Full-batch gradient-descent logistic regression; deterministic given
    data, seed and epochs. Raises on single-class data."""
    if len(streams) != len(labels):
        raise ValueError("streams and labels must align")
    y = np.asarray(labels, dtype=float)
    if y.min() == y.max():
        raise ValueError("training data contains a single class")
    if (y == 1).sum() < 2 or (y == 0).sum() < 2:
        raise ValueError("need at least 2 examples per class")

    names = sorted({raw for s in streams for raw in s[:config.truncate]} | set(TEMPO_BUCKETS))
    x = np.stack([token_features(s, names, config.truncate) for s in streams])

    rng = np.random.default_rng(config.seed)
    perm = rng.permutation(len(streams))
    n_hold = int(len(streams) * config.holdout_fraction)
    hold, train = perm[:n_hold], perm[n_hold:]
    if len(train) == 0 or y[train].min() == y[train].max():
        hold, train = perm[:0], perm  # fall back to training on everything

    w = np.zeros(len(names))
    b = 0.0
    xt, yt = x[train], y[train]
    for _ in range(config.epochs):
        z = xt @ w + b
        p = 1.0 / (1.0 + np.exp(-z))
        grad_w = xt.T @ (p - yt) / len(yt) + config.l2 * w
        grad_b = float(np.mean(p - yt))
        w -= config.learning_rate * grad_w
        b -= config.learning_rate * grad_b

    clf = LinearTokenClassifier(names, w, b, config.truncate)
    if len(hold) > 0:
        preds = (1.0 / (1.0 + np.exp(-(x[hold] @ w + b)))) > HIGH_CUT
        clf.holdout_accuracy = float(np.mean(preds == (y[hold] > 0.5)))
    return clf


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
    v = [valence_model.score(s) for s in streams]
    a = [arousal_model.score(s) for s in streams]
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


def loop_metric(generated: Sequence[Score],
                params: loops_mod.LoopParams = loops_mod.DEFAULT_PARAMS
                ) -> tuple[int, float]:
    """(total loops found, average loops per generation)."""
    counts = [len(loops_mod.extract_loops(s, params)) for s in generated]
    total = sum(counts)
    return total, total / len(counts) if counts else 0.0


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
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        required = {"participant", "group", "question", "answer"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise SurveyError(f"survey CSV must have header {sorted(required)}")
        return list(reader)
