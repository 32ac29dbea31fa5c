"""Emotion-separation metrics and loop counting.

Classifier scores live in [0, 1]; the high/low label cut is fixed at 0.5
(strictly greater counts as high). The built-in classifier is a logistic
regression over order-free token-count features; external classifiers can
implement the same ``scores(streams)`` surface.

A corpus is featurized once, as one matrix (:func:`feature_matrix`), and
one matrix serves both the valence and the arousal fit. Each fit is
Newton's method (iteratively reweighted least squares) on the mean
log-loss plus ``l2 / 2 |w|^2``, run until the gradient's max-norm is at
most ``NEWTON_TOL``. With at least as many training rows as features it
runs on the feature matrix itself, holdout rows weighted 0, and sums the
Hessian over blocks of rows, so the matrix is never copied; with fewer, it
runs on the training rows' n x n coordinates from a thin QR, since the
regularized optimum lies in their span. The targets share the split, the
QR and the first Hessian. The fit runs on BLAS and LAPACK, so a classifier
file is byte-reproducible only for a fixed BLAS thread count: on the
corpus_many seed-1 benchmark corpus the weights (up to 3.8 in magnitude)
moved by up to 2.7e-15 between ``OPENBLAS_NUM_THREADS=1`` and ``2``.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
from typing import TYPE_CHECKING, Iterable, Mapping, Protocol, Sequence

import numpy as np

from .atomic import atomic_open, read_json
from .config import (HAPPY_TEMPO_MIN, SAD_TEMPO_MAX, TRUNCATE_TOKENS, ClassifierConfig,
                     LoopParams, is_finite_number)
from .tokens import token_ids

if TYPE_CHECKING:
    from .score import SongBatch

HIGH_CUT = 0.5

# A fit stops once its gradient's max-norm is at most NEWTON_TOL, and after
# NEWTON_MAX_ITER Newton steps at the latest (with a warning).
NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 50
_HALVINGS = 30  # at most this many halvings of a step that raises the loss
_LOSS_ROUNDING = 1e-12  # a relative rise of the loss this small is rounding, not a rise
_GRAM_ROWS = 256  # rows per block of the Hessian's A^T diag(h) A

log = logging.getLogger(__name__)

TEMPO_BUCKETS = ("tempo_slow", "tempo_mid", "tempo_fast")  # <100, 100..149, >=150


class ClassifierModel(Protocol):
    def scores(self, streams: Sequence[Sequence[str]]) -> Sequence[float]: ...


def _tempo_bucket(raw: str) -> str | None:
    if not raw.startswith("tempo:"):
        return None
    bpm = int(raw.split(":", 1)[1])
    if bpm < SAD_TEMPO_MAX:
        return TEMPO_BUCKETS[0]
    if bpm < HAPPY_TEMPO_MIN:
        return TEMPO_BUCKETS[1]
    return TEMPO_BUCKETS[2]


def _windows(ids: np.ndarray, lengths: np.ndarray, truncate: int
             ) -> tuple[np.ndarray, np.ndarray]:
    """The ids of each stream's first ``truncate`` tokens, its window, and
    the window lengths, from :func:`token_ids`' ids and lengths."""
    if lengths.max(initial=0) <= truncate:
        return ids, lengths
    starts = np.cumsum(lengths, dtype=np.int32) - lengths
    within = np.arange(len(ids), dtype=np.int32) - np.repeat(starts, lengths)
    return ids[within < truncate], np.minimum(lengths, truncate)


def _count_matrix(distinct: Sequence[str], ids: np.ndarray, lengths: np.ndarray,
                  columns: Mapping[str, int]) -> np.ndarray:
    """The :func:`feature_matrix` of windows given as ids among the
    ``distinct`` tokens and window lengths: each distinct token is resolved
    once, and all rows are counted with one ``np.bincount`` over flat
    ``row * width + column`` ids."""
    width = len(columns)
    rows = np.repeat(np.arange(len(lengths)) * width, lengths)
    hits = []
    # each token's own column, then its tempo bucket's; -1 for none
    for targets in ([columns.get(raw, -1) for raw in distinct],
                    [columns.get(_tempo_bucket(raw), -1) for raw in distinct]):
        column = np.array(targets, np.intp)[ids]
        found = column >= 0
        hits.append(rows[found] + column[found])
    hits = np.concatenate(hits)
    # weighted, so that the counts are the float matrix itself (no hits give ints)
    x = np.bincount(hits, np.ones(len(hits)), len(lengths) * width).astype(float, copy=False)
    x = x.reshape(len(lengths), width)
    x /= np.maximum(lengths, 1)[:, None]  # an empty window's row stays zero
    return x


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
    An empty window gives a row of zeros. The streams are read as ids
    (:func:`token_ids`), and each distinct token is resolved once.
    """
    distinct, ids, lengths = token_ids(streams)
    return _count_matrix(distinct, *_windows(ids, lengths, truncate), columns)


def token_features(tokens: Sequence[str], columns: Mapping[str, int],
                   truncate: int = TRUNCATE_TOKENS) -> np.ndarray:
    """The :func:`feature_matrix` row of one stream."""
    return feature_matrix([tokens], columns, truncate)[0]


def feature_columns(feature_names: Sequence[str]) -> dict[str, int]:
    """The column of each feature name, built once per classifier."""
    return {name: i for i, name in enumerate(feature_names)}


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """``1 / (1 + e^-z)`` elementwise, without overflow."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


@dataclass(frozen=True)
class NewtonFit:
    """How a fit ended: the Newton steps taken and the max-norm of the
    objective's gradient at the returned weights (in the solve's
    coordinates, see :class:`_Design`)."""
    iterations: int
    gradient_norm: float


@dataclass
class LinearTokenClassifier:
    feature_names: list[str]
    weights: np.ndarray
    bias: float
    truncate: int = TRUNCATE_TOKENS
    holdout_accuracy: float | None = None
    fit: NewtonFit | None = field(default=None, compare=False)  # not saved

    @cached_property
    def columns(self) -> dict[str, int]:
        return feature_columns(self.feature_names)

    def score(self, tokens: Sequence[str]) -> float:
        return self.scores([tokens])[0]

    def scores(self, streams: Sequence[Sequence[str]]) -> list[float]:
        """The score of each stream; the streams are featurized as one
        matrix."""
        return self.matrix_scores(feature_matrix(streams, self.columns, self.truncate))

    def matrix_scores(self, x: np.ndarray) -> list[float]:
        """The score of each row of a :func:`feature_matrix` over this
        classifier's columns and window."""
        return _sigmoid(x @ self.weights + self.bias).tolist()

    def save(self, path) -> None:
        text = json.dumps({  # one C-encoded string: json.dump encodes in Python
            "format": "looptab-linear-classifier",
            "version": 1,
            "feature_names": self.feature_names,
            "weights": self.weights.tolist(),
            "bias": self.bias,
            "truncate": self.truncate,
            "holdout_accuracy": self.holdout_accuracy,
        })
        with atomic_open(path) as fh:
            fh.write(text)

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
    return id_features(*token_ids(streams), truncate)


def id_features(distinct: Sequence[str], ids: np.ndarray, lengths: np.ndarray,
                truncate: int = TRUNCATE_TOKENS) -> tuple[list[str], np.ndarray]:
    """:func:`classifier_features` of streams given as :func:`token_ids`
    gives them: ids among the ``distinct`` tokens and stream lengths."""
    ids, lengths = _windows(ids, lengths, truncate)
    seen = np.bincount(ids, minlength=len(distinct)) > 0
    names = sorted(set(compress(distinct, seen.tolist())).union(TEMPO_BUCKETS))
    return names, _count_matrix(distinct, ids, lengths, feature_columns(names))


class _Design:
    """The rows that the Newton solves of one split run on, shared by every
    target fitted on that split.

    With at least as many training rows as features this is ``x`` itself,
    its holdout rows weighted 0, so that ``x`` is never copied. With fewer,
    it is ``R^T`` of the thin QR ``x[train]^T = QR``: the regularized
    optimum lies in the span of the training rows, so ``w = Qv`` with
    ``x[train] w = R^T v`` and ``|w| = |v|``, and the solve is n x n.
    """

    def __init__(self, x: np.ndarray, train: np.ndarray, l2: float):
        self.l2 = l2
        if len(train) < x.shape[1]:
            self.q, r = np.linalg.qr(x[train].T)
            self.a, self.rows = r.T, train
            self.s = np.full(len(train), 1.0 / len(train))
        else:
            self.q, self.a, self.rows = None, x, slice(None)
            self.s = np.zeros(len(x))
            self.s[train] = 1.0 / len(train)

    def gradient(self, theta: np.ndarray, z: np.ndarray, y: np.ndarray) -> np.ndarray:
        """The gradient of :meth:`loss` at the weights and bias ``theta``,
        whose margins are ``z``."""
        r = self.s * (_sigmoid(z) - y)
        return np.append(r @ self.a + self.l2 * theta[:-1], r.sum())

    def hessian(self, h: np.ndarray) -> np.ndarray:
        """The Hessian for the per-row weights ``h``: ``A^T diag(h) A + l2 I``
        bordered by the bias row and column ``A^T h`` and ``sum(h)``.
        ``A^T diag(h) A`` is summed over blocks of rows, so no copy of
        ``A`` is ever whole."""
        a = self.a
        d = a.shape[1]
        hess = np.zeros((d + 1, d + 1))
        gram = hess[:d, :d]
        rows = np.flatnonzero(h)  # not the holdout rows
        for start in range(0, len(rows), _GRAM_ROWS):
            block = a[rows[start:start + _GRAM_ROWS]]
            block *= np.sqrt(h[rows[start:start + _GRAM_ROWS]])[:, None]
            gram += np.dot(block.T, block)  # np.dot runs A^T A as one symmetric rank-k update
        gram[np.diag_indices(d)] += self.l2
        hess[d, :d] = hess[:d, d] = h @ a
        hess[d, d] = h.sum()
        return hess

    def loss(self, theta: np.ndarray, z: np.ndarray, y: np.ndarray) -> float:
        """Mean log-loss of the margins ``z`` plus ``l2 / 2 |w|^2``; each
        term is ``log(1 + e^-z)`` or ``log(1 + e^z)``, computed without
        cancellation."""
        w = theta[:-1]
        return float(self.s @ np.logaddexp(0.0, (1.0 - 2.0 * y) * z)) + 0.5 * self.l2 * (w @ w)

    def solve(self, labels: Mapping[str, np.ndarray]
              ) -> dict[str, tuple[np.ndarray, float, NewtonFit]]:
        """The weights, bias and fit of each target ``{target: y}`` (``y``
        on the design's rows), by Newton steps from zero.

        At zero every p is 1/2, so one Hessian gives every target's first
        step; it is freed before the later steps. A step that would raise
        the loss by more than rounding is halved, at most ``_HALVINGS``
        times."""
        a, s = self.a, self.s
        d = a.shape[1]
        start = np.zeros(d + 1), np.zeros(len(a))
        first = self.hessian(s / 4)
        steps = {target: np.linalg.solve(first, self.gradient(*start, y))
                 for target, y in labels.items()}
        del first
        fits = {}
        for target, y in labels.items():
            (theta, z), loss = start, self.loss(*start, y)
            step = steps[target]
            for iterations in range(NEWTON_MAX_ITER + 1):
                grad = self.gradient(theta, z, y)
                norm = float(np.abs(grad).max())
                if norm <= NEWTON_TOL or iterations == NEWTON_MAX_ITER:
                    break
                if iterations > 0:
                    p = _sigmoid(z)
                    step = np.linalg.solve(self.hessian(s * p * (1.0 - p)), grad)
                dz = a @ step[:d] + step[d]
                for _ in range(_HALVINGS):
                    new_theta, new_z = theta - step, z - dz
                    new_loss = self.loss(new_theta, new_z, y)
                    if new_loss <= loss + _LOSS_ROUNDING * loss:
                        break
                    step, dz = step / 2, dz / 2
                theta, z, loss = new_theta, new_z, new_loss
            if norm > NEWTON_TOL:
                log.warning("%s classifier: stopped at the cap of %d Newton iterations, "
                            "gradient max-norm %.3g > %g", target, NEWTON_MAX_ITER, norm,
                            NEWTON_TOL)
            w = theta[:d] if self.q is None else self.q @ theta[:d]
            fits[target] = w, float(theta[d]), NewtonFit(iterations, norm)
        return fits


def _split(n: int, y: np.ndarray, config: ClassifierConfig) -> tuple[np.ndarray, np.ndarray]:
    """The seeded (holdout, train) row indices; every row trains, and none
    is held out, if the training rows would hold a single class."""
    perm = np.random.default_rng(config.seed).permutation(n)
    n_hold = int(n * config.holdout_fraction)
    hold, train = perm[:n_hold], perm[n_hold:]
    if len(train) == 0 or y[train].min() == y[train].max():
        return perm[:0], perm
    return hold, train


def fit_classifiers(feature_names: list[str], x: np.ndarray,
                    labels: Mapping[str, Sequence[bool]],
                    config: ClassifierConfig = ClassifierConfig()
                    ) -> dict[str, LinearTokenClassifier]:
    """One logistic regression per target ``{target: labels}`` on the
    feature rows ``x``, each fitted by Newton's method to a gradient
    max-norm of at most ``NEWTON_TOL`` (see :class:`_Design`); a fit that
    reaches ``NEWTON_MAX_ITER`` first is logged as a warning naming its
    target. The objective is the mean log-loss of the training rows plus
    ``l2 / 2 |w|^2``; the bias is not regularized. Deterministic given
    data, seed and the BLAS thread count. Raises on single-class data.
    ``x`` is not modified; the targets on one split share its design and
    first Hessian."""
    splits: dict[int, tuple[np.ndarray, np.ndarray, dict[str, np.ndarray]]] = {}
    for target, target_labels in labels.items():
        if len(x) != len(target_labels):
            raise ValueError("feature rows and labels must align")
        y = np.asarray(target_labels, dtype=float)
        if y.min() == y.max():
            raise ValueError("training data contains a single class")
        if (y == 1).sum() < 2 or (y == 0).sum() < 2:
            raise ValueError("need at least 2 examples per class")
        hold, train = _split(len(x), y, config)
        # the seeded split, or every row
        splits.setdefault(len(hold), (hold, train, {}))[2][target] = y
    classifiers = {}
    for hold, train, ys in splits.values():
        design = _Design(x, train, config.l2)
        fits = design.solve({target: y[design.rows] for target, y in ys.items()})
        for target, (w, b, fit) in fits.items():
            clf = LinearTokenClassifier(feature_names, w, b, config.truncate, fit=fit)
            if len(hold) > 0:
                preds = _sigmoid(x @ w + b)[hold] > HIGH_CUT
                clf.holdout_accuracy = float(np.mean(preds == (ys[target][hold] > 0.5)))
            classifiers[target] = clf
    return {target: classifiers[target] for target in labels}


def fit_classifier(feature_names: list[str], x: np.ndarray, labels: Sequence[bool],
                   config: ClassifierConfig = ClassifierConfig()) -> LinearTokenClassifier:
    """:func:`fit_classifiers` for one target, named ``emotion``."""
    return fit_classifiers(feature_names, x, {"emotion": labels}, config)["emotion"]


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
    """The metrics of one group. Two linear classifiers with the same
    feature names and window score one feature matrix of the streams."""
    if (isinstance(valence_model, LinearTokenClassifier)
            and isinstance(arousal_model, LinearTokenClassifier)
            and valence_model.feature_names == arousal_model.feature_names
            and valence_model.truncate == arousal_model.truncate):
        x = feature_matrix(streams, valence_model.columns, valence_model.truncate)
        v, a = valence_model.matrix_scores(x), arousal_model.matrix_scores(x)
    else:
        v, a = valence_model.scores(streams), arousal_model.scores(streams)
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


def loop_metric(generated: Iterable[SongBatch], params: LoopParams = LoopParams()
                ) -> tuple[int, float]:
    """(total loops found, average loops per generation) over batches of
    regularized generations, each batch searched at once."""
    from . import loops as loops_mod  # here: train-clf and eval-emotion need no loop search

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
