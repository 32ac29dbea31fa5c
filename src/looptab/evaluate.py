"""Emotion-separation metrics and loop counting.

Classifier scores live in [0, 1]; the high/low label cut is fixed at 0.5
(strictly greater counts as high). The built-in classifier is a logistic
regression over order-free token-count features; external classifiers can
implement the same ``scores(streams)`` surface.

A corpus is featurized once, as sparse rows (:class:`Features`) that both
the valence and the arousal fit read. Each fit is truncated Newton on the
mean log-loss plus ``l2 / 2 |w|^2``, to a gradient max-norm of at most
``NEWTON_TOL``: each step is solved by conjugate gradient on
Hessian-vector products (Lin, Weng & Keerthi, JMLR 2008; Dembo, Eisenstat
& Steihaug, SIAM J. Numer. Anal. 1982). Holdout rows are weighted 0, so
the features are never copied. Every reduction is an ``np.bincount`` or
an ``ndarray.sum``, which add in a fixed order, so a classifier file does
not depend on the BLAS thread count.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Protocol, Sequence

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
_FORCING = 1e-6  # a step's relative residual: as few Newton steps as exact solves take
_HALVINGS = 30  # at most this many halvings of a step that raises the loss
_LOSS_ROUNDING = 1e-12  # a relative rise of the loss this small is rounding, not a rise

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


class Features:
    """A read-only feature matrix of ``shape`` (rows, columns) that stores
    only its nonzero entries. Its products with vectors are
    ``np.bincount`` sums, which add each row's (or column's) terms in one
    fixed order."""

    def __init__(self, rows: np.ndarray, columns: np.ndarray, values: np.ndarray,
                 shape: tuple[int, int]):
        # contiguous intp indices and float values: np.bincount reads them uncopied
        self._rows = np.ascontiguousarray(rows, np.intp)
        self._columns = np.ascontiguousarray(columns, np.intp)
        self._values = np.ascontiguousarray(values, float)
        self.shape = shape

    @property
    def nbytes(self) -> int:
        return self._rows.nbytes + self._columns.nbytes + self._values.nbytes

    def dot(self, v: np.ndarray) -> np.ndarray:
        """``X v``."""
        terms = v[self._columns]
        terms *= self._values
        return np.bincount(self._rows, terms, minlength=self.shape[0])

    def tdot(self, r: np.ndarray) -> np.ndarray:
        """``X^T r``."""
        terms = r[self._rows]
        terms *= self._values
        return np.bincount(self._columns, terms, minlength=self.shape[1])

    def toarray(self) -> np.ndarray:
        """The dense matrix."""
        x = np.zeros(self.shape)
        x[self._rows, self._columns] = self._values
        return x


def _count_matrix(distinct: Sequence[str], ids: np.ndarray, lengths: np.ndarray,
                  columns: Mapping[str, int]) -> Features:
    """The :func:`feature_matrix` of windows given as ids among the
    ``distinct`` tokens and window lengths: each distinct token is resolved
    once, and all rows are counted with one ``np.unique`` over flat
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
    keys, counts = np.unique(np.concatenate(hits), return_counts=True)
    row, column = np.divmod(keys, max(width, 1))
    return Features(row, column, counts / lengths[row], (len(lengths), width))


def feature_matrix(streams: Sequence[Sequence[str]], columns: Mapping[str, int],
                   truncate: int = TRUNCATE_TOKENS) -> Features:
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
    """The :func:`feature_matrix` row of one stream, as a dense vector."""
    return feature_matrix([tokens], columns, truncate).toarray()[0]


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
    objective's gradient at the returned weights and bias."""
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

    def matrix_scores(self, x: Features) -> list[float]:
        """The score of each row of a :func:`feature_matrix` over this
        classifier's columns and window."""
        return _sigmoid(x.dot(self.weights) + self.bias).tolist()

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
        ``path`` if it is not a well-formed version-1 looptab classifier."""
        doc = read_json(path)
        if not isinstance(doc, dict) or doc.get("format") != "looptab-linear-classifier":
            raise ValueError(f"{path}: not a looptab classifier file")
        version = doc.get("version")
        if type(version) is not int or version != 1:
            raise ValueError(f"{path}: classifier version {version!r} is not 1")
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
        accuracy = doc.get("holdout_accuracy")
        if accuracy is not None and not (is_finite_number(accuracy) and 0 <= accuracy <= 1):
            raise ValueError(f"{path}: holdout_accuracy must be null or a number in [0, 1]")
        return cls(names, np.asarray(weights, dtype=float), bias, truncate, accuracy)


def classifier_features(streams: Sequence[Sequence[str]], truncate: int = TRUNCATE_TOKENS
                        ) -> tuple[list[str], Features]:
    """The feature names of a training corpus (every token seen in a
    window, plus the tempo buckets, sorted) and its :func:`feature_matrix`."""
    return id_features(*token_ids(streams), truncate)


def id_features(distinct: Sequence[str], ids: np.ndarray, lengths: np.ndarray,
                truncate: int = TRUNCATE_TOKENS) -> tuple[list[str], Features]:
    """:func:`classifier_features` of streams given as :func:`token_ids`
    gives them: ids among the ``distinct`` tokens and stream lengths."""
    ids, lengths = _windows(ids, lengths, truncate)
    seen = np.bincount(ids, minlength=len(distinct)) > 0
    names = sorted(set(compress(distinct, seen.tolist())).union(TEMPO_BUCKETS))
    return names, _count_matrix(distinct, ids, lengths, feature_columns(names))


def _conjugate_gradient(hvp: Callable[[np.ndarray], np.ndarray], g: np.ndarray) -> np.ndarray:
    """An approximate solution of ``H s = g``, where ``hvp(v)`` is ``H v``,
    by conjugate gradient from zero. It stops once the residual's norm is
    at most ``_FORCING |g|``, after ``len(g)`` steps (in which exact
    arithmetic solves the system), or at a search direction of non-positive
    curvature; there it returns the solution so far, or ``g`` itself on the
    first step."""
    s, r, p = np.zeros_like(g), g.copy(), g.copy()
    rr = (r * r).sum()
    stop = _FORCING * _FORCING * rr
    for k in range(len(g)):
        hp = hvp(p)
        curvature = (p * hp).sum()
        if curvature <= 0:
            return s if k else g
        alpha = rr / curvature
        s += alpha * p
        r -= alpha * hp
        rr, last = (r * r).sum(), rr
        if rr <= stop:
            break
        p = r + (rr / last) * p
    return s


def _newton(x: Features, y: np.ndarray, s: np.ndarray, l2: float, target: str
            ) -> tuple[np.ndarray, float, NewtonFit]:
    """The weights, bias and fit minimizing ``sum(s * log-loss) + l2 / 2
    |w|^2`` over the rows of ``x``, weighted by ``s``, by truncated Newton
    steps from zero. A step that would raise the loss by more than
    rounding is halved, at most ``_HALVINGS`` times."""
    d = x.shape[1]

    def loss(theta, z):  # each term log(1 + e^-z) or log(1 + e^z), without cancellation
        w = theta[:d]
        return float((s * np.logaddexp(0.0, (1.0 - 2.0 * y) * z)).sum() + 0.5 * l2 * (w * w).sum())

    theta, z = np.zeros(d + 1), np.zeros(x.shape[0])
    current = loss(theta, z)
    for iterations in range(NEWTON_MAX_ITER + 1):
        p = _sigmoid(z)
        r = s * (p - y)
        grad = np.append(x.tdot(r) + l2 * theta[:d], r.sum())
        norm = float(np.abs(grad).max())
        if norm <= NEWTON_TOL or iterations == NEWTON_MAX_ITER:
            break
        h = s * p * (1.0 - p)

        def hessian_product(v):  # bordered by the bias, which is not regularized
            u = x.dot(v[:d]) + v[d]
            u *= h
            return np.append(x.tdot(u) + l2 * v[:d], u.sum())

        step = _conjugate_gradient(hessian_product, grad)
        dz = x.dot(step[:d]) + step[d]
        for _ in range(_HALVINGS):
            new_theta, new_z = theta - step, z - dz
            new_loss = loss(new_theta, new_z)
            if new_loss <= current + _LOSS_ROUNDING * current:
                break
            step, dz = step / 2, dz / 2
        theta, z, current = new_theta, new_z, new_loss
    if norm > NEWTON_TOL:
        log.warning("%s classifier: stopped at the cap of %d Newton iterations, "
                    "gradient max-norm %.3g > %g", target, NEWTON_MAX_ITER, norm, NEWTON_TOL)
    return theta[:d], float(theta[d]), NewtonFit(iterations, norm)


def _split(n: int, y: np.ndarray, config: ClassifierConfig) -> tuple[np.ndarray, np.ndarray]:
    """The seeded (holdout, train) row indices; every row trains, and none
    is held out, if the training rows would hold a single class."""
    perm = np.random.default_rng(config.seed).permutation(n)
    n_hold = int(n * config.holdout_fraction)
    hold, train = perm[:n_hold], perm[n_hold:]
    if len(train) == 0 or y[train].min() == y[train].max():
        return perm[:0], perm
    return hold, train


def fit_classifiers(feature_names: list[str], x: Features,
                    labels: Mapping[str, Sequence[bool]],
                    config: ClassifierConfig = ClassifierConfig()
                    ) -> dict[str, LinearTokenClassifier]:
    """One logistic regression per target ``{target: labels}`` on the
    feature rows ``x``, each fitted on its own split by truncated Newton
    steps to a gradient max-norm of at most ``NEWTON_TOL``; a fit that
    reaches ``NEWTON_MAX_ITER`` first is logged as a warning naming its
    target. The objective is the mean log-loss of the training rows plus
    ``l2 / 2 |w|^2``; the bias is not regularized. Deterministic given
    data and seed. Raises on a target with a class of fewer than two rows,
    naming the target and the count of each class."""
    classifiers = {}
    for target, target_labels in labels.items():
        if x.shape[0] != len(target_labels):
            raise ValueError("feature rows and labels must align")
        y = np.asarray(target_labels, dtype=float)
        high = int(y.sum())
        low = len(y) - high
        if min(high, low) < 2:
            why = "training data contains a single class" if min(high, low) == 0 \
                else "need at least 2 examples per class"
            raise ValueError(f"{target}: {why}, got {high} high and {low} low")
        hold, train = _split(len(y), y, config)
        s = np.zeros(len(y))
        s[train] = 1.0 / len(train)
        w, b, fit = _newton(x, y, s, config.l2, target)
        clf = LinearTokenClassifier(feature_names, w, b, config.truncate, fit=fit)
        if len(hold) > 0:
            preds = _sigmoid(x.dot(w) + b)[hold] > HIGH_CUT
            clf.holdout_accuracy = float(np.mean(preds == (y[hold] > 0.5)))
        classifiers[target] = clf
    return classifiers


def fit_classifier(feature_names: list[str], x: Features, labels: Sequence[bool],
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
