"""Emotion prompts and constrained sampling from the n-gram generator.

The generator is a backoff add-alpha n-gram over corpus token lines.
Sampling has one path: at every step, tempo tokens incompatible with the
target emotion are masked and the distribution renormalized (happy
requires tempo >= 150 BPM, sad requires tempo <= 100 BPM; the 100..150
gap is never emitted under either emotion), then the structurally
invalid tokens are masked and one token is drawn. The masks and the
parsed vocabulary depend only on the vocabulary, the emotion and the
tempo bounds, so all samples of a ``generate`` run share them.

The n-gram counts are compressed sparse rows of integer vocabulary ids,
and every row's probabilities are computed once, when the model is built
or loaded. The model file (``looptab-ngram`` version 2) stores the
vocabulary once and the rows as five flat integer columns; a version-1
file is rejected with a request to re-run ``train-gen``. A draw takes the
same float operations as ``Generator.choice`` without re-checking the
distribution, so it picks the same token for the same seed.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .atomic import atomic_open
from .tokens import END, Token, TokenCategory, token

HAPPY_TEMPO_MIN = 150
SAD_TEMPO_MAX = 100

HAPPY_PROMPT = ("valence:high", "arousal:high", "mode:major", "time_signature:4")
SAD_PROMPT = ("valence:low", "arousal:low", "mode:minor", "time_signature:4")

CONTROL_VOCAB = (
    "valence:high", "valence:low",
    "arousal:high", "arousal:low",
    "mode:major", "mode:minor",
    "cloud_diameter:q1", "cloud_diameter:q2", "cloud_diameter:q3", "cloud_diameter:q4",
    "cloud_momentum:q1", "cloud_momentum:q2", "cloud_momentum:q3", "cloud_momentum:q4",
    "tensile_strain:q1", "tensile_strain:q2", "tensile_strain:q3", "tensile_strain:q4",
)


# The n-gram counts as compressed sparse rows (see NGramModel).
COLUMNS = ("context_lengths", "context_tokens", "row_ptr", "tokens", "counts")


class SamplingError(RuntimeError):
    pass


def build_prompt(emotion: str) -> list[Token]:
    """Four-token prompt: valence, arousal, mode, time_signature."""
    if emotion == "happy":
        raws = HAPPY_PROMPT
    elif emotion == "sad":
        raws = SAD_PROMPT
    else:
        raise ValueError(f"emotion must be happy or sad, got {emotion!r}")
    return [token(r) for r in raws]


def ablated_prompt(emotion: str, missing: str | None) -> list[Token]:
    """Prompt with one feature group removed.

    ``missing`` is one of None (full prompt), ``emotion_labels`` (drop
    valence/arousal), ``psychology`` (drop mode) or ``tension`` (full
    prompt; bar controls are stripped downstream). The prompt only
    conditions the model: sampling enforces the emotion's tempo bound
    under every ablation.
    """
    prompt = build_prompt(emotion)
    if missing in (None, "tension"):
        return prompt
    if missing == "emotion_labels":
        return [t for t in prompt if t.fields.get("feature") not in ("valence", "arousal")]
    if missing == "psychology":
        return [t for t in prompt if t.fields.get("feature") != "mode"]
    raise ValueError(f"unknown feature group {missing!r}")


@dataclass(frozen=True)
class SamplingConstraints:
    emotion: str = "happy"
    tempo_upper: int = HAPPY_TEMPO_MIN  # happy minimum BPM
    tempo_lower: int = SAD_TEMPO_MAX    # sad maximum BPM
    max_tokens: int = 4096
    max_bars: int = 64
    temperature: float = 1.0
    rng_seed: int = 0

    def __post_init__(self):
        if self.emotion not in ("happy", "sad"):
            raise ValueError("emotion must be happy or sad")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")

    def tempo_admissible(self, bpm: int) -> bool:
        if self.emotion == "happy":
            return bpm >= self.tempo_upper
        return bpm <= self.tempo_lower


class NGramModel:
    """Backoff add-alpha n-gram: the longest seen context suffix up to
    order k-1 supplies counts; add-alpha smoothing keeps every vocabulary
    token's probability positive.

    The counts are compressed sparse rows over vocabulary ids, one row per
    context: context ``r`` is the next ``context_lengths[r]`` ids of
    ``context_tokens``, and its continuations are
    ``tokens[row_ptr[r]:row_ptr[r + 1]]`` with their ``counts``. Every
    row's probabilities are computed once, here; the arrays are read-only.
    """

    def __init__(self, order: int, alpha: float, vocabulary: list[str],
                 context_lengths, context_tokens, row_ptr, tokens, counts):
        if order < 2:
            raise ValueError("order must be >= 2")
        if alpha <= 0:
            raise ValueError("alpha must be > 0")
        self.order = order
        self.alpha = alpha
        self.vocabulary = list(vocabulary)
        self.index = {t: i for i, t in enumerate(self.vocabulary)}
        for name, column in zip(COLUMNS, (context_lengths, context_tokens, row_ptr, tokens, counts)):
            column = np.array(column, dtype=np.int64)
            column.setflags(write=False)
            setattr(self, name, column)
        self._check_columns()
        self._rows = self._context_rows()
        if len(self._rows) != len(self.context_lengths):
            raise ValueError("a context appears twice")
        self._bounds = self.row_ptr.tolist()

        # (alpha + n) / denominator and alpha / denominator are the very floats
        # that filling with alpha, adding the counts and dividing would give.
        # The row sums are exact integers.
        v = len(self.vocabulary)
        cumulative = np.concatenate(([0], np.cumsum(self.counts)))
        denominators = cumulative[self.row_ptr[1:]] - cumulative[self.row_ptr[:-1]] + alpha * v
        self._seen = (alpha + self.counts) / np.repeat(denominators, np.diff(self.row_ptr))
        self._unseen = (alpha / denominators).tolist()
        self._uniform = alpha / (alpha * v)  # no row, not even the empty context's

    def _check_columns(self) -> None:
        lengths, row_ptr, counts = self.context_lengths, self.row_ptr, self.counts
        v = len(self.vocabulary)
        if len(self.tokens) != len(counts) or len(row_ptr) != len(lengths) + 1:
            raise ValueError("column lengths disagree: need len(tokens) == len(counts) "
                             "and one more row_ptr than context_lengths")
        if row_ptr[0] != 0 or row_ptr[-1] != len(counts) or np.any(np.diff(row_ptr) <= 0):
            raise ValueError("row_ptr must start at 0, strictly increase and end at len(tokens)")
        if np.any(counts < 1):
            raise ValueError("counts must be >= 1")
        for ids in (self.context_tokens, self.tokens):
            if np.any((ids < 0) | (ids >= v)):
                raise ValueError(f"token ids must lie in [0, {v})")
        if np.any((lengths < 0) | (lengths >= self.order)) or lengths.sum() != len(self.context_tokens):
            raise ValueError(f"context lengths must lie in [0, {self.order - 1}] "
                             "and sum to len(context_tokens)")

    def _context_rows(self) -> dict[tuple[str, ...], int]:
        """``{context: row}``, built one context length at a time."""
        lengths = self.context_lengths
        starts = np.cumsum(lengths) - lengths
        words = np.array(self.vocabulary, dtype=object)
        rows = {}
        for n in range(self.order):
            (members,) = np.nonzero(lengths == n)
            ids = [self.context_tokens[starts[members] + j] for j in range(n)]
            keys = zip(*(words[column].tolist() for column in ids)) if n else [()] * len(members)
            rows.update(zip(keys, members.tolist()))
        return rows

    def next_token_distribution(self, context: Sequence[str]) -> np.ndarray:
        ctx = tuple(context[-(self.order - 1):])
        rows = self._rows
        while ctx and ctx not in rows:
            ctx = ctx[1:]
        row = rows.get(ctx)
        if row is None:
            return np.full(len(self.vocabulary), self._uniform)
        start, stop = self._bounds[row], self._bounds[row + 1]
        probs = np.full(len(self.vocabulary), self._unseen[row])
        probs[self.tokens[start:stop]] = self._seen[start:stop]
        return probs


def train_generator(corpus_lines: Sequence[str], order: int = 4, alpha: float = 0.01) -> NGramModel:
    """Count-based estimation over corpus token lines.

    Every line is terminated with ``end`` before counting; the vocabulary
    is the corpus tokens plus all control tokens and ``end``. Each n-gram
    length is counted in one pass over every line. Contexts are rows in
    order of length, then of first occurrence; the continuations of a
    context keep the order of their first occurrence.
    """
    sequences = [line.split() for line in corpus_lines if line.strip()]
    if not sequences:
        raise ValueError("empty corpus")
    vocab = set(CONTROL_VOCAB) | {"end"}
    grams = [Counter() for _ in range(order)]  # grams[n - 1] counts n-grams
    for seq in sequences:
        if seq[-1] != "end":
            seq.append("end")
        vocab.update(seq)
        for n, counter in enumerate(grams, 1):
            counter.update(zip(*(seq[i:] for i in range(n))))
    del sequences
    vocabulary = sorted(vocab)
    index = {t: i for i, t in enumerate(vocabulary)}
    # Streamed into arrays, and the counters dropped before the model is
    # built, so that no two copies of the counts are alive at once.
    size = sum(map(len, grams))
    rows: dict[tuple[str, ...], int] = {}  # context -> row, in order of first occurrence
    gram_rows = np.fromiter((rows.setdefault(gram[:-1], len(rows))
                             for counter in grams for gram in counter), np.int64, size)
    tokens = np.fromiter((index[gram[-1]] for counter in grams for gram in counter), np.int64, size)
    counts = np.fromiter((n for counter in grams for n in counter.values()), np.int64, size)
    del grams
    lengths = np.fromiter(map(len, rows), np.int64, len(rows))
    context_tokens = np.fromiter((index[t] for ctx in rows for t in ctx), np.int64,
                                 int(lengths.sum()))
    del rows
    by_row = np.argsort(gram_rows, kind="stable")
    return NGramModel(order, alpha, vocabulary, lengths, context_tokens,
                      np.concatenate(([0], np.cumsum(np.bincount(gram_rows)))),
                      tokens[by_row], counts[by_row])


def mask_tempo(distribution: np.ndarray, admissible: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
    """Zero the tokens outside the ``admissible`` vector (the inadmissible
    tempi; boolean or 0/1 floats) and renormalize, into ``out`` if given.

    Relative probabilities of the remaining tokens are untouched. If the
    entire mass sat on inadmissible tempi, sampling cannot continue.
    """
    masked = np.multiply(distribution, admissible, out=out)
    total = masked.sum()
    if total <= 0.0:
        raise SamplingError("the model puts all its mass on inadmissible tempi")
    masked /= total
    return masked


_PRE_MEASURE_BLOCKED = (TokenCategory.NOTE, TokenCategory.WAIT,
                        TokenCategory.EFFECT, TokenCategory.BAR_CONTROL)


@lru_cache(maxsize=8)
def _sampling_tables(vocab: tuple[str, ...], emotion: str, tempo_upper: int, tempo_lower: int):
    """The vocabulary's parsed tokens, the tempo-admissible vector and the
    two structural masks (before and after the first ``new_measure``), the
    masks as read-only 0/1 floats.

    They depend on nothing else, so every sample of a ``generate`` run
    shares them.
    """
    tokens = tuple(token(r) for r in vocab)
    bounds = SamplingConstraints(emotion=emotion, tempo_upper=tempo_upper,
                                 tempo_lower=tempo_lower)
    admissible = np.array([t.fields.get("key") != "tempo"
                           or bounds.tempo_admissible(t.fields["value"])
                           for t in tokens], dtype=float)
    structural = (  # indexed by seen_measure
        np.array([t.category not in _PRE_MEASURE_BLOCKED for t in tokens], dtype=float),
        np.array([t.category is not TokenCategory.SONG_CONTROL
                  and t.fields.get("key") not in ("start", "artist")
                  for t in tokens], dtype=float),
    )
    for mask in (admissible, *structural):
        mask.setflags(write=False)
    return tokens, frozenset(vocab), admissible, structural


def _sharpen(probs: np.ndarray, inverse_temperature: float, out: np.ndarray) -> np.ndarray:
    """``probs ** inverse_temperature``, renormalized, into ``out``.

    At a tiny temperature every power can underflow to zero; only then are
    the powers taken of ``probs / probs.max()``, whose largest entry is 1.
    """
    np.power(probs, inverse_temperature, out=out)
    total = out.sum()
    if not 0.0 < total < math.inf:
        np.divide(probs, probs.max(), out=out)
        out **= inverse_temperature
        total = out.sum()
    out /= total
    return out


def _draw(probs: np.ndarray, rng: np.random.Generator) -> int:
    """The index ``rng.choice(len(probs), p=probs)`` draws, by the same
    float operations (a cumulative sum divided by its last entry, searched
    with one ``rng.random()``) but without its checks of ``probs``, which
    is overwritten. ``np.add.accumulate`` is ``cumsum`` without its
    wrappers."""
    np.add.accumulate(probs, out=probs)
    probs /= probs[-1]
    return int(probs.searchsorted(rng.random(), side="right"))


def sample_sequence(model: NGramModel, prompt: Sequence[Token],
                    constraints: SamplingConstraints) -> list[Token]:
    """Autoregressive sampling seeded by the prompt.

    Deterministic for a fixed ``rng_seed``; stops at ``end`` or at the
    token/bar budget. The output always starts with the prompt tokens and
    never carries a tempo violating the emotion constraint. Each step
    renormalizes the model's distribution over the admissible tempi, then
    over the structurally valid tokens (no events before the first bar, no
    song-level tokens after it), and draws once, in two buffers reused by
    every step.
    """
    vocab = model.vocabulary
    vocab_tokens, vocab_set, admissible, structural = _sampling_tables(
        tuple(vocab), constraints.emotion, constraints.tempo_upper, constraints.tempo_lower)
    for t in prompt:
        if t.raw not in vocab_set:
            raise ValueError(f"prompt token {t.raw!r} not in model vocabulary")
    rng = np.random.default_rng(constraints.rng_seed)
    stream = list(prompt)
    out = [t.raw for t in prompt]
    bars = sum(1 for t in prompt if t.category is TokenCategory.STRUCTURE)
    seen_measure = bars > 0
    probs, sharpened = np.empty(len(vocab)), np.empty(len(vocab))

    while len(out) < constraints.max_tokens:
        mask_tempo(model.next_token_distribution(out), admissible, out=probs)
        probs *= structural[seen_measure]
        total = probs.sum()
        if total <= 0.0:
            break
        probs /= total

        if constraints.temperature < 1e-6:
            choice = int(np.argmax(probs))
        elif constraints.temperature == 1.0:
            choice = _draw(probs, rng)
        else:
            choice = _draw(_sharpen(probs, 1.0 / constraints.temperature, sharpened), rng)
        raw = vocab[choice]
        out.append(raw)
        stream.append(vocab_tokens[choice])
        if raw == "end":
            break
        if raw == "new_measure":
            bars += 1
            seen_measure = True
            if bars >= constraints.max_bars:
                stream.append(END)
                break
    return stream


# Model persistence: versioned JSON document.

MODEL_FORMAT = "looptab-ngram"
MODEL_VERSION = 2
MODEL_KEYS = ("format", "version", "order", "alpha", "vocabulary") + COLUMNS


def save_model(model: NGramModel, path) -> None:
    """Write the model document with one ``json.dumps``, replacing ``path``
    only once the whole document is written. The encoder turns one column
    at a time into a list, so the columns are never all lists at once."""
    doc = {"format": MODEL_FORMAT, "version": MODEL_VERSION, "order": model.order,
           "alpha": model.alpha, "vocabulary": model.vocabulary}
    doc.update((name, getattr(model, name)) for name in COLUMNS)
    with atomic_open(path) as fh:
        fh.write(json.dumps(doc, separators=(",", ":"), default=np.ndarray.tolist))


def load_model(path) -> NGramModel:
    """Read a model document, raising ``ValueError`` naming ``path`` if it
    is not a well-formed version-2 looptab n-gram model."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise ValueError(f"{path}: not a looptab n-gram model file")
    if "version" in doc and doc["version"] != MODEL_VERSION:
        raise ValueError(f"{path}: model version {doc['version']!r} is not {MODEL_VERSION}; "
                         "re-run train-gen to rebuild the model")
    missing = [key for key in MODEL_KEYS if key not in doc]
    if missing:
        raise ValueError(f"{path}: model document lacks {', '.join(missing)}")
    order, alpha, vocab = doc["order"], doc["alpha"], doc["vocabulary"]
    if type(order) is not int or type(alpha) not in (int, float) or not math.isfinite(alpha):
        raise ValueError(f"{path}: order must be an integer and alpha a number")
    if (not isinstance(vocab, list) or not set(map(type, vocab)) <= {str}
            or len(set(vocab)) != len(vocab)):
        raise ValueError(f"{path}: vocabulary must be a list of distinct strings")
    columns = [doc[name] for name in COLUMNS]
    if not all(isinstance(c, list) and set(map(type, c)) <= {int} for c in columns):
        raise ValueError(f"{path}: {', '.join(COLUMNS)} must be lists of integers")
    if sum(doc["counts"]) >= 2 ** 53:  # beyond, row sums are no longer exact floats
        raise ValueError(f"{path}: counts must sum to less than 2**53")
    try:
        return NGramModel(order, alpha, vocab, *columns)
    except OverflowError:
        raise ValueError(f"{path}: column integers must fit in 64 bits") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None

