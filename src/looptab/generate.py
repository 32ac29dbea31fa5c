"""Emotion prompts and constrained sampling from the n-gram generator.

The generator is a backoff add-alpha n-gram over corpus token lines.
Sampling has one path: tempo tokens incompatible with the target emotion
are masked (happy requires tempo >= 150 BPM, sad requires tempo <= 100
BPM; the 100..150 gap is never emitted under either emotion), then the
structurally invalid tokens are masked and one token is drawn from what
is left. The masks depend only on the vocabulary, the emotion and the
tempo bounds. They are applied to every entry of the model's rows at
once, for each structural state, and the masked columns are held by the
model, so all samples of a ``generate`` run draw from views of them.

Integer vocabulary ids carry the n-gram from training to sampling.
Training maps the corpus to one id array and counts each n-gram length
with one ``np.unique`` over integer keys. The counts are compressed sparse
rows, and every row's probabilities are computed once, when the model is
built or loaded. Each context row is keyed by the row of its suffix one
token shorter and its first token, so the longest seen suffix of the ids
sampled so far is found in at most ``order - 1`` dict lookups.

The model file (``looptab-ngram`` version 3) is one JSON document: the
vocabulary as a list of strings, and each of the five columns as an
object of its dtype (``<u2`` where every value is below 65,536, else
``<i4``, or ``<i8`` past 2**31) and its little-endian bytes, compressed
with zlib and base64-encoded. Version-1 and version-2 files are rejected
with a request to re-run ``train-gen``.

A distribution is sparse: the ids of one row, their probabilities, and
one probability shared by every token the row does not list. A step
draws from the row's slice of the masked columns in time proportional to
the row's length, not the vocabulary's: the unlisted mass is one constant
times the number of admissible unlisted tokens, and a draw that lands in
it picks one of them from the sorted admissible ids, skipping the listed
ones.
"""

from __future__ import annotations

import base64
import json
import math
import sys
import zlib
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import NamedTuple, Sequence

import numpy as np

from .atomic import atomic_open, read_json
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

# A sparse next-token distribution: listed vocabulary ids, their
# probabilities, and the probability of each token not listed.
Distribution = tuple[np.ndarray, np.ndarray, float]
# A masked one: listed ids, their weights, the weight of each admissible
# token not listed, and how many of those there are. Not normalized.
Masked = tuple[np.ndarray, np.ndarray, float, int]


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
        # 0 ** 0 == 1: at an infinite temperature masked tokens would get
        # mass back, and NaN compares false with every threshold.
        if not (math.isfinite(self.temperature) and self.temperature >= 0):
            raise ValueError(f"temperature must be a finite number >= 0, got {self.temperature}")
        if self.max_tokens < 1 or self.max_bars < 1:
            raise ValueError(f"max_tokens and max_bars must be >= 1, got {self.max_tokens} "
                             f"and {self.max_bars}")

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
    ``tokens[row_ptr[r]:row_ptr[r + 1]]`` with their ``counts``. The
    empty context must be one, and so must the suffix one token shorter of
    every other context. ``alpha`` must be finite and above 0. Every row's
    probabilities are computed once, here; the arrays are read-only.
    """

    def __init__(self, order: int, alpha: float, vocabulary: list[str],
                 context_lengths, context_tokens, row_ptr, tokens, counts):
        if order < 2:
            raise ValueError("order must be >= 2")
        if not (math.isfinite(alpha) and alpha > 0):
            raise ValueError(f"alpha must be a finite number > 0, got {alpha}")
        self.order = order
        self.alpha = alpha
        self.vocabulary = list(vocabulary)
        self.index = {t: i for i, t in enumerate(self.vocabulary)}
        for name, column in zip(COLUMNS, (context_lengths, context_tokens, row_ptr, tokens, counts)):
            column = np.array(column, dtype=np.int64)
            column.setflags(write=False)
            setattr(self, name, column)
        self._check_columns()
        self._stride = len(self.context_lengths) + 1
        self._root, self._children = self._context_tree()
        self._bounds = self.row_ptr.tolist()

        # (alpha + n) / denominator and alpha / denominator are the very floats
        # that filling with alpha, adding the counts and dividing would give.
        # The row sums are exact integers.
        v = len(self.vocabulary)
        cumulative = np.concatenate(([0], np.cumsum(self.counts)))
        denominators = cumulative[self.row_ptr[1:]] - cumulative[self.row_ptr[:-1]] + alpha * v
        self._seen = (alpha + self.counts) / np.repeat(denominators, np.diff(self.row_ptr))
        self._seen.setflags(write=False)
        self._unseen = (alpha / denominators).tolist()
        # sample_sequence's tables and masked columns, by emotion and tempo bounds
        self._sampling: dict[tuple, tuple[_Tables, tuple[_Columns, ...]]] = {}

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
        # Beyond 2**53, row sums are no longer exact floats. A float sum of
        # positive integers reaches 2**53 exactly when their sum does.
        if counts.sum(dtype=float) >= 2 ** 53:
            raise ValueError("counts must sum to less than 2**53")
        for ids in (self.context_tokens, self.tokens):
            if np.any((ids < 0) | (ids >= v)):
                raise ValueError(f"token ids must lie in [0, {v})")
        if np.any((lengths < 0) | (lengths >= self.order)) or lengths.sum() != len(self.context_tokens):
            raise ValueError(f"context lengths must lie in [0, {self.order - 1}] "
                             "and sum to len(context_tokens)")

    def _context_tree(self) -> tuple[int, dict[int, int]]:
        """The empty context's row and ``{key: row}`` for every other
        context, built one context length at a time. A context's key is
        ``first * stride + suffix + 1``: its first id and the row of its
        suffix one token shorter (the empty context's for a one-token
        context), with ``stride`` one more than the row count.
        Raises ``ValueError`` if the empty context or a suffix is not a
        context, or if a context appears twice."""
        lengths, flat, stride = self.context_lengths, self.context_tokens, self._stride
        starts = np.cumsum(lengths) - lengths
        if not np.any(lengths == 0):
            raise ValueError("the empty context is not a context")
        root = int(lengths.argmin())  # the first empty context
        last = np.full(len(self.vocabulary), -1)  # the row of each one-token context
        # by context length from 2: the keys in ascending order and their
        # rows, each ending in a key above all others and row -1
        levels = []
        above = len(self.vocabulary) * stride
        tree = {}
        for n in range(1, self.order):
            (members,) = np.nonzero(lengths == n)
            first = starts[members]
            if n == 1:
                last[flat[first]] = members
                suffix = np.full(len(members), root)
            else:
                # each context's suffix, found from its last id back to its second
                suffix = last[flat[first + n - 1]]
                missing = suffix < 0
                for j, (keys, rows) in enumerate(levels, 2):
                    key = flat[first + n - j] * stride + suffix + 1
                    by_key = np.argsort(key)  # sorted queries search faster
                    at = np.empty_like(by_key)
                    at[by_key] = keys.searchsorted(key[by_key])
                    missing |= keys[at] != key
                    suffix = rows[at]
                if np.any(missing):
                    raise ValueError("the suffix of a context is not a context")
            keys = flat[first] * stride + suffix + 1
            tree.update(zip(keys.tolist(), members.tolist()))
            if 1 < n < self.order - 1:  # the longest contexts are no suffix
                by_key = np.argsort(keys)
                levels.append((np.append(keys[by_key], above), np.append(members[by_key], -1)))
        if len(tree) < len(lengths) - 1:  # a second empty context is not in the tree
            raise ValueError("a context appears twice")
        return root, tree

    def _row(self, ids: Sequence[int]) -> int:
        """The row of the longest seen context suffix of ``ids``."""
        row, children, stride = self._root, self._children, self._stride
        for t in ids[:-self.order:-1]:  # the last order - 1 ids, the last first
            child = children.get(t * stride + row + 1)
            if child is None:
                break
            row = child
        return row

    def next_token_distribution(self, ids: Sequence[int]) -> Distribution:
        """The sparse distribution after the vocabulary ids ``ids``: the ids
        of the longest seen context suffix's row, their probabilities, and
        the probability of every token the row does not list. An integer
        outside the vocabulary matches no context. The arrays are read-only
        views of the model."""
        row = self._row(ids)
        start, stop = self._bounds[row], self._bounds[row + 1]
        return self.tokens[start:stop], self._seen[start:stop], self._unseen[row]


def train_generator(corpus_lines: Sequence[str], order: int = 4, alpha: float = 0.01) -> NGramModel:
    """Count-based estimation over corpus token lines.

    Every line is terminated with ``end`` before counting; the vocabulary
    is the corpus tokens plus all control tokens and ``end``. The corpus
    becomes one array of vocabulary ids, and each n-gram length is counted
    with one ``np.unique`` over integer keys: an n-gram's key is the
    ``np.unique`` id of its (n-1)-gram prefix times the vocabulary size,
    plus its last id. Contexts are rows in order of length, then of first
    occurrence; the continuations of a context keep the order of their
    first occurrence.
    """
    if order < 2:
        raise ValueError("order must be >= 2")
    sequences = [line.split() for line in corpus_lines if line.strip()]
    if not sequences:
        raise ValueError("empty corpus")
    for seq in sequences:
        if seq[-1] != "end":
            seq.append("end")
    words = list(chain.from_iterable(sequences))
    vocabulary = sorted(set(words).union(CONTROL_VOCAB, ("end",)))
    v = len(vocabulary)
    index = {t: i for i, t in enumerate(vocabulary)}
    ids = np.fromiter(map(index.__getitem__, words), np.int64, len(words))
    line_ends = np.zeros(len(ids), dtype=bool)
    line_ends[np.cumsum([len(seq) for seq in sequences]) - 1] = True
    del sequences, words

    ends = np.arange(len(ids))  # where each n-gram ends, ascending
    prefixes = np.zeros(len(ids), np.int64)  # the unique id of its (n-1)-gram prefix
    lengths, context_tokens, sizes, tokens, counts = [], [], [], [], []
    for n in range(1, order + 1):
        grams, first, gram_ids, gram_counts = np.unique(
            prefixes * v + ids[ends], return_index=True, return_inverse=True, return_counts=True)
        first = ends[first]  # where each distinct n-gram first ends
        # grams are in key order, so those sharing a context are adjacent
        new_context = np.diff(grams // v, prepend=-1) != 0
        context = np.cumsum(new_context) - 1
        context_first = np.minimum.reduceat(first, np.flatnonzero(new_context))
        by_first = np.argsort(context_first)
        rank = np.empty_like(by_first)
        rank[by_first] = np.arange(len(by_first))
        rows = rank[context]
        by_row = np.lexsort((first, rows))
        lengths.append(np.full(len(by_first), n - 1))
        context_tokens.append(ids[context_first[by_first, None] + np.arange(1 - n, 0)].ravel())
        sizes.append(np.bincount(rows, minlength=len(by_first)))
        tokens.append(grams[by_row] % v)
        counts.append(gram_counts[by_row])
        # the (n+1)-grams: every n-gram that a token of its line follows
        more = ~line_ends[ends]
        ends, prefixes = ends[more] + 1, gram_ids[more]
    return NGramModel(order, alpha, vocabulary, np.concatenate(lengths),
                      np.concatenate(context_tokens),
                      np.concatenate(([0], np.cumsum(np.concatenate(sizes)))),
                      np.concatenate(tokens), np.concatenate(counts))


def mask_tempo(distribution: Distribution, admissible: np.ndarray,
               admissible_count: int) -> Distribution:
    """Zero the listed tokens outside ``admissible`` in a sparse
    ``(indices, probs, rest)`` distribution: ``admissible`` is 0/1 over the
    vocabulary, 0 on the inadmissible tempi, with ``admissible_count`` ones.

    The listed probabilities are multiplied by their mask entries into a
    new array; ``rest``, the probability of each unlisted token, is
    unchanged, since the caller counts the unlisted tokens it admits.
    Nothing is renormalized, so relative probabilities are untouched. If
    the entire mass sat on inadmissible tempi, sampling cannot continue.
    """
    indices, probs, rest = distribution
    keep = admissible[indices]
    weights = probs * keep
    # With fewer listed ids than admissible tokens, one admissible token is unlisted.
    unlisted_mass = rest > 0.0 and (len(indices) < admissible_count
                                    or np.count_nonzero(keep) < admissible_count)
    if not unlisted_mass and not weights.any():
        raise SamplingError("the model puts all its mass on inadmissible tempi")
    return indices, weights, rest


_PRE_MEASURE_BLOCKED = (TokenCategory.NOTE, TokenCategory.WAIT,
                        TokenCategory.EFFECT, TokenCategory.BAR_CONTROL)


class _Tables(NamedTuple):
    tokens: tuple[Token, ...]       # the parsed vocabulary
    admissible: np.ndarray          # 0 on the inadmissible tempi, else 1
    admissible_count: int
    # By seen_measure: admissible x structurally valid as 0/1 floats, the
    # ids of its ones in ascending order, and each vocabulary id's position
    # among those ids (the vocabulary size where the mask is 0).
    masks: tuple[np.ndarray, ...]
    mask_ids: tuple[np.ndarray, ...]
    ranks: tuple[np.ndarray, ...]


def _sampling_tables(vocab: Sequence[str], emotion: str, tempo_upper: int,
                     tempo_lower: int) -> _Tables:
    """The vocabulary's parsed tokens, the tempo-admissible vector, and for
    each structural state (before and after the first ``new_measure``) the
    tokens both tempo-admissible and structurally valid, as read-only
    vocabulary-sized arrays.

    They depend on nothing else, so every sample of a ``generate`` run
    shares them (see :func:`_masked_columns`).
    """
    tokens = tuple(token(r) for r in vocab)
    bounds = SamplingConstraints(emotion=emotion, tempo_upper=tempo_upper,
                                 tempo_lower=tempo_lower)
    admissible = np.array([t.fields.get("key") != "tempo"
                           or bounds.tempo_admissible(t.fields["value"])
                           for t in tokens], dtype=float)
    masks = (
        admissible * [t.category not in _PRE_MEASURE_BLOCKED for t in tokens],
        admissible * [t.category is not TokenCategory.SONG_CONTROL
                      and t.fields.get("key") not in ("start", "artist") for t in tokens],
    )
    mask_ids = tuple(np.flatnonzero(mask) for mask in masks)
    ranks = tuple(np.where(mask, np.cumsum(mask, dtype=np.int64) - 1, len(vocab))
                  for mask in masks)
    for array in (admissible, *masks, *mask_ids, *ranks):
        array.setflags(write=False)
    return _Tables(tokens, admissible, int(np.count_nonzero(admissible)), masks, mask_ids, ranks)


class _Columns(NamedTuple):
    """A model's rows under one structural state's mask, entry by entry."""
    weights: np.ndarray    # each entry's probability, 0 where the state masks its id
    positions: np.ndarray  # each entry's id's position among the admitted ids (see _Tables)
    listed: list[int]      # for each row, how many admitted ids it lists


def _masked_columns(model: NGramModel, key: tuple) -> tuple[_Tables, tuple[_Columns, ...]]:
    """The sampling tables for ``key`` (emotion and tempo bounds) and the
    model's rows under each structural state's mask, built by the first
    sample that asks and held by the model, so that they go with it."""
    cached = model._sampling.get(key)
    if cached is None:
        tables = _sampling_tables(model.vocabulary, *key)
        cached = model._sampling[key] = tables, tuple(
            _state_columns(model, mask, ranks) for mask, ranks in zip(tables.masks, tables.ranks))
    return cached


def _state_columns(model: NGramModel, mask: np.ndarray, ranks: np.ndarray) -> _Columns:
    keep = mask[model.tokens]
    listed = np.concatenate(([0], np.cumsum(keep != 0)))[model.row_ptr]
    columns = _Columns(model._seen * keep, ranks[model.tokens], np.diff(listed).tolist())
    columns.weights.setflags(write=False)
    columns.positions.setflags(write=False)
    return columns


def _nth_unlisted(ids: np.ndarray, positions: np.ndarray, n: int) -> int:
    """The ``n``-th (from 0) of the ascending ``ids`` that a row does not
    list; ``positions`` gives each listed id's position in ``ids``, or a
    position past its end."""
    for position in sorted(positions.tolist()):
        if position > n:
            break
        n += 1
    return int(ids[n])


def _sharpen(masked: Masked, inverse_temperature: float) -> Masked:
    """The weights and ``rest`` to the power ``inverse_temperature``.

    At a tiny temperature the powers can underflow; only when their total
    is zero or subnormal are they taken of the values over the largest one,
    which becomes 1.
    """
    indices, weights, rest, unlisted = masked
    if not unlisted:
        rest = 0.0  # it weighs nothing, so it must not set the scale
    powers, rest_power = weights ** inverse_temperature, rest ** inverse_temperature
    if not powers.sum() + rest_power * unlisted >= sys.float_info.min:
        top = max(weights.max(initial=0.0), rest)
        powers = (weights / top) ** inverse_temperature
        rest_power = (rest / top) ** inverse_temperature
    return indices, powers, rest_power, unlisted


def _choose(masked: Masked, ids: np.ndarray, positions: np.ndarray, u: float) -> int:
    """The id that ``u``, uniform in [0, 1), picks: the listed ids come
    first, in row order, then the unlisted ones of ``ids`` in ascending
    order (``positions`` as for :func:`_nth_unlisted`)."""
    indices, weights, rest, unlisted = masked
    # the sums np.add.accumulate gives, without its cost on a short row
    cumulative = list(accumulate(weights.tolist()))
    listed = cumulative[-1] if cumulative else 0.0
    u *= listed + rest * unlisted
    if u < listed:
        return int(indices[bisect_right(cumulative, u)])
    # rounding may carry u to the very end of the unlisted mass
    return _nth_unlisted(ids, positions, min(int((u - listed) / rest), unlisted - 1))


def _argmax(masked: Masked, ids: np.ndarray, positions: np.ndarray) -> int:
    """The lowest id of the largest weight, as ``np.argmax`` picks from the
    dense vector; the first unlisted id stands for all the unlisted ones."""
    indices, weights, rest, unlisted = masked
    top = weights.max(initial=0.0)
    choice = int(indices[weights == top].min()) if top > 0.0 else None
    if unlisted and rest >= top:
        first = _nth_unlisted(ids, positions, 0)
        choice = first if choice is None or rest > top else min(choice, first)
    return choice


def sample_sequence(model: NGramModel, prompt: Sequence[Token],
                    constraints: SamplingConstraints) -> list[Token]:
    """Autoregressive sampling seeded by the prompt.

    Deterministic for a fixed ``rng_seed``; stops at ``end``, at the
    token/bar budget, or when no structurally valid token has mass. The
    output always starts with the prompt tokens and never carries a tempo
    violating the emotion constraint. Each step takes the row of the
    longest seen context from the masked columns (the inadmissible tempi
    and the structurally invalid tokens, events before the first bar and
    song-level tokens after it, weigh 0) and draws once with one uniform
    number, in time proportional to the row's length. Greedy decoding (a
    temperature below 1e-6) takes the lowest id of the largest weight.
    """
    vocab = model.vocabulary
    tables, columns = _masked_columns(
        model, (constraints.emotion, constraints.tempo_upper, constraints.tempo_lower))
    for t in prompt:
        if t.raw not in model.index:
            raise ValueError(f"prompt token {t.raw!r} not in model vocabulary")
    stream = list(prompt)
    history = [model.index[t.raw] for t in prompt]  # the ids of ``stream``
    bars = sum(1 for t in prompt if t.category is TokenCategory.STRUCTURE)
    ids, state = tables.mask_ids[bars > 0], columns[bars > 0]  # by structural state
    temperature, max_tokens = constraints.temperature, constraints.max_tokens
    # the numbers of rng.random() called once a step, drawn 256 at a time
    rng = np.random.default_rng(constraints.rng_seed)
    uniforms = chain.from_iterable(rng.random(min(n, 256)).tolist()
                                   for n in range(max_tokens - len(history), 0, -256))
    bounds, unseen, tokens, probs = model._bounds, model._unseen, model.tokens, model._seen
    admissible, admissible_count = tables.admissible, tables.admissible_count

    while len(history) < max_tokens:
        row = model._row(history)
        start, stop = bounds[row], bounds[row + 1]
        rest, unlisted = unseen[row], len(ids) - state.listed[row]
        # only a row without unlisted mass or with every admissible id can
        # carry all its mass on inadmissible tempi
        if rest <= 0.0 or stop - start >= admissible_count:
            mask_tempo((tokens[start:stop], probs[start:stop], rest), admissible, admissible_count)
        weights = state.weights[start:stop]
        if rest * unlisted <= 0.0 and not weights.any():
            break  # the structural dead end
        masked = (tokens[start:stop], weights, rest, unlisted)
        if temperature < 1e-6:
            choice = _argmax(masked, ids, state.positions[start:stop])
        else:
            if temperature != 1.0:
                masked = _sharpen(masked, 1.0 / temperature)
            choice = _choose(masked, ids, state.positions[start:stop], next(uniforms))
        raw = vocab[choice]
        history.append(choice)
        stream.append(tables.tokens[choice])
        if raw == "end":
            break
        if raw == "new_measure":
            bars += 1
            ids, state = tables.mask_ids[True], columns[True]
            if bars >= constraints.max_bars:
                stream.append(END)
                break
    return stream


# Model persistence: versioned JSON document.

MODEL_FORMAT = "looptab-ngram"
MODEL_VERSION = 3
MODEL_KEYS = ("format", "version", "order", "alpha", "vocabulary") + COLUMNS
DTYPES = ("<u2", "<i4", "<i8")  # the narrowest that holds every value is written


def _encode(column: np.ndarray) -> dict[str, str]:
    top = int(column.max(initial=0))
    dtype = DTYPES[0] if top < 2 ** 16 else DTYPES[1] if top < 2 ** 31 else DTYPES[2]
    # level 1: a third of the version-2 size, written twice as fast as at level 6
    data = zlib.compress(column.astype(dtype).tobytes(), 1)
    return {"dtype": dtype, "data": base64.b64encode(data).decode("ascii")}


def _decode(name: str, column) -> np.ndarray:
    """The model column ``name`` as a read-only array, or a ``ValueError``
    naming the column."""
    if not isinstance(column, dict) or set(column) != {"dtype", "data"}:
        raise ValueError(f"{name} must be an object of dtype and data")
    dtype, data = column["dtype"], column["data"]
    if dtype not in DTYPES:
        raise ValueError(f"{name}: dtype must be one of {', '.join(DTYPES)}, got {dtype!r}")
    if not isinstance(data, str):
        raise ValueError(f"{name}: data must be a base64 string")
    try:
        raw = zlib.decompress(base64.b64decode(data, validate=True))
    except ValueError as exc:  # binascii.Error among them
        raise ValueError(f"{name}: data is not base64: {exc}") from None
    except zlib.error as exc:
        raise ValueError(f"{name}: data is not zlib-compressed: {exc}") from None
    if len(raw) % np.dtype(dtype).itemsize:
        raise ValueError(f"{name}: {len(raw)} bytes are not a whole number of {dtype} values")
    return np.frombuffer(raw, dtype)


def save_model(model: NGramModel, path) -> None:
    """Write the model document, replacing ``path`` only once the whole
    document is written."""
    doc = {"format": MODEL_FORMAT, "version": MODEL_VERSION, "order": model.order,
           "alpha": model.alpha, "vocabulary": model.vocabulary}
    doc.update((name, _encode(getattr(model, name))) for name in COLUMNS)
    with atomic_open(path) as fh:
        fh.write(json.dumps(doc, separators=(",", ":")))


def load_model(path) -> NGramModel:
    """Read a model document, raising ``ValueError`` naming ``path`` if it
    is not a well-formed version-3 looptab n-gram model."""
    doc = read_json(path)
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
    try:
        return NGramModel(order, alpha, vocab, *(_decode(name, doc[name]) for name in COLUMNS))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
