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
Training reads the corpus lines one at a time into one id array, keeping
one string per distinct token, and counts each n-gram length with one
sort of integer keys. The counts are compressed sparse rows. Building or
loading a model only checks them: every row's probabilities and the
context dict are computed once per model, by its first distribution or
sample, so ``train-gen`` computes neither. Each context row is keyed by
the row of its suffix one token shorter and its first token, so the
longest seen suffix of the ids sampled so far is found in at most
``order - 1`` dict lookups.

The model file (``looptab-ngram`` version 3) is one JSON document: the
vocabulary as a list of strings, and each of the five columns as an
object of its dtype (``<u2`` where every value is below 65,536, else
``<i4``, or ``<i8`` past 2**31) and its little-endian bytes, compressed
with zlib and base64-encoded. A model holds each column in that same
dtype, trained or loaded, and a loaded one as a view of the decompressed
bytes; only the context keys are computed from int64 copies. Each row's
bounds and unlisted probability, and each structural state's count of
admitted ids per row, are ``array`` columns of 8-byte numbers, and the
positions among the admitted ids are held narrow. Version-1 and
version-2 files are rejected with a request to re-run ``train-gen``.

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
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .atomic import atomic_open, read_json
from .config import HAPPY_TEMPO_MIN, SAD_TEMPO_MAX
from .tokens import (END, TENSION_FEATURES, TENSION_LEVELS, Token, TokenCategory, token,
                     token_ids)

HAPPY_PROMPT = ("valence:high", "arousal:high", "mode:major", "time_signature:4")
SAD_PROMPT = ("valence:low", "arousal:low", "mode:minor", "time_signature:4")

CONTROL_VOCAB = (
    "valence:high", "valence:low",
    "arousal:high", "arousal:low",
    "mode:major", "mode:minor",
    *(f"{feature}:{level}" for feature in TENSION_FEATURES for level in TENSION_LEVELS),
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
            return bpm >= HAPPY_TEMPO_MIN
        return bpm <= SAD_TEMPO_MAX


class NGramModel:
    """Backoff add-alpha n-gram: the longest seen context suffix up to
    order k-1 supplies counts; add-alpha smoothing keeps every vocabulary
    token's probability positive.

    The counts are compressed sparse rows over vocabulary ids, one row per
    context: context ``r`` is the next ``context_lengths[r]`` ids of
    ``context_tokens``, and its continuations are
    ``tokens[row_ptr[r]:row_ptr[r + 1]]`` with their ``counts``. The
    empty context must be one, and so must the suffix one token shorter of
    every other context. ``alpha`` must be above 0, and finite times the
    vocabulary size. The arrays are read-only, each held in the first of
    :data:`DTYPES` that holds its values (an array already of that dtype
    and read-only is held as it is). The constructor only checks them:
    the context dict and every row's probabilities (:attr:`_index`) are
    built by the first distribution or sample asked of the model, so
    training or saving one builds neither.
    """

    def __init__(self, order: int, alpha: float, vocabulary: list[str],
                 context_lengths, context_tokens, row_ptr, tokens, counts):
        if order < 2:
            raise ValueError("order must be >= 2")
        if not (math.isfinite(alpha) and alpha > 0):
            raise ValueError(f"alpha must be a finite number > 0, got {alpha}")
        # every probability's denominator holds alpha * len(vocabulary)
        if not math.isfinite(alpha * len(vocabulary)):
            raise ValueError(f"alpha {alpha} times the vocabulary size {len(vocabulary)} "
                             "is not a finite number")
        self.order = order
        self.alpha = alpha
        self.vocabulary = list(vocabulary)
        self.index = {t: i for i, t in enumerate(self.vocabulary)}
        for name, column in zip(COLUMNS, (context_lengths, context_tokens, row_ptr, tokens, counts)):
            column = np.asarray(column)
            # a read-only array of the file's dtype is held as it is, without a copy
            column = column.astype(_narrowest(column), copy=column.flags.writeable)
            column.setflags(write=False)
            setattr(self, name, column)
        self._check_columns()
        self._stride = len(self.context_lengths) + 1
        self._root, self._keys = self._check_contexts()
        # sample_sequence's tables and masked columns, by emotion
        self._sampling: dict[str, tuple[_Tables, tuple[_Columns, ...]]] = {}

    def _check_columns(self) -> None:
        lengths, row_ptr, counts = self.context_lengths, self.row_ptr, self.counts
        v = len(self.vocabulary)
        if len(self.tokens) != len(counts) or len(row_ptr) != len(lengths) + 1:
            raise ValueError("column lengths disagree: need len(tokens) == len(counts) "
                             "and one more row_ptr than context_lengths")
        # np.diff of an unsigned column would wrap where it decreases
        if row_ptr[0] != 0 or row_ptr[-1] != len(counts) or np.any(row_ptr[1:] <= row_ptr[:-1]):
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

    def _check_contexts(self) -> tuple[int, np.ndarray]:
        """The empty context's row and each row's key in the context dict
        (-1 for the empty context), found one context length at a time. A
        context's key is ``first * stride + suffix + 1``: its first id and
        the row of its suffix one token shorter (the empty context's for a
        one-token context), with ``stride`` one more than the row count.
        Raises ``ValueError`` if the empty context or a suffix is not a
        context, or if a context appears twice: a second empty context, or
        two equal keys of one length, adjacent once sorted."""
        lengths, stride = self.context_lengths, self._stride
        # the keys are computed in int64: a narrow id times the stride would wrap
        flat = self.context_tokens.astype(np.int64)
        starts = np.cumsum(lengths, dtype=np.int64) - lengths
        (empty,) = np.nonzero(lengths == 0)
        if not len(empty):
            raise ValueError("the empty context is not a context")
        root, twice = int(empty[0]), len(empty) > 1
        row_keys = np.full(len(lengths), -1)
        last = np.full(len(self.vocabulary), -1)  # the row of each one-token context
        # by context length from 2: the keys in ascending order and their
        # rows, each ending in a key above all others and row -1
        levels = []
        above = len(self.vocabulary) * stride
        longest = int(lengths.max())
        for n in range(1, longest + 1):
            (members,) = np.nonzero(lengths == n)
            first = starts[members]
            if n == 1:
                last[flat[first]] = members
                suffix = root
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
            keys = row_keys[members] = flat[first] * stride + suffix + 1
            if 1 < n < longest:  # the longest contexts are no suffix
                by_key = np.argsort(keys)
                keys = keys[by_key]
                levels.append((np.append(keys, above), np.append(members[by_key], -1)))
            else:
                keys = np.sort(keys)
            twice |= bool(np.any(keys[1:] == keys[:-1]))
        if twice:
            raise ValueError("a context appears twice")
        return root, row_keys.astype(_narrowest(row_keys))

    @cached_property
    def _index(self) -> _Index:
        """What sampling reads, built once, by the first distribution or
        sample asked of the model."""
        return _Index(self)

    def next_token_distribution(self, ids: Sequence[int]) -> Distribution:
        """The sparse distribution after the vocabulary ids ``ids``: the ids
        of the longest seen context suffix's row, their probabilities, and
        the probability of every token the row does not list. An integer
        outside the vocabulary matches no context. The arrays are read-only
        views of the model."""
        index = self._index
        row = index.row(ids)
        start, stop = index.bounds[row], index.bounds[row + 1]
        return self.tokens[start:stop], index.seen[start:stop], index.unseen[row]


class _Index:
    """The context dict of a model (``{key: row}``, keyed as
    :meth:`NGramModel._check_contexts` says), and each row's bounds in its
    columns and the probabilities of the tokens it lists and of every
    other: ``bounds`` and ``unseen`` are ``array('q')`` and ``array('d')``
    by row, ``seen`` a float64 array by entry."""

    __slots__ = ("root", "stride", "order", "children", "bounds", "seen", "unseen")

    def __init__(self, model: NGramModel):
        self.root, self.stride, self.order = model._root, model._stride, model.order
        self.children = dict(zip(model._keys.tolist(), range(len(model._keys))))
        del self.children[-1]  # the empty context's
        alpha, counts, row_ptr = model.alpha, model.counts, model.row_ptr
        self.bounds = _packed("q", row_ptr)
        # (alpha + n) / denominator and alpha / denominator are the very floats
        # that filling with alpha, adding the counts and dividing would give.
        # The row sums are exact integers.
        cumulative = np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))
        denominators = (cumulative[row_ptr[1:]] - cumulative[row_ptr[:-1]]
                        + alpha * len(model.vocabulary))
        self.seen = np.add(counts, alpha, dtype=float) / np.repeat(denominators, np.diff(row_ptr))
        self.seen.setflags(write=False)
        self.unseen = _packed("d", alpha / denominators)

    def row(self, ids: Sequence[int]) -> int:
        """The row of the longest seen context suffix of ``ids``."""
        row, children, stride = self.root, self.children, self.stride
        for t in ids[:-self.order:-1]:  # the last order - 1 ids, the last first
            child = children.get(t * stride + row + 1)
            if child is None:
                break
            row = child
        return row


def _distinct(keys: np.ndarray, ends: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The distinct ``keys`` in ascending order, the least of ``ends`` at
    each one's occurrences, each key's rank among them and how often each
    occurs, from one sort of ``keys``: ``np.unique`` with its index, inverse
    and counts, read through ``ends``, without the stable sort its index
    needs. The sorted copy of ``keys`` then holds the ranks in sorted
    order, so no third array of that length is made."""
    by_key = keys.argsort()
    keys = keys[by_key]
    head = np.empty(len(keys), bool)  # where each run of equal keys starts
    head[0] = True
    np.not_equal(keys[1:], keys[:-1], out=head[1:])
    starts = np.flatnonzero(head)
    grams = keys[starts]
    sorted_ranks = np.cumsum(head, out=keys)
    sorted_ranks -= 1
    ranks = np.empty_like(by_key)
    ranks[by_key] = sorted_ranks
    del keys, sorted_ranks
    return (grams, np.minimum.reduceat(ends[by_key], starts), ranks,
            np.diff(starts, append=len(head)))


def train_generator(corpus_lines: Iterable[str], order: int = 4,
                    alpha: float = 0.01) -> NGramModel:
    """Count-based estimation over corpus token lines.

    Every line is terminated with ``end`` before counting; the vocabulary
    is the corpus tokens plus all control tokens and ``end``. The corpus
    becomes one array of vocabulary ids (:func:`_corpus_ids`), and each
    n-gram length is counted with one sort of integer keys
    (:func:`_count_ngrams`). Contexts are rows in order of length, then of
    first occurrence; the continuations of a context keep the order of
    their first occurrence.
    """
    if order < 2:
        raise ValueError("order must be >= 2")
    vocabulary, ids, line_ends = _corpus_ids(corpus_lines)
    # the counting arrays, each as long as the corpus, are freed before the
    # model copies the columns
    return NGramModel(order, alpha, vocabulary,
                      *_count_ngrams(ids, line_ends, len(vocabulary), order))


def _corpus_ids(corpus_lines: Iterable[str]) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The vocabulary, the vocabulary ids of the corpus with ``end`` after
    each line that lacks it, and where each line ends. Blank lines are
    skipped. The lines are read one at a time into ids among their
    distinct tokens (:func:`tokens.token_ids`), which one gather maps to
    vocabulary ids and one ``np.insert`` gives the missing ``end`` ids, so
    only the first string of each distinct token is kept."""
    distinct, ids, lengths = token_ids(map(str.split, corpus_lines))
    lengths = lengths[lengths > 0]
    if not len(lengths):
        raise ValueError("empty corpus")
    vocabulary = sorted(set(distinct).union(CONTROL_VOCAB, ("end",)))
    index = {t: i for i, t in enumerate(vocabulary)}
    end = index["end"]
    ids = np.array([index[t] for t in distinct], ids.dtype)[ids]
    stops = np.cumsum(lengths)  # where each line's ids stop
    unended = ids[stops - 1] != end
    ids = np.insert(ids, stops[unended], end)
    line_ends = np.zeros(len(ids), dtype=bool)
    line_ends[np.cumsum(lengths + unended) - 1] = True
    return vocabulary, ids, line_ends


def _count_ngrams(ids: np.ndarray, line_ends: np.ndarray, v: int, order: int
                  ) -> tuple[np.ndarray, ...]:
    """The model columns (see :class:`NGramModel`) of the corpus ids
    ``ids`` whose lines end where ``line_ends`` is set, over a vocabulary
    of ``v`` ids.

    Each n-gram length is counted with one ``argsort`` of integer keys: an
    n-gram's key is the rank of its (n-1)-gram prefix among the distinct
    (n-1)-grams times ``v``, plus its last id. The sorted keys give the
    distinct n-grams, their counts and each occurrence's rank, and a
    minimum over each run of equal keys gives where the n-gram first ends.
    Counting stops at the longest line, past which no n-gram exists.
    """
    ends = np.arange(len(ids))  # where each n-gram ends, ascending
    keys = ids.astype(np.int64)  # the 1-grams have no prefix
    lengths, context_tokens, sizes, tokens, counts = [], [], [], [], []
    for n in range(1, order + 1):
        grams, first, gram_ids, gram_counts = _distinct(keys, ends)
        del keys  # spent: the next length's are made from gram_ids
        # grams are in key order, so those sharing a context are adjacent
        new_context = np.diff(grams // v, prepend=-1) != 0
        context = np.cumsum(new_context) - 1
        context_first = np.minimum.reduceat(first, np.flatnonzero(new_context))
        by_first = np.argsort(context_first)
        rank = np.empty_like(by_first)
        rank[by_first] = np.arange(len(by_first))
        rows = rank[context]
        by_row = np.argsort(rows * len(ids) + first)  # the firsts are distinct: no ties
        lengths.append(np.full(len(by_first), n - 1))
        context_tokens.append(ids[context_first[by_first, None] + np.arange(1 - n, 0)].ravel())
        sizes.append(np.bincount(rows, minlength=len(by_first)))
        tokens.append(grams[by_row] % v)
        counts.append(gram_counts[by_row])
        # the (n+1)-grams: every n-gram that a token of its line follows
        more = ~line_ends[ends]
        if n == order or not more.any():  # none is counted, or no line is longer
            break
        ends = ends[more] + 1
        keys = gram_ids[more] * v
        keys += ids[ends]
        del gram_ids  # before the next sort makes the next ones
    return (np.concatenate(lengths), np.concatenate(context_tokens),
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


def _sampling_tables(vocab: Sequence[str], emotion: str) -> _Tables:
    """The vocabulary's parsed tokens, the tempo-admissible vector, and for
    each structural state (before and after the first ``new_measure``) the
    tokens both tempo-admissible and structurally valid, as read-only
    vocabulary-sized arrays.

    They depend on nothing else, so every sample of a ``generate`` run
    shares them (see :func:`_masked_columns`).
    """
    tokens = tuple(token(r) for r in vocab)
    tempo_admissible = SamplingConstraints(emotion=emotion).tempo_admissible
    admissible = np.array([t.fields.get("key") != "tempo" or tempo_admissible(t.fields["value"])
                           for t in tokens], dtype=float)
    masks = (
        admissible * [t.category not in _PRE_MEASURE_BLOCKED for t in tokens],
        admissible * [t.category is not TokenCategory.SONG_CONTROL
                      and t.fields.get("key") not in ("start", "artist") for t in tokens],
    )
    mask_ids = tuple(np.flatnonzero(mask) for mask in masks)
    ranks = tuple(np.where(mask, np.cumsum(mask, dtype=np.int64) - 1, len(vocab))
                  for mask in masks)
    ranks = tuple(rank.astype(_narrowest(rank)) for rank in ranks)
    for table in (admissible, *masks, *mask_ids, *ranks):
        table.setflags(write=False)
    return _Tables(tokens, admissible, int(np.count_nonzero(admissible)), masks, mask_ids, ranks)


class _Columns(NamedTuple):
    """A model's rows under one structural state's mask, entry by entry."""
    weights: np.ndarray    # float64: each entry's probability, 0 where the state masks its id
    positions: np.ndarray  # each entry's id's position among the admitted ids (see _Tables),
                           # in the narrowest of DTYPES
    listed: array          # array('q'): for each row, how many admitted ids it lists


def _masked_columns(model: NGramModel, emotion: str) -> tuple[_Tables, tuple[_Columns, ...]]:
    """The sampling tables for ``emotion`` and the model's rows under each
    structural state's mask, built by the first sample that asks and held
    by the model, so that they go with it."""
    cached = model._sampling.get(emotion)
    if cached is None:
        tables = _sampling_tables(model.vocabulary, emotion)
        cached = model._sampling[emotion] = tables, tuple(
            _state_columns(model, mask, ranks) for mask, ranks in zip(tables.masks, tables.ranks))
    return cached


def _state_columns(model: NGramModel, mask: np.ndarray, ranks: np.ndarray) -> _Columns:
    keep = mask[model.tokens]
    # every row lists at least one entry, so each reduceat sum is one row's
    listed = np.add.reduceat(keep != 0, model.row_ptr[:-1], dtype=np.int64)
    columns = _Columns(model._index.seen * keep, ranks[model.tokens], _packed("q", listed))
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
        if top > 0.0:  # else nothing weighs anything: the structural dead end
            powers = (weights / top) ** inverse_temperature
            rest_power = (rest / top) ** inverse_temperature
    return indices, powers, rest_power, unlisted


def _choose(masked: Masked, ids: np.ndarray, positions: np.ndarray, u: float) -> int | None:
    """The id that ``u``, uniform in [0, 1), picks: the listed ids come
    first, in row order, then the unlisted ones of ``ids`` in ascending
    order (``positions`` as for :func:`_nth_unlisted`). None if nothing
    weighs anything, which the sums show without a pass of its own."""
    indices, weights, rest, unlisted = masked
    # the sums np.add.accumulate gives, without its cost on a short row
    cumulative = list(accumulate(weights.tolist()))
    listed = cumulative[-1] if cumulative else 0.0
    total = listed + rest * unlisted
    if total <= 0.0:  # no weight is negative, so no weight is positive either
        return None
    u *= total
    if u < listed:
        return int(indices[bisect_right(cumulative, u)])
    # rounding may carry u to the very end of the unlisted mass
    return _nth_unlisted(ids, positions, min(int((u - listed) / rest), unlisted - 1))


def _argmax(masked: Masked, ids: np.ndarray, positions: np.ndarray) -> int | None:
    """The lowest id of the largest weight, as ``np.argmax`` picks from the
    dense vector; the first unlisted id stands for all the unlisted ones.
    None if nothing weighs anything."""
    indices, weights, rest, unlisted = masked
    top = weights.max(initial=0.0)
    choice = int(indices[weights == top].min()) if top > 0.0 else None
    if unlisted and rest > 0.0 and rest >= top:
        first = _nth_unlisted(ids, positions, 0)
        choice = first if choice is None or rest > top else min(choice, first)
    return choice


def check_prompt(model: NGramModel, prompt: Sequence[Token]) -> None:
    """Raise ``ValueError`` naming the first prompt token that is not in
    the model's vocabulary."""
    for t in prompt:
        if t.raw not in model.index:
            raise ValueError(f"prompt token {t.raw!r} not in model vocabulary")


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
    tables, columns = _masked_columns(model, constraints.emotion)
    check_prompt(model, prompt)
    stream = list(prompt)
    history = [model.index[t.raw] for t in prompt]  # the ids of ``stream``
    bars = sum(1 for t in prompt if t.category is TokenCategory.STRUCTURE)
    ids, state = tables.mask_ids[bars > 0], columns[bars > 0]  # by structural state
    temperature, max_tokens = constraints.temperature, constraints.max_tokens
    # the numbers of rng.random() called once a step, drawn 256 at a time
    rng = np.random.default_rng(constraints.rng_seed)
    uniforms = chain.from_iterable(rng.random(min(n, 256)).tolist()
                                   for n in range(max_tokens - len(history), 0, -256))
    index, tokens = model._index, model.tokens
    bounds, unseen, probs = index.bounds, index.unseen, index.seen
    admissible, admissible_count = tables.admissible, tables.admissible_count

    while len(history) < max_tokens:
        row = index.row(history)
        start, stop = bounds[row], bounds[row + 1]
        rest, unlisted = unseen[row], len(ids) - state.listed[row]
        # only a row without unlisted mass or with every admissible id can
        # carry all its mass on inadmissible tempi
        if rest <= 0.0 or stop - start >= admissible_count:
            mask_tempo((tokens[start:stop], probs[start:stop], rest), admissible, admissible_count)
        masked = (tokens[start:stop], state.weights[start:stop], rest, unlisted)
        if temperature < 1e-6:
            choice = _argmax(masked, ids, state.positions[start:stop])
        else:
            if temperature != 1.0:
                masked = _sharpen(masked, 1.0 / temperature)
            choice = _choose(masked, ids, state.positions[start:stop], next(uniforms))
        if choice is None:
            break  # the structural dead end
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
DTYPES = ("<u2", "<i4", "<i8")  # the narrowest that holds every value is written and held


def _narrowest(column: np.ndarray) -> str:
    """The first of :data:`DTYPES` that holds every value of ``column``."""
    low, high = int(column.min(initial=0)), int(column.max(initial=0))
    if 0 <= low and high < 2 ** 16:
        return DTYPES[0]
    return DTYPES[1] if -2 ** 31 <= low and high < 2 ** 31 else DTYPES[2]


def _packed(typecode: str, values: np.ndarray) -> array:
    """``values`` as an ``array.array`` of ``typecode`` (``q`` or ``d``):
    its items index as Python numbers, as a list's do, but are stored
    unboxed."""
    packed = array(typecode)
    packed.frombytes(np.ascontiguousarray(values, typecode).view(np.uint8))
    return packed


def _encode(column: np.ndarray) -> dict[str, str]:
    dtype = _narrowest(column)
    # level 1: a third of the version-2 size, written twice as fast as at level 6
    data = zlib.compress(column.astype(dtype, copy=False).tobytes(), 1)
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
