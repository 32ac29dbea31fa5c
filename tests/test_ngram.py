"""The n-gram model against the code it replaced: the nested counting
loop, the document built from those counts and the per-token ``Counter``
loop of ``next_token_distribution``, whose sparse rows are expanded to
vocabulary-length vectors here."""

import base64
import json
import tempfile
import tracemalloc
import zlib
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from looptab import generate
from looptab.generate import (
    COLUMNS,
    CONTROL_VOCAB,
    MODEL_FORMAT,
    MODEL_VERSION,
    load_model,
    save_model,
    train_generator,
)

from util import dense

# few symbols so that contexts repeat; one needs escaping, one is not ASCII
SYMBOLS = ["a", "b", "c", "new_measure", "wait:480", "end", "tempo:160", 'q"x', "für"]

corpora = st.lists(st.lists(st.sampled_from(SYMBOLS), min_size=1, max_size=14).map(" ".join),
                   min_size=1, max_size=6)
orders = st.integers(2, 5)
contexts = st.lists(st.sampled_from(SYMBOLS + ["unseen"]), max_size=6)
alphas = st.sampled_from([0.01, 0.5, 1, 3e-4])


def oracle_counts(corpus_lines, order):
    counts = {}
    for line in corpus_lines:
        seq = line.split()
        if not seq:
            continue
        if seq[-1] != "end":
            seq = seq + ["end"]
        for t in range(len(seq)):
            for clen in range(min(order - 1, t) + 1):
                ctx = tuple(seq[t - clen:t])
                counts.setdefault(ctx, Counter())[seq[t]] += 1
    return counts


def oracle_columns(model, counts):
    """Contexts by length, then first occurrence; ids index the vocabulary."""
    index = {t: i for i, t in enumerate(model.vocabulary)}
    rows = sorted(counts.items(), key=lambda item: len(item[0]))  # stable
    row_ptr = [0]
    for _, counter in rows:
        row_ptr.append(row_ptr[-1] + len(counter))
    return {
        "context_lengths": [len(ctx) for ctx, _ in rows],
        "context_tokens": [index[t] for ctx, _ in rows for t in ctx],
        "row_ptr": row_ptr,
        "tokens": [index[t] for _, counter in rows for t in counter],
        "counts": [n for _, counter in rows for n in counter.values()],
    }


def encoded(values):
    """A column as the format specifies it: ``<u2`` where every value is
    below 65,536, the bytes deflated at level 1, then base64-encoded."""
    dtype = "<u2" if max(values, default=0) < 2 ** 16 else "<i4"
    data = zlib.compress(np.array(values, dtype=dtype).tobytes(), 1)
    return {"dtype": dtype, "data": base64.b64encode(data).decode("ascii")}


def oracle_document(model, counts):
    columns = oracle_columns(model, counts)
    return json.dumps({
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "order": model.order,
        "alpha": model.alpha,
        "vocabulary": model.vocabulary,
        **{name: encoded(columns[name]) for name in COLUMNS},
    }, separators=(",", ":"))


def model_counts(model):
    """The model's columns as ``{context: {token: count}}``."""
    vocab = model.vocabulary
    ids = iter(model.context_tokens.tolist())
    counts = {}
    for r, n in enumerate(model.context_lengths.tolist()):
        ctx = tuple(vocab[next(ids)] for _ in range(n))
        span = slice(model.row_ptr[r], model.row_ptr[r + 1])
        counts[ctx] = {vocab[t]: int(c)
                       for t, c in zip(model.tokens[span], model.counts[span])}
    return counts


def oracle_distribution(model, counts, context):
    index = {t: i for i, t in enumerate(model.vocabulary)}
    v = len(model.vocabulary)
    ctx = tuple(context[-(model.order - 1):])
    while ctx and ctx not in counts:
        ctx = ctx[1:]
    counter = counts.get(ctx, Counter())
    total = sum(counter.values())
    probs = np.full(v, model.alpha, dtype=float)
    for tok, n in counter.items():
        probs[index[tok]] += n
    probs /= total + model.alpha * v
    return probs


def saved_bytes(model) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_model(model, path)
        return path.read_bytes()


@given(corpora, orders)
def test_counts_equal_the_nested_loop_in_token_order(lines, order):
    model = train_generator(lines, order=order)
    expected = oracle_counts(lines, order)
    counts = model_counts(model)
    assert counts.keys() == expected.keys()
    for ctx, counter in expected.items():
        assert list(counts[ctx].items()) == list(counter.items()), ctx
    for name in COLUMNS:
        assert not getattr(model, name).flags.writeable, name
    assert model.vocabulary == sorted(set(CONTROL_VOCAB) | {"end"}
                                      | {t for line in lines for t in line.split()})


@given(corpora, orders, alphas)
def test_saved_bytes_equal_the_whole_document_dump(lines, order, alpha):
    model = train_generator(lines, order=order, alpha=alpha)
    assert saved_bytes(model) == oracle_document(model, oracle_counts(lines, order)).encode()


@given(corpora, orders)
def test_decoded_columns_equal_the_nested_loop(lines, order):
    model = train_generator(lines, order=order)
    doc = json.loads(saved_bytes(model))
    assert doc["version"] == MODEL_VERSION == 3
    assert doc["vocabulary"] == model.vocabulary
    for name, expected in oracle_columns(model, oracle_counts(lines, order)).items():
        column = doc[name]
        assert set(column) == {"dtype", "data"} and column["dtype"] == "<u2", name
        values = np.frombuffer(zlib.decompress(base64.b64decode(column["data"])), "<u2")
        assert values.tolist() == expected, name


@given(corpora, orders)
def test_load_then_save_round_trips_byte_identically(lines, order):
    model = train_generator(lines, order=order)
    first = saved_bytes(model)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        path.write_bytes(first)
        loaded = load_model(path)
    assert saved_bytes(loaded) == first


@given(corpora, orders, alphas, st.lists(contexts, min_size=1, max_size=8))
def test_distribution_is_bit_equal_to_the_counter_loop(lines, order, alpha, queries):
    model = train_generator(lines, order=order, alpha=alpha)
    counts = oracle_counts(lines, order)
    for context in queries + queries:  # the second pass must not differ
        ids = [model.index.get(t, -1) for t in context]  # "unseen" is -1
        vector = dense(model.next_token_distribution(ids), len(model.vocabulary))
        np.testing.assert_allclose(vector, oracle_distribution(model, counts, context),
                                   rtol=0, atol=0)


def list_ids(corpus_lines):
    """The vocabulary, the corpus ids and where each line ends, as
    ``train_generator`` found them from a list of every token string: each
    line split, ``end`` appended where it was missing, then all joined."""
    sequences = [line.split() for line in corpus_lines if line.strip()]
    if not sequences:
        raise ValueError("empty corpus")
    for seq in sequences:
        if seq[-1] != "end":
            seq.append("end")
    words = [t for seq in sequences for t in seq]
    vocabulary = sorted(set(words).union(CONTROL_VOCAB, ("end",)))
    index = {t: i for i, t in enumerate(vocabulary)}
    ids = np.array([index[t] for t in words], np.int64)
    line_ends = np.zeros(len(ids), dtype=bool)
    line_ends[np.cumsum([len(seq) for seq in sequences]) - 1] = True
    return vocabulary, ids, line_ends


def list_train_generator(corpus_lines, order=4, alpha=0.01):
    """``train_generator`` as it was when it kept a string per token: the
    ids of :func:`list_ids`, counted one n-gram length at a time with one
    sort of integer keys, as ``generate._distinct`` then did it."""
    vocabulary, ids, line_ends = list_ids(corpus_lines)
    v = len(vocabulary)

    def distinct(keys, ends):
        by_key = keys.argsort()
        keys = keys[by_key]
        head = np.empty(len(keys), bool)
        head[0] = True
        np.not_equal(keys[1:], keys[:-1], out=head[1:])
        starts = np.flatnonzero(head)
        ranks = np.empty_like(by_key)
        ranks[by_key] = np.cumsum(head) - 1
        return (keys[starts], np.minimum.reduceat(ends[by_key], starts), ranks,
                np.diff(starts, append=len(keys)))

    ends = np.arange(len(ids))
    prefixes = np.zeros(len(ids), np.int64)
    lengths, context_tokens, sizes, tokens, counts = [], [], [], [], []
    for n in range(1, order + 1):
        grams, first, gram_ids, gram_counts = distinct(prefixes * v + ids[ends], ends)
        new_context = np.diff(grams // v, prepend=-1) != 0
        context = np.cumsum(new_context) - 1
        context_first = np.minimum.reduceat(first, np.flatnonzero(new_context))
        by_first = np.argsort(context_first)
        rank = np.empty_like(by_first)
        rank[by_first] = np.arange(len(by_first))
        rows = rank[context]
        by_row = np.argsort(rows * len(ids) + first)
        lengths.append(np.full(len(by_first), n - 1))
        context_tokens.append(ids[context_first[by_first, None] + np.arange(1 - n, 0)].ravel())
        sizes.append(np.bincount(rows, minlength=len(by_first)))
        tokens.append(grams[by_row] % v)
        counts.append(gram_counts[by_row])
        more = ~line_ends[ends]
        if not more.any():
            break
        ends, prefixes = ends[more] + 1, gram_ids[more]
    return generate.NGramModel(order, alpha, vocabulary, np.concatenate(lengths),
                               np.concatenate(context_tokens),
                               np.concatenate(([0], np.cumsum(np.concatenate(sizes)))),
                               np.concatenate(tokens), np.concatenate(counts))


def unique_columns(corpus_lines, order):
    """The columns as ``train_generator`` counted them with one stable
    ``np.unique(..., return_index=True)`` per n-gram length and a
    ``lexsort`` of each length's rows."""
    vocabulary, ids, line_ends = list_ids(corpus_lines)
    v = len(vocabulary)
    ends = np.arange(len(ids))
    prefixes = np.zeros(len(ids), np.int64)
    lengths, context_tokens, sizes, tokens, counts = [], [], [], [], []
    for n in range(1, order + 1):
        grams, first, gram_ids, gram_counts = np.unique(
            prefixes * v + ids[ends], return_index=True, return_inverse=True, return_counts=True)
        first = ends[first]
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
        more = ~line_ends[ends]
        ends, prefixes = ends[more] + 1, gram_ids[more]
    return dict(zip(COLUMNS, (
        np.concatenate(lengths), np.concatenate(context_tokens),
        np.concatenate(([0], np.cumsum(np.concatenate(sizes)))),
        np.concatenate(tokens), np.concatenate(counts))))


# two symbols on long lines: many repeated n-grams, many tied counts
repetitive = st.lists(st.lists(st.sampled_from(["a", "b"]), min_size=1, max_size=40)
                      .map(" ".join), min_size=1, max_size=12)


@given(st.one_of(corpora, repetitive), st.integers(2, 45))
def test_columns_equal_the_unique_and_lexsort_counting(lines, order):
    model = train_generator(lines, order=order)
    for name, expected in unique_columns(lines, order).items():
        np.testing.assert_array_equal(getattr(model, name), expected, err_msg=name)


# the lines whose end handling the ids are inserted for: blank lines, lines
# that end in end, a line of end alone, end in mid-line, one-token lines
END_CASES = {
    "blank_lines": ["", "a b", "   ", "\t", "b a c", ""],
    "ended_lines": ["a b end", "b end", "c a b"],
    "end_alone": ["end", "a b", "end"],
    "end_mid_line": ["a end b", "end a end", "b end end c"],
    "one_token_lines": ["a", "end", "b", "c"],
    "every_case": ["", "a", "end", "a end b", "b c end", " ", "end end", "c"],
}


@pytest.mark.parametrize("name", sorted(END_CASES))
@pytest.mark.parametrize("order", [2, 3, 5])
def test_end_handling_equals_the_list_based_training(name, order):
    model = train_generator(END_CASES[name], order=order)
    expected = list_train_generator(END_CASES[name], order=order)
    assert model.vocabulary == expected.vocabulary
    for column in COLUMNS:
        np.testing.assert_array_equal(getattr(model, column), getattr(expected, column),
                                      err_msg=column)


# lines with blank ones among them and end anywhere, often last
lines_with_ends = st.lists(
    st.lists(st.sampled_from(["a", "b", "end", "end", "wait:480"]), max_size=8)
    .map(" ".join) | st.sampled_from(["", " ", "end"]), min_size=1, max_size=8)


@given(lines_with_ends, orders)
def test_columns_equal_the_list_based_training(lines, order):
    if not any(line.strip() for line in lines):
        with pytest.raises(ValueError, match="empty corpus"):
            train_generator(lines, order=order)
        return
    model = train_generator(lines, order=order)
    expected = list_train_generator(lines, order=order)
    assert model.vocabulary == expected.vocabulary
    assert saved_bytes(model) == saved_bytes(expected)


def test_training_takes_the_lines_as_an_iterator():
    lines = ["a b", "", "b end c"]
    model = train_generator(iter(lines), order=3)
    assert saved_bytes(model) == saved_bytes(list_train_generator(lines, order=3))


def test_training_holds_no_string_per_token():
    # 200k tokens of 400 distinct DadaGP-like strings, on lines that repeat
    # few n-grams: the token arrays, not the model, set the peak. A list of
    # every token string cost 12 x 8 bytes a token; the id arrays cost 6.
    vocab = [f"distorted0:note:s{1 + i % 6}:f{i // 6}" for i in range(400)]
    lines = [" ".join(vocab[(k * 7 + j * (1 + k % 3)) % 400] for j in range(100))
             for k in range(2000)]
    tracemalloc.start()
    try:
        model = train_generator(lines)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(model.vocabulary) == 400 + len(CONTROL_VOCAB) + 1
    assert peak < 8 * 8 * 200_000


class CountingNumpy:
    """numpy, counting each attribute looked up on it."""

    def __init__(self):
        self.lookups = Counter()

    def __getattr__(self, name):
        self.lookups[name] += 1
        return getattr(np, name)


def test_model_building_stops_at_the_longest_ngram(monkeypatch):
    # at order 400 the counting loop and the context tree's level loop each
    # went round 400 times, over empty arrays past the longest line
    lines = ["a b a b c", "b a"]  # six ids with the end: no n-gram is longer
    spy = CountingNumpy()
    monkeypatch.setattr(generate, "np", spy)
    work, columns = {}, {}
    for order in (6, 7, 400):
        spy.lookups.clear()
        model = train_generator(lines, order=order)
        work[order] = dict(spy.lookups)
        columns[order] = [getattr(model, name).tolist() for name in COLUMNS]
        spy.lookups.clear()
        generate.NGramModel(order, model.alpha, model.vocabulary, *columns[order])
        work[order, "load"] = dict(spy.lookups)
    assert work[6] == work[7] == work[400]
    assert work[6, "load"] == work[7, "load"] == work[400, "load"]
    assert columns[6] == columns[7] == columns[400]
