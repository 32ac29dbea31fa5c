"""The n-gram model against the code it replaced: the nested counting
loop, ``json.dumps`` of the whole document and the per-token ``Counter``
loop of ``next_token_distribution``."""

import json
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from looptab import generate
from looptab.generate import (
    CONTROL_VOCAB,
    MODEL_FORMAT,
    MODEL_VERSION,
    load_model,
    save_model,
    train_generator,
)

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


def oracle_document(model, counts):
    return json.dumps({
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "order": model.order,
        "alpha": model.alpha,
        "vocabulary": model.vocabulary,
        "counts": [[list(ctx), dict(counter)] for ctx, counter in sorted(counts.items())],
    })


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
    assert model.counts.keys() == expected.keys()
    for ctx, counter in expected.items():
        assert list(model.counts[ctx].items()) == list(counter.items()), ctx
    assert model.vocabulary == sorted(set(CONTROL_VOCAB) | {"end"}
                                      | {t for line in lines for t in line.split()})


@given(corpora, orders, alphas)
def test_saved_bytes_equal_the_whole_document_dump(lines, order, alpha):
    model = train_generator(lines, order=order, alpha=alpha)
    assert saved_bytes(model) == oracle_document(model, oracle_counts(lines, order)).encode()


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
    for context in queries + queries:  # the second pass reads the cached tables
        np.testing.assert_allclose(model.next_token_distribution(context),
                                   oracle_distribution(model, counts, context), rtol=0, atol=0)


@pytest.mark.parametrize("batch", [1, 7, generate.SAVE_BATCH])
def test_saved_bytes_are_independent_of_the_batch_size(monkeypatch, batch):
    rng = np.random.default_rng(5)
    lines = [" ".join(rng.choice(SYMBOLS, size=int(rng.integers(1, 30)))) for _ in range(40)]
    model = train_generator(lines, order=4)
    assert len(model.counts) > 7 * 3
    monkeypatch.setattr(generate, "SAVE_BATCH", batch)
    assert saved_bytes(model) == oracle_document(model, oracle_counts(lines, 4)).encode()
