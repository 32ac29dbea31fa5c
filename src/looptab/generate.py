"""Emotion prompts and constrained sampling from a pluggable generator.

The built-in reference generator is a backoff add-alpha n-gram over corpus
token lines. Sampling has one path: at every step, tempo tokens
incompatible with the target emotion are masked and the distribution
renormalized (happy requires tempo >= 150 BPM, sad requires tempo <= 100
BPM; the 100..150 gap is never emitted under either emotion), then the
structurally invalid tokens are masked and one token is drawn. The masks
and the parsed vocabulary depend only on the vocabulary, the emotion and
the tempo bounds, so all samples of a ``generate`` run share them.

The n-gram counts are plain dicts, ``context tuple -> {token: count}``,
with the continuations of a context in order of first occurrence; the
first lookup that backs off to a context caches its continuations as an
index array and their probabilities. The
model file format (``looptab-ngram`` version 1) is unchanged: contexts in
sorted order, each with its continuations in that order. External
generators plug in over a line-delimited JSON stdio protocol.
"""

from __future__ import annotations

import contextlib
import json
import math
import subprocess
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Protocol, Sequence

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


class GeneratorModel(Protocol):
    vocabulary: list[str]

    def next_token_distribution(self, context: Sequence[str]) -> np.ndarray: ...


class NGramModel:
    """Backoff add-alpha n-gram: the longest seen context suffix up to
    order k-1 supplies counts; add-alpha smoothing keeps every vocabulary
    token's probability positive.

    ``counts`` maps a context tuple to ``{token: count}``. The first lookup
    that backs off to a context turns its counts into an index array and
    the matching probabilities, kept for every later lookup, so ``counts``
    must not change once sampled from.
    """

    def __init__(self, order: int, alpha: float, vocabulary: list[str],
                 counts: dict[tuple[str, ...], dict[str, int]]):
        if order < 2:
            raise ValueError("order must be >= 2")
        if alpha <= 0:
            raise ValueError("alpha must be > 0")
        self.order = order
        self.alpha = alpha
        self.vocabulary = list(vocabulary)
        self.index = {t: i for i, t in enumerate(self.vocabulary)}
        self.counts = counts
        self._tables: dict[tuple[str, ...], tuple[np.ndarray, np.ndarray, float]] = {}

    def _table(self, ctx: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray, float]:
        """(indices of the continuations of ``ctx``, their probabilities,
        the probability of every other token).

        ``(alpha + n) / denominator`` and ``alpha / denominator`` are the
        very floats that filling with alpha, adding the counts and dividing
        would give.
        """
        counter = self.counts.get(ctx, {})
        denominator = sum(counter.values()) + self.alpha * len(self.vocabulary)
        indices = np.fromiter(map(self.index.__getitem__, counter), dtype=np.intp,
                              count=len(counter))
        counts = np.fromiter(counter.values(), dtype=float, count=len(counter))
        return indices, (self.alpha + counts) / denominator, self.alpha / denominator

    def next_token_distribution(self, context: Sequence[str]) -> np.ndarray:
        ctx = tuple(context[-(self.order - 1):])
        while ctx and ctx not in self.counts:
            ctx = ctx[1:]
        table = self._tables.get(ctx)
        if table is None:
            table = self._tables[ctx] = self._table(ctx)
        indices, seen, unseen = table
        probs = np.full(len(self.vocabulary), unseen)
        probs[indices] = seen
        return probs


def train_generator(corpus_lines: Sequence[str], order: int = 4, alpha: float = 0.01) -> NGramModel:
    """Count-based estimation over corpus token lines.

    Every line is terminated with ``end`` before counting; the vocabulary
    is the corpus tokens plus all control tokens and ``end``. Each n-gram
    length is counted in one pass over every line; the continuations of a
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
    counts: dict[tuple[str, ...], dict[str, int]] = {}
    for counter in grams:
        for gram, n in counter.items():
            counts.setdefault(gram[:-1], {})[gram[-1]] = n
    return NGramModel(order, alpha, sorted(vocab), counts)


def mask_tempo(distribution: np.ndarray, admissible: np.ndarray) -> np.ndarray:
    """Zero the tokens outside the boolean ``admissible`` vector (the
    inadmissible tempi) and renormalize.

    Relative probabilities of the remaining tokens are untouched. If the
    entire mass sat on inadmissible tempi, sampling cannot continue.
    """
    masked = np.where(admissible, distribution, 0.0)
    total = masked.sum()
    if total <= 0.0:
        raise SamplingError("the model puts all its mass on inadmissible tempi")
    return masked / total


_PRE_MEASURE_BLOCKED = (TokenCategory.NOTE, TokenCategory.WAIT,
                        TokenCategory.EFFECT, TokenCategory.BAR_CONTROL)


@lru_cache(maxsize=8)
def _sampling_tables(vocab: tuple[str, ...], emotion: str, tempo_upper: int, tempo_lower: int):
    """The vocabulary's parsed tokens, the tempo-admissible vector and the
    two structural masks (before and after the first ``new_measure``).

    They depend on nothing else, so every sample of a ``generate`` run
    shares them.
    """
    tokens = tuple(token(r) for r in vocab)
    bounds = SamplingConstraints(emotion=emotion, tempo_upper=tempo_upper,
                                 tempo_lower=tempo_lower)
    admissible = np.array([t.fields.get("key") != "tempo"
                           or bounds.tempo_admissible(t.fields["value"])
                           for t in tokens], dtype=bool)
    structural = (  # indexed by seen_measure
        np.array([t.category not in _PRE_MEASURE_BLOCKED for t in tokens], dtype=bool),
        np.array([t.category is not TokenCategory.SONG_CONTROL
                  and t.fields.get("key") not in ("start", "artist")
                  for t in tokens], dtype=bool),
    )
    for mask in (admissible, *structural):
        mask.setflags(write=False)
    return tokens, frozenset(vocab), admissible, structural


def sample_sequence(model: GeneratorModel, prompt: Sequence[Token],
                    constraints: SamplingConstraints) -> list[Token]:
    """Autoregressive sampling seeded by the prompt.

    Deterministic for a fixed ``rng_seed``; stops at ``end`` or at the
    token/bar budget. The output always starts with the prompt tokens and
    never carries a tempo violating the emotion constraint. Each step
    renormalizes the model's distribution over the admissible tempi, then
    over the structurally valid tokens (no events before the first bar, no
    song-level tokens after it), and draws once.
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

    while len(out) < constraints.max_tokens:
        probs = np.asarray(model.next_token_distribution(out), dtype=float)
        probs = mask_tempo(probs, admissible)
        probs = np.where(structural[seen_measure], probs, 0.0)
        total = probs.sum()
        if total <= 0.0:
            break
        probs = probs / total

        if constraints.temperature < 1e-6:
            choice = int(np.argmax(probs))
        else:
            if constraints.temperature != 1.0:
                probs = probs ** (1.0 / constraints.temperature)
                probs /= probs.sum()
            choice = int(rng.choice(len(vocab), p=probs))
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
MODEL_VERSION = 1
MODEL_KEYS = ("format", "version", "order", "alpha", "vocabulary", "counts")
SAVE_BATCH = 1024  # contexts per json.dumps call


def save_model(model: NGramModel, path) -> None:
    """Write the model document in sorted context order, a batch of
    contexts at a time, replacing ``path`` only once the whole document is
    written. The bytes equal ``json.dumps`` of the whole document."""
    head = json.dumps({
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "order": model.order,
        "alpha": model.alpha,
        "vocabulary": model.vocabulary,
    })
    contexts = sorted(model.counts)
    with atomic_open(path) as fh:
        fh.write(head[:-1] + ', "counts": [')
        for start in range(0, len(contexts), SAVE_BATCH):
            batch = [[ctx, model.counts[ctx]] for ctx in contexts[start:start + SAVE_BATCH]]
            fh.write((", " if start else "") + json.dumps(batch)[1:-1])
        fh.write("]}")


def load_model(path) -> NGramModel:
    """Read a model document, raising ``ValueError`` naming ``path`` if it
    is not a well-formed looptab n-gram model."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise ValueError(f"{path}: not a looptab n-gram model file")
    missing = [key for key in MODEL_KEYS if key not in doc]
    if missing:
        raise ValueError(f"{path}: model document lacks {', '.join(missing)}")
    if doc["version"] != MODEL_VERSION:
        raise ValueError(f"{path}: model version {doc['version']!r} is not {MODEL_VERSION}")
    order, alpha, vocab = doc["order"], doc["alpha"], doc["vocabulary"]
    if type(order) is not int or type(alpha) not in (int, float) or not math.isfinite(alpha):
        raise ValueError(f"{path}: order must be an integer and alpha a number")
    if (not isinstance(vocab, list) or not set(map(type, vocab)) <= {str}
            or len(set(vocab)) != len(vocab)):
        raise ValueError(f"{path}: vocabulary must be a list of distinct strings")
    counts, used, shapes, value_types = {}, set(), set(), set()
    try:
        if not isinstance(doc["counts"], list):
            raise TypeError
        for ctx, continuations in doc["counts"]:
            shapes.add((type(ctx), type(continuations)))
            counts[tuple(ctx)] = continuations
            used.update(ctx)
            used.update(continuations)
            value_types.update(map(type, continuations.values()))
            if min(continuations.values()) < 1:
                raise ValueError
        well_formed = shapes <= {(list, dict)} and value_types <= {int}
    except (TypeError, ValueError, AttributeError):
        well_formed = False
    if not well_formed:
        raise ValueError(f"{path}: counts must be a list of [context, {{token: positive int}}] pairs")
    unknown = used - set(vocab)
    if unknown:
        raise ValueError(f"{path}: counts name tokens outside the vocabulary: "
                         f"{', '.join(map(repr, sorted(unknown, key=str)[:5]))}")
    try:
        return NGramModel(order, alpha, vocab, counts)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


class ExternalGenerator:
    """Generator subprocess speaking line-delimited JSON over stdio.

    On startup the child prints ``{"vocab": [...]}``; each request line
    ``{"context": [...]}`` is answered with ``{"probs": {token: p}}``.
    """

    def __init__(self, command: Sequence[str]):
        self._proc = subprocess.Popen(
            list(command), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            handshake = self._read()
            vocab = handshake.get("vocab") if isinstance(handshake, dict) else None
            if (not isinstance(vocab, list) or not set(map(type, vocab)) <= {str}
                    or len(set(vocab)) != len(vocab)):
                raise SamplingError("external generator handshake has no vocab list "
                                    "of distinct strings")
        except SamplingError:
            self._proc.kill()
            self.close()
            raise
        self.vocabulary = vocab
        self.index = {t: i for i, t in enumerate(self.vocabulary)}

    def _read(self):
        line = self._proc.stdout.readline()
        if not line:
            raise SamplingError("external generator closed its output")
        try:
            return json.loads(line)
        except json.JSONDecodeError as exc:
            raise SamplingError(f"external generator reply is not JSON: {exc}") from None

    def next_token_distribution(self, context: Sequence[str]) -> np.ndarray:
        """The child's reply as a vector over the vocabulary; a reply that
        is missing, names a token outside the vocabulary, or carries a
        negative or non-finite probability raises ``SamplingError``."""
        try:
            self._proc.stdin.write(json.dumps({"context": list(context)}) + "\n")
            self._proc.stdin.flush()
        except BrokenPipeError:
            raise SamplingError("external generator exited") from None
        reply = self._read()
        given = reply.get("probs") if isinstance(reply, dict) else None
        if not isinstance(given, dict):
            raise SamplingError("external generator reply has no probs object")
        unknown = given.keys() - self.index.keys()
        if unknown:
            raise SamplingError("external generator reply names tokens outside its vocabulary: "
                                + ", ".join(map(repr, sorted(unknown)[:5])))
        if not set(map(type, given.values())) <= {int, float}:
            raise SamplingError("external generator probabilities must be numbers")
        values = np.fromiter(given.values(), dtype=float, count=len(given))
        if not np.all(np.isfinite(values) & (values >= 0.0)):
            raise SamplingError("external generator probabilities must be finite and >= 0")
        probs = np.zeros(len(self.vocabulary), dtype=float)
        probs[[self.index[tok] for tok in given]] = values
        return probs

    def close(self) -> None:
        """Close both pipes and wait for the child to exit."""
        with contextlib.suppress(BrokenPipeError):  # unsent bytes to a child that exited
            self._proc.stdin.close()
        self._proc.stdout.close()
        self._proc.wait(timeout=5)
