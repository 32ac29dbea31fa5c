"""Emotion prompts and constrained sampling from a pluggable generator.

The built-in reference generator is a backoff add-alpha n-gram over corpus
token lines. Sampling has one path: at every step, tempo tokens
incompatible with the target emotion are masked and the distribution
renormalized (happy requires tempo >= 150 BPM, sad requires tempo <= 100
BPM; the 100..150 gap is never emitted under either emotion), then the
structurally invalid tokens are masked and one token is drawn. The masks
depend only on the vocabulary and the constraints, so each sample builds
them once. External generators plug in over a line-delimited JSON stdio
protocol.
"""

from __future__ import annotations

import json
import subprocess
from collections import Counter
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from .tokens import Token, TokenCategory, parse_tokens, token

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
    token's probability positive."""

    def __init__(self, order: int, alpha: float, vocabulary: list[str],
                 counts: dict[tuple[str, ...], Counter]):
        if order < 2:
            raise ValueError("order must be >= 2")
        if alpha <= 0:
            raise ValueError("alpha must be > 0")
        self.order = order
        self.alpha = alpha
        self.vocabulary = list(vocabulary)
        self.index = {t: i for i, t in enumerate(self.vocabulary)}
        self.counts = counts
        self._totals = {ctx: sum(c.values()) for ctx, c in counts.items()}

    def next_token_distribution(self, context: Sequence[str]) -> np.ndarray:
        v = len(self.vocabulary)
        ctx = tuple(context[-(self.order - 1):])
        while ctx and ctx not in self.counts:
            ctx = ctx[1:]
        counter = self.counts.get(ctx, Counter())
        total = self._totals.get(ctx, 0)
        probs = np.full(v, self.alpha, dtype=float)
        for tok, n in counter.items():
            probs[self.index[tok]] += n
        probs /= total + self.alpha * v
        return probs


def train_generator(corpus_lines: Sequence[str], order: int = 4, alpha: float = 0.01) -> NGramModel:
    """Count-based estimation over corpus token lines.

    Every line is terminated with ``end`` before counting; the vocabulary
    is the corpus tokens plus all control tokens and ``end``.
    """
    sequences = [line.split() for line in corpus_lines if line.strip()]
    if not sequences:
        raise ValueError("empty corpus")
    vocab = set(CONTROL_VOCAB) | {"end"}
    counts: dict[tuple[str, ...], Counter] = {}
    for seq in sequences:
        if seq[-1] != "end":
            seq = seq + ["end"]
        vocab.update(seq)
        for t in range(len(seq)):
            for clen in range(min(order - 1, t) + 1):
                ctx = tuple(seq[t - clen:t])
                counts.setdefault(ctx, Counter())[seq[t]] += 1
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
    vocab_tokens = [token(r) for r in vocab]
    vocab_set = set(vocab)
    for t in prompt:
        if t.raw not in vocab_set:
            raise ValueError(f"prompt token {t.raw!r} not in model vocabulary")
    admissible = np.array([t.fields.get("key") != "tempo"
                           or constraints.tempo_admissible(t.fields["value"])
                           for t in vocab_tokens], dtype=bool)
    structural = (  # indexed by seen_measure
        np.array([t.category not in _PRE_MEASURE_BLOCKED for t in vocab_tokens], dtype=bool),
        np.array([t.category is not TokenCategory.SONG_CONTROL
                  and t.fields.get("key") not in ("start", "artist")
                  for t in vocab_tokens], dtype=bool),
    )
    rng = np.random.default_rng(constraints.rng_seed)
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
        if raw == "end":
            break
        if raw == "new_measure":
            bars += 1
            seen_measure = True
            if bars >= constraints.max_bars:
                out.append("end")
                break
    return parse_tokens(" ".join(out))


# Model persistence: versioned JSON document.

MODEL_FORMAT = "looptab-ngram"
MODEL_VERSION = 1


def save_model(model: NGramModel, path) -> None:
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "order": model.order,
        "alpha": model.alpha,
        "vocabulary": model.vocabulary,
        "counts": [[list(ctx), dict(counter)] for ctx, counter in sorted(model.counts.items())],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def load_model(path) -> NGramModel:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format") != MODEL_FORMAT:
        raise ValueError("not a looptab n-gram model file")
    counts = {tuple(ctx): Counter(counter) for ctx, counter in doc["counts"]}
    return NGramModel(doc["order"], doc["alpha"], doc["vocabulary"], counts)


class ExternalGenerator:
    """Generator subprocess speaking line-delimited JSON over stdio.

    On startup the child prints ``{"vocab": [...]}``; each request line
    ``{"context": [...]}`` is answered with ``{"probs": {token: p}}``.
    """

    def __init__(self, command: Sequence[str]):
        self._proc = subprocess.Popen(
            list(command), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        handshake = json.loads(self._proc.stdout.readline())
        self.vocabulary = list(handshake["vocab"])
        self.index = {t: i for i, t in enumerate(self.vocabulary)}

    def next_token_distribution(self, context: Sequence[str]) -> np.ndarray:
        self._proc.stdin.write(json.dumps({"context": list(context)}) + "\n")
        self._proc.stdin.flush()
        reply = json.loads(self._proc.stdout.readline())
        probs = np.zeros(len(self.vocabulary), dtype=float)
        for tok, p in reply["probs"].items():
            probs[self.index[tok]] = p
        return probs

    def close(self) -> None:
        if self._proc.poll() is None:
            self._proc.stdin.close()
            self._proc.wait(timeout=5)
