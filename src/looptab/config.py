"""Shared pipeline configuration, read from a JSON document, and the
parameter dataclasses of every stage.

The sections are ``loop_params`` (:class:`LoopParams`, the loop
extraction thresholds, by default the published min repetition notes 4,
min repetition beats 2, loop bars 4..4), ``spiral_params``
(:class:`SpiralParams`, the spiral array geometry), ``generator`` (the
n-gram order, smoothing and sampling budget) and ``classifier``
(:class:`ClassifierConfig`, the emotion classifiers' fit). The stage
modules take these classes from here, so this module imports no stage
module, and no numpy: a subcommand that reads the config loads only the
stages it runs. The inference tempo rule (happy >= ``HAPPY_TEMPO_MIN``
BPM, sad <= ``SAD_TEMPO_MAX`` BPM) is fixed, not configured. A key that
no field reads is ignored with one warning naming the file and the dotted
key, so documents with fields that were later removed (such as
``paths``, ``seed`` or ``happy_tempo_min``) still load. A field of the
wrong JSON type, or out of its range, is a ``ValueError`` naming the
file and the dotted key.
"""

from __future__ import annotations

import dataclasses
import logging
import math
from dataclasses import dataclass
from pathlib import Path

from .atomic import read_json

CONFIG_FORMAT = "looptab-config"

log = logging.getLogger(__name__)

HAPPY_TEMPO_MIN = 150
SAD_TEMPO_MAX = 100
TRUNCATE_TOKENS = 768  # a classifier reads a stream's first this many tokens

DEFAULT_HEIGHT = math.sqrt(2.0 / 15.0)
DEFAULT_WEIGHTS = (0.536, 0.274, 0.190)


def is_finite_number(value) -> bool:
    """A JSON number (not a boolean) that is neither NaN nor infinite."""
    return type(value) in (int, float) and math.isfinite(value)


@dataclass(frozen=True)
class LoopParams:
    min_rep_notes: int = 4
    min_rep_beats: int = 2
    min_loop_bars: int = 4
    max_loop_bars: int = 4

    def __post_init__(self):
        for f in dataclasses.fields(self):
            if getattr(self, f.name) <= 0:
                raise ValueError(f"{f.name} must be positive")
        if self.min_loop_bars > self.max_loop_bars:
            raise ValueError("min_loop_bars must be <= max_loop_bars")


@dataclass(frozen=True)
class SpiralParams:
    radius: float = 1.0
    height: float = DEFAULT_HEIGHT
    chord_weights: tuple[float, float, float] = DEFAULT_WEIGHTS
    key_weights: tuple[float, float, float] = DEFAULT_WEIGHTS

    def __post_init__(self):
        for name in ("radius", "height"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("chord_weights", "key_weights"):
            triple = getattr(self, name)
            if any(w <= 0 for w in triple):
                raise ValueError(f"{name} must be positive")
            if abs(sum(triple) - 1.0) > 1e-9:
                raise ValueError(f"{name} must sum to 1")


@dataclass(frozen=True)
class ClassifierConfig:
    l2: float = 1e-4
    holdout_fraction: float = 0.2
    seed: int = 0
    truncate: int = TRUNCATE_TOKENS

    def __post_init__(self):
        if not (math.isfinite(self.l2) and self.l2 > 0):
            raise ValueError(f"l2 must be a finite number > 0, got {self.l2}")
        if not 0 <= self.holdout_fraction < 1:
            raise ValueError(f"holdout_fraction must be in [0, 1), got {self.holdout_fraction}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.truncate < 1:
            raise ValueError(f"truncate must be >= 1, got {self.truncate}")


@dataclass(frozen=True)
class GeneratorConfig:
    order: int = 4
    alpha: float = 0.01
    temperature: float = 1.0
    max_tokens: int = 4096
    max_bars: int = 64

    def __post_init__(self):
        if self.order < 2:
            raise ValueError(f"order must be >= 2, got {self.order}")
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be a finite number > 0, got {self.alpha}")
        if not (math.isfinite(self.temperature) and self.temperature >= 0):
            raise ValueError(f"temperature must be a finite number >= 0, got {self.temperature}")
        for name in ("max_tokens", "max_bars"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


@dataclass(frozen=True)
class PipelineConfig:
    loop_params: LoopParams = LoopParams()
    spiral_params: SpiralParams = SpiralParams()
    generator: GeneratorConfig = GeneratorConfig()
    classifier: ClassifierConfig = ClassifierConfig()


def _checked(name: str, value, default):
    """``value`` if it has the JSON type of ``default`` (a list for a tuple),
    else a ``ValueError`` naming the field."""
    if isinstance(default, int):
        ok, kind = type(value) is int, "an integer"
    elif isinstance(default, float):
        ok, kind = is_finite_number(value), "a finite number"
    else:
        ok = (isinstance(value, list) and len(value) == len(default)
              and all(map(is_finite_number, value)))
        kind = f"a list of {len(default)} finite numbers"
    if not ok:
        raise ValueError(f"{name} must be {kind}")
    return tuple(value) if isinstance(default, tuple) else value


def _build(cls, doc: dict, source: str, prefix: str = ""):
    """``cls`` from the fields that ``doc`` names, each type-checked;
    sections become their own dataclasses. Any other key is logged as
    ignored. A value that ``cls`` rejects is an error naming its dotted
    key: every check's message starts with the field's name."""
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in doc.items():
        name = prefix + key
        if key not in defaults:
            if name != "format":
                log.warning("%s: ignoring unknown config key %s", source, name)
        elif dataclasses.is_dataclass(defaults[key]):
            if not isinstance(value, dict):
                raise ValueError(f"{name} must be a JSON object")
            kwargs[key] = _build(type(defaults[key]), value, source, name + ".")
        else:
            kwargs[key] = _checked(name, value, defaults[key])
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ValueError(f"{prefix}{exc}") from None


def load_config(path: str | Path | None) -> PipelineConfig:
    """The config in ``path`` (the defaults for None); a file that is not
    a JSON looptab config raises ``ValueError`` naming it."""
    if path is None:
        return PipelineConfig()
    doc = read_json(path)
    try:
        if not isinstance(doc, dict) or doc.get("format") != CONFIG_FORMAT:
            raise ValueError("not a looptab config document")
        return _build(PipelineConfig, doc, str(path))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
