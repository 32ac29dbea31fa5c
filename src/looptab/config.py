"""Shared pipeline configuration, read from a JSON document.

The sections are ``loop_params`` (loop extraction thresholds, by default
the published min repetition notes 4, min repetition beats 2, loop bars
4..4), ``spiral_params`` (the spiral array geometry), ``generator`` (the
n-gram order, smoothing and sampling budget) and ``classifier`` (the
emotion classifiers' fit). The inference tempo rule (happy >= 150 BPM,
sad <= 100 BPM) is fixed, not configured. A key that no field reads is
ignored with one warning naming the file and the dotted key, so documents
with fields that were later removed (such as ``paths``, ``seed`` or
``happy_tempo_min``) still load. A field of the wrong JSON type is a
``ValueError`` naming the file.
"""

from __future__ import annotations

import dataclasses
import logging
from dataclasses import dataclass
from pathlib import Path

from .atomic import read_json
from .evaluate import ClassifierConfig, is_finite_number
from .loops import LoopParams
from .tension import SpiralParams

CONFIG_FORMAT = "looptab-config"

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class GeneratorConfig:
    order: int = 4
    alpha: float = 0.01
    temperature: float = 1.0
    max_tokens: int = 4096
    max_bars: int = 64


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
    ignored."""
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
    return cls(**kwargs)


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
