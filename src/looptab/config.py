"""Shared pipeline configuration, read from a JSON document.

Defaults match the published constants: loop extraction thresholds
(min repetition notes 4, min repetition beats 2, loop bars 4..4) and the
inference tempo thresholds (happy >= 150 BPM, sad <= 100 BPM). Unknown
top-level keys are ignored, so documents with fields that were later
removed (such as ``paths`` or ``seed``) still load. A field of the wrong
JSON type is a ``ValueError`` naming the file.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

from .atomic import read_json
from .evaluate import ClassifierConfig, is_finite_number
from .generate import HAPPY_TEMPO_MIN, SAD_TEMPO_MAX
from .loops import LoopParams
from .tension import SpiralParams

CONFIG_FORMAT = "looptab-config"

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
    happy_tempo_min: int = HAPPY_TEMPO_MIN
    sad_tempo_max: int = SAD_TEMPO_MAX


def _checked(name: str, value, default):
    """``value`` if it has the JSON type of ``default`` (a list for a tuple),
    else a ``ValueError`` naming the field."""
    if isinstance(default, bool):
        ok, kind = type(value) is bool, "true or false"
    elif isinstance(default, int):
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


def _build(cls, doc: dict, prefix: str = ""):
    """``cls`` from the fields of ``doc`` that it names, each type-checked;
    sections become their own dataclasses."""
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name in doc:
            value, default = doc[f.name], f.default
            if dataclasses.is_dataclass(default):
                if not isinstance(value, dict):
                    raise ValueError(f"{prefix}{f.name} must be a JSON object")
                kwargs[f.name] = _build(type(default), value, f"{prefix}{f.name}.")
            else:
                kwargs[f.name] = _checked(prefix + f.name, value, default)
    return cls(**kwargs)


def _config_from_doc(doc, source: str) -> PipelineConfig:
    try:
        if not isinstance(doc, dict) or doc.get("format") != CONFIG_FORMAT:
            raise ValueError("not a looptab config document")
        return _build(PipelineConfig, doc)
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None


def load_config(path: str | Path | None) -> PipelineConfig:
    """The config in ``path`` (the defaults for None); a file that is not
    a JSON looptab config raises ``ValueError`` naming it."""
    if path is None:
        return PipelineConfig()
    return _config_from_doc(read_json(path), str(path))
