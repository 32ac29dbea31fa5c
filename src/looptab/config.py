"""Shared pipeline configuration with lossless JSON round-trip.

Defaults match the published constants: loop extraction thresholds
(min repetition notes 4, min repetition beats 2, loop bars 4..4) and the
inference tempo thresholds (happy >= 150 BPM, sad <= 100 BPM). Unknown
top-level keys are ignored, so documents with fields that were later
removed (such as ``paths`` or ``seed``) still load.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

from .evaluate import ClassifierConfig
from .generate import HAPPY_TEMPO_MIN, SAD_TEMPO_MAX
from .loops import LoopParams
from .tension import SpiralParams

CONFIG_FORMAT = "looptab-config"
CONFIG_VERSION = 1

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


def _to_plain(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _to_plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, tuple):
        return list(obj)
    return obj


def config_to_json(config: PipelineConfig) -> str:
    doc = {"format": CONFIG_FORMAT, "version": CONFIG_VERSION, **_to_plain(config)}
    return json.dumps(doc, indent=2)


def _build(cls, doc: dict):
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name not in doc:
            continue
        value = doc[f.name]
        if isinstance(value, list):
            value = tuple(tuple(v) if isinstance(v, list) else v for v in value)
        kwargs[f.name] = value
    return cls(**kwargs)


_SECTION_TYPES = {
    "loop_params": LoopParams,
    "spiral_params": SpiralParams,
    "generator": GeneratorConfig,
    "classifier": ClassifierConfig,
}


def config_from_json(text: str) -> PipelineConfig:
    doc = json.loads(text)
    if doc.get("format") != CONFIG_FORMAT:
        raise ValueError("not a looptab config document")
    kwargs = {}
    for f in dataclasses.fields(PipelineConfig):
        if f.name not in doc:
            continue
        if f.name in _SECTION_TYPES:
            kwargs[f.name] = _build(_SECTION_TYPES[f.name], doc[f.name])
        else:
            kwargs[f.name] = doc[f.name]
    return PipelineConfig(**kwargs)


def load_config(path: str | Path | None) -> PipelineConfig:
    if path is None:
        return PipelineConfig()
    return config_from_json(Path(path).read_text(encoding="utf-8"))
