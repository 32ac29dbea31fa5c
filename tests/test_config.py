import json

import pytest

from looptab.config import (
    PipelineConfig,
    config_from_json,
    config_to_json,
    load_config,
)
from looptab.evaluate import ClassifierConfig
from looptab.loops import LoopParams


def test_defaults_match_pipeline_constants():
    cfg = PipelineConfig()
    assert cfg.happy_tempo_min == 150
    assert cfg.sad_tempo_max == 100
    assert cfg.loop_params == LoopParams(4, 2, 4, 4)
    assert cfg.classifier.truncate == 768


def test_json_round_trip():
    cfg = PipelineConfig()
    assert config_from_json(config_to_json(cfg)) == cfg


def test_partial_document_fills_defaults():
    doc = {"format": "looptab-config", "version": 1,
           "happy_tempo_min": 140,
           "seed": 9,
           "paths": {"scores": "scores", "corpus": "corpus.txt"},
           "loop_params": {"min_loop_bars": 2, "max_loop_bars": 8}}
    cfg = config_from_json(json.dumps(doc))
    assert cfg.happy_tempo_min == 140
    assert cfg.loop_params.min_loop_bars == 2
    assert cfg.loop_params.max_loop_bars == 8
    assert cfg.loop_params.min_rep_notes == 4  # untouched default
    assert cfg.sad_tempo_max == 100


def test_classifier_section_with_the_removed_gradient_fields_loads():
    # epochs and learning_rate configured the gradient-descent fit
    doc = {"format": "looptab-config", "version": 1,
           "classifier": {"epochs": 300, "learning_rate": 0.5, "l2": 0.001}}
    assert config_from_json(json.dumps(doc)).classifier == ClassifierConfig(l2=0.001)


def test_rejects_foreign_document():
    with pytest.raises(ValueError):
        config_from_json(json.dumps({"format": "other"}))


def test_load_config_none_gives_defaults():
    assert load_config(None) == PipelineConfig()


def test_load_config_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(config_to_json(PipelineConfig(sad_tempo_max=90)))
    assert load_config(path).sad_tempo_max == 90

