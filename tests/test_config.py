import dataclasses
import json
import re

import pytest

from looptab.config import GeneratorConfig, PipelineConfig, load_config
from looptab.evaluate import ClassifierConfig
from looptab.loops import LoopParams
from looptab.tension import SpiralParams


def write_config(tmp_path, doc) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def config_doc(config: PipelineConfig) -> dict:
    return {"format": "looptab-config", **dataclasses.asdict(config)}


def test_defaults_match_pipeline_constants():
    cfg = PipelineConfig()
    assert cfg.loop_params == LoopParams(4, 2, 4, 4)
    assert cfg.classifier.truncate == 768


def test_json_round_trip(tmp_path, caplog):
    # every field off its default, tuples included
    cfg = PipelineConfig(LoopParams(5, 3, 2, 8),
                         SpiralParams(2.5, 0.25, (0.5, 0.3, 0.2), (0.2, 0.3, 0.5)),
                         GeneratorConfig(3, 0.5, 0.75, 512, 16),
                         ClassifierConfig(l2=0.001, holdout_fraction=0.25, seed=7, truncate=100))
    for section in (cfg, cfg.loop_params, cfg.spiral_params, cfg.generator, cfg.classifier):
        assert all(getattr(section, f.name) != f.default for f in dataclasses.fields(section))
    assert load_config(write_config(tmp_path, config_doc(cfg))) == cfg
    assert caplog.messages == []  # every key is read


def test_partial_document_fills_defaults(tmp_path):
    doc = {"format": "looptab-config", "version": 1,
           "happy_tempo_min": 140,
           "seed": 9,
           "paths": {"scores": "scores", "corpus": "corpus.txt"},
           "loop_params": {"min_loop_bars": 2, "max_loop_bars": 8}}
    cfg = load_config(write_config(tmp_path, doc))
    assert cfg.loop_params.min_loop_bars == 2
    assert cfg.loop_params.max_loop_bars == 8
    assert cfg.loop_params.min_rep_notes == 4  # untouched default
    assert cfg.generator == GeneratorConfig()


def test_classifier_section_with_the_removed_gradient_fields_loads(tmp_path):
    # epochs and learning_rate configured the gradient-descent fit
    doc = {"format": "looptab-config", "version": 1,
           "classifier": {"epochs": 300, "learning_rate": 0.5, "l2": 0.001}}
    assert load_config(write_config(tmp_path, doc)).classifier == ClassifierConfig(l2=0.001)


def test_rejects_foreign_document(tmp_path):
    path = write_config(tmp_path, {"format": "other"})
    with pytest.raises(ValueError, match=f"{path}: not a looptab config document"):
        load_config(path)


def test_load_config_none_gives_defaults():
    assert load_config(None) == PipelineConfig()


def test_load_config_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config_doc(PipelineConfig(generator=GeneratorConfig(order=3)))))
    assert load_config(path).generator.order == 3


def test_each_key_no_field_reads_is_logged_once_and_the_config_still_loads(tmp_path, caplog):
    doc = {"format": "looptab-config", "happy_tempo_min": 140,
           "generator": {"ordr": 2, "max_bars": 8}, "loop_params": {}}
    path = write_config(tmp_path, doc)
    with caplog.at_level("WARNING", logger="looptab.config"):
        cfg = load_config(path)
    assert cfg == PipelineConfig(generator=GeneratorConfig(max_bars=8))
    assert caplog.messages == [f"{path}: ignoring unknown config key happy_tempo_min",
                               f"{path}: ignoring unknown config key generator.ordr"]


@pytest.mark.parametrize("section,key,value", [
    ("classifier", "holdout_fraction", -0.5),
    ("classifier", "holdout_fraction", 1.0),
    ("classifier", "l2", 0.0),
    ("classifier", "l2", -1.0),
    ("classifier", "truncate", 0),
    ("classifier", "seed", -1),
    ("loop_params", "min_rep_beats", 0),
    ("spiral_params", "height", -1.0),
    ("spiral_params", "key_weights", [0.5, 0.3, 0.3]),
])
def test_a_value_out_of_its_range_is_an_error_naming_the_dotted_key(tmp_path, section, key,
                                                                      value):
    path = write_config(tmp_path, {"format": "looptab-config", section: {key: value}})
    with pytest.raises(ValueError, match=f"^{re.escape(path)}: {section}.{key} must "):
        load_config(path)


def test_the_classifier_range_ends_that_are_allowed_load(tmp_path):
    doc = {"format": "looptab-config",
           "classifier": {"holdout_fraction": 0.0, "l2": 1e-300, "truncate": 1, "seed": 0}}
    assert load_config(write_config(tmp_path, doc)).classifier == ClassifierConfig(
        l2=1e-300, holdout_fraction=0.0, seed=0, truncate=1)
