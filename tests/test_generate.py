import contextlib
import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import looptab
from looptab import generate
from looptab.cli import main
from looptab.generate import (
    CONTROL_VOCAB,
    HAPPY_PROMPT,
    HAPPY_TEMPO_MIN,
    SAD_TEMPO_MAX,
    SamplingConstraints,
    SamplingError,
    ablated_prompt,
    build_prompt,
    load_model,
    mask_tempo,
    sample_sequence,
    save_model,
    train_generator,
)
from looptab.score import tokens_to_score
from looptab.tokens import parse_tokens


def make_line(tempo, notes=("clean0:note:s1:f0", "clean0:note:s1:f2"), emotion="happy"):
    head = ("valence:high arousal:high mode:major" if emotion == "happy"
            else "valence:low arousal:low mode:minor")
    bars = " ".join(
        f"new_measure cloud_diameter:q{i + 1} cloud_momentum:q2 tensile_strain:q1 {n} wait:3840"
        for i, n in enumerate(notes))
    return f"{head} time_signature:4 tempo:{tempo} start {bars} end"


CORPUS = [make_line(160), make_line(170, ("distorted0:note:s6:f0", "distorted0:note:s6:f3")),
          make_line(90, emotion="sad"), make_line(80, ("bass:note:s4:f0", "bass:note:s4:f5"),
                                                  emotion="sad")]


# prompts ---------------------------------------------------------------------

def test_prompt_contents():
    assert [t.raw for t in build_prompt("happy")] == \
        ["valence:high", "arousal:high", "mode:major", "time_signature:4"]
    assert [t.raw for t in build_prompt("sad")] == \
        ["valence:low", "arousal:low", "mode:minor", "time_signature:4"]
    with pytest.raises(ValueError):
        build_prompt("angry")


def test_ablated_prompts():
    assert ablated_prompt("happy", None) == build_prompt("happy")
    assert ablated_prompt("happy", "tension") == build_prompt("happy")
    assert [t.raw for t in ablated_prompt("happy", "emotion_labels")] == \
        ["mode:major", "time_signature:4"]
    assert [t.raw for t in ablated_prompt("sad", "psychology")] == \
        ["valence:low", "arousal:low", "time_signature:4"]
    with pytest.raises(ValueError):
        ablated_prompt("happy", "dynamics")


# n-gram model ----------------------------------------------------------------

def test_bigram_probability_formula():
    model = train_generator(["a b a b"], order=2, alpha=0.01)
    v = len(model.vocabulary)
    probs = model.next_token_distribution(["a"])
    expected = (2 + 0.01) / (2 + 0.01 * v)
    assert abs(probs[model.index["b"]] - expected) < 1e-12
    # unseen continuation gets pure smoothing mass
    assert abs(probs[model.index["a"]] - 0.01 / (2 + 0.01 * v)) < 1e-12
    assert abs(probs.sum() - 1.0) < 1e-12


def test_backoff_to_shorter_context():
    model = train_generator(["a b c", "x b d"], order=3, alpha=0.01)
    # context ("q", "b") unseen; falls back to ("b",) which saw c and d once each
    probs = model.next_token_distribution(["q", "b"])
    assert abs(probs[model.index["c"]] - probs[model.index["d"]]) < 1e-12
    assert probs[model.index["c"]] > probs[model.index["a"]]


def test_empty_context_uses_unigram_counts():
    model = train_generator(["a a a b"], order=3, alpha=0.01)
    probs = model.next_token_distribution([])
    # counts a:3, b:1, end:1 (the line terminator)
    assert probs[model.index["a"]] > probs[model.index["b"]] > 0
    assert abs(probs[model.index["b"]] - probs[model.index["end"]]) < 1e-12


def test_vocabulary_always_contains_controls_and_end():
    model = train_generator(["a b"])
    assert set(CONTROL_VOCAB) <= set(model.vocabulary)
    assert "end" in model.vocabulary


def test_train_rejects_empty_corpus_and_bad_params():
    with pytest.raises(ValueError):
        train_generator([])
    with pytest.raises(ValueError):
        train_generator(["a"], order=1)
    with pytest.raises(ValueError):
        train_generator(["a"], alpha=0.0)


def test_model_save_load_round_trip(tmp_path):
    model = train_generator(CORPUS, order=4, alpha=0.01)
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.vocabulary == model.vocabulary
    ctx = ["tempo:160", "start"]
    assert np.allclose(loaded.next_token_distribution(ctx),
                       model.next_token_distribution(ctx), atol=0, rtol=0)


def test_load_model_rejects_foreign_json(tmp_path):
    path = tmp_path / "other.json"
    path.write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(ValueError):
        load_model(path)


def model_doc(**changes):
    # contexts (), ("a",), ("b",); vocabulary ids a=0, b=1, end=2
    doc = {"format": "looptab-ngram", "version": 2, "order": 2, "alpha": 0.01,
           "vocabulary": ["a", "b", "end"],
           "context_lengths": [0, 1, 1], "context_tokens": [0, 1],
           "row_ptr": [0, 2, 3, 4], "tokens": [0, 1, 1, 2], "counts": [2, 1, 2, 1]}
    doc.update(changes)
    return {k: v for k, v in doc.items() if v is not None}


MALFORMED_MODELS = {  # name: (document, the reason the error line gives)
    "header_only": ({"format": "looptab-ngram", "version": 2}, "lacks order"),
    "no_counts": (model_doc(counts=None), "lacks counts"),
    "no_row_ptr": (model_doc(row_ptr=None), "lacks row_ptr"),
    "no_vocabulary": (model_doc(vocabulary=None), "lacks vocabulary"),
    "no_order": (model_doc(order=None), "lacks order"),
    "no_alpha": (model_doc(alpha=None), "lacks alpha"),
    "not_an_object": (["looptab-ngram"], "not a looptab n-gram model"),
    "newer_version": (model_doc(version=3), "version 3 is not 2"),
    "order_text": (model_doc(order="4"), "order must be an integer"),
    "alpha_text": (model_doc(alpha="0.01"), "alpha a number"),
    "vocabulary_not_list": (model_doc(vocabulary="a b end"), "vocabulary must be"),
    "vocabulary_not_text": (model_doc(vocabulary=["a", "b", "end", 7]), "vocabulary must be"),
    "vocabulary_repeats": (model_doc(vocabulary=["a", "b", "end", "a"]), "vocabulary must be"),
    "counts_not_list": (model_doc(counts={"a": 2}), "must be lists of integers"),
    "context_not_list": (model_doc(context_tokens="a b"), "must be lists of integers"),
    "context_object": (model_doc(context_lengths={"a": 1}), "must be lists of integers"),
    "order_one": (model_doc(order=1), "order must be >= 2"),
    "count_zero": (model_doc(counts=[2, 0, 2, 1]), "counts must be >= 1"),
    "count_negative": (model_doc(counts=[2, -1, 2, 1]), "counts must be >= 1"),
    "count_fraction": (model_doc(counts=[2, 1.5, 2, 1]), "must be lists of integers"),
    "count_boolean": (model_doc(counts=[2, True, 2, 1]), "must be lists of integers"),
    "count_text": (model_doc(counts=[2, "1", 2, 1]), "must be lists of integers"),
    "count_huge": (model_doc(counts=[2, 2 ** 53, 2, 1]), "less than 2\\*\\*53"),
    "count_past_64_bits": (model_doc(counts=[2, 1, 2 ** 64, -(2 ** 64)]), "fit in 64 bits"),
    "context_token_unknown": (model_doc(context_tokens=[0, 3]), "ids must lie in"),
    "context_token_negative": (model_doc(context_tokens=[0, -1]), "ids must lie in"),
    "context_token_text": (model_doc(context_tokens=[0, "b"]), "must be lists of integers"),
    "continuation_unknown": (model_doc(tokens=[0, 1, 1, 3]), "ids must lie in"),
    "token_id_text": (model_doc(tokens=["a", "b", "b", "end"]), "must be lists of integers"),
    "continuation_empty": (model_doc(row_ptr=[0, 2, 2, 4]), "strictly increase"),
    "row_ptr_decreasing": (model_doc(row_ptr=[0, 3, 2, 4]), "strictly increase"),
    "row_ptr_not_from_zero": (model_doc(row_ptr=[1, 2, 3, 4]), "start at 0"),
    "row_ptr_short_of_tokens": (model_doc(row_ptr=[0, 2, 3, 3]), "end at len"),
    "row_ptr_missing_a_row": (model_doc(row_ptr=[0, 2, 4]), "column lengths disagree"),
    "length_mismatch": (model_doc(counts=[2, 1, 2]), "column lengths disagree"),
    "context_lengths_sum": (model_doc(context_lengths=[0, 1, 2]), "sum to len"),
    "context_duplicate": (model_doc(context_tokens=[0, 0]), "appears twice"),
    "context_too_long": (model_doc(context_lengths=[0, 1, 2], context_tokens=[0, 0, 1]),
                         r"lie in \[0, 1\]"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_MODELS))
def test_load_model_rejects_malformed_document(tmp_path, capsys, name):
    doc, reason = MALFORMED_MODELS[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"{name}.json: .*{reason}"):
        load_model(path)
    assert main(["generate", "--model", str(path), "--emotion", "happy",
                 "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1


def test_load_model_accepts_the_well_formed_document(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_doc()))
    model = load_model(path)
    v = 3
    assert model.vocabulary == ["a", "b", "end"]
    np.testing.assert_array_equal(model.next_token_distribution(["a"]),
                                  [0.01 / (2 + 0.01 * v), 2.01 / (2 + 0.01 * v),
                                   0.01 / (2 + 0.01 * v)])
    np.testing.assert_array_equal(model.next_token_distribution(["end"]),
                                  [2.01 / (3 + 0.01 * v), 1.01 / (3 + 0.01 * v),
                                   0.01 / (3 + 0.01 * v)])


def test_model_without_the_empty_context_backs_off_to_uniform(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_doc(context_lengths=[1, 1], context_tokens=[0, 1],
                                         row_ptr=[0, 1, 2], tokens=[1, 2], counts=[2, 1])))
    model = load_model(path)
    np.testing.assert_array_equal(model.next_token_distribution(["end"]),
                                  np.full(3, 0.01 / (0 + 0.01 * 3)))
    assert model.next_token_distribution(["a"])[1] == 2.01 / (2 + 0.01 * 3)


def test_version_1_model_is_rejected_with_a_request_to_retrain(tmp_path, capsys):
    path = tmp_path / "old.json"
    path.write_text(json.dumps({"format": "looptab-ngram", "version": 1, "order": 2,
                                "alpha": 0.01, "vocabulary": ["a", "end"],
                                "counts": [[[], {"a": 1, "end": 1}]]}))
    assert main(["generate", "--model", str(path), "--emotion", "happy",
                 "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"error: {path}: model version 1 ") and "re-run train-gen" in err


def test_generate_with_malformed_model_exits_1(tmp_path, capsys):
    header_only = tmp_path / "header_only.json"
    header_only.write_text(json.dumps(MALFORMED_MODELS["header_only"][0]))
    # a trained model whose last continuation is a token outside its vocabulary
    unknown = tmp_path / "unknown_token.json"
    save_model(train_generator(CORPUS), unknown)
    doc = json.loads(unknown.read_text())
    doc["tokens"][-1] = len(doc["vocabulary"])
    unknown.write_text(json.dumps(doc))
    for path in (header_only, unknown):
        assert main(["generate", "--model", str(path), "--emotion", "happy",
                     "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and path.name in err
        assert err.count("\n") == 1


# tempo masking ---------------------------------------------------------------

def test_tempo_admissibility_bounds():
    happy = SamplingConstraints(emotion="happy")
    sad = SamplingConstraints(emotion="sad")
    assert happy.tempo_admissible(150) and happy.tempo_admissible(300)
    assert not happy.tempo_admissible(149)
    assert sad.tempo_admissible(100) and sad.tempo_admissible(30)
    assert not sad.tempo_admissible(101)
    for bpm in range(101, 150):
        assert not happy.tempo_admissible(bpm)
        assert not sad.tempo_admissible(bpm)


def test_mask_preserves_relative_probabilities():
    # tempo:90, tempo:160, clean0:note:s1:f0, wait:480 under the happy bound
    admissible = np.array([False, True, True, True])
    dist = np.array([0.4, 0.2, 0.3, 0.1])
    masked = mask_tempo(dist, admissible)
    assert masked[0] == 0.0
    assert abs(masked.sum() - 1.0) < 1e-12
    for i, j in ((1, 2), (2, 3)):
        assert abs(masked[i] / masked[j] - dist[i] / dist[j]) < 1e-12


def test_mask_with_no_admissible_tempo_raises():
    dist = np.array([0.5, 0.5])
    with pytest.raises(SamplingError):
        mask_tempo(dist, np.array([False, False]))


def test_constraint_validation():
    with pytest.raises(ValueError):
        SamplingConstraints(emotion="angry")
    with pytest.raises(ValueError):
        SamplingConstraints(temperature=-0.5)


# sampling --------------------------------------------------------------------

def sample_raws(model, emotion, **kwargs):
    constraints = SamplingConstraints(emotion=emotion, **kwargs)
    return [t.raw for t in sample_sequence(model, build_prompt(emotion), constraints)]


def test_sampling_deterministic_per_seed():
    model = train_generator(CORPUS)
    a = sample_raws(model, "happy", rng_seed=7)
    b = sample_raws(model, "happy", rng_seed=7)
    assert a == b


def test_greedy_reproduces_single_line_corpus():
    line = make_line(160)
    model = train_generator([line])
    out = sample_raws(model, "happy", temperature=0.0)
    assert out == line.split()


def test_happy_and_sad_tempo_constraints_hold():
    model = train_generator(CORPUS)
    for seed in range(20):
        for emotion, check in (("happy", lambda b: b >= HAPPY_TEMPO_MIN),
                               ("sad", lambda b: b <= SAD_TEMPO_MAX)):
            for raw in sample_raws(model, emotion, rng_seed=seed, max_bars=8):
                if raw.startswith("tempo:"):
                    assert check(int(raw.split(":")[1])), (emotion, raw)


def test_psychology_ablated_sampling_respects_constraints():
    model = train_generator(CORPUS)
    prompt = ablated_prompt("sad", "psychology")
    for seed in range(10):
        constraints = SamplingConstraints(emotion="sad", rng_seed=seed, max_bars=8)
        for t in sample_sequence(model, prompt, constraints):
            if t.fields.get("key") == "tempo":
                assert t.fields["value"] <= SAD_TEMPO_MAX


def test_sampled_streams_decode_to_scores():
    model = train_generator(CORPUS)
    for seed in range(10):
        stream = sample_sequence(model, build_prompt("happy"),
                                 SamplingConstraints(emotion="happy", rng_seed=seed,
                                                     max_bars=8))
        score = tokens_to_score(stream)
        assert score.header_tempo is None or score.header_tempo >= HAPPY_TEMPO_MIN


def test_bar_budget_terminates_sampling():
    model = train_generator(CORPUS)
    raws = sample_raws(model, "happy", rng_seed=3, max_bars=2)
    assert raws.count("new_measure") <= 2
    assert raws[-1] == "end"


def test_prompt_must_be_in_vocabulary():
    model = train_generator(CORPUS)
    from looptab.tokens import token
    with pytest.raises(ValueError, match="vocabulary"):
        sample_sequence(model, [token("artist:nobody")], SamplingConstraints())


def random_distributions(rng, count):
    """Vectors with exact zeros and masses down to ~1e-300, summing to 1."""
    for _ in range(count):
        v = int(rng.integers(1, 900))
        p = rng.random(v) ** rng.choice([1, 8, 60])
        p[rng.random(v) < 0.3] = 0.0
        p[rng.random(v) < 0.05] *= 1e-300
        if p.sum() <= 0.0:
            p[int(rng.integers(v))] = 1.0
        yield p / p.sum()


@pytest.mark.parametrize("temperature", [0.7, 1.0, 1.5])
def test_in_place_draw_equals_generator_choice(temperature):
    rng = np.random.default_rng(11)
    for p in random_distributions(rng, 400):
        seed = int(rng.integers(1 << 32))
        reference, mine = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(5):
            q = p
            if temperature != 1.0:  # the draw before it was done in place
                q = p ** (1.0 / temperature)
                q /= q.sum()
            expected = int(reference.choice(len(q), p=q))
            buf = p.copy()
            if temperature != 1.0:
                buf = generate._sharpen(buf, 1.0 / temperature, np.empty_like(buf))
            assert generate._draw(buf, mine) == expected


class FixedUniform:
    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def test_draw_never_lands_on_a_token_without_mass():
    # a uniform number equal to a cumulative sum moves past the tokens
    # without mass, as in Generator.choice
    assert generate._draw(np.array([0.0, 0.0, 1.0]), FixedUniform(0.0)) == 2
    assert generate._draw(np.array([0.5, 0.0, 0.5]), FixedUniform(0.5)) == 2


def test_tiny_temperature_draws_a_most_likely_token(corpus_model, tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["generate", "--model", str(corpus_model), "--emotion", "sad",
                     "--count", "3", "--temperature", "0.00001",
                     "--out-dir", str(tmp_path)]) == 0
    model = load_model(corpus_model)
    _, _, admissible, structural = generate._sampling_tables(
        tuple(model.vocabulary), "sad", HAPPY_TEMPO_MIN, SAD_TEMPO_MAX)
    for f in sorted(tmp_path.glob("*.tokens")):
        raws = f.read_text().split()
        for i in range(len(build_prompt("sad")), len(raws)):
            p = mask_tempo(model.next_token_distribution(raws[:i]), admissible)
            p = p * structural["new_measure" in raws[:i]]
            assert p[model.index[raws[i]]] == p.max(), (f.name, i, raws[i])


# golden CLI outputs ------------------------------------------------------------

# sha256 over gen_0000..gen_0004 (seeds 0-4) of `generate --count 5 --seed 0`
# on a model trained from CORPUS; frozen before the masks were precomputed.
GOLDEN = [
    ("happy", (),
     "45ca494a0f22701c5928d8d4b3509adb3fa9b73ae70dd6e8b2357e1062bfff0a"),
    ("sad", (),
     "fddb2b925cd5c5cb0c3c8f6c951a67e78e74c7a0ad456bd1151fbe46b759c3ca"),
    ("happy", ("--ablate", "emotion_labels"),
     "8a4566df15bfb0b9e8b593d4d2079bf16d9f9e0b9c65bd7e067dd6611291f69b"),
    ("sad", ("--ablate", "emotion_labels"),
     "92d8943c5ebe8488381e508938a155b1b46af45c7c610435c4cb70a66a5770ac"),
    ("happy", ("--ablate", "tension"),
     "2f4fe751f6f3ee9468328bc4060d37b6a43f02c03f0ca5bde0bf42e6597e8a33"),
    ("sad", ("--ablate", "tension"),
     "c825910c05375b92349d729ac71a85e341ba628456cfdfa4153593992c76a16e"),
    ("happy", ("--temperature", "0.7"),
     "51bb52b105d3c999727df9822a4cc363a6fe97479b8b69448b6ef688255eac31"),
    ("sad", ("--temperature", "0"),
     "fe57597c6b912973a1d963dbfd20b0572efa4fc01925652165b7dc4ff0e4d717"),
]


@pytest.fixture(scope="module")
def corpus_model(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    corpus = root / "corpus.txt"
    corpus.write_text("".join(line + "\n" for line in CORPUS))
    model = root / "model.json"
    assert main(["train-gen", "--corpus", str(corpus), "--out", str(model)]) == 0
    return model


def generate_files(model, out_dir, emotion, *extra):
    assert main(["generate", "--model", str(model), "--emotion", emotion, "--count", "5",
                 "--seed", "0", *extra, "--out-dir", str(out_dir)]) == 0
    return sorted(out_dir.glob("*.tokens"))


@pytest.mark.parametrize("emotion,extra,digest", GOLDEN)
def test_generate_matches_golden_hash(corpus_model, tmp_path, emotion, extra, digest):
    h = hashlib.sha256()
    for f in generate_files(corpus_model, tmp_path, emotion, *extra):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    assert h.hexdigest() == digest


def test_psychology_ablation_outputs_parse_within_tempo_bound(corpus_model, tmp_path):
    for emotion in ("happy", "sad"):
        for f in generate_files(corpus_model, tmp_path / emotion, emotion,
                                "--ablate", "psychology"):
            stream = parse_tokens(f.read_text())
            tokens_to_score(stream)
            for t in stream:
                if t.fields.get("key") == "tempo":
                    bpm = t.fields["value"]
                    assert bpm >= HAPPY_TEMPO_MIN if emotion == "happy" else bpm <= SAD_TEMPO_MAX


def test_greedy_psychology_ablation_terminates(corpus_model, tmp_path):
    # Greedy decoding after the mode-free sad prompt: the argmax tempo is
    # tempo:160 (ties break toward the lowest vocabulary index), which the
    # sad constraint forbids.
    env = dict(os.environ, PYTHONPATH=str(Path(looptab.__file__).parents[1]))
    argv = [sys.executable, "-m", "looptab.cli", "generate", "--model", str(corpus_model),
            "--emotion", "sad", "--temperature", "0", "--ablate", "psychology",
            "--out-dir", str(tmp_path)]
    try:
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    except subprocess.TimeoutExpired:
        pytest.fail("greedy psychology-ablated sampling did not terminate")
    assert proc.returncode == 0, proc.stderr
    tempi = [int(raw[6:]) for raw in (tmp_path / "gen_0000.tokens").read_text().split()
             if raw.startswith("tempo:")]
    assert tempi and all(bpm <= SAD_TEMPO_MAX for bpm in tempi)


# sampling errors --------------------------------------------------------------

class TempoOnlyModel:
    """A model that puts all its mass on a tempo the happy bound forbids."""
    vocabulary = [*HAPPY_PROMPT, "new_measure", "tempo:120", "end"]

    def next_token_distribution(self, context):
        probs = np.zeros(len(self.vocabulary))
        probs[self.vocabulary.index("tempo:120")] = 1.0
        return probs


def test_all_mass_on_inadmissible_tempi_exits_1(tmp_path, monkeypatch, capsys):
    # An n-gram with alpha > 0 leaves mass on every token, so only a stub
    # model reaches this error.
    monkeypatch.setattr(looptab.generate, "load_model", lambda path: TempoOnlyModel())
    assert main(["generate", "--model", "stub", "--emotion", "happy",
                 "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == "error: the model puts all its mass on inadmissible tempi\n"
    assert not list((tmp_path / "out").iterdir())


# one generate run ------------------------------------------------------------

def test_generate_count_parses_the_vocabulary_once(tmp_path, monkeypatch):
    corpus = tmp_path / "corpus.txt"
    # an artist of its own gives this test a vocabulary no other test samples from
    corpus.write_text("".join(line + "\n" for line in CORPUS) + "artist:reuse_check end\n")
    model = tmp_path / "model.json"
    assert main(["train-gen", "--corpus", str(corpus), "--out", str(model)]) == 0
    vocab_size = len(json.loads(model.read_text())["vocabulary"])

    parsed = []
    real_token = looptab.generate.token
    monkeypatch.setattr(looptab.generate, "token", lambda raw: parsed.append(raw) or real_token(raw))
    assert main(["generate", "--model", str(model), "--emotion", "happy", "--count", "8",
                 "--seed", "3", "--out-dir", str(tmp_path / "batch")]) == 0
    assert vocab_size <= len(parsed) <= vocab_size + 8
    monkeypatch.undo()

    for i in range(8):
        single = tmp_path / f"single{i}"
        assert main(["generate", "--model", str(model), "--emotion", "happy",
                     "--seed", str(3 + i), "--out-dir", str(single)]) == 0
        assert ((tmp_path / "batch" / f"gen_{i:04d}.tokens").read_bytes()
                == (single / "gen_0000.tokens").read_bytes())


def test_failed_model_save_keeps_the_previous_file(tmp_path, monkeypatch):
    model = train_generator(CORPUS)
    path = tmp_path / "model.json"
    save_model(model, path)
    before = path.read_bytes()
    real_open = looptab.generate.atomic_open

    @contextlib.contextmanager
    def disk_full_halfway(target):
        with real_open(target) as fh:
            class Half:
                def write(self, text):
                    fh.write(text[:len(text) // 2])
                    raise OSError(28, "No space left on device")
            yield Half()

    monkeypatch.setattr(looptab.generate, "atomic_open", disk_full_halfway)
    with pytest.raises(OSError):
        save_model(train_generator(CORPUS[:1]), path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]
