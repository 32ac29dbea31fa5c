"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines. Tolerances
are pinned in the assertions, not configurable.
"""

import math
import random
import time
from dataclasses import replace

import numpy as np
import pytest

from looptab.annotate import (
    AnnotationRecord,
    FeatureThresholds,
    inject_controls,
    song_control_tokens,
    strip_controls,
)
from looptab.evaluate import emotion_metrics, metrics_report, train_classifier
from looptab.generate import (
    HAPPY_TEMPO_MIN,
    SAD_TEMPO_MAX,
    SamplingConstraints,
    ablated_prompt,
    build_prompt,
    sample_sequence,
    train_generator,
)
from looptab.loops import extract_loops
from looptab.score import score_to_tokens, tokens_to_score
from looptab.stats import friedman, pairwise_bonferroni, wilcoxon_signed_rank
from looptab.tension import (
    TensionProfile,
    compute_tension_profile,
    discretize_profile,
    fit_tension_thresholds,
    key_coe,
    tension_from_clouds,
)
from looptab.tokens import parse_tokens, render_tokens

from util import bar_block, block_bars, columns, random_score
from test_loops import oracle_loops


def verdict(name: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {name}")
    assert ok, name


def triad_score(bars=1):
    triad = [("clean0", 0, 960, 60, 2, 1), ("clean0", 0, 960, 64, 1, 0),
             ("clean0", 0, 960, 67, 1, 3)]
    return columns([(4, 120, triad, ())] * bars)


def test_criterion_1_spiral_geometry_and_isometry():
    profile = compute_tension_profile(triad_score())
    cd_ok = abs(profile.cloud_diameter[0] - math.sqrt(3.2)) <= 1e-9

    rng = random.Random(31)
    start = time.perf_counter()
    bars = [[(rng.randint(-5, 6), float(rng.randint(1, 960))) for _ in range(rng.randint(1, 8))]
            for _ in range(100)]
    base = tension_from_clouds(bars, key_coe(0, "major"))
    iso_ok = True
    for delta in (-4, -1, 2, 5):
        shifted = tension_from_clouds(
            [[(k + delta, w) for k, w in bar] for bar in bars], key_coe(delta, "major"))
        for name in ("cloud_diameter", "cloud_momentum", "tensile_strain"):
            for a, b in zip(base.feature(name), shifted.feature(name)):
                if abs(a - b) > 1e-9:
                    iso_ok = False
    elapsed = time.perf_counter() - start
    verdict("criterion 1: triad cloud diameter sqrt(3.2) +-1e-9 and 100-bar "
            f"transposition isometry +-1e-9 in {elapsed:.2f}s (< 1s)",
            cd_ok and iso_ok and elapsed < 1.0)


def test_criterion_2_loop_extraction_matches_oracle():
    rng = random.Random(47)
    start = time.perf_counter()
    mismatches = 0
    for _ in range(200):
        labels = "AB" if rng.random() < 0.5 else "ABC"
        blocks = {c: bar_block(rng, rng.randint(2, 5)) for c in labels}
        n = rng.randint(5, 12)
        seq = "".join(rng.choice(labels) for _ in range(n))
        if rng.random() < 0.5:
            i = rng.randint(0, max(0, n - 8))
            seq = seq[:i + 4] + seq[i:i + 4] + seq[i + 8:]
        bars = block_bars(blocks, seq)
        if extract_loops(columns(bars)) != oracle_loops(bars):
            mismatches += 1
    elapsed = time.perf_counter() - start
    verdict(f"criterion 2: 200 planted-repeat scores agree with the cubic oracle "
            f"({mismatches} mismatches) in {elapsed:.1f}s (< 30s)",
            mismatches == 0 and elapsed < 30.0)


def test_criterion_3_quartile_discretization():
    vals = (1.0, 2.0, 3.0, 4.0)
    th = fit_tension_thresholds([TensionProfile(vals, vals, vals)])
    exact_ok = th.cloud_diameter == (1.75, 2.5, 3.25)

    rng = np.random.default_rng(12)
    sample = tuple(float(v) for v in rng.uniform(0.0, 1.0, 10_000))
    profile = TensionProfile(sample, sample, sample)
    leveled = discretize_profile(profile, fit_tension_thresholds([profile]))
    counts = {q: leveled.cd_levels.count(q) for q in ("q1", "q2", "q3", "q4")}
    prop_ok = all(abs(c / 10_000 - 0.25) <= 0.02 for c in counts.values())
    verdict("criterion 3: quartile thresholds of {1,2,3,4} are exactly "
            f"(1.75, 2.5, 3.25) and 10k-uniform bins are 25% +-2pp (got "
            f"{sorted(counts.values())})", exact_ok and prop_ok)


def test_criterion_4_round_trip_and_control_identities():
    rng = random.Random(53)
    rt_ok = True
    for _ in range(1000):
        stream = score_to_tokens(random_score(rng, vary_tempo=True))
        text = render_tokens(stream)
        if render_tokens(score_to_tokens(tokens_to_score(stream))) != text:
            rt_ok = False
            break

    thresholds = FeatureThresholds(0.5, 0.5)
    inj_ok = True
    for i in range(1000):
        score = random_score(rng, max_measures=6)
        stream = strip_controls(score_to_tokens(score, include_artist=False))
        vals = tuple(float(v) for v in range(score.n_bars))
        quarters = (0.0, 1.0, 2.0, 3.0)
        profile = discretize_profile(
            TensionProfile(vals, vals, vals),
            fit_tension_thresholds([TensionProfile(quarters, quarters, quarters)]))
        record = AnnotationRecord("a", "t", rng.random(), rng.random(),
                                  rng.choice(("major", "minor")))
        injected = inject_controls(stream, song_control_tokens(record, thresholds), profile)
        if strip_controls(injected) != stream:
            inj_ok = False
            break
    verdict("criterion 4: 1000 random scores render->parse->render byte-identical "
            "and 1000 inject->strip identities hold", rt_ok and inj_ok)


def corpus_line(rng, emotion, note_raws, tempo_range):
    head = ("valence:high arousal:high mode:major" if emotion == "happy"
            else "valence:low arousal:low mode:minor")
    tempo = rng.randint(*tempo_range)
    bars = []
    for i in range(4):
        note = rng.choice(note_raws)
        bars.append(f"new_measure cloud_diameter:q{i % 4 + 1} cloud_momentum:q2 "
                    f"tensile_strain:q1 {note} wait:3840")
    return f"{head} time_signature:4 tempo:{tempo} start {' '.join(bars)} end"


HAPPY_NOTES = ("clean0:note:s2:f1", "clean0:note:s1:f0", "clean0:note:s1:f3")
SAD_NOTES = ("distorted0:note:s6:f5", "distorted0:note:s6:f8", "distorted0:note:s5:f7")


@pytest.fixture(scope="module")
def trained_model():
    rng = random.Random(61)
    lines = [corpus_line(rng, "happy", HAPPY_NOTES, (160, 180)) for _ in range(200)]
    lines += [corpus_line(rng, "sad", SAD_NOTES, (60, 90)) for _ in range(200)]
    return lines, train_generator(lines, order=4, alpha=0.01)


def sample_raw(model, emotion, seed, missing=None):
    constraints = SamplingConstraints(emotion=emotion, rng_seed=seed, max_bars=4,
                                      max_tokens=256)
    stream = sample_sequence(model, ablated_prompt(emotion, missing), constraints)
    return [t.raw for t in stream]


def test_criterion_5_tempo_constraints_and_determinism(trained_model):
    _, model = trained_model
    tempo_ok = True
    for i in range(1000):
        emotion = "happy" if i % 2 == 0 else "sad"
        for raw in sample_raw(model, emotion, seed=i):
            if raw.startswith("tempo:"):
                bpm = int(raw.split(":")[1])
                if emotion == "happy" and bpm < HAPPY_TEMPO_MIN:
                    tempo_ok = False
                if emotion == "sad" and bpm > SAD_TEMPO_MAX:
                    tempo_ok = False

    det_ok = all(sample_raw(model, "happy", seed=s) == sample_raw(model, "happy", seed=s)
                 for s in range(20))
    verdict("criterion 5: 500 happy generations all >= 150 BPM, 500 sad all <= 100 BPM, "
            "fixed seeds reproduce byte-identically", tempo_ok and det_ok)


def label_free(tokens):
    return [t for t in tokens if not t.startswith(("valence:", "arousal:"))]


def test_criterion_6_emotion_separation(trained_model):
    start = time.perf_counter()
    lines, model = trained_model
    streams = [label_free(l.split()) for l in lines]
    labels = [l.startswith("valence:high") for l in lines]
    valence = train_classifier(streams, labels)
    arousal = train_classifier(streams, [l.split()[1] == "arousal:high" for l in lines])

    happy = [label_free(sample_raw(model, "happy", seed=s)) for s in range(100)]
    sad = [label_free(sample_raw(model, "sad", seed=s)) for s in range(100)]
    em = emotion_metrics(happy, sad, valence, arousal)
    elapsed = time.perf_counter() - start
    verdict("criterion 6: synthetic 200+200 corpus separates emotions, "
            f"difference HVP {em.difference.hvp:.3f} >= 0.3 and HAP "
            f"{em.difference.hap:.3f} >= 0.3 in {elapsed:.1f}s (< 120s)",
            em.difference.hvp >= 0.3 and em.difference.hap >= 0.3 and elapsed < 120.0)


def test_criterion_7_statistical_reference_values():
    res = wilcoxon_signed_rank([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [0.0] * 6)
    wilcoxon_ok = abs(res.p_value - 0.03125) <= 1e-12 and res.statistic == 0.0

    fr = friedman([[1.0, 2.0, 3.0]] * 3)
    friedman_ok = abs(fr.statistic - 6.0) <= 1e-12 and abs(fr.p_value - math.exp(-3.0)) <= 1e-3

    comparisons = pairwise_bonferroni(
        [[float(i) for i in range(8)],
         [float(i) + 0.5 for i in range(8)],
         [float(i) - 0.5 for i in range(8)]])
    bonferroni_ok = all(round(c.alpha_adjusted, 4) == 0.0167 for c in comparisons)
    verdict("criterion 7: Wilcoxon p 0.03125 +-1e-12, Friedman chi2 6 with "
            "p within 1e-3 of exp(-3), Bonferroni threshold 0.0167",
            wilcoxon_ok and friedman_ok and bonferroni_ok)


def test_criterion_8_ablation_report_shape(trained_model):
    lines, model = trained_model
    streams = [label_free(l.split()) for l in lines]
    valence = train_classifier(streams, [l.startswith("valence:high") for l in lines])
    arousal = train_classifier(streams, [l.split()[1] == "arousal:high" for l in lines])

    settings = {}
    for name, missing in (("full", None), ("no_emotion_labels", "emotion_labels"),
                          ("no_psychology", "psychology")):
        happy = [label_free(sample_raw(model, "happy", s, missing)) for s in range(20)]
        sad = [label_free(sample_raw(model, "sad", s, missing)) for s in range(20)]
        settings[name] = emotion_metrics(happy, sad, valence, arousal)
    report = metrics_report(settings)

    rows_ok = len(report["rows"]) == 9
    groups_ok = {r["group"] for r in report["rows"]} == {"happy", "sad", "difference"}
    range_ok = all(0.0 <= row[k] <= 1.0
                   for row in report["rows"] if row["group"] != "difference"
                   for k in ("HVP", "MVS", "HAP", "MAS"))
    verdict("criterion 8: ablation report has 3 settings x 3 groups with all "
            "group metrics in [0, 1]", rows_ok and groups_ok and range_ok)
