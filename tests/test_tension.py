import math
import random

import numpy as np
import pytest

from looptab.score import Measure, NoteEvent, Score
from looptab.tension import (
    DEFAULT_PARAMS,
    SpiralParams,
    TensionThresholds,
    bar_clouds,
    cloud_diameter_of_indices,
    coe_of_indices,
    compute_tension_profile,
    discretize_profile,
    estimate_key,
    fifth_index_of_pitch,
    fit_tension_thresholds,
    key_coe,
    level_of,
    pitch_position,
    tension_from_clouds,
    thresholds_from_json,
    thresholds_to_json,
)

H = DEFAULT_PARAMS.height


def dist(a, b):
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))


def make_score(bars):
    """bars: list of lists of (midi, duration)."""
    measures = []
    for i, notes in enumerate(bars):
        onset = 0
        events = []
        for midi, dur in notes:
            events.append(NoteEvent("clean0", onset, dur, midi, 1, 0))
        measures.append(Measure(index=i, events=tuple(events)))
    return Score(measures=tuple(measures))


# fifth index -----------------------------------------------------------------

@pytest.mark.parametrize("pc,k", [(0, 0), (7, 1), (1, -5), (6, 6)])
def test_fifth_index_examples(pc, k):
    assert fifth_index_of_pitch(60 + pc) == k


def test_fifth_index_solves_congruence():
    for midi in range(128):
        k = fifth_index_of_pitch(midi)
        assert -5 <= k <= 6
        assert (7 * k) % 12 == midi % 12


# positions and centers -------------------------------------------------------

def test_pitch_positions():
    assert pitch_position(0) == (0.0, 1.0, 0.0)
    assert pitch_position(1) == (1.0, 0.0, H)
    assert pitch_position(4) == (0.0, 1.0, 4 * H)


C, G = fifth_index_of_pitch(60), fifth_index_of_pitch(67)


def test_center_of_effect_single_note():
    assert coe_of_indices([(C, 480)]) == pitch_position(0)


def test_center_of_effect_midpoint_and_weights():
    mid = coe_of_indices([(C, 480), (G, 480)])
    expect = tuple((a + b) / 2 for a, b in zip(pitch_position(0), pitch_position(1)))
    assert dist(mid, expect) < 1e-12
    weighted = coe_of_indices([(C, 1440), (G, 480)])
    expect = tuple(0.75 * a + 0.25 * b for a, b in zip(pitch_position(0), pitch_position(1)))
    assert dist(weighted, expect) < 1e-12


def test_center_of_effect_empty_is_none():
    assert coe_of_indices([]) is None


def test_coe_scale_invariant():
    rng = random.Random(3)
    for _ in range(50):
        notes = [(fifth_index_of_pitch(rng.randint(40, 80)), rng.randint(1, 2000))
                 for _ in range(5)]
        a = coe_of_indices(notes)
        b = coe_of_indices([(k, d * 7) for k, d in notes])
        assert dist(a, b) < 1e-9


# key estimation --------------------------------------------------------------

def test_c_major_triads_estimate_c_major():
    score = make_score([[(60, 960), (64, 960), (67, 960)]] * 4)
    key = estimate_key(bar_clouds(score))
    assert (key.tonic_fifth_index, key.mode) == (0, "major")


def test_a_minor_triads_estimate_a_minor():
    score = make_score([[(57, 960), (60, 960), (64, 960)]] * 4)
    key = estimate_key(bar_clouds(score))
    assert (key.tonic_fifth_index, key.mode) == (3, "minor")


def test_empty_score_raises():
    with pytest.raises(ValueError, match="no notes"):
        estimate_key(bar_clouds(Score()))


def test_key_estimate_duration_scale_invariant():
    rng = random.Random(5)
    for _ in range(20):
        bars = [[(rng.randint(48, 72), rng.randint(100, 1000)) for _ in range(3)]
                for _ in range(3)]
        k1 = estimate_key(bar_clouds(make_score(bars)))
        k2 = estimate_key(bar_clouds(make_score([[(p, d * 13) for p, d in bar] for bar in bars])))
        assert (k1.tonic_fifth_index, k1.mode) == (k2.tonic_fifth_index, k2.mode)


# tension profile -------------------------------------------------------------

def test_cd_single_pitch_is_zero():
    profile = compute_tension_profile(make_score([[(60, 960)]]))
    assert profile.cloud_diameter == (0.0,)


def test_cd_c_major_triad_is_sqrt_3_2():
    profile = compute_tension_profile(make_score([[(60, 960), (64, 960), (67, 960)]]))
    assert abs(profile.cloud_diameter[0] - math.sqrt(3.2)) < 1e-9


def test_cm_zero_for_identical_consecutive_bars():
    bar = [(60, 960), (67, 960)]
    profile = compute_tension_profile(make_score([bar, bar]))
    assert profile.cloud_momentum == (0.0, 0.0)


def test_cm_first_bar_and_empty_bar_conventions():
    profile = compute_tension_profile(make_score([[(60, 960)], [], [(67, 960)]]))
    assert profile.cloud_momentum == (0.0, 0.0, 0.0)
    assert profile.cloud_diameter[1] == 0.0
    assert profile.tensile_strain[1] == 0.0


def test_ts_zero_when_coe_equals_key_center():
    key_center = key_coe(0, "major")
    profile = tension_from_clouds([[(0, 1.0)]], key_center)
    expected = dist(pitch_position(0), key_center)
    assert abs(profile.tensile_strain[0] - expected) < 1e-12
    profile2 = tension_from_clouds([[(0, 1.0)]], pitch_position(0))
    assert profile2.tensile_strain[0] == 0.0


def test_cd_permutation_and_duration_invariance():
    rng = random.Random(8)
    ks = [rng.randint(-5, 6) for _ in range(6)]
    base = cloud_diameter_of_indices(ks)
    rng.shuffle(ks)
    assert cloud_diameter_of_indices(ks) == base


def test_transposition_isometry():
    rng = random.Random(13)
    for _ in range(100):
        bars = [[(rng.randint(-5, 6), float(rng.randint(1, 1000))) for _ in range(rng.randint(1, 6))]
                for _ in range(rng.randint(2, 5))]
        tonic = rng.randint(-5, 6)
        mode = rng.choice(("major", "minor"))
        delta = rng.randint(-6, 6)
        base = tension_from_clouds(bars, key_coe(tonic, mode))
        shifted = tension_from_clouds(
            [[(k + delta, w) for k, w in bar] for bar in bars],
            key_coe(tonic + delta, mode))
        for name in ("cloud_diameter", "cloud_momentum", "tensile_strain"):
            for a, b in zip(base.feature(name), shifted.feature(name)):
                assert abs(a - b) < 1e-9


# quartiles and discretization ------------------------------------------------

def test_quartiles_of_1234():
    vals = [1.0, 2.0, 3.0, 4.0]
    profile = tension_from_clouds([[(0, 1.0)]] * 4, None)
    profile = profile.__class__(tuple(vals), tuple(vals), tuple(vals))
    th = fit_tension_thresholds([profile])
    assert th.cloud_diameter == (1.75, 2.5, 3.25)
    assert th.cloud_momentum == (1.75, 2.5, 3.25)


def test_quartiles_require_four_bars():
    profile = tension_from_clouds([[(0, 1.0)]] * 3, None)
    with pytest.raises(ValueError):
        fit_tension_thresholds([profile])


def test_uniform_sample_thresholds():
    rng = np.random.default_rng(0)
    vals = tuple(rng.uniform(0, 1, 5000))
    from looptab.tension import TensionProfile
    th = fit_tension_thresholds([TensionProfile(vals, vals, vals)])
    for got, want in zip(th.cloud_diameter, (0.25, 0.5, 0.75)):
        assert abs(got - want) < 0.02


def test_level_boundaries():
    th = (1.0, 2.0, 3.0)
    assert level_of(0.5, th) == "q1"
    assert level_of(1.0, th) == "q2"
    assert level_of(2.0, th) == "q3"
    assert level_of(3.0, th) == "q4"
    assert level_of(99.0, th) == "q4"


def test_constant_values_collapse_to_one_level():
    from looptab.tension import TensionProfile
    vals = (5.0,) * 8
    profile = TensionProfile(vals, vals, vals)
    th = fit_tension_thresholds([profile])
    leveled = discretize_profile(profile, th)
    # equal thresholds: every value >= t3 maps to q4
    assert set(leveled.cd_levels) == {"q4"}


def test_quartile_binning_balanced():
    rng = np.random.default_rng(1)
    from looptab.tension import TensionProfile
    vals = tuple(rng.permutation(np.linspace(0, 1, 100)))
    profile = TensionProfile(vals, vals, vals)
    leveled = discretize_profile(profile, fit_tension_thresholds([profile]))
    counts = {q: leveled.cd_levels.count(q) for q in ("q1", "q2", "q3", "q4")}
    for c in counts.values():
        assert abs(c - 25) <= 2


def test_thresholds_json_round_trip():
    th = TensionThresholds((0.1, 0.2, 0.3), (1.5, 2.5, 3.5), (0.0, 0.0, 1.0))
    assert thresholds_from_json(thresholds_to_json(th)) == th


def test_drums_excluded_from_clouds():
    m = Measure(index=0, events=(
        NoteEvent("clean0", 0, 960, 60, 1, 0),
        NoteEvent("drums", 0, 960, 38),
    ))
    profile = compute_tension_profile(Score(measures=(m,)))
    assert profile.cloud_diameter == (0.0,)


def test_invalid_spiral_params():
    with pytest.raises(ValueError):
        SpiralParams(radius=0.0)
    with pytest.raises(ValueError):
        SpiralParams(chord_weights=(0.5, 0.4, 0.2))
