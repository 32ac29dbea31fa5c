import itertools
import json
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from looptab.tension import (
    DEFAULT_PARAMS,
    BarTension,
    SpiralParams,
    TensionProfile,
    TensionThresholds,
    cloud_diameter_of_indices,
    coe_of_indices,
    compute_tension_profile,
    discretize_profile,
    estimate_key,
    fifth_index_of_pitch,
    fit_tension_thresholds,
    key_coe,
    _key_candidates,
    _nearest_key,
    _nearest_keys,
    _pitch_class_table,
    bar_tension,
    levels_of,
    loop_tension_profiles,
    pitch_position,
    tension_from_clouds,
    thresholds_to_json,
)
from looptab.tokens import TENSION_FEATURES

from util import columns

H = DEFAULT_PARAMS.height


def bar_clouds(bars):
    """Per-bar (fifth-index, duration) clouds of plain bars, drums
    excluded: the reference the per-bar tables must reproduce."""
    return [[(fifth_index_of_pitch(midi), float(duration))
             for track, _, duration, midi, *_ in notes if track != "drums"]
            for _, _, notes, _ in bars]


def dist(a, b):
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))


def make_bars(bars):
    """Plain 4/4 bars from lists of (midi, duration), each note at onset 0."""
    return [(4, 120, [("clean0", 0, dur, midi, 1, 0) for midi, dur in notes], ())
            for notes in bars]


def level_of(value: float, thresholds: tuple[float, float, float]) -> str:
    """Half-open binning of one value, the reference for ``levels_of``:
    v < t1 -> q1, t1 <= v < t2 -> q2, t2 <= v < t3 -> q3, v >= t3 -> q4."""
    t1, t2, t3 = thresholds
    if not t1 <= t2 <= t3:
        raise ValueError("thresholds must be ordered")
    if value >= t3:
        return "q4"
    if value >= t2:
        return "q3"
    if value >= t1:
        return "q2"
    return "q1"


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
    bars = make_bars([[(60, 960), (64, 960), (67, 960)]] * 4)
    key = estimate_key(bar_clouds(bars))
    assert (key.tonic_fifth_index, key.mode) == (0, "major")


def test_a_minor_triads_estimate_a_minor():
    bars = make_bars([[(57, 960), (60, 960), (64, 960)]] * 4)
    key = estimate_key(bar_clouds(bars))
    assert (key.tonic_fifth_index, key.mode) == (3, "minor")


def test_empty_score_raises():
    with pytest.raises(ValueError, match="no notes"):
        estimate_key(bar_clouds([]))


def test_key_estimate_duration_scale_invariant():
    rng = random.Random(5)
    for _ in range(20):
        bars = [[(rng.randint(48, 72), rng.randint(100, 1000)) for _ in range(3)]
                for _ in range(3)]
        k1 = estimate_key(bar_clouds(make_bars(bars)))
        k2 = estimate_key(bar_clouds(make_bars([[(p, d * 13) for p, d in bar] for bar in bars])))
        assert (k1.tonic_fifth_index, k1.mode) == (k2.tonic_fifth_index, k2.mode)


# tension profile -------------------------------------------------------------

def test_cd_single_pitch_is_zero():
    profile = compute_tension_profile(columns(make_bars([[(60, 960)]])))
    assert profile.cloud_diameter == (0.0,)


def test_cd_c_major_triad_is_sqrt_3_2():
    profile = compute_tension_profile(columns(make_bars([[(60, 960), (64, 960), (67, 960)]])))
    assert abs(profile.cloud_diameter[0] - math.sqrt(3.2)) < 1e-9


def test_cm_zero_for_identical_consecutive_bars():
    bar = [(60, 960), (67, 960)]
    profile = compute_tension_profile(columns(make_bars([bar, bar])))
    assert profile.cloud_momentum == (0.0, 0.0)


def test_cm_first_bar_and_empty_bar_conventions():
    profile = compute_tension_profile(columns(make_bars([[(60, 960)], [], [(67, 960)]])))
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
    assert levels_of([0.5, 1.0, 2.0, 3.0, 99.0], th) == ("q1", "q2", "q3", "q4", "q4")


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
    doc = json.loads(thresholds_to_json(th))
    assert doc["format"] == "looptab-tension-thresholds"
    assert TensionThresholds(**{name: tuple(doc[name]) for name in TENSION_FEATURES}) == th


def test_drums_excluded_from_clouds():
    profile = compute_tension_profile(columns([(4, 120, [
        ("clean0", 0, 960, 60, 1, 0),
        ("drums", 0, 960, 38),
    ], ())]))
    assert profile.cloud_diameter == (0.0,)


def test_invalid_spiral_params():
    with pytest.raises(ValueError):
        SpiralParams(radius=0.0)
    with pytest.raises(ValueError):
        SpiralParams(chord_weights=(0.5, 0.4, 0.2))


# per-bar tables against a per-bar oracle --------------------------------------

def oracle_profile(clouds, key_center, params=DEFAULT_PARAMS):
    """Tension of (fifth-index, weight) clouds computed bar by bar, each
    momentum and strain one Python distance of ``** 2`` terms: the oracle
    that the package's array passes must match bit for bit."""
    coes = [coe_of_indices(cloud, params) if cloud else None for cloud in clouds]
    return TensionProfile(
        tuple(cloud_diameter_of_indices((k for k, _ in cloud), params) for cloud in clouds),
        tuple(0.0 if i == 0 or coe is None or coes[i - 1] is None else dist(coe, coes[i - 1])
              for i, coe in enumerate(coes)),
        tuple(0.0 if coe is None or key_center is None else dist(coe, key_center)
              for coe in coes))


def reference_profile(bars, params):
    """Tension of plain bars as the per-bar oracle computes it from their
    clouds, against the key of all of them (none without pitched notes)."""
    clouds = bar_clouds(bars)
    try:
        key_center = estimate_key(clouds, params).center
    except ValueError:
        key_center = None
    return oracle_profile(clouds, key_center, params)


@st.composite
def spiral_params(draw):
    def triple():
        ws = [draw(st.floats(0.05, 1.0)) for _ in range(3)]
        return tuple(w / sum(ws) for w in ws)

    return SpiralParams(draw(st.floats(0.1, 10.0)), draw(st.floats(0.01, 5.0)),
                        triple(), triple())


@st.composite
def plain_bars(draw):
    tracks = st.sampled_from(("clean0", "bass", "leads", "drums"))
    return [(4, 120, [(track, draw(st.integers(0, 3839)), draw(st.integers(1, 3840)),
                       draw(st.integers(0, 127)), None if track == "drums" else 1,
                       None if track == "drums" else 0)
                      for track in draw(st.lists(tracks, max_size=6))], ())
            for _ in range(draw(st.integers(0, 6)))]


@settings(deadline=None, max_examples=300)
@given(bars=plain_bars(), params=st.one_of(st.just(DEFAULT_PARAMS), spiral_params()))
def test_tension_profile_equals_the_cloud_reference_exactly(bars, params):
    assert compute_tension_profile(columns(bars), params) == reference_profile(bars, params)


DRUM_BAR = (4, 120, [("drums", 0, 960, 36, None, None)], ())
EMPTY_BAR = (4, 120, [], ())


@st.composite
def bars_and_spans(draw):
    """Plain bars, with empty and drum-only ones among them, and ranges of
    them that may overlap and start at bar 0."""
    bars = draw(plain_bars())
    bars = [draw(st.sampled_from((bar, DRUM_BAR, EMPTY_BAR))) for bar in bars]
    n = len(bars)
    spans = draw(st.lists(st.tuples(st.integers(0, n), st.integers(0, n)).map(sorted).map(tuple),
                          max_size=6)) if n else []
    return bars, spans


@settings(deadline=None, max_examples=300)
@given(case=bars_and_spans(), params=st.one_of(st.just(DEFAULT_PARAMS), spiral_params()))
@example(case=([DRUM_BAR, EMPTY_BAR, DRUM_BAR], [(0, 3), (1, 2), (0, 1)]),
         params=DEFAULT_PARAMS)  # no range has a key
@example(case=(make_bars([[(60, 960)], [], [(64, 480), (67, 480)], [(62, 960)]]),
               [(0, 4), (1, 3), (2, 4), (0, 2), (3, 3)]),
         params=DEFAULT_PARAMS)  # overlapping ranges, an empty one and an empty bar
def test_loop_profiles_equal_the_profile_of_each_range_alone(case, params):
    bars, spans = case
    got = bar_tension(columns(bars), spans, params)
    want = [reference_profile(bars[s:e], params) for s, e in spans]
    assert loop_tension_profiles(columns(bars), spans, params) == want
    assert got.ends.tolist() == list(itertools.accumulate(e - s for s, e in spans))
    for array, name in zip((got.cd, got.cm, got.ts), TENSION_FEATURES):
        assert array.dtype == np.float64
        assert array.tolist() == [v for profile in want for v in profile.feature(name)]
    halves = BarTension.join([bar_tension(columns(bars), spans[:2], params),
                              bar_tension(columns(bars), spans[2:], params)])
    assert halves.profiles() == got.profiles() == want


@pytest.mark.parametrize("thresholds", [(1.0, 2.0, 3.0), (1.0, 1.0, 3.0), (1.0, 3.0, 3.0),
                                        (2.0, 2.0, 2.0), (-0.0, 0.0, 0.0)])
def test_binning_in_one_call_agrees_with_level_of(thresholds):
    values = (*thresholds, *(math.nextafter(t, -math.inf) for t in thresholds),
              *(math.nextafter(t, math.inf) for t in thresholds),
              -math.inf, math.inf, math.nan, 0.0, -0.0, 99.0)
    assert levels_of(values, thresholds) == tuple(level_of(v, thresholds) for v in values)
    assert levels_of([math.nan], thresholds) == ("q1",)  # searchsorted alone would say q4


@pytest.mark.parametrize("thresholds", [(2.0, 1.0, 3.0), (1.0, 3.0, 2.0), (math.nan, 1.0, 2.0)])
def test_binning_in_one_call_rejects_unordered_thresholds(thresholds):
    for binning in (lambda: level_of(1.5, thresholds), lambda: levels_of([1.5], thresholds)):
        with pytest.raises(ValueError, match="thresholds must be ordered"):
            binning()


@pytest.mark.parametrize("params", [DEFAULT_PARAMS, SpiralParams(2.0, 0.5)])
def test_keys_chosen_at_once_are_the_keys_chosen_one_by_one(params):
    # random centers, the candidates themselves, and points halfway between
    # two candidates, whose two nearest keys tie up to rounding
    rng = np.random.default_rng(1)
    keys = np.array([c.center for c in _key_candidates(params)])
    pairs = rng.integers(0, len(keys), (300, 2))
    centers = np.concatenate([rng.normal(0.0, 2.0, (300, 3)), keys,
                              (keys[pairs[:, 0]] + keys[pairs[:, 1]]) / 2])
    assert _nearest_keys(centers, params) == [_nearest_key(tuple(c), params)
                                              for c in centers.tolist()]


@pytest.mark.parametrize("params", [DEFAULT_PARAMS, SpiralParams(2.0, 0.5),
                                    SpiralParams(0.7, 3.1, (0.6, 0.3, 0.1))])
def test_the_diameter_table_is_the_cloud_diameter_of_every_mask(params):
    _, diameters = _pitch_class_table(params)
    assert diameters.tolist() == [
        cloud_diameter_of_indices([fifth_index_of_pitch(pc) for pc in range(12) if mask >> pc & 1],
                                  params) for mask in range(1 << 12)]


@settings(deadline=None, max_examples=200)
@given(clouds=st.lists(st.lists(st.tuples(st.integers(-20, 20), st.floats(0.01, 1e4)),
                                max_size=5), max_size=6),
       key=st.one_of(st.none(), st.tuples(*[st.floats(-10.0, 10.0)] * 3)),
       params=st.one_of(st.just(DEFAULT_PARAMS), spiral_params()))
def test_clouds_give_the_per_bar_oracle_exactly(clouds, key, params):
    assert tension_from_clouds(clouds, key, params) == oracle_profile(clouds, key, params)


@pytest.mark.parametrize("feature", ["cloud_momentum", "tensile_strain"])
def test_array_path_squares_by_pow_where_a_product_would_differ(feature):
    """A seeded search for a two-bar song whose bar-1 momentum (against bar
    0) or strain (against the song's key) has coordinate differences d
    with d * d != d ** 2 in the distance's last bit: the song path must
    give the ``** 2`` distance, as the per-bar Python did."""
    rng = random.Random(0)
    for _ in range(50_000):
        bars = make_bars([[(rng.randint(40, 80), rng.randint(1, 3840))
                           for _ in range(rng.randint(1, 4))] for _ in range(2)])
        clouds = bar_clouds(bars)
        key = estimate_key(clouds).center
        other = coe_of_indices(clouds[0]) if feature == "cloud_momentum" else key
        d = [x - y for x, y in zip(coe_of_indices(clouds[1]), other)]
        by_pow = math.sqrt(d[0] ** 2 + d[1] ** 2 + d[2] ** 2)
        by_product = math.sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2])
        if by_pow != by_product:
            break
    else:
        pytest.skip("this libm's pow squares as x * x does on every difference tried")
    assert any(x * x != x ** 2 for x in d)
    assert compute_tension_profile(columns(bars)).feature(feature)[1] == by_pow
    assert tension_from_clouds(clouds, key).feature(feature)[1] == by_pow
