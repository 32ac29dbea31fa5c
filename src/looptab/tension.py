"""Spiral-array pitch geometry and per-bar tonal tension.

Pitch classes sit on a helix indexed along the line of fifths; chords and
keys are weighted combinations of pitch positions. Per bar we compute:

* cloud diameter: max pairwise distance between the bar's pitch positions,
* cloud momentum: distance between consecutive bars' centers of effect,
* tensile strain: distance between a bar's center of effect and the key's.

A bar's values come from the song's note columns (:class:`ScoreColumns`),
with positions from a 12-entry pitch-class table; its center of effect
sums its notes in note order, as a Python loop would, and its diameter
depends only on its 12-bit pitch-class mask and is memoized per
:class:`SpiralParams`.
Raw values are discretized into four levels (q1..q4) using corpus-global
first quartile / median / third quartile thresholds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .score import ScoreColumns
from .tokens import TENSION_FEATURES

DEFAULT_HEIGHT = math.sqrt(2.0 / 15.0)
DEFAULT_WEIGHTS = (0.536, 0.274, 0.190)

# sin/cos of k*pi/2 for integer k, kept exact
_SIN = (0.0, 1.0, 0.0, -1.0)
_COS = (1.0, 0.0, -1.0, 0.0)


@dataclass(frozen=True)
class SpiralParams:
    radius: float = 1.0
    height: float = DEFAULT_HEIGHT
    chord_weights: tuple[float, float, float] = DEFAULT_WEIGHTS
    key_weights: tuple[float, float, float] = DEFAULT_WEIGHTS

    def __post_init__(self):
        if self.radius <= 0 or self.height <= 0:
            raise ValueError("radius and height must be positive")
        for triple in (self.chord_weights, self.key_weights):
            if any(w <= 0 for w in triple):
                raise ValueError("weights must be positive")
            if abs(sum(triple) - 1.0) > 1e-9:
                raise ValueError("weight triple must sum to 1")


DEFAULT_PARAMS = SpiralParams()


@dataclass(frozen=True)
class KeyEstimate:
    tonic_fifth_index: int
    mode: str
    center: tuple[float, float, float]


@dataclass(frozen=True)
class TensionProfile:
    cloud_diameter: tuple[float, ...]
    cloud_momentum: tuple[float, ...]
    tensile_strain: tuple[float, ...]
    cd_levels: tuple[str, ...] | None = None
    cm_levels: tuple[str, ...] | None = None
    ts_levels: tuple[str, ...] | None = None

    def __len__(self) -> int:
        return len(self.cloud_diameter)

    def feature(self, name: str) -> tuple[float, ...]:
        return getattr(self, name)


@dataclass(frozen=True)
class TensionThresholds:
    """Per-feature (Q1, median, Q3) separating thresholds."""

    cloud_diameter: tuple[float, float, float]
    cloud_momentum: tuple[float, float, float]
    tensile_strain: tuple[float, float, float]


def fifth_index_of_pitch(midi_pitch: int) -> int:
    """Unique k in [-5, 6] with 7k = pitch class (mod 12)."""
    if not 0 <= midi_pitch <= 127:
        raise ValueError("midi pitch outside [0, 127]")
    k = (7 * (midi_pitch % 12)) % 12
    return k - 12 if k > 6 else k


def pitch_position(k: int, params: SpiralParams = DEFAULT_PARAMS) -> tuple[float, float, float]:
    r = params.radius
    return (r * _SIN[k % 4], r * _COS[k % 4], k * params.height)


def _distance(a: Sequence[float], b: Sequence[float]) -> float:
    return math.sqrt((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2 + (a[2] - b[2]) ** 2)


def coe_of_indices(weighted: Iterable[tuple[int, float]],
                   params: SpiralParams = DEFAULT_PARAMS) -> tuple[float, float, float] | None:
    """Weight-averaged position of (fifth-index, weight) pairs; None when empty."""
    total = 0.0
    acc = [0.0, 0.0, 0.0]
    for k, w in weighted:
        if w <= 0:
            raise ValueError("weights must be positive")
        p = pitch_position(k, params)
        acc[0] += w * p[0]
        acc[1] += w * p[1]
        acc[2] += w * p[2]
        total += w
    if total == 0.0:
        return None
    return (acc[0] / total, acc[1] / total, acc[2] / total)


def cloud_diameter_of_indices(ks: Iterable[int], params: SpiralParams = DEFAULT_PARAMS) -> float:
    positions = [pitch_position(k, params) for k in set(ks)]
    if len(positions) < 2:
        return 0.0
    return max(_distance(a, b)
               for i, a in enumerate(positions) for b in positions[i + 1:])


def _triad_indices(root_k: int, quality: str) -> tuple[int, int, int]:
    # (root, fifth, third) along the line of fifths
    third = root_k + 4 if quality == "major" else root_k - 3
    return (root_k, root_k + 1, third)


def chord_coe(root_k: int, quality: str, params: SpiralParams = DEFAULT_PARAMS) -> tuple[float, float, float]:
    w1, w2, w3 = params.chord_weights
    root, fifth, third = _triad_indices(root_k, quality)
    return coe_of_indices([(root, w1), (fifth, w2), (third, w3)], params)


def key_coe(tonic_k: int, mode: str, params: SpiralParams = DEFAULT_PARAMS) -> tuple[float, float, float]:
    """Key center: weighted I, V, IV chord centers.

    Minor keys use minor I and IV triads with a major V.
    """
    o1, o2, o3 = params.key_weights
    if mode == "major":
        chords = [chord_coe(tonic_k, "major", params),
                  chord_coe(tonic_k + 1, "major", params),
                  chord_coe(tonic_k - 1, "major", params)]
    elif mode == "minor":
        chords = [chord_coe(tonic_k, "minor", params),
                  chord_coe(tonic_k + 1, "major", params),
                  chord_coe(tonic_k - 1, "minor", params)]
    else:
        raise ValueError(f"unknown mode {mode!r}")
    weights = (o1, o2, o3)
    return tuple(sum(w * c[i] for w, c in zip(weights, chords)) for i in range(3))


@lru_cache(maxsize=None)
def _key_candidates(params: SpiralParams) -> tuple[KeyEstimate, ...]:
    """The 24 candidate keys in tie-break order: tonics -5..6, major before minor."""
    return tuple(KeyEstimate(tonic, mode, key_coe(tonic, mode, params))
                 for tonic in range(-5, 7) for mode in ("major", "minor"))


def _nearest_key(center: Sequence[float], params: SpiralParams) -> KeyEstimate:
    """The candidate key closest to ``center``; a tie keeps the earlier candidate."""
    best, best_d = None, None
    for candidate in _key_candidates(params):
        d = _distance(center, candidate.center)
        if best is None or d < best_d - 1e-12:
            best, best_d = candidate, d
    return best


def estimate_key(clouds: Sequence[Sequence[tuple[int, float]]],
                 params: SpiralParams = DEFAULT_PARAMS) -> KeyEstimate:
    """Key whose center lies closest to the center of effect of all the
    (fifth-index, weight) bar clouds together.

    Candidates are the 12 tonics in [-5, 6] crossed with major/minor; ties
    break toward the lowest tonic index, major before minor.
    """
    piece = coe_of_indices((note for cloud in clouds for note in cloud), params)
    if piece is None:
        raise ValueError("no notes")
    return _nearest_key(piece, params)


def tension_from_clouds(clouds: Sequence[Sequence[tuple[int, float]]],
                        key_center: Sequence[float] | None,
                        params: SpiralParams = DEFAULT_PARAMS) -> TensionProfile:
    """Tension features from per-bar (fifth-index, weight) clouds and a key
    center; fifth indices may lie anywhere on the line of fifths.

    Conventions: empty bars yield 0 for every feature; the first bar's
    momentum is 0, as is momentum against an empty neighbour.
    """
    coes = [coe_of_indices(cloud, params) if cloud else None for cloud in clouds]
    cds = [cloud_diameter_of_indices((k for k, _ in cloud), params) for cloud in clouds]
    return TensionProfile(tuple(cds), tuple(_momenta(coes)), _strains(coes, key_center))


def _momenta(coes: Sequence[tuple[float, float, float] | None]) -> list[float]:
    return [0.0 if i == 0 or coe is None or coes[i - 1] is None else _distance(coe, coes[i - 1])
            for i, coe in enumerate(coes)]


def _strains(coes, key_center: Sequence[float] | None) -> tuple[float, ...]:
    return tuple(0.0 if coe is None or key_center is None else _distance(coe, key_center)
                 for coe in coes)


@lru_cache(maxsize=8)
def _pitch_class_table(params: SpiralParams) -> tuple[np.ndarray, dict[int, float]]:
    """Spiral position of each pitch class (midi % 12), a 12 x 3 array, and
    the memo of cloud diameters by 12-bit pitch-class mask, filled as masks
    occur."""
    return np.array([pitch_position(fifth_index_of_pitch(pc), params) for pc in range(12)]), {}


def _in_order_sums(terms: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """The sum of each run of rows ``terms[bounds[i]:bounds[i + 1]]``, added
    in row order from 0.0 as a Python loop adds it (``np.add.reduceat`` adds
    pairwise, which moves the last bits): one vector addition per rank adds
    each run's row of that rank, over the runs at least that long."""
    lengths = bounds[1:] - bounds[:-1]
    runs = len(lengths)
    by_length = (-lengths).argsort(kind="stable")
    starts = bounds[:-1][by_length]
    sums = np.zeros((runs, terms.shape[1]))
    for rank, live in enumerate((runs - np.bincount(lengths).cumsum())[:-1].tolist()):
        sums[:live] += terms[starts[:live] + rank]  # the runs longer than this rank
    out = np.empty_like(sums)
    out[by_length] = sums
    return out


def _bar_table(song: ScoreColumns, params: SpiralParams):
    """The (w*x, w*y, w*z, w) terms of the song's pitched notes in note
    order (w the duration, (x, y, z) the pitch position) and each bar's row
    bounds among them; per bar, its center of effect, cloud diameter and
    momentum, each equal to what :func:`tension_from_clouds` gives for the
    bar's (fifth-index, duration) cloud."""
    positions, diameters = _pitch_class_table(params)
    pitched = song.pitched
    pc = song.midi[pitched] % 12
    w = song.duration[pitched].astype(float)
    terms = np.empty((len(w), 4))
    terms[:, :3] = w[:, None] * positions[pc]
    terms[:, 3] = w
    bounds = np.searchsorted(song.bar[pitched], np.arange(song.n_bars + 1))
    sums = _in_order_sums(terms, bounds)
    filled = bounds[:-1] < bounds[1:]
    centers = np.divide(sums[:, :3], sums[:, 3:], out=np.zeros((len(sums), 3)),
                        where=filled[:, None])
    coes = centers.tolist()
    for b in (~filled).nonzero()[0].tolist():
        coes[b] = None
    masks = np.zeros(song.n_bars, np.int64)
    masks[filled] = np.bitwise_or.reduceat(1 << pc, bounds[:-1][filled])
    masks = masks.tolist()
    for mask in set(masks).difference(diameters):
        ks = [fifth_index_of_pitch(c) for c in range(12) if mask >> c & 1]
        diameters[mask] = cloud_diameter_of_indices(ks, params)
    return terms, bounds.tolist(), coes, list(map(diameters.__getitem__, masks)), _momenta(coes)


def compute_tension_profile(song: ScoreColumns,
                            params: SpiralParams = DEFAULT_PARAMS) -> TensionProfile:
    """Tension of every bar of ``song`` against the key estimated over the
    whole of ``song``; a song without pitched notes has strain 0."""
    return loop_tension_profiles(song, [(0, song.n_bars)], params)[0]


def loop_tension_profiles(song: ScoreColumns, spans: Iterable[tuple[int, int]],
                          params: SpiralParams = DEFAULT_PARAMS) -> list[TensionProfile]:
    """The tension of each ``[start, end)`` bar range of ``song`` as
    :func:`compute_tension_profile` gives it for the range on its own: with
    its own key and a first-bar momentum of 0. The bar values are computed
    once and shared among the ranges."""
    terms, bounds, coes, cds, cms = _bar_table(song, params)
    profiles = []
    for s, e in spans:
        key = None
        if bounds[e] > bounds[s]:  # the key sums the range's notes in order
            x, y, z, w = terms[bounds[s]:bounds[e]].cumsum(axis=0)[-1].tolist()
            key = _nearest_key((x / w, y / w, z / w), params).center
        profiles.append(TensionProfile(tuple(cds[s:e]), (0.0,)[:e - s] + tuple(cms[s + 1:e]),
                                       _strains(coes[s:e], key)))
    return profiles


def fit_tension_thresholds(profiles: Iterable[TensionProfile]) -> TensionThresholds:
    """Pooled Q1/median/Q3 per feature over all bars of all profiles.

    Quantiles use linear interpolation between order statistics; at least
    4 pooled bar values are required.
    """
    pooled = {name: [] for name in TENSION_FEATURES}
    for prof in profiles:
        for name in TENSION_FEATURES:
            pooled[name].extend(prof.feature(name))
    n = len(pooled["cloud_diameter"])
    if n < 4:
        raise ValueError(f"need at least 4 bar values to fit quartiles, got {n}")
    out = {}
    for name in TENSION_FEATURES:
        q1, med, q3 = np.quantile(np.asarray(pooled[name], dtype=float),
                                  [0.25, 0.5, 0.75], method="linear")
        out[name] = (float(q1), float(med), float(q3))
    return TensionThresholds(**out)


def level_of(value: float, thresholds: tuple[float, float, float]) -> str:
    """Half-open binning: v < t1 -> q1, t1 <= v < t2 -> q2, t2 <= v < t3 -> q3, v >= t3 -> q4."""
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


def discretize_profile(profile: TensionProfile, thresholds: TensionThresholds) -> TensionProfile:
    return replace(
        profile,
        cd_levels=tuple(level_of(v, thresholds.cloud_diameter) for v in profile.cloud_diameter),
        cm_levels=tuple(level_of(v, thresholds.cloud_momentum) for v in profile.cloud_momentum),
        ts_levels=tuple(level_of(v, thresholds.tensile_strain) for v in profile.tensile_strain),
    )


# Persistence: thresholds sidecar and per-bar CSV rows.

def thresholds_to_json(thresholds: TensionThresholds) -> str:
    return json.dumps({
        "format": "looptab-tension-thresholds",
        "version": 1,
        "cloud_diameter": list(thresholds.cloud_diameter),
        "cloud_momentum": list(thresholds.cloud_momentum),
        "tensile_strain": list(thresholds.tensile_strain),
    }, indent=2)


def thresholds_from_json(text: str) -> TensionThresholds:
    doc = json.loads(text)
    if doc.get("format") != "looptab-tension-thresholds":
        raise ValueError("not a tension thresholds document")
    return TensionThresholds(
        cloud_diameter=tuple(doc["cloud_diameter"]),
        cloud_momentum=tuple(doc["cloud_momentum"]),
        tensile_strain=tuple(doc["tensile_strain"]),
    )


CSV_HEADER = "song,bar,cd,cm,ts,cd_level,cm_level,ts_level"


def profile_csv_rows(song: str, profile: TensionProfile) -> list[str]:
    rows = []
    for i in range(len(profile)):
        cdl = profile.cd_levels[i] if profile.cd_levels else ""
        cml = profile.cm_levels[i] if profile.cm_levels else ""
        tsl = profile.ts_levels[i] if profile.ts_levels else ""
        rows.append(f"{song},{i},{profile.cloud_diameter[i]:.9g},"
                    f"{profile.cloud_momentum[i]:.9g},{profile.tensile_strain[i]:.9g},"
                    f"{cdl},{cml},{tsl}")
    return rows
