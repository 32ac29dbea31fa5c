"""Spiral-array pitch geometry and per-bar tonal tension.

Pitch classes sit on a helix indexed along the line of fifths; chords and
keys are weighted combinations of pitch positions. Per bar we compute:

* cloud diameter: max pairwise distance between the bar's pitch positions,
* cloud momentum: distance between consecutive bars' centers of effect,
* tensile strain: distance between a bar's center of effect and the key's.

A bar's values come from the note columns (:class:`ScoreColumns`) of one
song or of a whole batch of songs at once, with positions from a 12-entry
pitch-class table; its center of effect sums its notes in note order, as
a Python loop would, and its diameter depends only on its 12-bit
pitch-class mask and is memoized per :class:`SpiralParams`. Each song (or
loop) sums its own key the same way, and the keys of all of them are
chosen in one array pass.
Raw values are discretized into four levels (q1..q4) using corpus-global
first quartile / median / third quartile thresholds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import accumulate, chain
from typing import Iterable, Sequence

import numpy as np

from .config import SpiralParams
from .score import ScoreColumns
from .tokens import TENSION_FEATURES

# sin/cos of k*pi/2 for integer k, kept exact
_SIN = (0.0, 1.0, 0.0, -1.0)
_COS = (1.0, 0.0, -1.0, 0.0)

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


# Below this many runs left, each run sums its remaining rows on its own: a
# few long runs (a whole song's key) would otherwise take one vector
# addition per note.
_FEW_RUNS = 4


def _in_order_sums(terms: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The sum of each run of rows ``terms[starts[i]:ends[i]]``, added in
    row order from 0.0 as a Python loop adds it (``np.add.reduceat`` adds
    pairwise, which moves the last bits): one vector addition per rank adds
    each run's row of that rank, over the runs at least that long, until
    fewer than ``_FEW_RUNS`` are; each of those then adds its remaining
    rows with one sequential ``cumsum``."""
    lengths = ends - starts
    by_length = (-lengths).argsort(kind="stable")
    starts, lengths = starts[by_length], lengths[by_length]
    sums = np.zeros((len(lengths), terms.shape[1]))
    rank = 0
    for live in (len(lengths) - np.bincount(lengths).cumsum()).tolist():
        if live < _FEW_RUNS:
            break
        sums[:live] += terms[starts[:live] + rank]  # the runs longer than this rank
        rank += 1
    for i in range(int((lengths > rank).sum())):
        rest = terms[starts[i] + rank:starts[i] + lengths[i]]
        sums[i] = np.concatenate([sums[i:i + 1], rest]).cumsum(axis=0)[-1]
    out = np.empty_like(sums)
    out[by_length] = sums
    return out


def _bar_table(song: ScoreColumns, params: SpiralParams):
    """The (w*x, w*y, w*z, w) terms of the song's pitched notes in note
    order (w the duration, (x, y, z) the pitch position) and each bar's row
    bounds among them; per bar, its center of effect, cloud diameter and
    momentum, each equal to what :func:`tension_from_clouds` gives for the
    bar's (fifth-index, duration) cloud. ``song`` may be a batch's columns:
    no bar spans two songs, and the momentum of a song's first bar is never
    read."""
    positions, diameters = _pitch_class_table(params)
    pitched = song.pitched
    pc = song.midi[pitched] % 12
    w = song.duration[pitched].astype(float)
    terms = np.empty((len(w), 4))
    terms[:, :3] = w[:, None] * positions[pc]
    terms[:, 3] = w
    bounds = np.searchsorted(song.bar[pitched], np.arange(song.n_bars + 1))
    sums = _in_order_sums(terms, bounds[:-1], bounds[1:])
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
    return terms, bounds, coes, list(map(diameters.__getitem__, masks)), _momenta(coes)


def _nearest_keys(centers: np.ndarray, params: SpiralParams) -> list[KeyEstimate]:
    """:func:`_nearest_key` of each row of ``centers``. All 24 distances
    are screened at once with ``x * x``; a row whose two nearest candidates
    lie within 1e-9 of each other is decided by :func:`_nearest_key`
    itself, so the choice is the same as its own."""
    candidates = _key_candidates(params)
    offsets = centers[:, None, :] - np.array([c.center for c in candidates])
    distances = np.sqrt((offsets * offsets).sum(axis=2))
    best = distances.argmin(axis=1)
    two = np.partition(distances, 1, axis=1)
    keys = [candidates[k] for k in best.tolist()]
    for row in (two[:, 1] - two[:, 0] <= 1e-9).nonzero()[0].tolist():
        keys[row] = _nearest_key(tuple(centers[row].tolist()), params)
    return keys


def compute_tension_profile(song: ScoreColumns,
                            params: SpiralParams = DEFAULT_PARAMS) -> TensionProfile:
    """Tension of every bar of ``song`` against the key estimated over the
    whole of ``song``; a song without pitched notes has strain 0."""
    return loop_tension_profiles(song, [(0, song.n_bars)], params)[0]


def loop_tension_profiles(song: ScoreColumns, spans: Sequence[tuple[int, int]],
                          params: SpiralParams = DEFAULT_PARAMS) -> list[TensionProfile]:
    """The tension of each ``[start, end)`` bar range of ``song`` as
    :func:`compute_tension_profile` gives it for the range on its own: with
    its own key and a first-bar momentum of 0. ``song`` may be the columns
    of a batch and the ranges its songs or loops, none of them across two
    songs. The bar values are computed once and shared among the ranges,
    and the keys are chosen for all the ranges at once; the bars outside
    every range are not computed."""
    first, last = np.array(spans, np.int64).reshape(-1, 2).T
    n = song.n_bars
    inside = (np.bincount(first, minlength=n + 1) - np.bincount(last, minlength=n + 1)
              ).cumsum()[:-1] > 0
    if not inside.all():  # the bars inside a range, renumbered from 0
        before = np.zeros(n + 1, np.int64)
        np.cumsum(inside, out=before[1:])
        notes = inside[song.bar]
        song = replace(song, tempo=song.tempo[inside], numerator=song.numerator[inside],
                       bar=before[song.bar[notes]], midi=song.midi[notes],
                       duration=song.duration[notes], track=song.track[notes])
        first, last = before[first], before[last]
        spans = list(zip(first.tolist(), last.tolist()))
    terms, bounds, coes, cds, cms = _bar_table(song, params)
    lo, hi = bounds[first], bounds[last]
    held = (hi > lo).nonzero()[0]  # the ranges with pitched notes have a key
    sums = _in_order_sums(terms, lo[held], hi[held])  # summing the range's notes in order
    keys: list = [None] * len(spans)
    for i, key in zip(held.tolist(), _nearest_keys(sums[:, :3] / sums[:, 3:], params)):
        keys[i] = key.center
    return [TensionProfile(tuple(cds[s:e]), (0.0,)[:e - s] + tuple(cms[s + 1:e]),
                           _strains(coes[s:e], key))
            for (s, e), key in zip(spans, keys)]


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


LEVELS = ("q1", "q2", "q3", "q4")


def levels_of(values: Sequence[float], thresholds: tuple[float, float, float]) -> tuple[str, ...]:
    """The level of every value, binned half-open in one ``searchsorted``:
    v < t1 -> q1, t1 <= v < t2 -> q2, t2 <= v < t3 -> q3, v >= t3 -> q4.
    NaN, which compares false with every threshold, is q1."""
    t1, t2, t3 = thresholds
    if not t1 <= t2 <= t3:
        raise ValueError("thresholds must be ordered")
    values = np.asarray(values, dtype=float)
    bins = np.searchsorted(np.asarray(thresholds, dtype=float), values, side="right")
    bins[np.isnan(values)] = 0
    return tuple(map(LEVELS.__getitem__, bins.tolist()))


def discretize_profile(profile: TensionProfile, thresholds: TensionThresholds) -> TensionProfile:
    return discretize_profiles([profile], thresholds)[0]


def discretize_profiles(profiles: Sequence[TensionProfile],
                        thresholds: TensionThresholds) -> list[TensionProfile]:
    """Each profile with its levels; each feature of all the profiles is
    binned in one :func:`levels_of`."""
    cd, cm, ts = (levels_of(np.fromiter(chain.from_iterable(p.feature(name) for p in profiles),
                                        float), getattr(thresholds, name))
                  for name in TENSION_FEATURES)
    ends = list(accumulate(map(len, profiles)))
    return [TensionProfile(p.cloud_diameter, p.cloud_momentum, p.tensile_strain,
                           cd[a:b], cm[a:b], ts[a:b])
            for p, a, b in zip(profiles, [0, *ends], ends)]


# Persistence: thresholds sidecar and per-bar CSV rows.

def thresholds_to_json(thresholds: TensionThresholds) -> str:
    return json.dumps({
        "format": "looptab-tension-thresholds",
        "version": 1,
        "cloud_diameter": list(thresholds.cloud_diameter),
        "cloud_momentum": list(thresholds.cloud_momentum),
        "tensile_strain": list(thresholds.tensile_strain),
    }, indent=2)


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
