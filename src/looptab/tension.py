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
pitch-class mask, read from a table of all 4,096 masks built from the 66
pairwise pitch-class distances at first use per :class:`SpiralParams`.
Each song (or loop) sums its own key the same way, and the keys of all of
them are chosen in one array pass. The momenta and strains of all the
songs or loops of a batch are one array pass each (:func:`bar_tension`, flat
arrays in a :class:`BarTension`): every coordinate difference is squared
by ``operator.pow(d, 2)``, the very ``float ** 2`` (libm ``pow``) of a
per-bar Python distance, so the values are the same to the last bit.
Raw values are discretized into four levels (q1..q4) using corpus-global
first quartile / median / third quartile thresholds, binned in one
``searchsorted`` per feature.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import accumulate, chain, combinations, product, repeat
from os import PathLike
from typing import Iterable, Sequence

import numpy as np

from .config import SpiralParams
from .score import ScoreColumns
from .tokens import TENSION_FEATURES, TENSION_LEVELS

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


@dataclass(frozen=True, eq=False)
class BarTension:
    """The tension of every bar of a sequence of bar ranges, range after
    range: range ``i`` holds the entries ``ends[i - 1]:ends[i]`` (from 0 for
    the first range) of the float64 arrays ``cd``, ``cm`` and ``ts``."""

    cd: np.ndarray
    cm: np.ndarray
    ts: np.ndarray
    ends: np.ndarray

    @classmethod
    def of_profiles(cls, profiles: Iterable[TensionProfile]) -> BarTension:
        profiles = list(profiles)
        return cls(*(np.fromiter(chain.from_iterable(p.feature(name) for p in profiles), float)
                     for name in TENSION_FEATURES),
                   np.fromiter(accumulate(map(len, profiles)), np.int64))

    @classmethod
    def join(cls, parts: Sequence[BarTension]) -> BarTension:
        """The ranges of all ``parts``, part after part."""
        shifts = accumulate((len(part.cd) for part in parts), initial=0)
        return cls(*(np.concatenate([np.zeros(0)] + [getattr(part, name) for part in parts])
                     for name in ("cd", "cm", "ts")),
                   np.concatenate([np.zeros(0, np.int64)]
                                  + [part.ends + shift for part, shift in zip(parts, shifts)]))

    def profiles(self) -> list[TensionProfile]:
        """One profile per range, without levels."""
        cd, cm, ts = self.cd.tolist(), self.cm.tolist(), self.ts.tolist()
        bounds = [0, *self.ends.tolist()]
        return [TensionProfile(tuple(cd[a:b]), tuple(cm[a:b]), tuple(ts[a:b]))
                for a, b in zip(bounds, bounds[1:])]

    def codes(self, thresholds: TensionThresholds) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The level of every bar's cd, cm and ts as codes 0..3 (q1..q4)."""
        return (_level_codes(self.cd, thresholds.cloud_diameter),
                _level_codes(self.cm, thresholds.cloud_momentum),
                _level_codes(self.ts, thresholds.tensile_strain))


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
    filled = np.array([coe is not None for coe in coes], bool)
    centers = np.array([coe or (0.0, 0.0, 0.0) for coe in coes], float).reshape(-1, 3)
    cds = np.array([cloud_diameter_of_indices((k for k, _ in cloud), params) for cloud in clouds],
                   float)
    keyed = key_center is not None
    keys = np.array([key_center if keyed else (0.0, 0.0, 0.0)], float)
    return _gather(centers, filled, cds, np.array([0]), np.array([len(clouds)]), keys,
                   np.array([keyed])).profiles()[0]


def _norms(offsets: np.ndarray) -> np.ndarray:
    """The length of each row of the m x 3 ``offsets``, bit for bit as
    :func:`_distance` gives it: each coordinate squared by Python's own
    ``float ** 2`` (libm ``pow``, which ``x * x``, ``np.square`` and
    ``np.power`` miss in the last bit of some values), then x + y, then + z,
    and the correctly rounded ``np.sqrt``, as ``math.sqrt`` is."""
    squares = np.fromiter(map(operator.pow, offsets.ravel().tolist(), repeat(2)), float,
                          count=offsets.size).reshape(-1, 3)
    return np.sqrt(squares[:, 0] + squares[:, 1] + squares[:, 2])


def _gather(centers: np.ndarray, filled: np.ndarray, cds: np.ndarray, first: np.ndarray,
            last: np.ndarray, keys: np.ndarray, keyed: np.ndarray) -> BarTension:
    """The tension of each ``[first[i], last[i])`` range of the bars whose
    centers of effect are the rows of ``centers`` (``filled`` marks the
    bars that have one) and whose cloud diameters are ``cds``, against the
    key center ``keys[i]`` if ``keyed[i]``. A bar's momentum is its
    distance from the previous bar's center, found once per bar; it is 0
    at a range's first bar and next to an empty bar. Strain is the
    distance from the range's key center, 0 for an empty bar or a range
    without key."""
    lengths = last - first
    ends = np.cumsum(lengths)
    starts = ends - lengths
    owner = np.repeat(np.arange(len(lengths)), lengths)  # the range of each entry
    bar = np.arange(len(owner)) + (first - starts)[owner]
    moved = np.flatnonzero(filled[1:] & filled[:-1]) + 1  # the bars after a bar with notes
    momenta = np.zeros(len(filled))
    momenta[moved] = _norms(centers[moved] - centers[moved - 1])
    cm = momenta[bar]
    cm[starts[lengths > 0]] = 0.0
    strained = filled[bar] & keyed[owner]
    ts = np.zeros(len(bar))
    ts[strained] = _norms(centers[bar[strained]] - keys[owner[strained]])
    return BarTension(cds[bar], cm, ts, ends)


@lru_cache(maxsize=8)
def _pitch_class_table(params: SpiralParams) -> tuple[np.ndarray, np.ndarray]:
    """Spiral position of each pitch class (midi % 12), a 12 x 3 array, and
    the cloud diameter of each 12-bit pitch-class mask, 4,096 of them: at
    each mask, the largest of the 66 pairwise distances (:func:`_distance`)
    of the classes it holds, 0 for fewer than two."""
    positions = [pitch_position(fifth_index_of_pitch(pc), params) for pc in range(12)]
    masks = np.arange(1 << 12)
    diameters = np.zeros(len(masks))
    for a, b in combinations(range(12), 2):
        pair = 1 << a | 1 << b
        held = (masks & pair) == pair
        diameters[held] = np.maximum(diameters[held], _distance(positions[a], positions[b]))
    positions = np.array(positions)
    for table in (positions, diameters):  # every caller shares them
        table.setflags(write=False)
    return positions, diameters


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
    bounds among them; per bar, its center of effect (0 for an empty bar),
    whether it has one, and its cloud diameter, each equal to what
    :func:`tension_from_clouds` gives for the bar's (fifth-index, duration)
    cloud. ``song`` may be a batch's columns: no bar spans two songs."""
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
    masks = np.zeros(song.n_bars, np.int64)
    masks[filled] = np.bitwise_or.reduceat(1 << pc, bounds[:-1][filled])
    return terms, bounds, centers, filled, diameters[masks]


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
    """:func:`bar_tension` of the ranges, one profile per range."""
    return bar_tension(song, spans, params).profiles()


def bar_tension(song: ScoreColumns, spans: Sequence[tuple[int, int]],
                params: SpiralParams = DEFAULT_PARAMS) -> BarTension:
    """The tension of each ``[start, end)`` bar range of ``song`` as
    :func:`compute_tension_profile` gives it for the range on its own: with
    its own key and a first-bar momentum of 0. ``song`` may be the columns
    of a batch and the ranges its songs or loops, none of them across two
    songs. The bar values are computed once and shared among the ranges,
    the keys are chosen for all the ranges at once, and the momenta and
    strains of all of them are one array pass each; the bars outside
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
    terms, bounds, centers, filled, cds = _bar_table(song, params)
    lo, hi = bounds[first], bounds[last]
    keyed = hi > lo  # the ranges with pitched notes have a key
    keys = np.zeros((len(keyed), 3))
    if keyed.any():
        sums = _in_order_sums(terms, lo[keyed], hi[keyed])  # summing the range's notes in order
        keys[keyed] = [key.center for key in _nearest_keys(sums[:, :3] / sums[:, 3:], params)]
    return _gather(centers, filled, cds, first, last, keys, keyed)


def fit_tension_thresholds(profiles: Iterable[TensionProfile]) -> TensionThresholds:
    """:func:`fit_thresholds` over all bars of all profiles."""
    return fit_thresholds(BarTension.of_profiles(profiles))


def fit_thresholds(bars: BarTension, source: str | PathLike | None = None,
                   unit: str = "range") -> TensionThresholds:
    """Pooled Q1/median/Q3 of each feature over every bar of ``bars``.

    Quantiles use linear interpolation between order statistics; at least
    4 bars are required. When ``source`` (a song directory) is given, the
    error names it and counts the ranges pooled, each one ``unit`` ("song"
    or "loop").
    """
    n = len(bars.cd)
    if n < 4:
        k = len(bars.ends)
        counted = (f" from the bars of {k} {unit}{'s' * (k != 1)} in {source}"
                   if source is not None else "")
        raise ValueError(f"need at least 4 bar values to fit quartiles, got {n}{counted}")
    return TensionThresholds(*(tuple(np.quantile(values, [0.25, 0.5, 0.75],
                                                 method="linear").tolist())
                               for values in (bars.cd, bars.cm, bars.ts)))


def _level_codes(values: np.ndarray, thresholds: tuple[float, float, float]) -> np.ndarray:
    """The level of every value as a code 0..3 (q1..q4), binned half-open
    in one ``searchsorted``: v < t1 -> q1, t1 <= v < t2 -> q2,
    t2 <= v < t3 -> q3, v >= t3 -> q4. NaN, which compares false with every
    threshold, is q1."""
    t1, t2, t3 = thresholds
    if not t1 <= t2 <= t3:
        raise ValueError("thresholds must be ordered")
    codes = np.searchsorted(np.asarray(thresholds, dtype=float), values, side="right")
    codes[np.isnan(values)] = 0
    return codes


def levels_of(values: Sequence[float], thresholds: tuple[float, float, float]) -> tuple[str, ...]:
    """The level name of every value, as :func:`_level_codes` bins it."""
    return tuple(map(TENSION_LEVELS.__getitem__,
                     _level_codes(np.asarray(values, dtype=float), thresholds).tolist()))


def discretize_profile(profile: TensionProfile, thresholds: TensionThresholds) -> TensionProfile:
    return replace(profile,
                   cd_levels=levels_of(profile.cloud_diameter, thresholds.cloud_diameter),
                   cm_levels=levels_of(profile.cloud_momentum, thresholds.cloud_momentum),
                   ts_levels=levels_of(profile.tensile_strain, thresholds.tensile_strain))


# The text of the three bar controls of every combination of levels, in
# code order: cd * 16 + cm * 4 + ts.
_BAR_CONTROLS = tuple(" ".join(f"{name}:{level}" for name, level in zip(TENSION_FEATURES, levels))
                      for levels in product(TENSION_LEVELS, repeat=3))


def bar_controls(bars: BarTension, thresholds: TensionThresholds) -> list[str]:
    """The text of each bar's three level control tokens,
    ``cloud_diameter:qX cloud_momentum:qY tensile_strain:qZ``."""
    cd, cm, ts = bars.codes(thresholds)
    return list(map(_BAR_CONTROLS.__getitem__, (cd * 16 + cm * 4 + ts).tolist()))


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
_CSV_ROW = "%s,%d,%.9g,%.9g,%.9g,q%d,q%d,q%d\n"


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes a field: in quotes, its quotes
    doubled, when it holds a comma, a quote or a line break."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def tension_csv(songs: Sequence[str], bars: BarTension, thresholds: TensionThresholds) -> str:
    """The CSV text of ``bars``, one range per name of ``songs``: the
    header, then one row per bar with the song, the bar's index in it, its
    three values to 9 significant digits and their levels. A song name
    holding a comma, a quote or a line break is quoted as ``csv.writer``
    quotes it."""
    lengths = np.diff(bars.ends, prepend=0).tolist()
    names = chain.from_iterable(map(repeat, map(_csv_field, songs), lengths))
    numbers = chain.from_iterable(map(range, lengths))
    cd, cm, ts = (codes + 1 for codes in bars.codes(thresholds))
    rows = zip(names, numbers, bars.cd.tolist(), bars.cm.tolist(), bars.ts.tolist(),
               cd.tolist(), cm.tolist(), ts.tolist())
    return CSV_HEADER + "\n" + "".join(map(_CSV_ROW.__mod__, rows))
