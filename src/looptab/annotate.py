"""Song-level valence/energy/mode annotation and control-token injection.

Annotations come from a CSV file or a generic audio-features provider
(CSV-backed or HTTP). Continuous valence and energy (the arousal
surrogate) are split at the corpus medians into high/low song controls;
bar-level tension levels are injected right after every ``new_measure``.
Only :func:`build_corpus` reads songs, so the song modules (and numpy)
are imported there, not when ``looptab annotate`` imports this module.
"""

from __future__ import annotations

import csv
import json
import logging
import os
import sys
import time
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Protocol, Sequence
from urllib.parse import quote

from .atomic import atomic_open, read_csv, token_files
from .config import LoopParams, SpiralParams
from .tokens import Token, TokenCategory, control_token, render_tokens

if TYPE_CHECKING:
    import requests

    from .score import SongBatch
    from .tension import TensionProfile, TensionThresholds

log = logging.getLogger(__name__)


class AnnotationError(ValueError):
    pass


@dataclass(frozen=True)
class AnnotationRecord:
    artist: str
    title: str
    valence: float
    energy: float  # arousal surrogate
    mode: str

    def __post_init__(self):
        if not 0.0 <= self.valence <= 1.0:
            raise AnnotationError(f"valence {self.valence} outside [0, 1]")
        if not 0.0 <= self.energy <= 1.0:
            raise AnnotationError(f"energy {self.energy} outside [0, 1]")
        if self.mode not in ("major", "minor"):
            raise AnnotationError(f"mode must be major or minor, got {self.mode!r}")


@dataclass(frozen=True)
class FeatureThresholds:
    valence_median: float
    arousal_median: float


def _normalize_key(artist: str, title: str) -> tuple[str, str]:
    return (" ".join(artist.casefold().split()), " ".join(title.casefold().split()))


def _parse_mode(value: str) -> str:
    v = value.strip().lower()
    if v in ("major", "1"):
        return "major"
    if v in ("minor", "0"):
        return "minor"
    raise AnnotationError(f"unknown mode {value!r}")


def load_annotations(path: str | Path) -> list[AnnotationRecord]:
    """Read ``artist,title,valence,energy,mode`` rows; duplicates last-win.
    A bad row raises :class:`AnnotationError` naming the file and its line."""
    pairs = read_csv(path, ("artist", "title", "valence", "energy", "mode"), "annotations",
                     lambda row: AnnotationRecord(row["artist"], row["title"],
                                                  float(row["valence"]), float(row["energy"]),
                                                  _parse_mode(row["mode"])),
                     AnnotationError)
    records: dict[tuple[str, str], AnnotationRecord] = {}
    for line, rec in pairs:
        key = _normalize_key(rec.artist, rec.title)
        if key in records:
            log.warning("duplicate annotation for %s - %s at line %d; keeping last",
                        rec.artist, rec.title, line)
        records[key] = rec
    if not records:
        raise AnnotationError(f"{path}: no records")
    return list(records.values())


class AudioFeaturesProvider(Protocol):
    def lookup(self, artist: str, title: str) -> AnnotationRecord | None: ...


class CsvFeaturesProvider:
    def __init__(self, path: str | Path):
        self._records = {_normalize_key(r.artist, r.title): r for r in load_annotations(path)}

    def lookup(self, artist: str, title: str) -> AnnotationRecord | None:
        return self._records.get(_normalize_key(artist, title))


class HttpFeaturesProvider:
    """Generic HTTP provider.

    ``endpoint_template`` is formatted with ``artist`` and ``title``, each
    percent-encoded as one path segment or query value; the endpoint must
    answer JSON with valence/energy/mode fields. The bearer token is read
    from the environment variable ``LOOPTAB_FEATURES_TOKEN``.
    """

    def __init__(self, endpoint_template: str, session: requests.Session | None = None,
                 timeout: float = 10.0):
        import requests  # here, not when the package is imported

        self.endpoint_template = endpoint_template
        self.session = session or requests.Session()
        self.timeout = timeout

    def lookup(self, artist: str, title: str) -> AnnotationRecord | None:
        url = self.endpoint_template.format(artist=quote(artist, safe=""),
                                           title=quote(title, safe=""))
        headers = {}
        tok = os.environ.get("LOOPTAB_FEATURES_TOKEN")
        if tok:
            headers["Authorization"] = f"Bearer {tok}"
        resp = self.session.get(url, headers=headers, timeout=self.timeout)
        if resp.status_code == 404:
            return None
        resp.raise_for_status()
        try:
            doc = resp.json()
        except ValueError as exc:
            # requests' JSONDecodeError, also an OSError, which would be retried
            raise AnnotationError(f"reply is not JSON: {exc}") from None
        return AnnotationRecord(
            artist=artist,
            title=title,
            valence=float(doc["valence"]),
            energy=float(doc["energy"]),
            mode=_parse_mode(str(doc["mode"])),
        )


def _retryable(exc: Exception) -> bool:
    """Transport errors, HTTP 5xx and 429 may pass on a second try; an
    invalid record or another 4xx will not."""
    requests = sys.modules.get("requests")  # only HttpFeaturesProvider imports it
    if requests and isinstance(exc, requests.HTTPError) and exc.response is not None:
        status = exc.response.status_code
        return status == 429 or not 400 <= status < 500
    return isinstance(exc, OSError)


def fetch_annotations(provider: AudioFeaturesProvider,
                      songs: Sequence[tuple[str, str]],
                      retries: int = 3,
                      backoff: float = 0.5) -> tuple[list[AnnotationRecord], list[tuple[str, str]]]:
    """Look up every (artist, title). A failed lookup counts as a miss;
    transport errors, HTTP 5xx and 429 first retry with exponential backoff."""
    records, misses = [], []
    for artist, title in songs:
        rec = None
        for attempt in range(retries):
            try:
                rec = provider.lookup(artist, title)
                break
            except Exception as exc:
                if attempt + 1 == retries or not _retryable(exc):
                    log.warning("lookup failed for %s - %s: %s", artist, title, exc)
                    break
                time.sleep(backoff * (2 ** attempt))
        if rec is None:
            misses.append((artist, title))
        else:
            records.append(rec)
    return records, misses


def save_annotations(records: Iterable[AnnotationRecord], path: str | Path) -> None:
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["artist", "title", "valence", "energy", "mode"])
        for r in records:
            writer.writerow([r.artist, r.title, r.valence, r.energy, r.mode])


def compute_thresholds(records: Sequence[AnnotationRecord]) -> FeatureThresholds:
    """Median valence and energy; even counts interpolate linearly."""
    if not records:
        raise AnnotationError("no records")

    def median(values: list[float]) -> float:
        s = sorted(values)
        n = len(s)
        mid = n // 2
        return s[mid] if n % 2 else (s[mid - 1] + s[mid]) / 2.0

    return FeatureThresholds(
        valence_median=median([r.valence for r in records]),
        arousal_median=median([r.energy for r in records]),
    )


def song_control_tokens(record: AnnotationRecord, thresholds: FeatureThresholds) -> list[Token]:
    """[valence, arousal, mode] controls; value >= threshold maps to high."""
    return [
        control_token("valence", "high" if record.valence >= thresholds.valence_median else "low"),
        control_token("arousal", "high" if record.energy >= thresholds.arousal_median else "low"),
        control_token("mode", record.mode),
    ]


def inject_controls(stream: list[Token], song_tokens: Sequence[Token],
                    profile: TensionProfile) -> list[Token]:
    """Prepend song controls and insert the three bar levels after every
    ``new_measure``. The profile must be discretized and match the bar count."""
    if profile.cd_levels is None:
        raise ValueError("profile has no levels; discretize it first")
    n_bars = sum(1 for t in stream if t.category is TokenCategory.STRUCTURE)
    if n_bars != len(profile):
        raise ValueError(f"stream has {n_bars} bars but profile covers {len(profile)}")
    out = list(song_tokens)
    bar = -1
    for t in stream:
        out.append(t)
        if t.category is TokenCategory.STRUCTURE:
            bar += 1
            out.append(control_token("cloud_diameter", profile.cd_levels[bar]))
            out.append(control_token("cloud_momentum", profile.cm_levels[bar]))
            out.append(control_token("tensile_strain", profile.ts_levels[bar]))
    return out


def strip_controls(stream: list[Token]) -> list[Token]:
    return [t for t in stream
            if t.category not in (TokenCategory.SONG_CONTROL, TokenCategory.BAR_CONTROL)]


@dataclass
class CorpusResult:
    lines: int = 0
    songs_used: int = 0
    skipped_no_annotation: int = 0
    skipped_no_loops: int = 0
    failed_files: int = 0
    feature_thresholds: FeatureThresholds | None = None
    tension_thresholds: TensionThresholds | None = None  # None: no loop found


def feature_thresholds_to_json(thresholds: FeatureThresholds) -> str:
    return json.dumps({
        "format": "looptab-feature-thresholds",
        "version": 1,
        "valence_median": thresholds.valence_median,
        "arousal_median": thresholds.arousal_median,
        "high_rule": "value >= threshold",
    }, indent=2)


def _loop_lines(head: str, tempo: int, bars: dict[int, tuple[int, str]],
                spans: Sequence[tuple[int, int]], controls: Iterator[str]) -> Iterable[str]:
    """The corpus line of each ``[start, end)`` bar range of a regularized
    song, joined from pieces: ``head`` (song controls and header), then per
    bar any tempo change, ``new_measure`` with the bar's next three level
    controls from ``controls``, and the bar's body; ``bars`` maps a bar to
    its tempo and rendered body."""
    for start, end in spans:
        pieces, running = [head], tempo
        for i, levels in zip(range(start, end), controls):
            bar_tempo, body = bars[i]
            if bar_tempo != running:  # all bars are 4/4, so no metre changes
                running = bar_tempo
                pieces.append(f"tempo:{bar_tempo}")
            pieces.append("new_measure " + levels)
            if body:
                pieces.append(body)
        pieces.append("end")
        yield " ".join(pieces)


def _part_songs(part: SongBatch, paths: Sequence[Path],
                records: Sequence[AnnotationRecord | None], loop_params: LoopParams,
                result: CorpusResult) -> list[tuple[AnnotationRecord, int, list[tuple[int, int]]]]:
    """The record, tempo and loop spans of each song of a regularized
    ``part`` that has an annotation and loops; the others are counted in
    ``result``, and a song that failed is logged."""
    from . import loops as loops_mod

    starts = part.starts.tolist()
    by_song: dict[int, list[tuple[int, int]]] = {}
    for span in loops_mod.extract_loops(part.columns, loop_params, part.starts):
        by_song.setdefault(bisect_right(starts, span.start_bar) - 1, []).append(
            (span.start_bar, span.end_bar))
    used = []
    for i, (path, rec) in enumerate(zip(paths[:len(part)], records)):
        exc = part.errors.get(i)
        if isinstance(exc, OSError):
            raise exc
        if exc is not None:
            log.error("skipping %s: %s", path.name, exc)
            result.failed_files += 1
        elif rec is None:
            result.skipped_no_annotation += 1
        elif i not in by_song:
            result.skipped_no_loops += 1
        else:
            result.songs_used += 1
            used.append((rec, part.heads[i][1], by_song[i]))
    return used


def build_corpus(score_dir: str | Path,
                 annotations: Sequence[AnnotationRecord],
                 loop_params: LoopParams = LoopParams(),
                 spiral_params: SpiralParams = SpiralParams(),
                 ) -> tuple[list[str], CorpusResult]:
    """End-to-end corpus construction.

    For every annotated ``*.tokens`` file (the song is matched on its
    artist header and file stem): regularize to 4/4, extract loops, compute
    tension per loop from bar values shared among all loops, fit global
    quartiles over all loop bars, discretize, and emit one token line per
    loop, joined from each looped bar's body, rendered once, with the song
    and bar controls. The directory's songs are decoded in batches
    (:func:`score.decode_parts`), and the annotated ones are regularized,
    searched and rendered in parts (:func:`score.regular_parts`); a song
    that fails to read, decode or regularize is logged, counted and left
    out. Each loop's key is
    estimated over that loop alone, since the loop is what the generator
    learns from; ``looptab tension`` uses the whole song instead.
    Deterministic given identical inputs. The result carries the counts
    and both fitted thresholds; nothing is written.
    """
    from . import tension as tension_mod
    from .score import bar_bodies, decode_parts, regular_parts

    by_key = {_normalize_key(r.artist, r.title): r for r in annotations}
    thresholds = compute_thresholds(annotations)
    result = CorpusResult(feature_thresholds=thresholds)

    paths = token_files(score_dir)
    songs, tensions = [], []
    for first, decoded in decode_parts(paths):
        names = paths[first:first + len(decoded)]
        records = [None if head is None else by_key.get(_normalize_key(head[0] or "", path.stem))
                   for path, head in zip(names, decoded.heads)]
        for start, part in regular_parts(decoded, [rec is not None for rec in records]):
            used = _part_songs(part, names[start:], records[start:], loop_params, result)
            if not used:
                continue
            spans = [span for _, _, song_spans in used for span in song_spans]
            tensions.append(tension_mod.bar_tension(part.columns, spans, spiral_params))
            looped = sorted({b for lo, hi in spans for b in range(lo, hi)})
            bars = {b: (tempo, " ".join(body)) for b, tempo, body in
                    zip(looped, part.columns.tempo[looped].tolist(),
                        bar_bodies(part.columns, looped))}
            songs += [(*song, bars) for song in used]

    lines: list[str] = []
    if songs:
        tension = tension_mod.BarTension.join(tensions)
        result.tension_thresholds = tension_mod.fit_thresholds(tension, score_dir, "loop")
        bar_controls = iter(tension_mod.bar_controls(tension, result.tension_thresholds))
        for rec, tempo, song_spans, bars in songs:
            controls = render_tokens(song_control_tokens(rec, thresholds))
            head = f"{controls} time_signature:4 tempo:{tempo} start"
            lines.extend(_loop_lines(head, tempo, bars, song_spans, bar_controls))
    result.lines = len(lines)
    return lines, result
