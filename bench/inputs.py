"""Seeded synthetic inputs for the benchmark workloads.

Everything here is written as plain token text, CSV or JSON without
importing ``looptab``: the program under test only ever sees the files.
The song builders follow ``tests/util.py`` (random 4/4 bar blocks on the
480-tick grid, one note group per onset, planted repeats of 4-bar blocks),
but render tokens directly so that inputs stay byte-identical across
commits that change the package's own serializer.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass, field
from pathlib import Path

TICKS_PER_QUARTER = 960
BAR = 4 * TICKS_PER_QUARTER
GRID = 480

TUNINGS = {
    "distorted0": (64, 59, 55, 50, 45, 40),
    "distorted1": (64, 59, 55, 50, 45, 40),
    "clean0": (64, 59, 55, 50, 45, 40),
    "leads": (64, 59, 55, 50, 45, 40),
    "bass": (43, 38, 33, 28),
}
SONG_TRACKS = ("distorted0", "distorted1", "clean0", "bass", "leads")
DRUMS = (36, 38, 42, 49)

# The DadaGP-like corpus written directly for gen_eval: every
# track x string x fret, General MIDI drums, several effects, waits on a
# 240-tick grid and tempi over the whole admissible range.
GEN_TRACKS = ("distorted0", "distorted1", "clean0", "leads", "bass")
GEN_FRETS = 25
GEN_DRUMS = tuple(range(35, 82))
GEN_EFFECTS = ("palm_mute", "let_ring", "vibrato", "slide", "bend", "hammer",
               "pull_off", "harmonic", "staccato", "ghost_note", "dead_note", "accent")
GEN_TEMPI = tuple(range(30, 301, 5))
TENSION = ("cloud_diameter", "cloud_momentum", "tensile_strain")
LEVELS = ("q1", "q2", "q3", "q4")


@dataclass(frozen=True)
class Song:
    """One generated ``*.tokens`` file and what the benchmark knows about it."""

    name: str
    text: str
    events: int  # onset events (distinct onsets), the repeat search's n
    bars: int
    planted: tuple[tuple[int, int], ...]  # (start_bar, end_bar) of each planted loop


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one workload; recorded with every result."""

    long_song_events: tuple[int, ...] = ()  # one long song per entry
    short_songs: int = 0
    short_song_bars: tuple[int, int] = (16, 32)
    gen_corpus_lines: int = 0  # 0: train on the output of `looptab corpus`
    samples: int = 32  # per generate call
    max_tokens: int = 160  # generate --max-tokens
    stats_rows: int = 50


WORKLOADS = {
    "corpus_long": Sizes(long_song_events=(1100, 2100, 4300)),
    "corpus_many": Sizes(short_songs=300),
    "gen_eval": Sizes(short_songs=120, gen_corpus_lines=250, samples=32, max_tokens=160),
}

TINY = {
    "corpus_long": Sizes(long_song_events=(200, 300), samples=2, max_tokens=256),
    "corpus_many": Sizes(short_songs=12, samples=2, max_tokens=256),
    "gen_eval": Sizes(short_songs=6, gen_corpus_lines=60, samples=2, max_tokens=256),
}


def _note(rng: random.Random, track: str) -> str:
    if track == "drums":
        return f"drums:note:{rng.choice(DRUMS)}"
    return f"{track}:note:s{rng.randint(1, len(TUNINGS[track]))}:f{rng.randint(0, 12)}"


def bar_block(rng: random.Random, n_onsets: int) -> list[str]:
    """Tokens of a self-contained 4/4 bar whose first onset sits on beat 1."""
    onsets = sorted(rng.sample(range(GRID, BAR, GRID), k=n_onsets - 1))
    onsets = [0] + onsets
    out = []
    for i, onset in enumerate(onsets):
        nxt = onsets[i + 1] if i + 1 < len(onsets) else BAR
        tracks = rng.sample(SONG_TRACKS, k=rng.randint(1, 2))
        if rng.random() < 0.3:
            tracks.append("drums")
        for track in tracks:
            out.append(_note(rng, track))
            if track != "drums" and rng.random() < 0.1:
                out.append("nfx:palm_mute")
        out.append(f"wait:{nxt - onset}")
    return out


def _onsets_in(bar: list[str]) -> int:
    return sum(1 for t in bar if t.startswith("wait:"))


def build_song(rng: random.Random, name: str, *, target_events: int | None = None,
               n_bars: int | None = None, onsets: tuple[int, int] = (2, 4),
               tempo: int = 120, tempo_changes: bool = False,
               plant_every: int = 16) -> Song:
    """Random bars with a planted immediate repeat ABCD ABCD of a 4-bar
    block once per ``plant_every`` bars. The song stops at ``n_bars`` bars
    or as soon as it holds ``target_events`` onset events."""
    bars: list[list[str]] = []
    tempi: list[int] = []
    planted = []
    events = 0

    def done() -> bool:
        if n_bars is not None:
            return len(bars) >= n_bars
        return events >= target_events

    current = tempo
    while not done():
        if tempo_changes and rng.random() < 0.1:
            current = rng.choice((70, 90, 120, 160, 190))
        start = len(bars)
        room = (n_bars - start) if n_bars is not None else plant_every
        if start % plant_every == 1 and room >= 8:
            block = [bar_block(rng, rng.randint(*onsets)) for _ in range(4)]
            new = block + block
            planted.append((start, start + 4))
        else:
            new = [bar_block(rng, rng.randint(*onsets))]
        for bar in new:
            bars.append(bar)
            tempi.append(current)
            events += _onsets_in(bar)
        if n_bars is None and events >= target_events:
            break
    out = ["artist:bench", "time_signature:4", f"tempo:{tempi[0]}", "start"]
    running = tempi[0]
    for bar, bpm in zip(bars, tempi):
        if bpm != running:
            out.append(f"tempo:{bpm}")
            running = bpm
        out.append("new_measure")
        out.extend(bar)
    out.append("end")
    return Song(name, " ".join(out) + "\n", events, len(bars), tuple(planted))


def _gen_note(rng: random.Random) -> str:
    track = rng.choice(GEN_TRACKS + ("drums",))
    if track == "drums":
        return f"drums:note:{rng.choice(GEN_DRUMS)}"
    return f"{track}:note:s{rng.randint(1, len(TUNINGS[track]))}:f{rng.randrange(GEN_FRETS)}"


def gen_corpus_line(rng: random.Random) -> str:
    """A 4-bar control-token corpus line in the format `looptab corpus` writes."""
    happy = rng.random() < 0.5
    tempo = rng.choice([t for t in GEN_TEMPI if (t >= 120) == happy] or GEN_TEMPI)
    out = [f"valence:{'high' if happy else 'low'}",
           f"arousal:{'high' if rng.random() < (0.8 if happy else 0.2) else 'low'}",
           f"mode:{'major' if happy else 'minor'}", "time_signature:4", f"tempo:{tempo}", "start"]
    for _ in range(4):
        out.append("new_measure")
        out.extend(f"{f}:{rng.choice(LEVELS)}" for f in TENSION)
        onsets = sorted(rng.sample(range(240, BAR, 240), k=rng.randint(1, 7)))
        onsets = [0] + onsets
        for i, onset in enumerate(onsets):
            nxt = onsets[i + 1] if i + 1 < len(onsets) else BAR
            for _ in range(rng.randint(1, 3)):
                out.append(_gen_note(rng))
                if rng.random() < 0.15:
                    out.append(f"nfx:{rng.choice(GEN_EFFECTS)}")
            out.append(f"wait:{nxt - onset}")
    out.append("end")
    return " ".join(out)


@dataclass
class Inputs:
    songs: list[Song] = field(default_factory=list)
    gen_corpus: Path | None = None


def write_inputs(workload: str, seed: int, root: Path, tiny: bool = False) -> tuple[Sizes, Inputs]:
    """Write the workload's input files under ``root`` and describe them."""
    sizes = (TINY if tiny else WORKLOADS)[workload]
    rng = random.Random(f"{workload}:{seed}")
    songs_dir = root / "songs"
    songs_dir.mkdir(parents=True)
    inputs = Inputs()
    for i, target in enumerate(sizes.long_song_events):
        tempo = (170, 80, 130, 200)[i % 4]
        inputs.songs.append(build_song(rng, f"long_{i:02d}", target_events=target,
                                       onsets=(6, 8), tempo=tempo))
    for i in range(sizes.short_songs):
        tempo = rng.choice((60, 75, 90, 120, 160, 180, 210))
        inputs.songs.append(build_song(rng, f"song_{i:04d}", n_bars=rng.randint(*sizes.short_song_bars),
                                       tempo=tempo, tempo_changes=True, plant_every=12))
    with open(root / "annotations.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["artist", "title", "valence", "energy", "mode"])
        for song in inputs.songs:
            writer.writerow(["bench", song.name, f"{rng.random():.4f}", f"{rng.random():.4f}",
                             rng.choice(("major", "minor"))])
    for song in inputs.songs:
        (songs_dir / f"{song.name}.tokens").write_text(song.text, encoding="utf-8")
    if sizes.gen_corpus_lines:
        lines = [gen_corpus_line(rng) for _ in range(sizes.gen_corpus_lines)]
        inputs.gen_corpus = root / "gen_corpus.txt"
        inputs.gen_corpus.write_text("".join(l + "\n" for l in lines), encoding="utf-8")
    with open(root / "paired.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["a", "b", "c"])
        for _ in range(sizes.stats_rows):
            base = rng.gauss(3.0, 1.0)
            writer.writerow([f"{base + rng.gauss(0.0, 0.5):.6f}",
                             f"{base + 0.3 + rng.gauss(0.0, 0.5):.6f}",
                             f"{base + 0.6 + rng.gauss(0.0, 0.5):.6f}"])
    return sizes, inputs
