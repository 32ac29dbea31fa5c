"""Child interpreter of the benchmark.

``worker.py run WORKDIR`` runs one workload's CLI stages in-process through
``looptab.cli.main(argv)``, repeats them for the time budget, checks the
outputs, and writes ``result.json``. With tracing on it runs every stage
once untraced and once more with spans around the package's public
functions.

``worker.py probe WORKDIR`` measures the set-up a fresh interpreter pays:
importing ``looptab.cli`` plus the one-off loads every run makes.

Only the standard library is imported at module level, so the probe
times the package import itself.

Every time is reported in host-normalized seconds. A shared host changes
speed by up to a factor of two, for anything from a fraction of a second
to minutes, and everything running in this process slows by about the
same factor. So a fixed pure-Python reference loop (a probe) runs before
and after each timed call and, on a wall-clock timer, every
``PROBE_EVERY_S`` during it; the call's own time (without the probes) is
scaled by ``REF_S`` over the probes' mean time. The result is how long the
call takes on a host where one probe takes ``REF_S``. The raw times are
reported beside them without a bound.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

HAPPY_TEMPO_MIN = 150
SAD_TEMPO_MAX = 100
MAX_BARS = 64  # GeneratorConfig.max_bars, the default every generate run uses
REPEAT_CAP = 4096  # events; the repeat search truncates longer songs
MIN_CALL_S = 0.05  # a stage faster than this runs several times per pass
MAX_CALLS = 20
REF_S = 0.001  # host-normalized seconds: one probe counts as this long
PROBE_EVERY_S = 0.02  # probe interval during a timed call
BRACKET_PROBES = 8  # probes before and after each timed call

# Wrapped for the traced pass: (module, owner inside the module or None, function).
TRACED = (
    ("tokens", None, "parse_tokens"),
    ("score", None, "tokens_to_score"),
    ("score", None, "regularize_meter"),
    ("score", None, "score_to_tokens"),
    ("loops", None, "fingerprint_sequence"),
    ("loops", None, "extract_loops"),
    ("loops", None, "splice_loop"),
    ("tension", None, "compute_tension_profile"),
    ("tension", None, "estimate_key"),
    ("tension", None, "fit_tension_thresholds"),
    ("tension", None, "discretize_profile"),
    ("annotate", None, "load_annotations"),
    ("annotate", None, "inject_controls"),
    ("annotate", None, "build_corpus"),
    ("generate", None, "train_generator"),
    ("generate", None, "save_model"),
    ("generate", None, "load_model"),
    ("generate", None, "sample_sequence"),
    ("generate", "NGramModel", "next_token_distribution"),
    ("generate", None, "mask_tempo"),
    ("evaluate", None, "train_classifier"),
    ("evaluate", None, "token_features"),
    ("evaluate", "LinearTokenClassifier", "score"),
    ("evaluate", None, "emotion_metrics"),
    ("evaluate", None, "loop_metric"),
    ("stats", None, "wilcoxon_signed_rank"),
    ("stats", None, "friedman"),
    ("stats", None, "pairwise_bonferroni"),
)
SONG_STAGES = ("annotate", "tension", "loops", "corpus")
SUBCOMMANDS = ("annotate", "tension", "loops", "corpus", "train-gen", "generate",
               "train-clf", "eval-emotion", "eval-loops", "eval-stats")
STOP_REASONS = ("end", "max_bars", "max_tokens", "dead_end")
CORPUS_COUNTS = ("lines", "songs_used", "skipped_no_annotation", "skipped_no_loops", "failed_files")


@dataclass
class Stage:
    label: str  # unique within the workload, e.g. generate.sad
    argv: list[str]
    output: Path | None = None  # hashed after every repetition

    @property
    def subcommand(self) -> str:
        return self.argv[0]

    @property
    def group(self) -> str:
        """``songs``: the stages that read the song files; ``model``: the rest."""
        return "songs" if self.subcommand in SONG_STAGES else "model"


def build_stages(work: Path, spec: dict) -> list[Stage]:
    songs, ann = str(work / "songs"), str(work / "annotations.csv")
    corpus = spec["gen_corpus"] or str(work / "corpus.txt")
    model, clf, gen = str(work / "model.json"), work / "clf", work / "gen"
    out = work / "out"
    count, max_tokens = str(spec["sizes"]["samples"]), str(spec["sizes"]["max_tokens"])

    def generate(label, emotion, seed, *extra):
        return Stage(f"generate.{label}",
                     ["generate", "--model", model, "--emotion", emotion, "--count", count,
                      "--seed", seed, "--max-tokens", max_tokens, *extra,
                      "--out-dir", str(gen / label)], gen / label)

    def eval_loops(label):
        return Stage(f"eval-loops.{label}", ["eval-loops", "--generations", str(gen / label),
                                             "--out", str(out / f"loop_report_{label}.json")])

    stages = [
        Stage("annotate", ["annotate", "--annotations", ann,
                           "--out-thresholds", str(out / "feature_thresholds.json")]),
        Stage("tension", ["tension", "--scores", songs, "--out-csv", str(out / "tension.csv"),
                          "--out-thresholds", str(out / "tension_thresholds.json")]),
        Stage("loops", ["loops", "--scores", songs, "--out", str(out / "loops.jsonl")],
              out / "loops.jsonl"),
        Stage("corpus", ["corpus", "--scores", songs, "--annotations", ann,
                         "--out", str(work / "corpus.txt")], work / "corpus.txt"),
        Stage("train-gen", ["train-gen", "--corpus", corpus, "--out", model], Path(model)),
        generate("happy", "happy", "0"),
        generate("sad", "sad", "1000"),
        Stage("train-clf", ["train-clf", "--corpus", corpus, "--out-dir", str(clf)]),
        Stage("eval-emotion", ["eval-emotion", "--happy", str(gen / "happy"), "--sad", str(gen / "sad"),
                               "--valence-model", str(clf / "valence.json"),
                               "--arousal-model", str(clf / "arousal.json"),
                               "--out-json", str(out / "emotion.json")]),
        eval_loops("happy"),
        generate("ablate", "sad", "2000", "--ablate", "psychology"),
        eval_loops("sad"),
    ]
    for method in ("wilcoxon", "friedman", "pairwise"):
        stages.append(Stage(f"eval-stats.{method}",
                            ["eval-stats", "--method", method, "--input", str(work / "paired.csv"),
                             "--out", str(out / f"stats_{method}.json")]))
    return stages


def digest(path: Path) -> str:
    h = hashlib.sha256()
    files = sorted(path.iterdir()) if path.is_dir() else [path]
    for f in files:
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


class Checks:
    """Operations attempted and failed. A planted-loop miss is a failed
    operation (a loop the program should have reported and did not); every
    other failure also marks the outputs as incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self.notes: list[str] = []

    def check(self, ok: bool, what: str, integrity: bool = True) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.incorrect += integrity
            if len(self.notes) < 50:
                self.notes.append(what)
        return ok


def _reference_loop() -> int:
    """Fixed pure-Python work (dict updates, list appends, int arithmetic),
    the kind of interpreter work the package's own hot loops do; about
    1 ms on a 2.1 GHz Xeon vCPU."""
    total, counts, pairs = 0, {}, []
    for i in range(3000):
        key = i % 997
        counts[key] = counts.get(key, 0) + i
        pairs.append((i, total))
        total += i * i % 7
        if len(pairs) > 500:
            pairs = []
    return total


class HostSpeed:
    """Probe times: the reference loop timed with the cyclic collector off,
    so that the size of the program's heap does not enter them."""

    def __init__(self):
        self.samples: list[float] = []
        self.in_calls_s = 0.0  # probe time spent inside timed calls

    def probe(self) -> float:
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            _reference_loop()
            dt = time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()
        self.samples.append(dt)
        return dt

    def bracket(self) -> None:
        for _ in range(BRACKET_PROBES):
            self.probe()

    def _tick(self, signum, frame) -> None:
        self.in_calls_s += self.probe()

    @contextmanager
    def during(self):
        """Probe every ``PROBE_EVERY_S`` of wall time inside the block."""
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self) -> float:
        """``REF_S`` over the mean probe time since the last call; keeps the
        closing bracket as the next call's opening one."""
        mean = statistics.fmean(self.samples)
        self.samples = self.samples[-BRACKET_PROBES:]
        return REF_S / mean


def timed(main, stage: Stage, speed: HostSpeed) -> tuple[float, int]:
    """A stage's own time, without the probes that ran inside it."""
    inside = speed.in_calls_s
    with speed.during():
        dt, rc = run_stage(main, stage)
    return dt - (speed.in_calls_s - inside), rc


def run_stage(main, stage: Stage) -> tuple[float, int]:
    t0 = time.perf_counter()
    try:
        rc = main(list(stage.argv))
    except Exception:  # a traceback is a failed stage, not a crashed benchmark
        traceback.print_exc()
        rc = -1
    return time.perf_counter() - t0, rc


def measure(main, stages: list[Stage], seconds: float, checks: Checks):
    """Run every stage once in pipeline order, then keep repeating stages
    until the repetitions add up to ``seconds``. The two stage groups take
    turns so that each gets about half of the time: the next stage comes
    from the group that has used less so far, and within a group the stages
    follow each other round-robin. A stage faster than ``MIN_CALL_S`` runs
    several times in a row. Each run of a stage is normalized by the probes
    around and inside it (see the module docstring).
    Returns the normalized and the raw times of every stage, and its output
    hash."""
    times: dict[str, list[float]] = {s.label: [] for s in stages}
    raw: dict[str, list[float]] = {s.label: [] for s in stages}
    codes: dict[str, set[int]] = {s.label: set() for s in stages}
    hashes: dict[str, set[str]] = {s.label: set() for s in stages if s.output}
    used = {"songs": 0.0, "model": 0.0}
    calls: dict[str, int] = {}
    speed = HostSpeed()
    speed.bracket()

    def run(s: Stage) -> None:
        batch = []
        for _ in range(calls.get(s.label, 1)):
            dt, rc = timed(main, s, speed)
            used[s.group] += dt
            batch.append(dt)
            codes[s.label].add(rc)
            if s.output is not None and rc == 0:
                hashes[s.label].add(digest(s.output))
        speed.bracket()
        scale = speed.scale()
        raw[s.label].extend(batch)
        times[s.label].extend(dt * scale for dt in batch)
        calls.setdefault(s.label, min(MAX_CALLS, max(1, int(MIN_CALL_S / max(dt, 1e-6)))))

    for s in stages:
        run(s)
    turns = {g: itertools.cycle([s for s in stages if s.group == g]) for g in used}
    while sum(used.values()) < seconds:
        run(next(turns[min(used, key=used.get)]))
    for s in stages:
        checks.check(codes[s.label] == {0}, f"{s.label} exit codes {sorted(codes[s.label])}")
    for label, seen in hashes.items():
        checks.check(len(seen) == 1, f"{label}: {len(seen)} different outputs over repetitions")
    return times, raw, {label: sorted(seen)[0] for label, seen in hashes.items() if seen}


def generated(path: Path) -> list[list[str]]:
    return [f.read_text(encoding="utf-8").split() for f in sorted(path.glob("*.tokens"))]


def stop_reason(tokens: list[str], max_tokens: int) -> str:
    if tokens and tokens[-1] == "end":
        return "max_bars" if tokens.count("new_measure") >= MAX_BARS else "end"
    return "max_tokens" if len(tokens) >= max_tokens else "dead_end"


def check_outputs(work: Path, spec: dict, checks: Checks) -> dict:
    """Output checks; returns the counts they measure."""
    from looptab.score import tokens_to_score
    from looptab.tokens import parse_tokens

    out = work / "out"
    manifest = [json.loads(line) for line in (out / "loops.jsonl").read_text().splitlines()]
    found = {(m["song"], m["start_bar"], m["end_bar"]) for m in manifest}
    planted = hits = 0
    for song in spec["songs"]:
        for start, end in song["planted"]:
            planted += 1
            hit = checks.check((song["name"], start, end) in found,
                               f"planted loop {song['name']} [{start}, {end}) missing "
                               f"({song['events']} events)", integrity=False)
            hits += hit
    corpus_lines = len((work / "corpus.txt").read_text().splitlines())
    checks.check(corpus_lines == len(manifest),
                 f"corpus has {corpus_lines} lines, loops manifest {len(manifest)}")

    stops = dict.fromkeys(STOP_REASONS, 0)
    max_tokens = spec["sizes"]["max_tokens"]
    for label, emotion in (("happy", "happy"), ("sad", "sad"), ("ablate", "sad")):
        for toks in generated(work / "gen" / label):
            try:
                tokens_to_score(parse_tokens(" ".join(toks)))
                parsed = True
            except ValueError:
                parsed = False
            checks.check(parsed, f"generated {label} file does not parse")
            tempi = [int(t[6:]) for t in toks if t.startswith("tempo:")]
            ok = all(b >= HAPPY_TEMPO_MIN if emotion == "happy" else b <= SAD_TEMPO_MAX for b in tempi)
            checks.check(ok, f"{label} generation has tempo outside its emotion: {tempi}")
            stops[stop_reason(toks, max_tokens)] += 1

    for method in ("wilcoxon", "friedman", "pairwise"):
        doc = json.loads((out / f"stats_{method}.json").read_text())
        values = [c["p_value"] for c in doc["comparisons"]] if method == "pairwise" else [doc["p_value"]]
        for p in values:
            checks.check(0.0 <= p <= 1.0, f"{method} p-value {p} outside [0, 1]")
    return {"planted": planted, "planted_found": hits, "spans_found": len(manifest), "stops": stops}


def timings(times: dict[str, list[float]], raw: dict[str, list[float]], work: Path,
            spec: dict) -> dict[str, tuple[float, str]]:
    """Pipeline, group and per-stage figures from the median normalized
    stage times, as (value, unit); ``wall_raw_s`` is the same sum over the
    raw times."""
    med = {label: statistics.median(t) for label, t in times.items()}
    events = sum(s["events"] for s in spec["songs"])
    bars = sum(s["bars"] for s in spec["songs"])
    corpus = Path(spec["gen_corpus"] or work / "corpus.txt").read_text().splitlines()
    corpus_tokens = sum(len(line.split()) for line in corpus)
    corpus_lines = sum(1 for line in corpus if line.strip())
    written = {label: sum(len(t) for t in generated(work / "gen" / label))
               for label in ("happy", "sad", "ablate")}
    songs_s = sum(v for label, v in med.items() if label.split(".")[0] in SONG_STAGES)
    return {
        "wall_s": (sum(med.values()), "s"),
        "wall_raw_s": (sum(statistics.median(t) for t in raw.values()), "s"),
        "songs_s": (songs_s, "s"),
        "model_s": (sum(med.values()) - songs_s, "s"),
        "corpus_events_per_s": (events / med["corpus"], "events/s"),
        "loops_events_per_s": (events / med["loops"], "events/s"),
        "tension_bars_per_s": (bars / med["tension"], "bars/s"),
        "train_gen_tokens_per_s": (corpus_tokens / med["train-gen"], "tokens/s"),
        "gen_tokens_per_s": ((written["happy"] + written["sad"])
                             / (med["generate.happy"] + med["generate.sad"]), "tokens/s"),
        "gen_ablate_tokens_per_s": (written["ablate"] / med["generate.ablate"], "tokens/s"),
        "train_clf_lines_per_s": (corpus_lines / med["train-clf"], "lines/s"),
        "eval_s": (sum(v for label, v in med.items() if label.startswith("eval-")), "s"),
        "gen_tokens": (sum(written.values()), "tokens"),
    }


def traced_pass(main, stages: list[Stage], spec: dict, work: Path, counts: dict) -> dict:
    """Run every stage once with spans; return the per-layer metrics."""
    import looptab.cli  # noqa: F401  (loads every package module before wrapping)
    from tracing import Tracer

    tracer = Tracer(run_id=f"{spec['workload']}-{spec['seed']}-traced")
    mods = {name: sys.modules[f"looptab.{name}"] for name in
            ("tokens", "score", "loops", "tension", "annotate", "generate", "evaluate", "stats", "cli")}
    seen = {"tokens": 0, "events_max": 0, "vocab": 0, "sampled": 0, "bytes": 0, "corpus": None}

    def on_parse(args, result):
        seen["tokens"] += len(result)

    def on_fingerprint(args, result):
        seen["events_max"] = max(seen["events_max"], len(result))

    def on_corpus(args, result):
        seen["corpus"] = result[1]

    def on_model(args, result):
        seen["vocab"] = len(result.vocabulary)

    def on_sample(args, result):
        seen["sampled"] += len(result)

    def on_write(args, result):
        seen["bytes"] += len(args[1].encode("utf-8"))

    hooks = {"parse_tokens": on_parse, "fingerprint_sequence": on_fingerprint,
             "build_corpus": on_corpus, "load_model": on_model, "sample_sequence": on_sample}
    names = []
    for module, owner, fn in TRACED:
        target = getattr(mods[module], owner) if owner else mods[module]
        name = f"{module}.{owner + '.' if owner else ''}{fn}"
        names.append(name)
        tracer.wrap(target, fn, name, hooks.get(fn))
    tracer.wrap(mods["cli"], "atomic_write", "cli.atomic_write", on_write)
    # Probes only between stages, so that no span holds one.
    speed = HostSpeed()
    speed.bracket()
    wall = 0.0
    try:
        for s in stages:
            t0 = time.perf_counter()
            tracer.call(f"cli.{s.subcommand}", main, list(s.argv))
            dt = time.perf_counter() - t0
            speed.bracket()
            wall += dt * speed.scale()
    finally:
        tracer.unwrap()
    tracer.write(work / "spans.jsonl")

    totals = tracer.totals()
    metrics: dict[str, tuple[float, str]] = {}
    for name in names:
        agg = totals.get(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        metrics[f"{name}.s"] = (agg["s"], "s")
        metrics[f"{name}.self_s"] = (agg["self_s"], "s")
        metrics[f"{name}.calls"] = (agg["calls"], "count")
    for sub in SUBCOMMANDS:
        agg = totals.get(f"cli.{sub}", {"s": 0.0, "self_s": 0.0})
        metrics[f"cli.{sub}.s"] = (agg["s"], "s")
        metrics[f"cli.{sub}.self_s"] = (agg["self_s"], "s")
    metrics["cli.atomic_write.calls"] = (totals["cli.atomic_write"]["calls"], "count")
    metrics["cli.atomic_write.bytes"] = (seen["bytes"], "bytes")

    parse_s = totals["tokens.parse_tokens"]["s"]
    metrics["tokens.tokens_per_s"] = (seen["tokens"] / parse_s if parse_s else 0.0, "tokens/s")
    for name, qs in (("loops.extract_loops", (50, 95)), ("generate.sample_sequence", (50, 90))):
        ms = [d * 1000.0 for d in tracer.durations(name)]
        for q in qs:
            metrics[f"{name}.p{q}_ms"] = (percentile(ms, q), "ms")
    metrics["loops.events_max"] = (seen["events_max"], "count")
    metrics["loops.songs_over_cap"] = (sum(s["events"] > REPEAT_CAP for s in spec["songs"]), "count")
    metrics["loops.spans_found"] = (counts["spans_found"], "count")
    metrics["loops.planted_recall"] = (counts["planted_found"] / counts["planted"], "ratio")
    for field in CORPUS_COUNTS:
        metrics[f"annotate.corpus.{field}"] = (getattr(seen["corpus"], field), "count")
    metrics["generate.vocab_size"] = (seen["vocab"], "count")
    metrics["generate.tokens_sampled"] = (seen["sampled"], "count")
    for reason in STOP_REASONS:
        metrics[f"generate.stop.{reason}"] = (counts["stops"][reason], "count")
    metrics["trace.wall_s"] = (wall, "s")
    return metrics


def percentile(values: list[float], q: int) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, -(-q * len(ordered) // 100) - 1)]


def cmd_run(work: Path) -> int:
    spec = json.loads((work / "spec.json").read_text())
    from looptab.cli import main

    (work / "out").mkdir(exist_ok=True)
    stages = build_stages(work, spec)
    checks = Checks()
    # A traced run needs one untraced pass only, to compare the traced pass with.
    times, raw, hashes = measure(main, stages, 0 if spec["trace"] else spec["seconds"], checks)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    counts = check_outputs(work, spec, checks)
    figures = timings(times, raw, work, spec)
    result = {
        "timings": {**figures, "peak_rss_mb": (peak_rss_mb, "MB")},
        "stage_times": times,
        "stage_raw_times": raw,
        "hashes": hashes,
        "counts": counts,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "incorrect": checks.incorrect,
        "notes": checks.notes,
    }
    if spec["trace"]:
        per_layer = traced_pass(main, stages, spec, work, counts)
        per_layer["trace.overhead_s"] = (per_layer["trace.wall_s"][0] - figures["wall_s"][0], "s")
        result["per_layer"] = per_layer
    (work / "result.json").write_text(json.dumps(result, indent=1))
    return 0


def cmd_probe(work: Path) -> int:
    """Print the set-up time in host-normalized seconds, then in seconds."""
    speed = HostSpeed()
    speed.bracket()
    inside = speed.in_calls_s
    with speed.during():
        t0 = time.perf_counter()
        import looptab.cli  # noqa: F401
        from looptab import annotate, config, generate

        config.load_config(None)
        annotate.load_annotations(work / "annotations.csv")
        generate.load_model(work / "model.json")
        dt = time.perf_counter() - t0 - (speed.in_calls_s - inside)
    speed.bracket()
    print(dt * speed.scale(), dt)
    return 0


if __name__ == "__main__":
    command, workdir = sys.argv[1], Path(sys.argv[2])
    raise SystemExit({"run": cmd_run, "probe": cmd_probe}[command](workdir))
