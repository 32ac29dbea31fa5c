"""Pipeline command line: one executable, one subcommand per stage.

Data goes to files, logs to stderr. Exit codes: 0 success; 1 a usage
error or invalid input, such as a file whose contents are not what the
command reads; 2 a file that cannot be opened, read or written. All
randomness flows from explicit seeds.
"""

from __future__ import annotations

import argparse
import bisect
import csv
import dataclasses
import functools
import json
import logging
import math
import sys
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import annotate as annotate_mod
from . import evaluate as evaluate_mod
from . import generate as generate_mod
from . import loops as loops_mod
from . import stats as stats_mod
from . import tension as tension_mod
from .atomic import atomic_open
from .config import GeneratorConfig, load_config
from .score import SongBatch, TokenTable, decode_parts, regular_parts, token_files
from .tokens import ParseError, TokenCategory, render_tokens, token

log = logging.getLogger("looptab")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def atomic_write(path: str | Path, text: str) -> None:
    with atomic_open(path) as fh:
        fh.write(text)


def _song_parts(paths: list[Path], regular: bool = False
                ) -> Iterator[tuple[list[Path], SongBatch]]:
    """The songs of ``paths`` decoded with one token table in parts
    (:func:`score.decode_parts`), each regularized to 4/4 in parts
    (:func:`score.regular_parts`) if ``regular``, with their files; the
    first file that fails is an error naming it, raised as its part comes."""
    for first, decoded in decode_parts(paths, TokenTable()):
        for start, part in regular_parts(decoded) if regular else [(0, decoded)]:
            names = paths[first + start:first + start + len(part)]
            if part.errors:
                i = min(part.errors)
                if isinstance(part.errors[i], OSError):
                    raise part.errors[i]
                raise ValueError(f"{names[i]}: {part.errors[i]}") from None
            yield names, part


def _check_tokens(distinct: Iterable[str], texts: Sequence[str],
                  where: Callable[[int], str]) -> None:
    """Classify each of the ``distinct`` token strings of ``texts`` once
    through :func:`tokens.token`; the first malformed one is an error naming
    ``where(i)`` of its text ``i``, its index in that text and the token.
    The texts are split only to find it."""
    bad = {}
    for raw in distinct:
        try:
            token(raw)
        except ParseError as exc:
            bad[raw] = str(exc)
    for number, text in enumerate(texts if bad else ()):
        for i, raw in enumerate(text.split()):
            if raw in bad:
                raise ValueError(f"{where(number)}: {ParseError(bad[raw], i, raw)}")


def _read_corpus(path) -> list[str]:
    """The lines of a corpus file; a file of blank lines only is an error
    naming it. :func:`_check_corpus` checks the tokens."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not any(line.strip() for line in lines):
        raise ValueError(f"{path}: empty corpus")
    return lines


def _check_corpus(path, distinct: Iterable[str], lines: Sequence[str]) -> None:
    """A malformed token among ``distinct``, the token strings of the
    corpus ``lines``, is an error naming the file, the line and the token."""
    _check_tokens(distinct, lines, lambda number: f"{path}: line {number + 1}")


def _read_streams(directory: str | Path) -> list[list[str]]:
    """The tokens of each song file of ``directory``; a malformed token is
    an error naming the file and the token."""
    paths = token_files(directory)
    texts = [path.read_text(encoding="utf-8") for path in paths]
    streams = [text.split() for text in texts]
    _check_tokens(set(chain.from_iterable(streams)), texts, lambda number: str(paths[number]))
    return streams


# The song controls the classifiers learn, one classifier each; a stream is
# scored without them.
LABELS = ("valence", "arousal")
_LABEL_PREFIXES = tuple(f"{label}:" for label in LABELS)


def label_free(tokens: list[str]) -> list[str]:
    """Drop the valence/arousal label tokens so classifiers cannot read the
    label off the stream they are scoring."""
    return [t for t in tokens if not t.startswith(_LABEL_PREFIXES)]


def _read_songs(path) -> list[tuple[str, str]]:
    """The ``(artist, title)`` rows of a songs CSV. The artist may be empty,
    as it is for a song file without an artist header; the title may not."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        try:
            fieldnames = reader.fieldnames
        except csv.Error as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
        if not {"artist", "title"} <= set(fieldnames or ()):
            raise ValueError(f"{path}: songs CSV needs artist and title columns")
        songs = []
        try:
            for row in reader:
                artist, title = row["artist"], row["title"]
                if artist is None:  # DictReader pads a short row with None
                    raise ValueError("a song needs an artist field")
                if not (title or "").strip():
                    raise ValueError("a song needs a title")
                songs.append((artist, title))
        except (ValueError, csv.Error) as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    return songs


def cmd_annotate(args) -> int:
    if args.songs:
        if args.provider_csv:
            provider = annotate_mod.CsvFeaturesProvider(args.provider_csv)
        elif args.provider_url:
            provider = annotate_mod.HttpFeaturesProvider(args.provider_url)
        else:
            raise ValueError("--songs requires --provider-csv or --provider-url")
        records, misses = annotate_mod.fetch_annotations(provider, _read_songs(args.songs))
        log.info("annotated %d songs, %d misses", len(records), len(misses))
        if args.out_annotations:
            annotate_mod.save_annotations(records, args.out_annotations)
        if not records:
            raise ValueError("no songs could be annotated")
    else:
        if not args.annotations:
            raise ValueError("give --annotations or --songs with a provider")
        records = annotate_mod.load_annotations(args.annotations)
    thresholds = annotate_mod.compute_thresholds(records)
    if args.out_thresholds:
        atomic_write(args.out_thresholds, annotate_mod.feature_thresholds_to_json(thresholds))
    log.info("medians: valence %.4f arousal %.4f", thresholds.valence_median,
             thresholds.arousal_median)
    return 0


def cmd_tension(args) -> int:
    """Per-bar tension of every song, each against the key estimated over
    the whole song; ``looptab corpus`` estimates it per spliced loop."""
    config = load_config(args.config)
    paths = token_files(args.scores)
    profiles = []
    for _, part in _song_parts(paths):
        profiles += tension_mod.loop_tension_profiles(part.columns, part.spans,
                                                      config.spiral_params)
    thresholds = tension_mod.fit_tension_thresholds(profiles)
    rows = [tension_mod.CSV_HEADER]
    for path, profile in zip(paths, tension_mod.discretize_profiles(profiles, thresholds)):
        rows.extend(tension_mod.profile_csv_rows(path.stem, profile))
    atomic_write(args.out_csv, "\n".join(rows) + "\n")
    if args.out_thresholds:
        atomic_write(args.out_thresholds, tension_mod.thresholds_to_json(thresholds))
    return 0


def cmd_loops(args) -> int:
    config = load_config(args.config)
    lines = []
    for paths, part in _song_parts(token_files(args.scores), regular=True):
        starts = part.starts.tolist()
        for span in loops_mod.extract_loops(part.columns, config.loop_params, part.starts):
            song = bisect.bisect_right(starts, span.start_bar) - 1
            lines.append(json.dumps({
                "song": paths[song].stem,
                "start_bar": span.start_bar - starts[song],
                "end_bar": span.end_bar - starts[song],
                "rep_len": span.repetition_length_events,
            }))
    atomic_write(args.out, "".join(l + "\n" for l in lines))
    log.info("found %d loops", len(lines))
    return 0


def cmd_corpus(args) -> int:
    config = load_config(args.config)
    annotations = annotate_mod.load_annotations(args.annotations)
    lines, result = annotate_mod.build_corpus(
        args.scores, annotations,
        loop_params=config.loop_params,
        spiral_params=config.spiral_params,
    )
    skipped = (f"{result.skipped_no_annotation} unannotated, {result.skipped_no_loops} loop-free, "
               f"{result.failed_files} failed")
    if not lines:
        raise ValueError(f"no corpus lines from {args.scores} (skipped: {skipped})")
    atomic_write(args.out, "".join(l + "\n" for l in lines))
    if args.out_tension_thresholds and result.tension_thresholds is not None:
        atomic_write(args.out_tension_thresholds,
                     tension_mod.thresholds_to_json(result.tension_thresholds))
    if args.out_feature_thresholds:
        atomic_write(args.out_feature_thresholds,
                     annotate_mod.feature_thresholds_to_json(result.feature_thresholds))
    log.info("corpus: %d lines from %d songs (skipped: %s)", result.lines, result.songs_used,
             skipped)
    return 0


def cmd_train_gen(args) -> int:
    config = load_config(args.config)
    gen_cfg = config.generator
    order = args.order if args.order is not None else gen_cfg.order
    alpha = args.alpha if args.alpha is not None else gen_cfg.alpha
    lines = _read_corpus(args.corpus)
    model = generate_mod.train_generator(lines, order=order, alpha=alpha)
    # the vocabulary holds every distinct token string of the corpus
    _check_corpus(args.corpus, model.vocabulary, lines)
    generate_mod.save_model(model, args.out)
    log.info("trained order-%d model, vocabulary %d", order, len(model.vocabulary))
    return 0


def cmd_generate(args) -> int:
    config = load_config(args.config)
    prompt = generate_mod.ablated_prompt(args.emotion, args.ablate)
    gen_cfg: GeneratorConfig = config.generator
    constraints = generate_mod.SamplingConstraints(
        emotion=args.emotion,
        tempo_upper=config.happy_tempo_min,
        tempo_lower=config.sad_tempo_max,
        max_tokens=args.max_tokens if args.max_tokens is not None else gen_cfg.max_tokens,
        max_bars=gen_cfg.max_bars,
        temperature=args.temperature if args.temperature is not None else gen_cfg.temperature,
    )
    if args.count < 1:
        raise ValueError(f"--count must be >= 1, got {args.count}")
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    if constraints.max_tokens <= len(prompt):
        raise ValueError(f"max_tokens {constraints.max_tokens} leaves no room to sample after "
                         f"the {len(prompt)}-token prompt; give more than {len(prompt)}")
    out_dir = Path(args.out_dir)
    names = [f"gen_{i:04d}.tokens" for i in range(args.count)]
    written = set(names)
    # eval-emotion and eval-loops read every *.tokens file of the directory
    stale = next((p for p in sorted(out_dir.glob("*.tokens")) if p.name not in written), None)
    if stale is not None:
        raise ValueError(f"{stale}: a *.tokens file that this run of {args.count} would not "
                         "overwrite, but eval-emotion and eval-loops would read; remove it or "
                         "give another --out-dir")
    model = generate_mod.load_model(args.model)
    generate_mod.check_prompt(model, prompt)
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, name in enumerate(names):
        stream = generate_mod.sample_sequence(
            model, prompt, dataclasses.replace(constraints, rng_seed=args.seed + i))
        if args.ablate == "tension":
            stream = [t for t in stream if t.category is not TokenCategory.BAR_CONTROL]
        atomic_write(out_dir / name, render_tokens(stream) + "\n")
    return 0


def _classifier_corpus(path, truncate: int):
    """The label of each target on every line of a corpus, as
    ``{target: [is_high, ...]}``, plus the feature names and matrix of the
    label-free lines, built once for all targets. The lines are read as ids
    among the corpus's distinct tokens (:func:`evaluate.token_ids`); a
    line's label is its first label token of the target, and the label ids
    are dropped before the windows are cut."""
    lines = _read_corpus(path)
    distinct, ids, lengths = evaluate_mod.token_ids(map(str.split, lines))
    _check_corpus(path, distinct, lines)
    del lines
    line = np.repeat(np.arange(len(lengths), dtype=np.int32), lengths)
    filled = lengths > 0  # the lines that are not blank
    labels = {}
    for target, prefix in zip(LABELS, _LABEL_PREFIXES):
        at = np.flatnonzero(np.array([raw.startswith(prefix) for raw in distinct], bool)[ids])
        at = at[np.diff(line[at], prepend=-1) != 0]  # each line's first
        level = np.full(len(lengths), -1, np.int8)
        level[line[at]] = np.array([raw[len(prefix):] == "high" for raw in distinct], bool)[ids[at]]
        missing = np.flatnonzero((level < 0) & filled)
        if missing.size:
            raise ValueError(f"{path}: line {missing[0] + 1} carries no {target} label")
        labels[target] = (level[filled] == 1).tolist()
    kept = ~np.array([raw.startswith(_LABEL_PREFIXES) for raw in distinct], bool)[ids]
    names, x = evaluate_mod.id_features(
        distinct, ids[kept], np.bincount(line[kept], minlength=len(lengths))[filled], truncate)
    return labels, names, x


def cmd_train_clf(args) -> int:
    """Both classifiers are fitted before either file is written, so a
    corpus that fails for one target leaves neither file behind."""
    config = load_config(args.config)
    labels, names, x = _classifier_corpus(args.corpus, config.classifier.truncate)
    classifiers = evaluate_mod.fit_classifiers(names, x, labels, config.classifier)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for target, clf in classifiers.items():
        clf.save(out_dir / f"{target}.json")
        log.info("%s classifier: %d Newton iterations, gradient max-norm %.3g, "
                 "held-out accuracy %s", target, clf.fit.iterations, clf.fit.gradient_norm,
                 clf.holdout_accuracy)
    return 0


def cmd_eval_emotion(args) -> int:
    if (args.happy is None) != (args.sad is None):
        raise ValueError("--happy needs --sad" if args.sad is None else "--sad needs --happy")
    valence = evaluate_mod.LinearTokenClassifier.load(args.valence_model)
    arousal = evaluate_mod.LinearTokenClassifier.load(args.arousal_model)
    settings: dict[str, evaluate_mod.EmotionMetrics] = {}
    pairs = []
    if args.happy is not None:
        pairs.append(("all", args.happy, args.sad))
    for name, happy_dir, sad_dir in args.setting or []:
        pairs.append((name, happy_dir, sad_dir))
    if not pairs:
        raise ValueError("give --happy/--sad or at least one --setting")
    for name, happy_dir, sad_dir in pairs:
        happy = [label_free(s) for s in _read_streams(happy_dir)]
        sad = [label_free(s) for s in _read_streams(sad_dir)]
        settings[name] = evaluate_mod.emotion_metrics(happy, sad, valence, arousal)
    if args.out_json:
        atomic_write(args.out_json, json.dumps(evaluate_mod.metrics_report(settings), indent=2))
    table = evaluate_mod.metrics_table(settings)
    if args.out_table:
        atomic_write(args.out_table, table + "\n")
    print(table)
    return 0


def cmd_eval_loops(args) -> int:
    config = load_config(args.config)
    paths = token_files(args.generations)
    total, avg = evaluate_mod.loop_metric(
        (part for _, part in _song_parts(paths, regular=True)), config.loop_params)
    doc = {"format": "looptab-loop-report", "version": 1,
           "generations": len(paths), "loops_found": total, "average_per_generation": avg}
    if args.out:
        atomic_write(args.out, json.dumps(doc, indent=2))
    print(f"loops found: {total}  average per generation: {avg:.4f}")
    return 0


def _numeric_columns(path) -> list[list[float]]:
    """The columns of a CSV of finite numbers, after an optional header row."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            rows = [(reader.line_num, row) for row in reader if row]
        except csv.Error as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    try:
        float(rows[0][1][0])
    except ValueError:
        rows = rows[1:]  # a header row
    except IndexError:
        pass  # an empty file
    if not rows:
        raise ValueError(f"{path}: no data rows")
    width = len(rows[0][1])
    for line, row in rows:
        if len(row) != width:
            raise ValueError(f"{path}: line {line} has {len(row)} values, expected {width}")
    columns = [[] for _ in range(width)]
    for line, row in rows:
        for column, cell in zip(columns, row):
            try:
                value = float(cell)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise ValueError(f"{path}: line {line} has {cell!r}, not a finite number")
            column.append(value)
    return columns


def cmd_eval_stats(args) -> int:
    columns = _numeric_columns(args.input)
    if args.method == "wilcoxon":
        if len(columns) < 2:
            raise ValueError("wilcoxon needs two columns")
        res = stats_mod.wilcoxon_signed_rank(columns[0], columns[1])
        doc = {"method": "wilcoxon", "W": res.statistic, "z": res.z_value,
               "p_value": res.p_value, "n": res.n, "exact": res.exact}
    elif args.method == "friedman":
        matrix = list(zip(*columns))
        res = stats_mod.friedman(matrix)
        doc = {"method": "friedman", "chi2": res.statistic, "df": len(columns) - 1,
               "p_value": res.p_value, "n": res.n}
    else:
        comparisons = stats_mod.pairwise_bonferroni(columns, alpha=args.alpha)
        doc = {"method": "pairwise_bonferroni", "alpha": args.alpha,
               "comparisons": [
                   {"a": c.group_a, "b": c.group_b, "W": c.result.statistic,
                    "z": c.result.z_value, "p_value": c.result.p_value,
                    "alpha_adjusted": c.alpha_adjusted, "significant": c.significant}
                   for c in comparisons]}
    text = json.dumps(doc, indent=2)
    if args.out:
        atomic_write(args.out, text)
    print(text)
    return 0


def cmd_survey(args) -> int:
    rows = evaluate_mod.load_survey_csv(args.responses)
    summary = evaluate_mod.survey_summary(rows)
    text = json.dumps(summary.as_dict(), indent=2)
    if args.out:
        atomic_write(args.out, text)
    print(text)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then shared."""
    parser = _Parser(prog="looptab",
                     description="Emotion-annotated loop corpora, conditional generation "
                                 "and evaluation for symbolic tablature.")
    parser.add_argument("--config", help="pipeline config JSON (flags win over config)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("annotate", help="load or fetch song annotations and fit medians")
    p.add_argument("--annotations", help="annotations CSV (artist,title,valence,energy,mode)")
    p.add_argument("--songs", help="CSV of artist,title to fetch via a provider")
    p.add_argument("--provider-csv", help="CSV-backed audio features provider")
    p.add_argument("--provider-url", help="HTTP provider endpoint template "
                                          "({artist}/{title} placeholders)")
    p.add_argument("--out-annotations", help="cache fetched records to CSV")
    p.add_argument("--out-thresholds", help="write feature_thresholds.json here")
    p.set_defaults(func=cmd_annotate)

    p = sub.add_parser("tension", help="per-bar tonal tension with quartile levels")
    p.add_argument("--scores", required=True)
    p.add_argument("--out-csv", required=True)
    p.add_argument("--out-thresholds")
    p.set_defaults(func=cmd_tension)

    p = sub.add_parser("loops", help="extract bar-aligned loop manifests")
    p.add_argument("--scores", required=True)
    p.add_argument("--out", required=True, help="JSON lines manifest")
    p.set_defaults(func=cmd_loops)

    p = sub.add_parser("corpus", help="build the control-token training corpus")
    p.add_argument("--scores", required=True)
    p.add_argument("--annotations", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--out-tension-thresholds")
    p.add_argument("--out-feature-thresholds")
    p.set_defaults(func=cmd_corpus)

    p = sub.add_parser("train-gen", help="train the n-gram generator")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--order", type=int)
    p.add_argument("--alpha", type=float)
    p.set_defaults(func=cmd_train_gen)

    p = sub.add_parser("generate", help="sample emotion-conditioned token files")
    p.add_argument("--model", required=True)
    p.add_argument("--emotion", required=True, choices=["happy", "sad"])
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--temperature", type=float)
    p.add_argument("--max-tokens", type=int)
    p.add_argument("--ablate", choices=["emotion_labels", "psychology", "tension"])
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train-clf", help="train valence and arousal classifiers")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_train_clf)

    p = sub.add_parser("eval-emotion", help="emotion separation metrics")
    p.add_argument("--happy", help="directory of happy generations")
    p.add_argument("--sad", help="directory of sad generations")
    p.add_argument("--setting", nargs=3, action="append",
                   metavar=("NAME", "HAPPY_DIR", "SAD_DIR"),
                   help="additional named setting (repeatable)")
    p.add_argument("--valence-model", required=True)
    p.add_argument("--arousal-model", required=True)
    p.add_argument("--out-json")
    p.add_argument("--out-table")
    p.set_defaults(func=cmd_eval_emotion)

    p = sub.add_parser("eval-loops", help="loop counts over generations")
    p.add_argument("--generations", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval_loops)

    p = sub.add_parser("eval-stats", help="nonparametric tests on CSV columns")
    p.add_argument("--method", required=True, choices=["wilcoxon", "friedman", "pairwise"])
    p.add_argument("--input", required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval_stats)

    p = sub.add_parser("survey", help="summarize listening-test responses")
    p.add_argument("--responses", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_survey)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
