"""Seeded end-to-end benchmark of the looptab CLI pipeline.

    python3 bench/run.py --workload corpus_long --seed 0 --seconds 30 --trace 0

Writes the workload's inputs from ``--seed`` under ``bench/.work/``, runs
every CLI stage through ``looptab.cli.main(argv)`` in one fresh child
interpreter (BLAS/OpenMP threads capped at 1), repeating stages for
``--seconds``, checks the outputs, then times the package set-up in five
more fresh interpreters. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` -- the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, the per-layer
metrics with ``--trace 1`` (one untraced pass, then one pass with spans
around the package's public functions). The lines before it give every
per-stage figure too (``timings``). ``--size tiny`` shrinks every input
for ``selftest.py``.

The end-to-end times are ``setup_s``, ``wall_s`` (one pass over every
stage) and ``songs_s`` (annotate, tension, loops, corpus), each the median
over its repetitions in host-normalized seconds: every timed call is
scaled by a reference loop timed around and during it, so that a shared
host's changes of speed cancel out (``worker.HostSpeed``). The song stages
and the model stages (train-gen, generate, train-clf, eval-*) share the
run's time equally. ``model_s``, the raw times (``wall_raw_s``,
``setup_raw_s``) and the per-stage rates are reported beside them without
a bound: the model stages' work depends on how long the sampled sequences
happen to be, which moves with the seed on the song workloads, and a
single stage is too short to be steady.

Workloads (sizes in ``inputs.WORKLOADS``):

* ``corpus_long``: three long 4/4 songs of about 1.1k, 2.1k and 4.3k onset
  events with a planted 4-bar repeat every 16 bars. The quadratic repeat
  search dominates ``loops`` and ``corpus``; the last song is over the
  4,096-event truncation cap, so its late planted loops are lost today and
  count as failed operations.
* ``corpus_many``: 300 songs of 16-32 bars with tempo changes and mixed
  annotations. Per-song work (parse, tension, key estimation, control
  injection) outweighs the repeat search.
* ``gen_eval``: 120 short songs plus a 250-line control-token corpus
  written directly, with a DadaGP-like vocabulary of about 850 tokens and
  tempi over 30-300 BPM; 32 samples per generate call. Sampling (masked
  and rejection mode) dominates.

Every workload runs the whole pipeline (annotate, tension, loops, corpus,
train-gen, generate happy/sad/ablated, train-clf, eval-*), so every metric
exists on every workload; the inputs decide which stage dominates.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402

SETUP_PROBES = 5
CHILD_TIMEOUT_S = 150
THREAD_CAPS = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                       "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                       "BLIS_NUM_THREADS")}


def child_env() -> dict[str, str]:
    env = dict(os.environ, **THREAD_CAPS)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in doc["end_to_end"]},
            {m["name"]: m["unit"] for m in doc["per_layer"]})


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    """Run one workload; return the result object the last line prints."""
    work = BENCH / ".work" / workload
    shutil.rmtree(work, ignore_errors=True)
    sizes, made = inputs.write_inputs(workload, seed, work, tiny=tiny)
    spec = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "sizes": dataclasses.asdict(sizes),
        "songs": [{"name": s.name, "events": s.events, "bars": s.bars, "planted": s.planted}
                  for s in made.songs],
        "gen_corpus": str(made.gen_corpus) if made.gen_corpus else None,
    }
    (work / "spec.json").write_text(json.dumps(spec))
    env = child_env()
    worker = str(BENCH / "worker.py")
    with open(work / "child.log", "w") as log:
        proc = subprocess.run([sys.executable, worker, "run", str(work)], env=env, cwd=ROOT,
                              stdout=log, stderr=subprocess.STDOUT, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        tail = (work / "child.log").read_text().splitlines()[-20:]
        raise RuntimeError(f"worker exited with {proc.returncode}:\n" + "\n".join(tail))
    result = json.loads((work / "result.json").read_text())
    setup, setup_raw = [], []
    for _ in range(SETUP_PROBES):
        probe = subprocess.run([sys.executable, worker, "probe", str(work)], env=env, cwd=ROOT,
                               capture_output=True, text=True, timeout=60, check=True)
        normalized, seconds = probe.stdout.split()[-2:]
        setup.append(float(normalized))
        setup_raw.append(float(seconds))
    result["timings"]["setup_s"] = (statistics.median(setup), "s")
    result["timings"]["setup_raw_s"] = (statistics.median(setup_raw), "s")
    events = [s.events for s in made.songs]
    result["sizes"] = {"songs": len(events), "events_per_song": [min(events), max(events)],
                       "events": sum(events), "bars": sum(s.bars for s in made.songs),
                       "planted_loops": sum(len(s.planted) for s in made.songs),
                       "gen_corpus_lines": sizes.gen_corpus_lines,
                       "samples_per_generate": sizes.samples, "max_tokens": sizes.max_tokens}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "looptab" / "cli.py").is_file():
        print(f"error: no looptab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    e2e_units, layer_units = declared_metrics()
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size == "tiny")
    except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    figures = result["per_layer"] if args.trace else result["timings"]
    units = layer_units if args.trace else e2e_units
    if set(units) - set(figures) or any(figures[n][1] != u for n, u in units.items()):
        print("error: the measured metrics do not match BENCHMARK.json", file=sys.stderr)
        return 1
    for note in result["notes"]:
        print(f"check failed: {note}")
    print(f"{args.workload} seed {args.seed}: {result['failed']}/{result['attempted']} operations "
          f"failed (failed_frac {result['failed'] / result['attempted']:.4f})")
    print("sizes " + json.dumps(result["sizes"]))
    print("hashes " + json.dumps(result["hashes"], sort_keys=True))
    if not args.trace:
        print("timings " + json.dumps(figures))
    for name, (value, unit) in figures.items():
        kind = "metric" if name in units else "stage "
        print(f"{args.workload:12s} {kind} {name:48s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": result["incorrect"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": figures[name][0], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
