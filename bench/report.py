"""Run every workload, print every metric with its unit and workload, and
optionally record the results as ``BENCH_<label>.json``.

    python3 bench/report.py --seeds 0                       # one run per workload
    python3 bench/report.py --seeds 0-9 --out bench/results/BENCH_seed.json

Each seed gives one untraced run per workload (``run.py --trace 0``); the
first seed also gives one traced run. For every end-to-end metric and
per-stage figure the report holds the per-seed values, their median and
quartiles, and the spread (interquartile range over median), next to the
bound of each end-to-end metric. Two
direct measurements complete it: ``extract_loops`` on one song of about
1,024 and one of about 4,096 onset events, and sampling tokens/s at the
``gen_eval`` vocabulary in masked and rejection mode.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
from run import THREAD_CAPS, child_env  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    doc = json.loads(lines[-1])
    doc["seed"] = seed
    doc["elapsed_s"] = time.perf_counter() - t0
    doc["checks_failed"] = [l[len("check failed: "):] for l in lines if l.startswith("check failed: ")]
    for line in lines:
        key, _, rest = line.partition(" ")
        if key in ("sizes", "timings"):
            doc[key] = json.loads(rest)
    return doc


def summarize(values: list[float], unit: str, bound: float | None) -> dict:
    med = statistics.median(values)
    out = {"median": med, "unit": unit, "values": values, "bound": bound}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / med)
    return out


def micro() -> dict:
    """Direct calls into the package; runs in a child with the thread caps."""
    import random

    from looptab import generate
    from looptab.loops import extract_loops
    from looptab.score import regularize_meter, tokens_to_score
    from looptab.tokens import parse_tokens

    out: dict = {"extract_loops": {}}
    rng = random.Random("micro")
    for target, reps in ((1024, 5), (4096, 1)):
        song = inputs.build_song(rng, f"events_{target}", target_events=target, onsets=(6, 8))
        score = regularize_meter(tokens_to_score(parse_tokens(song.text)))
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            extract_loops(score)
            times.append(time.perf_counter() - t0)
        out["extract_loops"][str(target)] = {"events": song.events, "runs": reps,
                                             "median_s": statistics.median(times)}
    lines = [inputs.gen_corpus_line(rng) for _ in range(inputs.WORKLOADS["gen_eval"].gen_corpus_lines)]
    model = generate.train_generator(lines)
    prompt = generate.build_prompt("sad")
    sampling = {"vocab_size": len(model.vocabulary)}
    for mode, masked in (("masked", True), ("rejection", False)):
        tokens, t0 = 0, time.perf_counter()
        for seed in range(12):
            c = generate.SamplingConstraints(emotion="sad", max_tokens=256, rng_seed=seed,
                                             mask_tempo=masked)
            tokens += len(generate.sample_sequence(model, prompt, c))
        sampling[f"{mode}_tokens_per_s"] = tokens / (time.perf_counter() - t0)
        sampling[f"{mode}_tokens"] = tokens
    out["sampling"] = sampling
    return out


def machine() -> dict:
    probe = subprocess.run([sys.executable, "-c", "import numpy, sys; print(numpy.__version__)"],
                           env=child_env(), capture_output=True, text=True, check=True)
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    cpu = next((line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor()) \
        if Path("/proc/cpuinfo").exists() else platform.processor()
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": probe.stdout.strip(), "thread_caps": THREAD_CAPS, "commit": commit,
            "platform": platform.platform()}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0", help="e.g. 0-9 or 0,3,5")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out", help="write the results here (BENCH_<label>.json)")
    parser.add_argument("--micro", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.micro:
        print(json.dumps(micro()))
        return 0

    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    doc = {"machine": machine(), "run_seconds": args.seconds, "seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, args.seconds, 0) for seed in seeds]
        traced = run_once(workload, seeds[0], args.seconds, 1)
        summary = {name: summarize([r["timings"][name][0] for r in runs], unit, bounds.get(name))
                   for name, (_, unit) in runs[0]["timings"].items()}
        doc["workloads"][workload] = {
            "why": why[workload], "sizes": runs[0].get("sizes"),
            "runs": [{k: r[k] for k in ("seed", "correct", "attempted", "failed", "checks_failed",
                                        "elapsed_s")} for r in runs],
            "timings": summary,
            "traced": {"seed": seeds[0], "elapsed_s": traced["elapsed_s"],
                       "metrics": {k: v["value"] for k, v in traced["metrics"].items()}},
        }
        for r in runs:
            print(f"{workload:12s} seed {r['seed']:3d}  correct {r['correct']}  "
                  f"failed {r['failed']}/{r['attempted']} (failed_frac "
                  f"{r['failed'] / r['attempted']:.4f})  {r['elapsed_s']:.1f} s")
        for name, s in summary.items():
            spread = f"spread {s['spread']:.3f}" if "spread" in s else ""
            bound = f"(bound {s['bound']})" if s["bound"] is not None else "(stage)"
            print(f"{workload:12s} {name:26s} {s['median']:14.6g} {s['unit']:9s} {spread} {bound}")
        for name, value in doc["workloads"][workload]["traced"]["metrics"].items():
            print(f"{workload:12s} traced {name:48s} {value:14.6g}")

    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--micro"],
                          env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=True)
    doc["micro"] = json.loads(proc.stdout.splitlines()[-1])
    print("micro " + json.dumps(doc["micro"]))
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
