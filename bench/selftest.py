"""Self-test of the benchmark at tiny input sizes (about a minute).

    python3 bench/selftest.py

For every workload it checks that an untraced and a traced run each end
with one JSON line holding exactly ``correct``, ``attempted``, ``failed``
and ``metrics``, that the metrics are exactly the ones ``BENCHMARK.json``
declares (with their units), that the outputs pass every check, and that
a second untraced run at the same seed hashes its loops manifest, corpus,
model and generations identically. It also checks that ``run.py`` fails
without printing a result where the package sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
                           "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def hashes(stdout: str) -> str:
    return next(line for line in stdout.splitlines() if line.startswith("hashes "))


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        first = None
        for trace in (0, 1, 0):
            proc = run(workload, trace)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}\n{proc.stderr}")
                continue
            doc = json.loads(proc.stdout.splitlines()[-1])
            if set(doc) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(doc)}")
            units = {name: m["unit"] for name, m in doc["metrics"].items()}
            if units != declared[trace]:
                problems.append(f"{where}: metrics differ from BENCHMARK.json in "
                                f"{sorted(set(units.items()) ^ set(declared[trace].items()))}")
            if not doc["correct"] or doc["failed"] or doc["attempted"] < 1:
                problems.append(f"{where}: correct {doc['correct']}, "
                                f"failed {doc['failed']}/{doc['attempted']}")
            if trace == 0:
                if first is None:
                    first = hashes(proc.stdout)
                elif hashes(proc.stdout) != first:
                    problems.append(f"{workload}: outputs differ between two runs at one seed")
        print(f"{workload}: checked", flush=True)

    bare = BENCH / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run("corpus_many", 0, cwd=bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("run.py without package sources did not fail silently")
    shutil.rmtree(bare)

    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
