"""The benchmark's traced run wraps package functions by name; a rename in
the package must fail here rather than in the benchmark."""

import importlib
import importlib.util
import sys
from pathlib import Path

WORKER = Path(__file__).resolve().parents[1] / "bench" / "worker.py"


def load_worker(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_worker", WORKER)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_in_the_package(monkeypatch):
    worker = load_worker(monkeypatch)
    assert worker.TRACED
    for module, owner, fn in worker.TRACED:
        target = importlib.import_module(f"looptab.{module}")
        if owner:
            target = getattr(target, owner, None)
        name = ".".join(p for p in (module, owner, fn) if p)
        assert callable(getattr(target, fn, None)), f"looptab.{name} is gone"
    assert callable(getattr(importlib.import_module("looptab.cli"), "atomic_write", None))


def test_corpus_counts_read_by_the_benchmark_exist(monkeypatch):
    from looptab.annotate import CorpusResult

    worker = load_worker(monkeypatch)
    result = CorpusResult()
    for field in worker.CORPUS_COUNTS:
        assert isinstance(getattr(result, field), int), field
