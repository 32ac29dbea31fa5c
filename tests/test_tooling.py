"""The benchmark's traced run wraps package functions by name; a rename in
the package must fail here rather than in the benchmark. And the package
keeps no public function that nothing uses, and reads CSV rows by column
name in one place."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKER = ROOT / "bench" / "worker.py"


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


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def names_in(tree: ast.AST) -> set[str]:
    """Every name, attribute and import alias in ``tree``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
    return names


def test_every_public_function_has_a_use(monkeypatch):
    """A public top-level function of the package is named elsewhere in the
    package, traced by the benchmark, or imported by the acceptance tests."""
    trees = {path: parse(path) for path in sorted((ROOT / "src" / "looptab").glob("*.py"))}
    # a name the package root re-exports is not a use
    used = set().union(*(names_in(tree) for path, tree in trees.items()
                         if path.name != "__init__.py"))
    used |= {fn for _, _, fn in load_worker(monkeypatch).TRACED}
    used |= {alias.name for node in ast.walk(parse(ROOT / "tests" / "test_acceptance.py"))
             if isinstance(node, ast.ImportFrom) for alias in node.names}
    unused = [f"{path.stem}.{node.name}" for path, tree in trees.items() for node in tree.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
              and node.name not in used]
    assert not unused, f"public functions that nothing uses: {unused}"


def test_only_read_csv_names_the_csv_dict_reader():
    """Every CSV read by column name goes through ``atomic.read_csv``, which
    owns the header, short-row and line-numbered error checks."""
    places = [f"{path.stem}.{getattr(node, 'name', node.lineno)}"
              for path in sorted((ROOT / "src" / "looptab").glob("*.py"))
              for node in parse(path).body if "DictReader" in names_in(node)]
    assert places == ["atomic.read_csv"]
