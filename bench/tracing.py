"""Spans around calls into the package's public functions, recorded from
outside the package.

A wrapper replaces the function in every ``looptab`` module namespace
that holds it (``from .tokens import parse_tokens`` makes a second name
for the same function), so calls that look the name up at call time are
traced wherever they come from. Spans stay in memory as
``(name, start, end, parent_id, run_id)`` until :meth:`Tracer.write`.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent_id, run_id]
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.run_id])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self._stack.pop()
        self.spans[sid][2] = time.perf_counter()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        sid = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(sid)

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Trace ``owner.attr`` (a module function or a class method) under
        ``name`` in every loaded ``looptab`` module that refers to it.
        ``on_result(args, result)`` sees each call's arguments and result."""
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(sid)
            if on_result is not None:
                on_result(args, result)
            return result

        targets = [owner] if isinstance(owner, type) else [
            m for key, m in sys.modules.items()
            if m is not None and (key == "looptab" or key.startswith("looptab."))]
        for target in targets:
            for key, value in list(vars(target).items()):
                if value is original:
                    self._undo.append((target, key, value))
                    setattr(target, key, traced)

    def unwrap(self) -> None:
        for target, key, value in reversed(self._undo):
            setattr(target, key, value)
        self._undo.clear()

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: total seconds, self seconds (total minus the time
        covered by direct child spans) and call count."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
        for sid, (name, start, end, _, _) in enumerate(self.spans):
            agg = out[name]
            agg["s"] += end - start
            agg["self_s"] += end - start - child_time[sid]
            agg["calls"] += 1
        return out

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, run_id) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "run": run_id}) + "\n")
