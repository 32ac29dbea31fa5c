"""Whole-file writes that never leave a partial file behind, whole-file
JSON and CSV reads whose errors name the file, and the listing of a song
directory.

The text goes to a new sibling of the target, which is renamed over the
target only once every byte is written; on any failure the sibling is
removed and the previous target, if any, is left as it was.
"""

from __future__ import annotations

import csv
import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, Sequence, TextIO, TypeVar

T = TypeVar("T")


def _new_sibling(path: Path) -> tuple[int, Path]:
    """Create an empty file next to ``path``. Unlike ``tempfile.mkstemp``
    (mode 0600) it asks for mode 0666, so the umask sets the mode exactly
    as for a file that ``open`` creates."""
    while True:
        tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}")
        try:
            return os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), tmp
        except FileExistsError:
            continue


@contextmanager
def atomic_open(path: str | Path, newline: str | None = None) -> Iterator[TextIO]:
    """Open a UTF-8 text stream that replaces ``path`` when the block ends."""
    fd, tmp = _new_sibling(Path(path))
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_json(path: str | Path):
    """The JSON document in ``path``. A file that cannot be opened or read
    raises ``OSError``; contents that are not UTF-8 JSON text raise
    ``ValueError`` naming ``path``."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return json.loads(data.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError or JSONDecodeError
        raise ValueError(f"{path}: not UTF-8 JSON text: {exc}") from None


def read_csv(path: str | Path, required: Sequence[str], what: str, value: Callable[[dict], T],
             error: type[ValueError] = ValueError) -> list[tuple[int, T]]:
    """``(line, value(row))`` for each row of the UTF-8 CSV file ``path``,
    with the line its row ends on. A file that cannot be opened or read
    raises ``OSError``. A header without every ``required`` column, a row
    short of one, and a ``ValueError`` or ``csv.Error`` (``value``'s too)
    raise ``error`` naming ``path`` and, past the header, the line."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        try:
            header = reader.fieldnames
        except csv.Error as exc:
            raise error(f"{path}: line {reader.line_num}: {exc}") from None
        if not set(required).issubset(header or ()):
            raise error(f"{path}: {what} CSV must have header {sorted(required)}")
        pairs = []
        try:
            for row in reader:
                missing = [f for f in required if row[f] is None]  # DictReader pads short rows
                if missing:
                    raise ValueError(f"row has no {', '.join(missing)}")
                pairs.append((reader.line_num, value(row)))
        except (ValueError, csv.Error) as exc:
            raise error(f"{path}: line {reader.line_num}: {exc}") from None
    return pairs


def token_files(directory: str | Path) -> list[Path]:
    """The ``*.tokens`` files of a song directory, sorted by name. A path
    that is not a directory that can be listed raises ``OSError``; a
    directory holding no such file is a ``ValueError``."""
    root = Path(directory)
    with os.scandir(root) as entries:  # on POSIX, names sort as their paths in one directory do
        names = sorted(entry.name for entry in entries if entry.name.endswith(".tokens"))
    if not names:
        raise ValueError(f"no *.tokens files in {directory}")
    return [root / name for name in names]
