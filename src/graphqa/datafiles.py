"""Paths to packaged data files (dataset, corpus, templates, transcripts),
the one way the package writes a file, the one way a JSON-lines file is
read, the one encoder of every sorted-key JSON line it writes, and the one
way a JSON record's field types are checked."""

from __future__ import annotations

import json
import os
from collections.abc import Callable, Iterable, Iterator

# The C scanner under json.loads, without its wrapper; see json_lines.
_scan = json.JSONDecoder().scan_once

# ``json.dumps(value, sort_keys=True)``, from one encoder: json.dumps builds a
# new encoder on each call that passes an option. Each call keeps its own
# state, so the one encoder serves every line of every document.
sorted_json = json.JSONEncoder(sort_keys=True).encode


def data_path(*parts: str) -> str:
    """Absolute path of a packaged data file."""
    return os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", *parts)


def atomic_write(path: str, text: str) -> None:
    """Write ``text`` to ``path`` whole or not at all.

    The text goes to a new uniquely named file beside ``path``, is flushed
    to disk, and the file then replaces ``path``, so a power cut cannot
    leave ``path`` renamed to an empty file. On any failure the old file is
    left as it was and the temporary file is removed. The new file gets the
    permissions ``open`` gives (not ``mkstemp``'s owner-only mode).
    """
    tmp = f"{path}.{os.urandom(6).hex()}.part"
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def json_lines(
    lines: Iterable[str], invalid: Callable[[int, json.JSONDecodeError], Exception]
) -> Iterator[tuple[int, object]]:
    """The number, from 1, and the JSON value of each line that is not blank.

    Each line is decoded alone, by the scanner under ``json.loads`` called
    directly; a line that is not exactly one JSON value (blank, padded, a
    BOM, extra data, bad JSON) goes through ``json.loads`` for the same value
    or its error. A line that is not JSON raises ``invalid(lineno, error)``.
    Lines are never joined and decoded together: ``{"x":1},{"y":2}``,
    ``{"c":[{}`` and ``{}]}`` each fail, yet joined they make three objects.
    The dataset, transcript and run-record formats are all read here.
    """
    for lineno, line in enumerate(lines, start=1):
        try:
            value, end = _scan(line, 0)
        except (StopIteration, json.JSONDecodeError):
            end = -1
        if end != len(line):
            # Blank, or not one bare JSON value: json.loads gives it or its error.
            if not line.strip():
                continue
            try:
                value = json.loads(line)
            except json.JSONDecodeError as exc:
                raise invalid(lineno, exc) from exc
        yield lineno, value


def _checked(data: object, types: dict[str, tuple[type, ...]], where: str) -> dict:
    """``data`` if it is an object whose known fields have their JSON types."""
    if not isinstance(data, dict):
        raise TypeError(f"{where} must be an object")
    for name, value in data.items():
        if name in types and type(value) not in types[name]:
            raise TypeError(f"{where} field {name!r} has the wrong type {type(value).__name__}")
    return data
