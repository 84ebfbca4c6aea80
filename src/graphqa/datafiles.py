"""Paths to packaged data files (dataset, corpus, templates, transcripts),
the one way the package writes a file, the one way a JSON-lines document
(dataset, transcript, run records) is read and written with its header,
the one encoder of every sorted-key JSON line it writes, the one way a JSON
object's field types are checked, and the one equality of record values."""

from __future__ import annotations

import json
import os
from collections.abc import Callable, Iterable, Iterator
from functools import partial
from operator import itemgetter
from typing import TypeVar

# The C scanner under json.loads, without its wrapper; see read_document.
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


# The header of each JSON-lines format, ``(kind, schema_version)``: the first
# line that is not blank, and no other line, is an object with these two.
DATASET = ("header", "1")
TRANSCRIPT = ("transcript", "1")
RUNS = ("runs", "1")

# Characters of a document cut per piece when it is split into lines.
_CHUNK = 1 << 16


def _lines(chunks: Iterable[str]) -> Iterator[str]:
    """The lines ``str.splitlines`` cuts from the text the chunks make.

    Each chunk is split up to just after its last ``\n``, and the rest goes
    before the next chunk. Only ``\r\n`` is a separator of two characters,
    and it ends with ``\n``, so no cut splits a separator.
    """
    rest = ""
    for chunk in chunks:
        text = rest + chunk
        cut = text.rfind("\n") + 1
        yield from text[:cut].splitlines()
        rest = text[cut:]
    yield from rest.splitlines()


def text_lines(source: str) -> Iterator[str]:
    """The lines of ``source``, cut a piece at a time: no list of them all."""
    return _lines(source[i : i + _CHUNK] for i in range(0, len(source), _CHUNK))


def file_lines(path: str) -> Iterator[str]:
    """The lines of a UTF-8 file, opened when the first is asked for and read
    a piece at a time: bytes that are not UTF-8 fail when the read reaches them."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield from _lines(iter(partial(fh.read, _CHUNK), ""))
    except UnicodeDecodeError:  # its position counts from a piece; the whole file's, from byte 0
        with open(path, "rb") as fh:
            fh.read().decode("utf-8")
        raise


def read_document(
    lines: Iterable[str], header: tuple[str, str], fault: Callable[[str, int], Exception]
) -> tuple[dict, Iterator[tuple[int, object]]]:
    """A document's header, and the number (from 1) and JSON value of each
    later line that is not blank, decoded as the iterator is read.

    The header is the first line that is not blank: an object with the
    ``kind`` and ``schema_version`` of ``header``. No header, a second one,
    or a line that is not JSON raises ``fault(message, lineno)``, the
    format's own error. Each line is decoded alone, never joined with the
    next: ``{"x":1},{"y":2}``, ``{"c":[{}`` and ``{}]}`` each fail. A line
    that is not exactly one JSON value (padded, a BOM, extra data) goes
    from the scanner under ``json.loads`` to ``json.loads`` itself.
    """
    values = _values(lines, header, fault)
    return next(values)[1], values


def _values(lines: Iterable[str], header: tuple[str, str], fault: Callable[[str, int], Exception]):
    kind, version = header
    missing = f"missing header line {sorted_json({'kind': kind, 'schema_version': version})}"
    header_line = 0
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
                raise fault(f"invalid JSON: {exc.msg}", lineno) from exc
        if type(value) is dict and value.get("kind") == kind:
            if header_line:
                raise fault(f"a second header line; the header is line {header_line}", lineno)
            if value.get("schema_version") != version:
                raise fault(f"unsupported schema_version {value.get('schema_version')!r}", lineno)
            header_line = lineno
        elif not header_line:
            raise fault(missing, lineno)
        yield lineno, value
    if not header_line:
        raise fault(missing, 1)


def write_document(header: tuple[str, str], values: Iterable[dict], **fields: object) -> str:
    """A document: the header of ``header`` and ``fields``, then a line per
    value, each encoded by ``sorted_json`` and ended by ``\n``."""
    kind, version = header
    lines = [sorted_json({"kind": kind, "schema_version": version, **fields})]
    lines.extend(map(sorted_json, values))
    return "\n".join(lines) + "\n"


def _checked(data: object, types: dict[str, tuple[type, ...]], where: str) -> dict:
    """``data`` if it is an object whose known fields have their JSON types;
    a JSON array field must hold strings. Any fault raises ``TypeError``."""
    if not isinstance(data, dict):
        raise TypeError(f"{where} must be an object")
    for name, value in data.items():
        if name in types:
            kind = type(value)
            if kind not in types[name]:
                raise TypeError(f"{where} field {name!r} has the wrong type {kind.__name__}")
            if kind is list:
                for item in value:
                    if type(item) is not str:
                        raise TypeError(f"{where} field {name!r} has the wrong type list of {type(item).__name__}")
    return data


_V = TypeVar("_V", bound=type)


def value_type(cls: _V) -> _V:
    """Make two values of a ``NamedTuple`` class equal only when they are of
    the same class and their keys are equal, so no value equals a plain
    tuple. The key is ``cls._key`` if the class defines one, else the fields
    up to a trailing ``source_text`` (a Cypher AST node's exact query slice)."""
    fields = cls._fields
    key = cls.__dict__.get("_key") or itemgetter(slice(len(fields) - (fields[-1] == "source_text")))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        # NotImplemented would let a plain tuple compare field by field.
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other):
        equal = __eq__(self, other)
        return equal if equal is NotImplemented else not equal

    def __hash__(self):
        return hash(key(self))

    cls.__eq__, cls.__ne__, cls.__hash__ = __eq__, __ne__, __hash__
    return cls
