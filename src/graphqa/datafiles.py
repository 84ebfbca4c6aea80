"""Paths to packaged data files (dataset, corpus, templates, transcripts),
and the one way the package writes a file."""

import os


def data_path(*parts: str) -> str:
    """Absolute path of a packaged data file."""
    return os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", *parts)


def atomic_write(path: str, text: str) -> None:
    """Write ``text`` to ``path`` whole or not at all.

    The text goes to a new uniquely named file beside ``path``, which then
    replaces ``path``; on any failure the old file is left as it was and the
    temporary file is removed. The new file gets the permissions ``open``
    gives (not ``mkstemp``'s owner-only mode).
    """
    tmp = f"{path}.{os.urandom(6).hex()}.part"
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
