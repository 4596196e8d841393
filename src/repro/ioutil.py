"""Crash-safe file writes.

A plain ``open(path, "w")`` truncates the destination before the new
content is flushed: an interrupt (Ctrl-C, OOM kill, power loss) in that
window leaves a truncated half-file where a good artifact used to be.
Every writer of results, journals, and ledgers in this package goes
through the helpers here instead: write to a temporary file in the same
directory, fsync it, then :func:`os.replace` it over the destination —
the rename is atomic on POSIX, so readers only ever observe the old
bytes or the new bytes, never a mixture.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any


def atomic_write_text(path: str | os.PathLike[str], text: str,
                      encoding: str = "utf-8") -> None:
    """Write ``text`` to ``path`` atomically (tmp file + ``os.replace``)."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding=encoding) as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        # Includes KeyboardInterrupt: never leave *.tmp droppings behind.
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_json(path: str | os.PathLike[str], data: Any,
                      indent: int | None = 2, sort_keys: bool = True) -> str:
    """Serialize ``data``, write it atomically and return the text;
    ``sort_keys`` makes identical payloads identical bytes (resume
    verification hashes job artifacts)."""
    text = json.dumps(data, indent=indent, sort_keys=sort_keys) + "\n"
    atomic_write_text(path, text)
    return text

