"""Write-ahead journal: one fsynced JSONL record per state transition.

The journal is the harness' source of truth for what happened to a run.
Every record is a single JSON line, flushed *and fsynced* before the
supervisor acts on the transition it describes — so after any crash,
including ``kill -9``, the journal is at worst missing its final
partial line.  :func:`read_journal` tolerates exactly that: a truncated
*last* line is dropped silently (the crash signature), while garbage
anywhere else raises :class:`~repro.errors.SerializationError`.

Record vocabulary (all records carry ``event``; fields vary):

- ``run_start``    — ``jobs`` (names in spec order), ``parallel``, ``resume``
- ``job_start``    — ``job``, ``attempt`` (1-based)
- ``job_retry``    — ``job``, ``attempt``, ``backoff_s``, ``error``
- ``job_success``  — ``job``, ``attempt``, ``elapsed_s``, ``artifact``,
  ``sha256`` (content hash used by resume verification)
- ``job_quarantined`` — ``job``, ``attempts``, ``error``
- ``job_skipped``  — ``job``, ``reason`` (``resumed`` | ``dependency``)
- ``run_interrupted`` — ``signal`` (SIGINT/SIGTERM finalization)
- ``run_end``      — final counters
"""

from __future__ import annotations

import json
import os
from typing import Any

from repro.errors import SerializationError

JOURNAL_NAME = "journal.jsonl"

#: Fields every reader keys on; each is a string wherever it appears.
_STRING_FIELDS = ("event", "job")


class Journal:
    """Append-only, fsync-per-record JSONL writer."""

    def __init__(self, path: str | os.PathLike[str]) -> None:
        self.path = os.fspath(path)
        self._handle = open(self.path, "a", encoding="utf-8")

    def record(self, event: str, **fields: Any) -> dict[str, Any]:
        """Append one record and force it to disk before returning."""
        rec: dict[str, Any] = {"event": event, **fields}
        self._handle.write(json.dumps(rec, sort_keys=True) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())
        return rec

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def read_journal(path: str | os.PathLike[str]) -> list[dict[str, Any]]:
    """Replay a journal file into its list of records.

    A partial *final* line (writer killed mid-append) is dropped; an
    undecodable line anywhere earlier, a line that decodes to anything
    but a JSON object, or an ``event`` or ``job`` field that is not a
    string means the file was corrupted by something other than a
    crash-during-append and raises :class:`SerializationError` naming
    the path and line.
    """
    path = os.fspath(path)
    # Read bytes and decode per line: a crash mid-append can truncate the
    # tail inside a multi-byte UTF-8 sequence, which a whole-file decode
    # would turn into a spurious UnicodeDecodeError for the entire
    # journal instead of a droppable partial last line.
    with open(path, "rb") as handle:
        lines = handle.read().splitlines()
    records: list[dict[str, Any]] = []
    for index, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            record = json.loads(line.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            if index == len(lines) - 1:
                break  # the crash signature: half-written tail record
            raise SerializationError(
                f"{path}: corrupt journal line {index + 1} ({exc})"
            ) from exc
        if not isinstance(record, dict):
            # Every record is written as an object, and no prefix of one
            # parses as anything else: this is not a crash signature.
            raise SerializationError(
                f"{path}: journal line {index + 1} is not a JSON object"
            )
        for name in _STRING_FIELDS:
            if name in record and not isinstance(record[name], str):
                raise SerializationError(
                    f"{path}: journal line {index + 1} has a non-string "
                    f"{name!r} field"
                )
        records.append(record)
    return records
