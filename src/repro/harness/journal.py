"""The run directory, owned by :class:`RunDir` for the harness
supervisor and the service daemon alike::

    <run-dir>/
      journal.jsonl              write-ahead journal (fsynced per transition)
      artifacts/<job>.json       atomically written job results
      artifacts/<job>.json.error last traceback of a failed worker attempt

The journal is the source of truth for what happened to a run.  Every
record is a single JSON line, flushed *and fsynced* before its writer
acts on the transition it describes — so after any crash, including
``kill -9``, the journal is at worst missing its final partial line.
:func:`read_journal` tolerates exactly that: a truncated *last* line is
dropped silently (the crash signature), while garbage anywhere else
raises :class:`~repro.errors.SerializationError`.

Record vocabulary (every record carries ``event``), by writer:

- :class:`RunDir`, for both: ``job_start`` (``job``, 1-based
  ``attempt``); ``job_success`` (``job``, ``attempt``, ``elapsed_s``,
  ``artifact``, ``sha256``).
- The supervisor: ``run_start`` (``jobs`` in spec order, ``parallel``,
  ``resume``, ``isolate``); ``job_retry`` (``job``, ``attempt``,
  ``backoff_s``, ``error``); ``job_quarantined`` (``job``, ``attempts``,
  ``error``); ``job_skipped`` (``job``, ``reason``: ``resumed``,
  ``cache`` with its ``cache_key``, or ``dependency`` with
  ``upstream``); ``run_interrupted`` (``signal``); ``run_end`` (counters).
- The service daemon: ``service_start`` (``workers``, ``resume``);
  ``job_submitted`` (``job``, ``tenant``, ``request``,
  ``submitted_unix``, ``deadline_unix``, ``traceparent``); ``job_cached``
  (``job``, ``cache_key``); ``job_failed`` (``job``, ``attempts``,
  ``error``); ``job_expired`` (``job``, ``where``); ``job_cancelled``
  (``job``); ``service_resumed`` (``jobs``); ``service_drain``
  (``reason``); ``service_stop`` (``outstanding``, ``done``).
"""

from __future__ import annotations

import contextlib
import json
import os
from typing import Any, Container

from repro.errors import SerializationError
from repro.harness.worker import read_artifact

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


class RunDir:
    """One run directory: its paths, its ``job_start`` and ``job_success``
    records, and which journaled successes still verify on disk."""

    def __init__(self, root: str | os.PathLike[str]) -> None:
        self.root = os.fspath(root)
        self.journal_path = os.path.join(self.root, JOURNAL_NAME)
        self.artifact_dir = os.path.join(self.root, "artifacts")
        self.journal: Journal | None = None

    def artifact_path(self, job: str) -> str:
        return os.path.join(self.artifact_dir, f"{job}.json")

    def open(self, replay: bool = True) -> list[dict[str, Any]]:
        """Create the directory and open its journal for appending; with
        ``replay``, return the records it already holds."""
        os.makedirs(self.artifact_dir, exist_ok=True)
        prior = (read_journal(self.journal_path)
                 if replay and os.path.exists(self.journal_path) else [])
        self.journal = Journal(self.journal_path)
        return prior

    def close(self) -> None:
        if self.journal is not None:
            self.journal.close()
            self.journal = None

    def record(self, event: str, **fields: Any) -> None:
        """Append one record (none after :meth:`close`)."""
        if self.journal is not None:
            self.journal.record(event, **fields)

    def record_start(self, job: str, attempt: int) -> None:
        self.record("job_start", job=job, attempt=attempt)

    def record_success(self, job: str, attempt: int, elapsed_s: float,
                       sha256: str) -> str:
        """Journal a success whose artifact hashes to ``sha256``; returns
        the artifact's path."""
        path = self.artifact_path(job)
        self.record("job_success", job=job, attempt=attempt,
                    elapsed_s=round(elapsed_s, 3),
                    artifact=os.path.relpath(path, self.root), sha256=sha256)
        return path

    def verified(self, prior: list[dict[str, Any]],
                 jobs: Container[str]) -> dict[str, Any]:
        """The payload of each of ``jobs`` whose *last* ``job_success`` in
        ``prior`` names an artifact that still hashes to the journaled
        SHA-256 and parses; every other job re-runs."""
        last = {rec["job"]: rec.get("sha256") for rec in prior
                if rec.get("event") == "job_success"
                and rec.get("job") in jobs}
        done: dict[str, Any] = {}
        for job, sha256 in last.items():
            with contextlib.suppress(OSError, SerializationError):
                payload, actual = read_artifact(self.artifact_path(job))
                if actual == sha256:
                    done[job] = payload
        return done
