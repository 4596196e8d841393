"""One job attempt: start it, wait for it, kill it, classify its end.

The harness supervisor and the service daemon run every attempt here;
nothing else starts a ``worker_main`` process or runs a job inline.
Outcome kinds: ``success``, ``job_error`` (the job raised: the worker's
``<artifact>.error`` traceback, or ``TypeName: message`` inline),
``worker_failure`` (signal, bare nonzero exit, unreadable artifact),
``timeout`` and ``expired`` (killed at the attempt's timeout or the
job's deadline).  Retries, breakers and journals stay with the callers.
Waits block on process sentinels (:func:`wait_any`,
:meth:`Attempt.wait_async`), never on a timer.
"""

from __future__ import annotations

import asyncio
import contextlib
import multiprocessing
import os
import time
from dataclasses import dataclass
from multiprocessing.connection import wait as wait_fds
from typing import Any, Iterable, Sequence

from repro.harness.worker import (read_artifact, run_job_inline,
                                  worker_main, write_artifact)
from repro.ioutil import sha256_file

SUCCESS = "success"
JOB_ERROR = "job_error"
WORKER_FAILURE = "worker_failure"
TIMEOUT = "timeout"
EXPIRED = "expired"

#: "No precomputed payload" for :func:`run_inline` (payloads may be falsy).
NO_PAYLOAD = object()

#: Attempts fork from one server that preloads the worker and simulator: a
#: fork, not an interpreter start.  The server starts with the first one.
_CONTEXT = multiprocessing.get_context("forkserver")
_CONTEXT.set_forkserver_preload(["repro.harness.worker",
                                 "repro.runtime.executor"])


@dataclass(frozen=True)
class AttemptOutcome:
    kind: str
    payload: Any = None
    sha256: str | None = None
    error: str | None = None
    elapsed_s: float = 0.0


def _failed(kind: str, error: str | None, started: float) -> AttemptOutcome:
    return AttemptOutcome(kind, error=error,
                          elapsed_s=time.monotonic() - started)


def _read_error_file(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read().strip() or None
    except OSError:
        return None


def run_inline(name: str, target: str, kwargs: dict[str, Any],
               artifact_path: str, *, traceparent: str | None = None,
               payload: Any = NO_PAYLOAD) -> AttemptOutcome:
    """Run one attempt in the calling thread (no timeout, no kill); a
    precomputed ``payload`` is persisted instead of running the job."""
    started = time.monotonic()
    try:
        if payload is NO_PAYLOAD:
            payload = run_job_inline(name, target, kwargs, artifact_path,
                                     traceparent)
        else:
            write_artifact(artifact_path, name, target, payload)
    except Exception as exc:  # noqa: BLE001 — the job's error, not ours
        return _failed(JOB_ERROR, f"{type(exc).__name__}: {exc}", started)
    return AttemptOutcome(SUCCESS, payload, sha256_file(artifact_path),
                          elapsed_s=time.monotonic() - started)


class Attempt:
    """One attempt in a forkserver worker process, started on
    construction like :class:`subprocess.Popen`.  ``timeout_s`` counts
    from the start; ``deadline`` is an absolute :func:`time.monotonic`."""

    def __init__(self, name: str, target: str, kwargs: dict[str, Any],
                 artifact_path: str, *, traceparent: str | None = None,
                 timeout_s: float | None = None,
                 deadline: float | None = None) -> None:
        error_path = artifact_path + ".error"
        with contextlib.suppress(OSError):  # never read back a stale one
            os.unlink(error_path)
        self.proc = _CONTEXT.Process(
            target=worker_main, name=f"attempt-{name}",
            args=(name, target, kwargs, artifact_path, error_path,
                  traceparent),
        )
        self.proc.start()
        self.artifact_path = artifact_path
        self.timeout_s = timeout_s
        self.deadline = deadline
        self.started = time.monotonic()
        self.timeout_at = (None if timeout_s is None
                           else self.started + timeout_s)
        #: When :meth:`poll` must kill the worker (None: never).
        self.wake_at = min((t for t in (deadline, self.timeout_at)
                            if t is not None), default=None)

    def kill(self) -> None:
        """SIGKILL the worker and reap it."""
        self.proc.kill()
        self.proc.join()

    def poll(self) -> AttemptOutcome | None:
        """The outcome once the worker exited or is due for a kill."""
        if not wait_fds([self.proc.sentinel], 0):
            now = time.monotonic()
            if self.deadline is not None and now >= self.deadline:
                self.kill()
                return _failed(EXPIRED, None, self.started)
            if self.timeout_at is not None and now >= self.timeout_at:
                self.kill()
                return _failed(
                    TIMEOUT, f"timeout: killed after {self.timeout_s:.1f}s",
                    self.started)
            return None
        self.proc.join()
        exitcode = self.proc.exitcode
        if exitcode == 0:
            try:
                payload = read_artifact(self.artifact_path)
            except Exception as exc:  # noqa: BLE001 — missing, torn, foreign
                return _failed(WORKER_FAILURE, f"unreadable artifact: {exc}",
                               self.started)
            return AttemptOutcome(SUCCESS, payload,
                                  sha256_file(self.artifact_path),
                                  elapsed_s=time.monotonic() - self.started)
        error = _read_error_file(self.artifact_path + ".error")
        if error is not None:
            return _failed(JOB_ERROR, error, self.started)
        return _failed(WORKER_FAILURE,
                       f"killed by signal {-exitcode}" if exitcode < 0
                       else f"worker exited with code {exitcode}",
                       self.started)

    async def wait_async(self) -> AttemptOutcome:
        """Await the outcome on the running loop, woken by the sentinel.
        Cancelling the wait kills and reaps the worker: no leaked child."""
        loop = asyncio.get_running_loop()
        exited = loop.create_future()
        sentinel = self.proc.sentinel

        def on_exit() -> None:  # fires once: an exited sentinel stays ready
            loop.remove_reader(sentinel)
            exited.set_result(None)

        loop.add_reader(sentinel, on_exit)
        try:
            while (outcome := self.poll()) is None:
                timeout = (None if self.wake_at is None
                           else self.wake_at - time.monotonic())
                with contextlib.suppress(asyncio.TimeoutError):
                    await asyncio.wait_for(asyncio.shield(exited), timeout)
            return outcome
        finally:
            loop.remove_reader(sentinel)
            if self.proc.exitcode is None:
                self.kill()


def wait_any(attempts: Iterable[Attempt], wakers: Sequence[int] = (),
             until: float | None = None) -> None:
    """Block until a worker exits, a ``wakers`` fd turns readable, or the
    nearest of ``until`` and the attempts' ``wake_at`` passes; then
    :meth:`Attempt.poll` tells which attempts ended."""
    attempts = list(attempts)
    ends = [t for t in (until, *(a.wake_at for a in attempts)) if t is not None]
    wait_fds([a.proc.sentinel for a in attempts] + list(wakers),
             max(0.0, min(ends) - time.monotonic()) if ends else None)
