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

Every worker forks from one forkserver, started with the first attempt.
The server preloads :mod:`repro.harness.preload`: the worker, every job
target's import graph, and one run of the parent's main module.  It
starts with a ``PYTHONPATH`` that leads to :mod:`repro` (a parent may
reach it through a run-time ``sys.path`` edit), and restores the
parent's own before its first fork (:data:`MAIN_ENV`).  So an attempt
costs a fork and its job, and the forked worker runs no module body.
A main module that starts an attempt at import, with no
``if __name__ == "__main__":`` guard, kills that preload; the attempt
then raises :class:`~repro.errors.HarnessError` naming the guard.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import multiprocessing
import os
import site
import threading
import time
from dataclasses import dataclass
from multiprocessing import forkserver, spawn
from multiprocessing.connection import wait as wait_fds
from typing import Any, Iterable, Sequence

from repro.errors import HarnessError, SerializationError
from repro.harness.worker import (read_artifact, run_job_inline,
                                  worker_main, write_artifact)

SUCCESS = "success"
JOB_ERROR = "job_error"
WORKER_FAILURE = "worker_failure"
TIMEOUT = "timeout"
EXPIRED = "expired"

#: "No precomputed payload" for :func:`run_inline` (payloads may be falsy).
NO_PAYLOAD = object()

_CONTEXT = multiprocessing.get_context("forkserver")
_CONTEXT.set_forkserver_preload(["repro.harness.preload"])
#: Hands a starting forkserver, as JSON, the parent's ``PYTHONPATH``
#: (None: unset) and the preparation data a spawned child would get.
MAIN_ENV = "GREENGPU_FORKSERVER_MAIN"
_PREPARE_KEYS = ("sys_path", "sys_argv", "init_main_from_name",
                 "init_main_from_path")
_START_LOCK = threading.Lock()
#: Leads a starting server's ``PYTHONPATH``: the directory :mod:`repro` is
#: imported from, unless it is a site directory, searched anyway.
_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
if _ROOT in (*site.getsitepackages(), site.getusersitepackages()):
    _ROOT = ""


def _preparation() -> dict[str, Any]:
    """The part of the preparation data each child gets that sets its
    ``sys.path`` and ``sys.argv`` and says how to run this process's main
    module, if it has one.  Read at each start: under ``python -m`` the
    main module's ``__spec__`` is still unset while :mod:`repro` imports."""
    data = spawn.get_preparation_data("attempt")
    return {key: data[key] for key in _PREPARE_KEYS if key in data}


def set_env(name: str, value: str | None) -> None:
    """Set an environment variable, or unset it for None."""
    if value is None:
        os.environ.pop(name, None)
    else:
        os.environ[name] = value


def _ensure_server() -> None:
    """Start the forkserver unless it runs.  A starting server inherits
    :data:`MAIN_ENV` and a ``PYTHONPATH`` led by :data:`_ROOT`."""
    prepare = _preparation()
    with _START_LOCK:
        pythonpath = os.environ.get("PYTHONPATH")
        os.environ[MAIN_ENV] = json.dumps({"pythonpath": pythonpath,
                                           "prepare": prepare})
        os.environ["PYTHONPATH"] = os.pathsep.join(
            path for path in (_ROOT, pythonpath) if path)
        try:
            forkserver.ensure_running()
        finally:
            os.environ.pop(MAIN_ENV, None)
            set_env("PYTHONPATH", pythonpath)


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
            payload, sha256 = run_job_inline(name, target, kwargs,
                                             artifact_path, traceparent)
        else:
            sha256 = write_artifact(artifact_path, name, target, payload)
    except Exception as exc:  # noqa: BLE001 — the job's error, not ours
        return _failed(JOB_ERROR, f"{type(exc).__name__}: {exc}", started)
    return AttemptOutcome(SUCCESS, payload, sha256,
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
        _ensure_server()
        try:
            self.proc.start()
        except (EOFError, ConnectionError) as exc:
            prepare = _preparation()
            main = (prepare.get("init_main_from_path")
                    or prepare.get("init_main_from_name") or "the main module")
            raise HarnessError(
                f"the forkserver exited before starting attempt {name!r}: it "
                f"runs {main} once before its first fork, so code there that "
                'starts attempts needs an `if __name__ == "__main__":` guard'
            ) from exc
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
                payload, sha256 = read_artifact(self.artifact_path)
            except (OSError, SerializationError) as exc:  # missing, torn
                return _failed(WORKER_FAILURE, f"unreadable artifact: {exc}",
                               self.started)
            return AttemptOutcome(SUCCESS, payload, sha256,
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
