"""Deterministic job targets for exercising the harness in tests.

These live in the package (not under ``tests/``) because spawned
workers import targets by dotted name, and ``tests`` is not guaranteed
to be importable from a fresh interpreter.  Cross-attempt state (for
"fail twice then succeed" shapes) goes through a caller-provided counter
file, since each isolated attempt starts in a fresh process.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import time
from typing import Any

from repro.harness.worker import resolve_target


def _bump_counter(state_path: str) -> int:
    """Increment (and return) a per-job attempt counter on disk."""
    count = 0
    if os.path.exists(state_path):
        with open(state_path, encoding="utf-8") as handle:
            count = int(handle.read().strip() or 0)
    count += 1
    # Attempts are strictly sequential per job, so a plain write is safe.
    with open(state_path, "w", encoding="utf-8") as handle:
        handle.write(str(count))
    return count


def ok(value: int = 1) -> dict[str, Any]:
    return {"value": value}


def boom(message: str = "boom") -> dict[str, Any]:
    raise RuntimeError(message)


def sleep_then_ok(seconds: float = 60.0, value: int = 2) -> dict[str, Any]:
    time.sleep(seconds)
    return {"value": value}


def flaky(state_path: str, fail_times: int = 1, value: int = 7) -> dict[str, Any]:
    """Raise on the first ``fail_times`` attempts, then succeed."""
    attempt = _bump_counter(state_path)
    if attempt <= fail_times:
        raise RuntimeError(f"flaky failure on attempt {attempt}")
    return {"value": value, "attempt": attempt}


def hang_then_ok(state_path: str, seconds: float = 60.0,
                 value: int = 3) -> dict[str, Any]:
    """Hang (to trip the timeout) on the first attempt, then succeed."""
    attempt = _bump_counter(state_path)
    if attempt <= 1:
        time.sleep(seconds)
    return {"value": value, "attempt": attempt}


def traceparent_env() -> dict[str, Any]:
    """The trace context this attempt's environment carries, if any."""
    from repro.telemetry.tracecontext import TRACEPARENT_ENV

    return {"traceparent": os.environ.get(TRACEPARENT_ENV)}


def exit_now(code: int = 0) -> dict[str, Any]:
    os._exit(code)  # a bare worker exit: no artifact, no traceback


def imports_of(target: str, kwargs: dict[str, Any]) -> dict[str, Any]:
    """Run ``target`` (its output swallowed); list the ``repro`` modules
    it imported that this process had not loaded."""
    before = set(sys.modules)
    with contextlib.redirect_stdout(io.StringIO()):
        resolve_target(target)(**kwargs)
    return {"imported": sorted(name for name in set(sys.modules) - before
                               if name.partition(".")[0] == "repro")}
