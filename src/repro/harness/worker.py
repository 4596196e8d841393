"""Job execution: the worker process's entry point and the inline path.

:mod:`repro.harness.attempt`, the one place that runs attempts, calls in
here.  A job is a dotted ``module:function`` target plus JSON kwargs,
never a pickled closure.  The worker writes the artifact JSON atomically
and exits 0, or writes its traceback to the ``<artifact>.error`` sidecar
and exits 1, so a crashing job never scrambles the parent.

A job's ``traceparent`` is installed in
:data:`~repro.telemetry.tracecontext.TRACEPARENT_ENV` around the target
— in the worker, or briefly in the caller for inline jobs — so spans a
``Telemetry()`` in the target opens stitch under the caller's job span.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import sys
import traceback
from typing import Any, Callable

from repro.errors import HarnessError, SerializationError
from repro.ioutil import atomic_write_json, atomic_write_text
from repro.telemetry.tracecontext import (TRACEPARENT_ENV, TraceContext,
                                         propagation_env)

ARTIFACT_SCHEMA = 1


def resolve_target(target: str) -> Callable[..., Any]:
    """``"package.module:function"`` -> the callable."""
    module_name, _, func_name = target.partition(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise HarnessError(f"cannot import job target module {module_name!r}: {exc}")
    fn = getattr(module, func_name, None)
    if not callable(fn):
        raise HarnessError(
            f"job target {target!r} does not name a callable"
        )
    return fn


def write_artifact(path: str, name: str, target: str, payload: Any) -> str:
    """Atomically persist a job's result (sorted keys: stable bytes);
    returns the SHA-256 of the bytes written."""
    text = atomic_write_json(path, {
        "schema": ARTIFACT_SCHEMA,
        "job": name,
        "target": target,
        "payload": payload,
    })
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def read_artifact(path: str) -> tuple[Any, str]:
    """A job artifact's payload and the SHA-256 of its bytes, from one
    read.  :class:`SerializationError` unless the bytes parse as a JSON
    object of this schema with a payload; ``OSError`` if unreadable."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        doc = json.loads(data)
    except (ValueError, RecursionError) as exc:
        raise SerializationError(
            f"{path}: corrupt or truncated artifact JSON ({exc})") from exc
    if not isinstance(doc, dict) or doc.get("schema") != ARTIFACT_SCHEMA \
            or "payload" not in doc:
        raise SerializationError(f"{path}: not a schema-{ARTIFACT_SCHEMA} "
                                 "artifact with a payload")
    return doc["payload"], hashlib.sha256(data).hexdigest()


def run_job_inline(name: str, target: str, kwargs: dict[str, Any],
                   artifact_path: str,
                   traceparent: str | None = None) -> tuple[Any, str]:
    """Execute a job in this process and persist its artifact; returns
    the payload and the artifact's SHA-256."""
    fn = resolve_target(target)
    with propagation_env(TraceContext.parse(traceparent)):
        payload = fn(**kwargs)
    return payload, write_artifact(artifact_path, name, target, payload)


def worker_main(name: str, target: str, kwargs: dict[str, Any],
                artifact_path: str, error_path: str,
                traceparent: str | None = None) -> None:
    """Worker-process entry point (must stay a picklable top-level fn)."""
    if traceparent is None:  # drop one left from the forkserver's start
        os.environ.pop(TRACEPARENT_ENV, None)
    try:
        run_job_inline(name, target, kwargs, artifact_path, traceparent)
    except BaseException:
        try:
            atomic_write_text(error_path, traceback.format_exc())
        finally:
            sys.exit(1)
    sys.exit(0)
