"""Tests for the attempt runner shared by the harness and the service.

Spawned attempts run every outcome through both waits — the harness's
blocking :func:`wait_any` and the daemon's :meth:`Attempt.wait_async` —
from one table, so the two callers cannot drift apart.
"""

import asyncio
import hashlib
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.harness.attempt import (
    Attempt,
    EXPIRED,
    JOB_ERROR,
    SUCCESS,
    TIMEOUT,
    WORKER_FAILURE,
    run_inline,
    wait_any,
)
from repro.harness.worker import read_artifact

TESTJOBS = "repro.harness._testjobs"
SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def sync_wait(attempt):
    while (outcome := attempt.poll()) is None:
        wait_any([attempt])
    return outcome


def async_wait(attempt):
    return asyncio.run(attempt.wait_async())


def sha256_of(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def sigkill(attempt):
    os.kill(attempt.proc.pid, signal.SIGKILL)


def no_action(attempt):
    pass


# id, target, kwargs, Attempt options, action after start, outcome kind
CASES = [
    ("ok", "ok", {"value": 5}, {}, no_action, SUCCESS),
    ("boom", "boom", {"message": "kaput"}, {}, no_action, JOB_ERROR),
    ("signal", "sleep_then_ok", {"seconds": 60.0}, {}, sigkill,
     WORKER_FAILURE),
    ("exit-code", "exit_now", {"code": 3}, {}, no_action, WORKER_FAILURE),
    ("unreadable", "exit_now", {"code": 0}, {}, no_action, WORKER_FAILURE),
    ("timeout", "sleep_then_ok", {"seconds": 60.0}, {"timeout_s": 0.3},
     no_action, TIMEOUT),
    ("expired", "sleep_then_ok", {"seconds": 60.0}, {"deadline_in_s": 0.3},
     no_action, EXPIRED),
]


def expected_error(case, artifact):
    return {
        "ok": None,
        "signal": f"killed by signal {signal.SIGKILL}",
        "exit-code": "worker exited with code 3",
        "unreadable": ("unreadable artifact: [Errno 2] No such file or "
                       f"directory: {artifact!r}"),
        "timeout": "timeout: killed after 0.3s",
        "expired": None,
    }[case]


@pytest.mark.parametrize("wait", [sync_wait, async_wait],
                         ids=["sync", "async"])
@pytest.mark.parametrize("case,target,kwargs,options,action,kind", CASES,
                         ids=[c[0] for c in CASES])
def test_spawned_outcome(tmp_path, wait, case, target, kwargs, options,
                         action, kind):
    artifact = str(tmp_path / "job.json")
    options = dict(options)
    if "deadline_in_s" in options:
        options["deadline"] = time.monotonic() + options.pop("deadline_in_s")
    attempt = Attempt("job", f"{TESTJOBS}:{target}", kwargs, artifact,
                      **options)
    action(attempt)
    outcome = wait(attempt)

    assert outcome.kind == kind
    assert attempt.proc.exitcode is not None  # reaped, never leaked
    assert outcome.elapsed_s > 0.0
    if case == "boom":
        with open(artifact + ".error", encoding="utf-8") as handle:
            assert outcome.error == handle.read().strip()
        assert outcome.error.startswith("Traceback")
        assert outcome.error.endswith("RuntimeError: kaput")
    else:
        assert outcome.error == expected_error(case, artifact)
    if kind == SUCCESS:
        assert outcome.payload == {"value": 5} == read_artifact(artifact)
        assert outcome.sha256 == sha256_of(artifact)
    else:
        assert outcome.payload is None and outcome.sha256 is None
    if kind in (TIMEOUT, EXPIRED):
        assert attempt.proc.exitcode == -signal.SIGKILL
    if kind == TIMEOUT:
        assert outcome.elapsed_s >= 0.3
    if kind == EXPIRED:
        assert time.monotonic() >= options["deadline"]


def test_start_clears_a_stale_error_sidecar(tmp_path):
    artifact = str(tmp_path / "job.json")
    with open(artifact + ".error", "w", encoding="utf-8") as handle:
        handle.write("an earlier attempt's traceback")
    outcome = sync_wait(Attempt("job", f"{TESTJOBS}:exit_now", {"code": 4},
                                artifact))
    assert outcome.error == "worker exited with code 4"


def test_cancelled_async_wait_kills_and_reaps_the_worker(tmp_path):
    attempt = Attempt("job", f"{TESTJOBS}:sleep_then_ok", {"seconds": 60.0},
                      str(tmp_path / "job.json"))

    async def cancel_midway():
        task = asyncio.create_task(attempt.wait_async())
        await asyncio.sleep(0.2)
        task.cancel()
        with pytest.raises(asyncio.CancelledError):
            await task

    asyncio.run(cancel_midway())
    assert attempt.proc.exitcode == -signal.SIGKILL
    assert attempt.proc not in multiprocessing.active_children()


def test_waker_fd_ends_a_blocking_wait(tmp_path):
    attempt = Attempt("job", f"{TESTJOBS}:sleep_then_ok", {"seconds": 60.0},
                      str(tmp_path / "job.json"))
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, b"\0")
        started = time.monotonic()
        wait_any([attempt], wakers=[read_end])
        assert time.monotonic() - started < 5.0
        assert attempt.poll() is None  # woken, not finished
    finally:
        attempt.kill()
        os.close(read_end)
        os.close(write_end)


def test_wait_any_returns_at_until_without_attempts():
    started = time.monotonic()
    wait_any([], until=started + 0.05)
    assert time.monotonic() - started >= 0.05


ENV_SCRIPT = """
import json, sys
from repro.harness.attempt import Attempt, wait_any
from repro.telemetry.tracecontext import TraceContext, propagation_env

def echo(traceparent):
    attempt = Attempt("env", "repro.harness._testjobs:traceparent_env", {},
                      sys.argv[1], traceparent=traceparent)
    while (outcome := attempt.poll()) is None:
        wait_any([attempt])
    return outcome.payload["traceparent"]

A = TraceContext.root("started-under-a")
B = TraceContext.root("passed-as-b").to_traceparent()
with propagation_env(A):  # the first attempt starts the forkserver
    first = echo(None)
print(json.dumps({"b": B, "first": first, "with_b": echo(B),
                  "without": echo(None)}))
"""


def test_job_env_does_not_depend_on_when_the_forkserver_started(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = (os.path.abspath(SRC) + os.pathsep
                         + env.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-c", ENV_SCRIPT, str(tmp_path / "job.json")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen["first"] is None
    assert seen["with_b"] == seen["b"]
    assert seen["without"] is None


class TestInline:
    def test_success_carries_payload_and_sha(self, tmp_path):
        artifact = str(tmp_path / "job.json")
        outcome = run_inline("job", f"{TESTJOBS}:ok", {"value": 9}, artifact)
        assert outcome.kind == SUCCESS
        assert outcome.payload == {"value": 9} == read_artifact(artifact)
        assert outcome.sha256 == sha256_of(artifact)
        assert outcome.error is None

    def test_job_error_is_type_and_message(self, tmp_path):
        outcome = run_inline("job", f"{TESTJOBS}:boom", {"message": "kaput"},
                             str(tmp_path / "job.json"))
        assert outcome.kind == JOB_ERROR
        assert outcome.error == "RuntimeError: kaput"
        assert not os.path.exists(tmp_path / "job.json")

    def test_precomputed_payload_is_persisted_not_recomputed(self, tmp_path):
        artifact = str(tmp_path / "job.json")
        outcome = run_inline("job", f"{TESTJOBS}:boom", {}, artifact,
                             payload={"value": 0})
        assert outcome.kind == SUCCESS
        assert read_artifact(artifact) == {"value": 0}
        assert outcome.sha256 == sha256_of(artifact)
