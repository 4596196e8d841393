"""A failed attempt is never retried once its job's deadline has passed.

The attempt is stubbed to fail with a clean job error and the backoff is
longer than the deadline, so the only correct ending is one
``job_start`` and ``job_expired`` (``where: "running"``).
"""

import os

from repro.harness import attempt
from repro.harness.attempt import JOB_ERROR, AttemptOutcome
from repro.harness.journal import read_journal
from repro.service.config import ServiceConfig
from repro.service.testing import ServiceThread

FAILED = AttemptOutcome(JOB_ERROR, error="RuntimeError: stub failure")


class _FailedAttempt:
    proc = None

    def __init__(self, launched, name):
        launched.append(name)

    async def wait_async(self):
        return FAILED


def test_no_retry_after_the_deadline(tmp_path, monkeypatch):
    launched = []
    monkeypatch.setattr(
        attempt, "Attempt",
        lambda name, *args, **kwargs: _FailedAttempt(launched, name))
    config = ServiceConfig(
        port=0, workers=1, retry_max_attempts=3,
        retry_base_backoff_s=1.0, retry_max_backoff_s=1.0,
        retry_jitter_seed=3,
    )
    run_dir = str(tmp_path / "run")
    with ServiceThread(config, run_dir) as svc:
        client = svc.client()
        status, body, _ = client.submit(workload="kmeans", iterations=1,
                                        time_scale=0.01, deadline_s=0.3)
        assert status == 202
        job_id = body["job_id"]
        assert client.wait(job_id, timeout_s=30)["phase"] == "expired"
        client.close()

    assert launched == [job_id]
    records = read_journal(os.path.join(run_dir, "journal.jsonl"))
    starts = [r for r in records if r["event"] == "job_start"]
    assert len(starts) == 1
    expired = [r for r in records if r["event"] == "job_expired"]
    assert [r["where"] for r in expired] == ["running"]
    assert not any(r["event"] == "job_failed" for r in records)
