"""The run directory's verifier, shared by supervisor resume and service
recovery: a journaled success counts only while its artifact still
hashes to the journaled SHA-256 and parses, and the last one wins.

Every hostile row must re-run the job in both callers — never trust the
artifact, never end in a traceback.
"""

import hashlib
import json

import pytest

from repro.errors import SerializationError
from repro.harness.job import JobSpec, JobState
from repro.harness.journal import JOURNAL_NAME, RunDir, read_journal
from repro.harness.supervisor import run_jobs
from repro.harness.worker import read_artifact, write_artifact
from repro.service.config import ServiceConfig
from repro.service.models import parse_request
from repro.service.testing import ServiceThread

TESTJOBS = "repro.harness._testjobs"
STALE = "0" * 64
REQUEST = {"workload": "kmeans", "iterations": 1, "time_scale": 0.01}


def good_bytes(tmp_path, job):
    path = tmp_path / "good.json"
    write_artifact(str(path), job, TESTJOBS + ":ok", {"value": -1})
    return path.read_bytes()


def sha(data):
    return hashlib.sha256(data).hexdigest()


def artifact_doc(job, **fields):
    doc = {"schema": 1, "job": job, "target": TESTJOBS + ":ok",
           "payload": {"value": -1}, **fields}
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


def no_payload(job):
    doc = json.loads(artifact_doc(job))
    del doc["payload"]
    return json.dumps(doc).encode()


#: row -> (artifact bytes or None for no file, journaled SHA-256s in order)
ROWS = {
    "missing": lambda good, job: (None, [sha(good)]),
    "truncated": lambda good, job: (good[:len(good) // 2],
                                    [sha(good[:len(good) // 2])]),
    "not_an_object": lambda good, job: (b"[1, 2]\n", [sha(b"[1, 2]\n")]),
    "no_payload": lambda good, job: (no_payload(job), [sha(no_payload(job))]),
    "wrong_schema": lambda good, job: (artifact_doc(job, schema=99),
                                       [sha(artifact_doc(job, schema=99))]),
    "hash_mismatch": lambda good, job: (good, [STALE]),
    "last_success_wins": lambda good, job: (good, [sha(good), STALE]),
}


def success(job, sha256):
    return {"event": "job_success", "job": job, "attempt": 1,
            "elapsed_s": 0.0, "artifact": f"artifacts/{job}.json",
            "sha256": sha256}


def lay_out(run_dir, job, row, tmp_path, prefix=()):
    """A run directory whose journal holds ``prefix`` then the row's
    successes for ``job``, beside the row's artifact."""
    data, shas = ROWS[row](good_bytes(tmp_path, job), job)
    (run_dir / "artifacts").mkdir(parents=True)
    if data is not None:
        (run_dir / "artifacts" / f"{job}.json").write_bytes(data)
    records = [*prefix, *(success(job, s) for s in shas)]
    (run_dir / JOURNAL_NAME).write_text(
        "".join(json.dumps(r) + "\n" for r in records))
    return records


@pytest.mark.parametrize("row", ROWS)
def test_verifier_trusts_no_hostile_artifact(tmp_path, row):
    records = lay_out(tmp_path / "run", "a", row, tmp_path)
    assert RunDir(tmp_path / "run").verified(records, {"a"}) == {}


def test_verifier_trusts_the_last_success_that_matches(tmp_path):
    good = good_bytes(tmp_path, "a")
    (tmp_path / "artifacts").mkdir()
    (tmp_path / "artifacts" / "a.json").write_bytes(good)
    records = [success("a", STALE), success("a", sha(good))]
    assert RunDir(tmp_path).verified(records, {"a"}) == {"a": {"value": -1}}
    assert RunDir(tmp_path).verified(records, {"b"}) == {}


@pytest.mark.parametrize("data", [b"{", b"[1, 2]", b'{"schema": 1}',
                                  b'{"schema": 99, "payload": 1}', b"\xff"])
def test_read_artifact_raises_typed_errors(tmp_path, data):
    path = tmp_path / "a.json"
    path.write_bytes(data)
    with pytest.raises(SerializationError, match="a.json"):
        read_artifact(str(path))


def test_written_artifact_reads_back_with_its_hash(tmp_path):
    path = str(tmp_path / "a.json")
    written = write_artifact(path, "a", TESTJOBS + ":ok", {"value": 3})
    with open(path, "rb") as handle:
        assert written == sha(handle.read())
    assert read_artifact(path) == ({"value": 3}, written)


@pytest.mark.parametrize("row", ROWS)
def test_supervisor_resume_reruns_the_job(tmp_path, row):
    run_dir = tmp_path / "run"
    lay_out(run_dir, "a", row, tmp_path)
    result = run_jobs([JobSpec(name="a", target=TESTJOBS + ":ok",
                               kwargs={"value": 5})],
                      run_dir, resume=True, isolate=False)
    assert result.outcomes["a"].state is JobState.SUCCEEDED
    assert result.payloads == {"a": {"value": 5}}
    assert result.report.resumed == 0


@pytest.mark.parametrize("row", ROWS)
def test_service_recovery_reruns_the_job(tmp_path, row):
    run_dir = tmp_path / "run"
    config = ServiceConfig(port=0, workers=1, job_timeout_s=60.0)
    job = "job-000001"
    request = parse_request(REQUEST, config).as_dict()
    submitted = {"event": "job_submitted", "job": job,
                 "tenant": request["tenant"], "request": request,
                 "submitted_unix": 0.0, "deadline_unix": None,
                 "traceparent": None}
    lay_out(run_dir, job, row, tmp_path, prefix=[submitted])
    with ServiceThread(config, str(run_dir)) as svc:
        client = svc.client()
        final = client.wait(job, timeout_s=60)
        client.close()
    assert final["phase"] == "done", final
    assert final["result"] != {"value": -1}
    events = [(r["event"], r.get("job"))
              for r in read_journal(run_dir / JOURNAL_NAME)]
    assert ("job_start", job) in events
    assert events.count(("service_resumed", None)) == 1
