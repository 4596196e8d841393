"""Crash recovery over malformed journals: typed errors, exit code 2."""

import asyncio
import json
import os
import subprocess
import sys

import pytest

from repro.errors import SerializationError
from repro.service.config import ServiceConfig
from repro.service.daemon import SimulationService

SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")


def write_journal(run_dir, *records):
    run_dir.mkdir()
    (run_dir / "journal.jsonl").write_text(
        "".join(json.dumps(record) + "\n" for record in records))


def start(run_dir):
    service = SimulationService(ServiceConfig(port=0), str(run_dir))
    asyncio.run(service.start())


def test_serve_over_mistyped_job_field_exits_2(tmp_path):
    run_dir = tmp_path / "run"
    write_journal(run_dir, {"event": "job_submitted", "job": ["x"]})
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "serve", "--run-dir",
         str(run_dir), "--port", "0", "--no-cache"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 2
    assert "journal line 1 has a non-string 'job' field" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("record, problem", [
    ({"event": "job_submitted", "job": "job-000001"},
     "journaled request is not a JSON object"),
    ({"event": "job_submitted", "job": "job-000001",
      "request": {"tenant": "t", "workload": "kmeans", "policy": "greengpu",
                  "iterations": "4", "time_scale": 0.05}},
     "wrongly typed 'iterations' field"),
    ({"event": "job_submitted", "job": "job-x", "request": {}},
     "the job id has no sequence number"),
    ({"event": "job_submitted", "job": "job-000001",
      "request": {"tenant": "t", "workload": "kmeans", "policy": "greengpu",
                  "iterations": 4, "time_scale": 0.05},
      "deadline_unix": "soon"},
     "'deadline_unix' is not a number"),
    ({"event": "job_submitted", "job": "job-000001",
      "request": {"tenant": "t", "workload": "kmeans", "policy": "greengpu",
                  "iterations": 4, "time_scale": 0.05},
      "traceparent": 5},
     "'traceparent' is not a string"),
])
def test_malformed_submission_record_raises(tmp_path, record, problem):
    run_dir = tmp_path / "run"
    write_journal(run_dir, record)
    with pytest.raises(SerializationError, match=problem):
        start(run_dir)
