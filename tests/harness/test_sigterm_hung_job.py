"""SIGTERM must wake a supervisor blocked on a hung job with no timeout.

The scheduler blocks in ``multiprocessing.connection.wait`` with no
timeout here, and PEP 475 resumes that wait after a signal handler
runs; only the handler's self-pipe write ends it.  The run must still
finalize its journal and exit promptly.
"""

import os
import signal
import subprocess
import sys
import time

from repro.harness.journal import read_journal

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

SCRIPT = """
import sys
from repro.harness.job import JobSpec
from repro.harness.supervisor import run_jobs

spec = JobSpec(name="hung", target="repro.harness._testjobs:sleep_then_ok",
               kwargs={"seconds": 60.0}, timeout_s=None)
result = run_jobs([spec], sys.argv[1], isolate=True)
sys.exit(130 if result.report.interrupted else 0)
"""


def test_sigterm_finalizes_a_run_blocked_on_a_hung_job(tmp_path):
    run_dir = tmp_path / "run"
    journal = run_dir / "journal.jsonl"
    env = dict(os.environ)
    env["PYTHONPATH"] = (os.path.abspath(SRC) + os.pathsep
                         + env.get("PYTHONPATH", ""))
    proc = subprocess.Popen([sys.executable, "-c", SCRIPT, str(run_dir)],
                            env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        end = time.monotonic() + 60.0
        while time.monotonic() < end:
            if journal.exists() and any(
                    r["event"] == "job_start" for r in read_journal(journal)):
                break
            time.sleep(0.01)
        else:
            raise AssertionError("the hung job never started")
        proc.send_signal(signal.SIGTERM)
        stdout, stderr = proc.communicate(timeout=5.0)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate(timeout=30)
    assert proc.returncode == 130, (stdout, stderr)
    events = [r["event"] for r in read_journal(journal)]
    assert "run_interrupted" in events
    assert events[-1] == "run_end"
