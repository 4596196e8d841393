"""Tests for the supervised job harness.

Cheap paths (success, retry, quarantine, DAG, resume) run inline —
same scheduler, no process overhead.  The isolation-specific behaviors
(timeout kill, crash containment, parallel fan-out) use real spawn
workers and are kept to a handful of processes so the suite stays fast.
"""

import pytest

from repro.errors import HarnessError
from repro.faults.retry import RetryPolicy
from repro.harness.job import JobSpec, JobState, validate_dag
from repro.harness.journal import JOURNAL_NAME, read_journal
from repro.harness.supervisor import run_jobs
from repro.harness.worker import read_artifact, resolve_target

TESTJOBS = "repro.harness._testjobs"

fast_retry = RetryPolicy(max_attempts=2, base_backoff_s=0.01, max_backoff_s=0.02)
one_shot = RetryPolicy(max_attempts=1)


def ok_spec(name="a", value=1, **kw):
    return JobSpec(name=name, target=f"{TESTJOBS}:ok",
                   kwargs={"value": value}, **kw)


def boom_spec(name="bad", retry=one_shot, **kw):
    return JobSpec(name=name, target=f"{TESTJOBS}:boom",
                   kwargs={"message": f"{name} exploded"}, retry=retry, **kw)


class TestSpecValidation:
    def test_bad_name_rejected(self):
        with pytest.raises(HarnessError, match="filesystem-safe"):
            JobSpec(name="../evil", target="m:f")

    def test_bad_target_rejected(self):
        with pytest.raises(HarnessError, match="module:function"):
            JobSpec(name="a", target="no_colon_here")

    def test_bad_timeout_rejected(self):
        with pytest.raises(HarnessError, match="timeout"):
            JobSpec(name="a", target="m:f", timeout_s=0.0)

    def test_duplicate_names_rejected(self):
        with pytest.raises(HarnessError, match="duplicate"):
            validate_dag([ok_spec("a"), ok_spec("a")])

    def test_unknown_dependency_rejected(self):
        with pytest.raises(HarnessError, match="unknown job"):
            validate_dag([JobSpec(name="a", target="m:f", depends_on=("ghost",))])

    def test_cycle_rejected(self):
        with pytest.raises(HarnessError, match="cycle"):
            validate_dag([
                JobSpec(name="a", target="m:f", depends_on=("b",)),
                JobSpec(name="b", target="m:f", depends_on=("a",)),
            ])

    def test_unresolvable_target_quarantines(self, tmp_path):
        spec = JobSpec(name="a", target="repro.harness._testjobs:no_such",
                       retry=one_shot)
        result = run_jobs([spec], tmp_path, isolate=False)
        assert result.outcomes["a"].state is JobState.QUARANTINED
        assert "callable" in result.outcomes["a"].error

    def test_resolve_target(self):
        fn = resolve_target(f"{TESTJOBS}:ok")
        assert fn(value=9) == {"value": 9}


class TestInlineRuns:
    def test_success_writes_artifact_and_journal(self, tmp_path):
        result = run_jobs([ok_spec("a", value=5)], tmp_path, isolate=False)
        outcome = result.outcomes["a"]
        assert outcome.state is JobState.SUCCEEDED
        assert outcome.payload == {"value": 5}
        assert read_artifact(outcome.artifact_path)[0] == {"value": 5}
        events = [r["event"] for r in read_journal(tmp_path / JOURNAL_NAME)]
        assert events == ["run_start", "job_start", "job_success", "run_end"]

    def test_retry_then_success(self, tmp_path):
        spec = JobSpec(
            name="flaky", target=f"{TESTJOBS}:flaky",
            kwargs={"state_path": str(tmp_path / "count"), "fail_times": 1},
            retry=fast_retry,
        )
        result = run_jobs([spec], tmp_path, isolate=False)
        assert result.outcomes["flaky"].state is JobState.SUCCEEDED
        assert result.outcomes["flaky"].attempts == 2
        assert result.report.retries == 1
        events = [r["event"] for r in read_journal(tmp_path / JOURNAL_NAME)]
        assert "job_retry" in events

    def test_circuit_breaker_quarantines_and_run_continues(self, tmp_path):
        specs = [boom_spec("bad", retry=fast_retry), ok_spec("good", value=3)]
        result = run_jobs(specs, tmp_path, isolate=False)
        assert result.outcomes["bad"].state is JobState.QUARANTINED
        assert result.outcomes["good"].state is JobState.SUCCEEDED
        assert result.report.quarantined == 1
        assert result.report.retries == 1  # one retry before the breaker trips
        assert "bad exploded" in result.outcomes["bad"].error
        assert not result.report.ok
        assert result.payloads == {"good": {"value": 3}}

    def test_dependency_order_and_cascade_skip(self, tmp_path):
        specs = [
            boom_spec("root"),
            JobSpec(name="child", target=f"{TESTJOBS}:ok",
                    depends_on=("root",)),
            ok_spec("free", value=8),
        ]
        result = run_jobs(specs, tmp_path, isolate=False)
        assert result.outcomes["child"].state is JobState.SKIPPED_DEPENDENCY
        assert "root" in result.outcomes["child"].error
        assert result.outcomes["free"].state is JobState.SUCCEEDED
        assert result.report.dep_skipped == 1

    def test_dependent_runs_after_its_dependency(self, tmp_path):
        specs = [
            JobSpec(name="after", target=f"{TESTJOBS}:ok",
                    kwargs={"value": 2}, depends_on=("before",)),
            ok_spec("before", value=1),
        ]
        result = run_jobs(specs, tmp_path, isolate=False)
        assert all(o.state is JobState.SUCCEEDED
                   for o in result.outcomes.values())
        records = read_journal(tmp_path / JOURNAL_NAME)
        starts = [r["job"] for r in records if r["event"] == "job_start"]
        assert starts == ["before", "after"]

    def test_outcomes_keep_declaration_order(self, tmp_path):
        specs = [ok_spec("z"), ok_spec("a"), ok_spec("m")]
        result = run_jobs(specs, tmp_path, isolate=False)
        assert list(result.outcomes) == ["z", "a", "m"]


class TestResume:
    def test_resume_skips_verified_jobs(self, tmp_path):
        first = run_jobs([ok_spec("a", value=5), ok_spec("b", value=6)],
                         tmp_path, isolate=False)
        assert first.report.succeeded == 2
        second = run_jobs([ok_spec("a", value=5), ok_spec("b", value=6)],
                          tmp_path, isolate=False, resume=True)
        assert second.report.resumed == 2
        assert second.report.succeeded == 0
        assert second.outcomes["a"].state is JobState.SKIPPED_RESUMED
        assert second.payloads == {"a": {"value": 5}, "b": {"value": 6}}

    def test_resume_reruns_quarantined_jobs(self, tmp_path):
        state = tmp_path / "count"
        spec = JobSpec(
            name="flaky", target=f"{TESTJOBS}:flaky",
            kwargs={"state_path": str(state), "fail_times": 1},
            retry=one_shot,  # first run: single attempt, quarantined
        )
        first = run_jobs([spec], tmp_path, isolate=False)
        assert first.outcomes["flaky"].state is JobState.QUARANTINED
        second = run_jobs([spec], tmp_path, isolate=False, resume=True)
        assert second.outcomes["flaky"].state is JobState.SUCCEEDED

    def test_resume_reruns_on_tampered_artifact(self, tmp_path):
        first = run_jobs([ok_spec("a", value=5)], tmp_path, isolate=False)
        path = first.outcomes["a"].artifact_path
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("\n")  # hash no longer matches the journal
        second = run_jobs([ok_spec("a", value=5)], tmp_path,
                          isolate=False, resume=True)
        assert second.outcomes["a"].state is JobState.SUCCEEDED
        assert second.report.resumed == 0

    def test_resume_on_fresh_dir_is_a_plain_run(self, tmp_path):
        result = run_jobs([ok_spec("a")], tmp_path, isolate=False, resume=True)
        assert result.outcomes["a"].state is JobState.SUCCEEDED


class TestIsolated:
    """Spawn-worker behaviors: crash containment, timeout kill, fan-out."""

    def test_timeout_killed_then_retried_to_success(self, tmp_path):
        # First attempt hangs and is killed on its deadline; the retry
        # (fresh process, counter file advanced) completes.
        spec = JobSpec(
            name="hang", target=f"{TESTJOBS}:hang_then_ok",
            kwargs={"state_path": str(tmp_path / "count"), "seconds": 60.0,
                    "value": 3},
            timeout_s=1.0,
            retry=RetryPolicy(max_attempts=2, base_backoff_s=0.01),
        )
        result = run_jobs([spec], tmp_path, isolate=True)
        outcome = result.outcomes["hang"]
        assert outcome.state is JobState.SUCCEEDED
        assert outcome.payload == {"value": 3, "attempt": 2}
        assert result.report.timeouts == 1
        assert result.report.retries == 1
        records = read_journal(tmp_path / JOURNAL_NAME)
        retry = next(r for r in records if r["event"] == "job_retry")
        assert "timeout" in retry["error"]

    def test_hung_job_quarantined_without_sinking_the_run(self, tmp_path):
        specs = [
            JobSpec(name="stuck", target=f"{TESTJOBS}:sleep_then_ok",
                    kwargs={"seconds": 60.0}, timeout_s=0.5, retry=one_shot),
            ok_spec("alive", value=4),
        ]
        result = run_jobs(specs, tmp_path, isolate=True, parallel=2)
        assert result.outcomes["stuck"].state is JobState.QUARANTINED
        assert "timeout" in result.outcomes["stuck"].error
        assert result.outcomes["alive"].state is JobState.SUCCEEDED

    def test_crashing_worker_reports_its_traceback(self, tmp_path):
        result = run_jobs([boom_spec("bad")], tmp_path, isolate=True)
        outcome = result.outcomes["bad"]
        assert outcome.state is JobState.QUARANTINED
        assert "RuntimeError" in outcome.error
        assert "bad exploded" in outcome.error

    def test_parallel_fanout_completes_everything(self, tmp_path):
        specs = [ok_spec(f"job{i}", value=i) for i in range(4)]
        result = run_jobs(specs, tmp_path, isolate=True, parallel=2)
        assert result.report.succeeded == 4
        assert result.payloads == {f"job{i}": {"value": i} for i in range(4)}


class TestReport:
    def test_summary_line_and_lines(self, tmp_path):
        result = run_jobs([ok_spec("a")], tmp_path, isolate=False)
        line = result.report.summary_line()
        assert line.startswith("harness: 1 ok")
        lines = result.report.as_lines()
        assert any(l.startswith("jobs") for l in lines)
        assert result.report.to_markdown().startswith("# Run health")

    def test_states_and_errors_exposed(self, tmp_path):
        result = run_jobs([boom_spec("bad"), ok_spec("good")],
                          tmp_path, isolate=False)
        assert result.report.states == {"bad": "quarantined",
                                        "good": "succeeded"}
        assert "bad" in result.report.errors
