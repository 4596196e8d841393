"""The supervisor: timeouts, retries, quarantine, journal, resume.

One :class:`Supervisor` drives one *run directory*, whose layout,
success records and resume check :class:`repro.harness.journal.RunDir`
owns (the service daemon persists through the same type).

Jobs run in forkserver :mod:`multiprocessing` workers (a hung or
crashing experiment is killed on its deadline without taking down the
supervisor) or, with ``isolate=False``, inline in this process — zero
process overhead for cheap jobs, at the price of timeout enforcement.
:mod:`repro.harness.attempt` runs every attempt; this module schedules
them (DAG order, ``parallel`` slots, retry backoff).

Every state transition is journaled *before* the supervisor acts on it,
and artifacts are written atomically by the worker, so a crash at any
instant — including ``SIGKILL``, which no handler can see — leaves a
run directory that ``resume=True`` can pick up: completed jobs whose
artifact bytes still hash to the journaled SHA-256 and parse are
skipped, and only the rest re-run.  Resume never reads the ``.error``
sidecars.
"""

from __future__ import annotations

import contextlib
import os
import signal
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.cache import MISS, get_job, put_job
from repro.harness import attempt
from repro.harness.job import (
    SATISFIED_STATES,
    TERMINAL_STATES,
    JobOutcome,
    JobSpec,
    JobState,
    validate_dag,
)
from repro.harness.journal import RunDir
from repro.telemetry.tracecontext import TraceContext, default_context


@dataclass(frozen=True)
class ProgressEvent:
    """Emitted after every job reaches a terminal state."""

    completed: int
    total: int
    job: str
    state: str
    elapsed_s: float
    eta_s: float | None


def stderr_progress(event: ProgressEvent) -> None:
    """Default progress sink: one line per completed job, to stderr."""
    eta = f", ~{event.eta_s:.1f}s left" if event.eta_s is not None else ""
    print(
        f"[{event.completed}/{event.total}] {event.job} {event.state} "
        f"({event.elapsed_s:.1f}s elapsed{eta})",
        file=sys.stderr, flush=True,
    )


@dataclass
class HarnessReport:
    """Per-run health counters, in the :class:`ControlHealth` spirit."""

    jobs_total: int = 0
    succeeded: int = 0
    resumed: int = 0
    cached: int = 0           # served from the content-addressed result cache
    retries: int = 0          # extra attempts beyond each job's first
    timeouts: int = 0         # attempts killed on their deadline
    quarantined: int = 0      # circuit breaker tripped: attempts exhausted
    dep_skipped: int = 0      # skipped because an upstream job failed
    interrupted: bool = False  # finalized early on SIGINT/SIGTERM
    elapsed_s: float = 0.0
    states: dict[str, str] = field(default_factory=dict)
    errors: dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Every job produced (or resumed) its artifact."""
        return (not self.interrupted
                and self.quarantined == 0 and self.dep_skipped == 0)

    def summary_line(self) -> str:
        return (
            f"harness: {self.succeeded} ok, {self.resumed} resumed, "
            f"{self.cached} cached, "
            f"{self.retries} retried, {self.timeouts} timed out, "
            f"{self.quarantined} quarantined, {self.dep_skipped} dep-skipped "
            f"({self.elapsed_s:.1f}s)"
        )

    def as_lines(self) -> list[str]:
        lines = [
            f"jobs        : {self.jobs_total}",
            f"succeeded   : {self.succeeded}",
            f"resumed     : {self.resumed}",
            f"cached      : {self.cached}",
            f"retries     : {self.retries}",
            f"timeouts    : {self.timeouts}",
            f"quarantined : {self.quarantined}",
            f"dep-skipped : {self.dep_skipped}",
            f"interrupted : {self.interrupted}",
        ]
        for name, error in self.errors.items():
            first = error.strip().splitlines()[-1] if error.strip() else error
            lines.append(f"  {name}: {first}")
        return lines

    def to_markdown(self) -> str:
        lines = ["# Run health (auto-generated)", ""]
        lines += [f"    {line}" for line in self.as_lines()]
        return "\n".join(lines) + "\n"


@dataclass
class HarnessResult:
    """Everything a caller needs after :func:`run_jobs` returns."""

    report: HarnessReport
    outcomes: dict[str, JobOutcome]

    @property
    def payloads(self) -> dict[str, Any]:
        """Payloads of every job that produced (or resumed) an artifact."""
        return {
            name: outcome.payload
            for name, outcome in self.outcomes.items()
            if outcome.state in SATISFIED_STATES
        }


class Supervisor:
    def __init__(
        self,
        specs: list[JobSpec],
        run_dir: str | os.PathLike[str],
        *,
        parallel: int = 1,
        resume: bool = False,
        isolate: bool = True,
        progress: Callable[[ProgressEvent], None] | None = None,
        telemetry=None,
        cache=None,
        prefetch: Callable[[list[JobSpec]], dict[str, Any]] | None = None,
    ) -> None:
        self.specs = validate_dag(list(specs))
        self.spec_order = [s.name for s in specs]  # declaration order
        self.by_name = {s.name: s for s in self.specs}
        self.run_dir = RunDir(run_dir)
        self.parallel = max(1, int(parallel))
        self.resume = resume
        self.isolate = isolate
        self.progress = progress
        self.telemetry = telemetry
        self.cache = cache
        self.prefetch = prefetch
        self._prefetched: dict[str, Any] = {}
        # Trace root for this run: the telemetry's context when enabled,
        # else the ambient (env-propagated or fixed) one.  Per-job child
        # contexts derive from it by name alone, so serial and parallel
        # executions of the same specs stitch into identical trace trees.
        if telemetry is not None and telemetry.enabled:
            self._trace = telemetry.current_context()
        else:
            self._trace = default_context()
        self._stop_signal: int | None = None
        # Per-job backoff sequences, salted by job name so seeded
        # decorrelated-jitter policies desynchronize across jobs.
        self._backoffs: dict[str, Any] = {}

    # -- tracing -------------------------------------------------------

    def job_context(self, spec: JobSpec) -> TraceContext:
        """The trace position a job's worker roots its spans under."""
        if spec.traceparent is not None:
            parsed = TraceContext.parse(spec.traceparent)
            if parsed is not None:
                return parsed
        return self._trace.child("job", spec.name)

    # -- the run -------------------------------------------------------

    def run(self) -> HarnessResult:
        prior = self.run_dir.open(replay=self.resume)

        outcomes = self._outcomes = {s.name: JobOutcome(name=s.name)
                                     for s in self.specs}
        self._ready_at = {s.name: 0.0 for s in self.specs}
        self._run_started = time.perf_counter()
        report = self._report = HarnessReport(jobs_total=len(self.specs))

        with self._stop_on_signals(), contextlib.closing(self.run_dir):
            self.run_dir.record("run_start", jobs=[s.name for s in self.specs],
                                parallel=self.parallel, resume=self.resume,
                                isolate=self.isolate)
            self._resume_pass(prior)
            self._cache_pass()
            self._prefetch_pass()
            self._schedule()
            report.elapsed_s = time.perf_counter() - self._run_started
            if self._stop_signal is not None:
                report.interrupted = True
                self.run_dir.record("run_interrupted",
                                    signal=self._stop_signal)
            self.run_dir.record(
                "run_end", succeeded=report.succeeded, resumed=report.resumed,
                retries=report.retries, timeouts=report.timeouts,
                quarantined=report.quarantined, dep_skipped=report.dep_skipped,
                interrupted=report.interrupted)

        report.states = {
            name: outcomes[name].state.value for name in self.spec_order
        }
        report.errors = {
            name: outcomes[name].error
            for name in self.spec_order
            if outcomes[name].error
        }
        ordered = {name: outcomes[name] for name in self.spec_order}
        self._record_telemetry(report, ordered)
        return HarnessResult(report=report, outcomes=ordered)

    def _record_telemetry(self, report: HarnessReport,
                          outcomes: dict[str, JobOutcome]) -> None:
        """Mirror the run's :class:`HarnessReport` into telemetry counters.

        Job durations go into a ``wall_s``-suffixed histogram — they are
        wall-clock measurements and therefore excluded from the
        parallel-vs-serial parity contract by name.
        """
        tel = self.telemetry
        if tel is None or not tel.enabled:
            return
        for name, count in (
            ("harness_jobs_total", report.jobs_total),
            ("harness_succeeded_total", report.succeeded),
            ("harness_resumed_total", report.resumed),
            ("harness_cached_total", report.cached),
            ("harness_retries_total", report.retries),
            ("harness_timeouts_total", report.timeouts),
            ("harness_quarantined_total", report.quarantined),
            ("harness_dep_skipped_total", report.dep_skipped),
        ):
            if count:
                tel.counter(name).inc(count)
        for name, outcome in outcomes.items():
            tel.counter("harness_job_state_total",
                        state=outcome.state.value).inc()
            if outcome.elapsed_s > 0.0:
                tel.histogram("harness_job_wall_s").observe(outcome.elapsed_s)
            tel.event("harness_job", job=name, state=outcome.state.value,
                      attempts=outcome.attempts)
            # Record the job's span at its propagated trace position, so
            # spans the worker exported (rooted under this context via
            # the traceparent hand-off) stitch as this span's children.
            tel.record_span(
                self.job_context(self.by_name[name]), "harness_job",
                wall_s=outcome.elapsed_s,
                ok=outcome.state in SATISFIED_STATES,
                labels={"state": outcome.state.value},
                event_extra={"job": name},
            )

    # -- signal finalization -------------------------------------------

    @contextlib.contextmanager
    def _stop_on_signals(self) -> Iterator[None]:
        """Turn SIGINT/SIGTERM into a graceful stop while the run lasts.
        The handler also writes a self-pipe in the scheduler's wait set: a
        blocked ``connection.wait`` resumes after handlers (PEP 475)."""
        self._wake_r, wake_w = os.pipe()
        os.set_blocking(wake_w, False)

        def _note(signum: int, frame: object) -> None:
            self._stop_signal = signum
            try:
                os.write(wake_w, b"\0")
            except OSError:
                pass  # pipe full: the scheduler is awake already

        old: dict[int, Any] = {}
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                old[sig] = signal.signal(sig, _note)
            except ValueError:
                pass  # not the main thread; rely on SIGKILL-grade safety
        try:
            yield
        finally:
            for sig, handler in old.items():
                signal.signal(sig, handler)
            os.close(self._wake_r)
            os.close(wake_w)

    # -- resume --------------------------------------------------------

    def _resume_pass(self, prior: list[dict[str, Any]]) -> None:
        """Skip jobs whose journaled success still verifies on disk."""
        for name, payload in self.run_dir.verified(prior,
                                                   self.by_name).items():
            outcome = self._outcomes[name]
            outcome.state = JobState.SKIPPED_RESUMED
            outcome.payload = payload
            outcome.artifact_path = self.run_dir.artifact_path(name)
            self._report.resumed += 1
            self.run_dir.record("job_skipped", job=name, reason="resumed")
            self._emit_progress(name)

    # -- result cache --------------------------------------------------

    def _cache_pass(self) -> None:
        """Serve still-pending keyed jobs from the result cache.

        Runs after the resume pass (a verified on-disk artifact wins —
        it belongs to *this* run directory) and before scheduling.  Each
        hit is journaled as ``job_skipped reason=cache`` with its key,
        so ``--resume`` of an interrupted run and any later audit can
        see exactly which points were never simulated.
        """
        for spec in self.specs:
            outcome = self._outcomes[spec.name]
            if outcome.state is not JobState.PENDING:
                continue
            payload = get_job(self.cache, spec.cache_key)
            if payload is MISS:
                continue
            outcome.state = JobState.SKIPPED_CACHED
            outcome.payload = payload
            self._report.cached += 1
            self.run_dir.record("job_skipped", job=spec.name, reason="cache",
                                cache_key=spec.cache_key)
            self._emit_progress(spec.name)

    # -- prefetch ------------------------------------------------------

    def _prefetch_pass(self) -> None:
        """Precompute pending inline jobs' payloads in one batched call.

        Runs after resume and cache passes, so the hook only sees jobs
        that will actually execute.  It may serve any subset of them
        (unserved jobs run their target normally); each served job still
        flows through the ordinary inline attempt — ``job_start`` /
        ``job_success`` journaling, artifact write, cache put, progress —
        so the batch computation is invisible to the run directory.
        Isolated runs never prefetch: the caller asked for per-job
        subprocess boundaries (crash containment, timeouts, signals).
        """
        if self.prefetch is None or self.isolate:
            return
        pending = [s for s in self.specs
                   if self._outcomes[s.name].state is JobState.PENDING]
        if not pending:
            return
        try:
            self._prefetched = dict(self.prefetch(pending) or {})
        except Exception:  # noqa: BLE001 — fall back to per-job execution
            self._prefetched = {}

    # -- scheduling ----------------------------------------------------

    def _schedule(self) -> None:
        running: dict[str, attempt.Attempt] = {}
        while self._stop_signal is None and any(
                o.state not in TERMINAL_STATES for o in self._outcomes.values()):
            self._skip_broken_dependents()
            self._launch_ready(running)
            # Sleep until a worker exits, its timeout passes, a backed-off
            # job's retry slot opens, or a signal writes the self-pipe.
            now = time.monotonic()
            retry_at = [at for name, at in self._ready_at.items()
                        if at > now and name not in running]
            if running or retry_at:
                attempt.wait_any(running.values(), wakers=[self._wake_r],
                                 until=min(retry_at, default=None))
            for name, worker in list(running.items()):
                result = worker.poll()
                if result is not None:
                    del running[name]
                    self._finish_attempt(self.by_name[name], result)

        if self._stop_signal is not None:
            for name, worker in running.items():
                worker.kill()
                self._outcomes[name].error = (
                    f"interrupted by signal {self._stop_signal}")

    def _skip_broken_dependents(self) -> None:
        for spec in self.specs:
            outcome = self._outcomes[spec.name]
            if outcome.state is not JobState.PENDING:
                continue
            broken = [
                dep for dep in spec.depends_on
                if self._outcomes[dep].state in TERMINAL_STATES
                and self._outcomes[dep].state not in SATISFIED_STATES
            ]
            if broken:
                outcome.state = JobState.SKIPPED_DEPENDENCY
                outcome.error = f"upstream failed: {', '.join(broken)}"
                self._report.dep_skipped += 1
                self.run_dir.record("job_skipped", job=spec.name,
                                    reason="dependency", upstream=broken)
                self._emit_progress(spec.name)

    def _launch_ready(self, running: dict[str, attempt.Attempt]) -> None:
        for spec in self.specs:
            if self._stop_signal is not None:
                return
            if len(running) >= self.parallel and self.isolate:
                return
            outcome = self._outcomes[spec.name]
            if outcome.state is not JobState.PENDING or spec.name in running:
                continue
            if not all(self._outcomes[d].state in SATISFIED_STATES
                       for d in spec.depends_on):
                continue
            if time.monotonic() < self._ready_at[spec.name]:
                continue
            outcome.attempts += 1
            self.run_dir.record_start(spec.name, outcome.attempts)
            job = (spec.name, spec.target, spec.kwargs,
                   self.run_dir.artifact_path(spec.name))
            traceparent = self.job_context(spec).to_traceparent()
            if self.isolate:
                running[spec.name] = attempt.Attempt(
                    *job, traceparent=traceparent, timeout_s=spec.timeout_s)
            else:
                payload = self._prefetched.pop(spec.name, attempt.NO_PAYLOAD)
                self._finish_attempt(spec, attempt.run_inline(
                    *job, traceparent=traceparent, payload=payload))

    # -- attempt outcomes ----------------------------------------------

    def _finish_attempt(self, spec: JobSpec,
                        result: attempt.AttemptOutcome) -> None:
        """Journal an attempt: a success, a retry, or a quarantine."""
        outcome = self._outcomes[spec.name]
        used = outcome.attempts
        if result.kind == attempt.SUCCESS:
            outcome.state = JobState.SUCCEEDED
            outcome.payload = result.payload
            outcome.elapsed_s = result.elapsed_s
            outcome.artifact_path = self.run_dir.record_success(
                spec.name, used, result.elapsed_s, result.sha256)
            self._report.succeeded += 1
            put_job(self.cache, spec.cache_key, result.payload)
            self._emit_progress(spec.name)
            return
        if result.kind == attempt.TIMEOUT:  # all failure kinds retry alike
            self._report.timeouts += 1
        error = outcome.error = result.error
        outcome.elapsed_s += result.elapsed_s
        if used < spec.retry.max_attempts:
            if spec.name not in self._backoffs:
                self._backoffs[spec.name] = spec.retry.backoff_state(
                    salt=spec.name
                )
            backoff = self._backoffs[spec.name].next_backoff()
            self._report.retries += 1
            self._ready_at[spec.name] = time.monotonic() + backoff
            self.run_dir.record("job_retry", job=spec.name, attempt=used,
                                backoff_s=round(backoff, 3), error=error)
        else:
            outcome.state = JobState.QUARANTINED
            self._report.quarantined += 1
            self.run_dir.record("job_quarantined", job=spec.name,
                                attempts=used, error=error)
            self._emit_progress(spec.name)

    # -- progress ------------------------------------------------------

    def _emit_progress(self, name: str) -> None:
        if self.progress is None:
            return
        completed = sum(1 for o in self._outcomes.values()
                        if o.state in TERMINAL_STATES)
        total = len(self._outcomes)
        elapsed = time.perf_counter() - self._run_started
        eta = (elapsed / completed * (total - completed)
               if completed else None)
        self.progress(ProgressEvent(
            completed=completed, total=total, job=name,
            state=self._outcomes[name].state.value,
            elapsed_s=elapsed, eta_s=eta,
        ))


def run_jobs(
    specs: list[JobSpec],
    run_dir: str | os.PathLike[str],
    *,
    parallel: int = 1,
    resume: bool = False,
    isolate: bool = True,
    progress: Callable[[ProgressEvent], None] | None = None,
    telemetry=None,
    cache=None,
    prefetch: Callable[[list[JobSpec]], dict[str, Any]] | None = None,
) -> HarnessResult:
    """Run a job DAG under supervision; see :class:`Supervisor`."""
    supervisor = Supervisor(specs, run_dir, parallel=parallel, resume=resume,
                            isolate=isolate, progress=progress,
                            telemetry=telemetry, cache=cache,
                            prefetch=prefetch)
    return supervisor.run()
