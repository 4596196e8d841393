"""Chaos benchmark: GreenGPU under injected faults still saves energy.

The robustness claim behind the hardened controller: with the
``moderate`` fault profile (monitor faults in the 5-10 % band, plus
actuator faults and rare device stalls) the full two-tier GreenGPU run

- completes every iteration,
- actually absorbs faults (the health counters are non-zero),
- ends *outside* the watchdog's degraded safe state, and
- still beats the best-performance baseline on whole-system energy.

Since the crash-safety work the pairs run as supervised harness jobs —
each workload isolated in its own spawn worker with a timeout, fanned
out in parallel — so this benchmark also pins the outer layer: a
journaled run where every job completes without retries, quarantine, or
timeout kills.  Everything is seeded, so the reproduced numbers are
deterministic.
"""

from repro.faults.retry import RetryPolicy
from repro.harness.job import JobSpec
from repro.harness.supervisor import run_jobs
from repro.harness.worker import read_artifact

TIME_SCALE = 0.05
N_ITERATIONS = 10
SEED = 1
WORKLOADS = ("kmeans", "hotspot")
JOB_TIMEOUT_S = 300.0


def chaos_specs():
    """One isolated job per workload: GreenGPU-under-faults vs baseline."""
    return [
        JobSpec(
            name=f"chaos-{name}",
            target="repro.harness.suite_jobs:run_chaos_pair",
            kwargs={
                "workload": name,
                "time_scale": TIME_SCALE,
                "n_iterations": N_ITERATIONS,
                "seed": SEED,
                # The moderate profile's stall duration on the run's clock.
                "stall_s": 5.0 * TIME_SCALE,
            },
            timeout_s=JOB_TIMEOUT_S,
            retry=RetryPolicy(max_attempts=2, base_backoff_s=0.05),
        )
        for name in WORKLOADS
    ]


def run_all(run_dir):
    return run_jobs(chaos_specs(), run_dir, parallel=len(WORKLOADS))


def test_chaos_robustness(run_once, benchmark, tmp_path):
    result = run_once(run_all, str(tmp_path / "chaos-run"))
    report = result.report

    # The outer layer is clean: every job completed first-try, on time.
    assert report.succeeded == len(WORKLOADS)
    assert report.quarantined == 0
    assert report.timeouts == 0
    assert report.retries == 0
    assert not report.interrupted

    for name in WORKLOADS:
        outcome = result.outcomes[f"chaos-{name}"]
        payload = outcome.payload
        # The journaled artifact is what resume would reuse — it must
        # round-trip to the in-memory payload.
        assert read_artifact(outcome.artifact_path)[0] == payload

        from repro.faults.health import ControlHealth

        health = ControlHealth.from_dict(payload["health"])
        saving = payload["saving"]
        benchmark.extra_info[f"{name}_saving_pct"] = round(100 * saving, 2)
        benchmark.extra_info[f"{name}_faults_absorbed"] = health.total_events

        # Completed every iteration despite the fault stream.
        assert payload["green_iterations"] == N_ITERATIONS

        # The profile actually exercised the hardening.
        assert health.total_events > 0
        assert health.monitor_faults + health.actuation_faults > 0

        # The run ends healthy, not parked in the watchdog safe state.
        assert not health.degraded

        # And it still beats best-performance on energy.
        assert saving > 0.0, f"{name}: no energy saving under faults"
