"""Property tests: seeded fault plans never crash and never lose events.

Each case builds a pseudo-random :class:`FaultPlan` from its seed, drives
a full divided run through the hardened controller, and asserts the two
tentpole invariants of the fault subsystem:

1. **No crash** — whatever the plan injects, the run completes and
   produces finite, non-negative measurements.
2. **No silent loss** — every fault the injector fired is visible as a
   recorded ``fault_<kind>`` trace event; the count on the injector and
   the length of the channel agree exactly.
"""

import numpy as np
import pytest

from repro.core.config import GreenGpuConfig
from repro.core.controller import GreenGpuController, TierMode
from repro.faults.injector import FaultInjector, FaultPlan
from repro.runtime.executor import ExecutorOptions, HeteroExecutor
from repro.sim.platform import make_testbed
from repro.sim.trace import TraceRecorder

from tests.conftest import FAST_SCALE, fast_workload

N_PLANS = 25


def random_plan(seed: int) -> FaultPlan:
    """A pseudo-random plan derived deterministically from ``seed``."""
    rng = np.random.default_rng(seed)
    u = lambda hi: float(rng.uniform(0.0, hi))  # noqa: E731
    episodes = ()
    if rng.random() < 0.3:
        start = float(rng.uniform(0.0, 2.0))
        episodes = ((start, float(rng.uniform(0.1, 1.0))),)
    return FaultPlan(
        seed=seed,
        monitor_timeout_rate=u(0.15),
        monitor_drop_rate=u(0.10),
        monitor_freeze_rate=u(0.10),
        actuator_reject_rate=u(0.15),
        actuator_ignore_rate=u(0.10),
        actuator_offby_rate=u(0.10),
        device_stall_rate=u(0.02),
        device_stall_duration_s=5.0 * FAST_SCALE,
        stall_episodes=episodes,
    )


def run_chaos(plan: FaultPlan):
    """One full hardened GreenGPU run with direct injector access."""
    system = make_testbed()
    injector = FaultInjector(plan)
    recorder = TraceRecorder()
    config = GreenGpuConfig(
        scaling_interval_s=3.0 * FAST_SCALE,
        ondemand_interval_s=0.1 * FAST_SCALE,
    )
    controller = GreenGpuController(
        TierMode.HOLISTIC,
        config,
        initial_ratio=0.3,
        recorder=recorder,
        faults=injector,
    )
    controller.attach(system)
    executor = HeteroExecutor(
        system,
        fast_workload("kmeans"),
        controller,
        ExecutorOptions(repartition_overhead_s=0.5 * FAST_SCALE),
    )
    iterations = executor.run(4)
    health = controller.health
    controller.detach()
    return iterations, injector, recorder, health


@pytest.mark.parametrize("seed", range(N_PLANS))
def test_seeded_plan_never_crashes_and_never_loses_events(seed):
    iterations, injector, recorder, health = run_chaos(random_plan(seed))

    # 1. The run completed with sane physics.
    assert len(iterations) == 4
    for m in iterations:
        assert np.isfinite(m.wall_s) and m.wall_s > 0.0
        assert np.isfinite(m.energy_j) and m.energy_j > 0.0

    # 2. Every injected fault is a recorded trace event — no silent loss.
    for kind, count in injector.counts.items():
        assert len(recorder.trace(f"fault_{kind}")) == count, kind

    # 3. The controller observed faults whenever the injector fired.
    if injector.counts:
        assert health.total_events > 0


def test_plans_are_reproducible():
    """Same seed, same plan, same run: counts and health match exactly."""
    plan = random_plan(7)
    _, inj_a, _, health_a = run_chaos(plan)
    _, inj_b, _, health_b = run_chaos(plan)
    assert inj_a.counts == inj_b.counts
    assert health_a.as_dict() == health_b.as_dict()
