"""Co-execution of divided iterations on the simulated testbed.

Mirrors the paper's pthread/CUDA runtime (§VI): every iteration, each GPU
card's share (the controller's ``shares`` are ``(cpu, card 0, ...)``) is
dispatched as H2D transfer -> kernel -> D2H transfer while the CPU share
runs concurrently; the host synchronizes every side at the iteration
barrier.  Under the paper's *synchronized* communication model the CPU
busy-waits whenever it has no work of its own and a GPU is running — the
behaviour that pins CPU utilization at 100 % and defeats the `ondemand`
governor (§VII-A).  ``ExecutorOptions.sync_spin=False`` selects the
asynchronous variant for the ablation benches.

Division changes between iterations cost ``repartition_overhead_s`` of
host time (data re-chunking and kernel re-invocation), which is what the
oscillation safeguard exists to amortize (§V-B).

:func:`simulate` is the scalar engine for one whole run.  Callers go
through :func:`run_workload`, a one-request
:class:`~repro.runtime.batch_executor.BatchExecutor` call: the executor
alone picks the engine and decides whether the result cache may serve
or store a run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.controller import GreenGpuController
from repro.core.policies import Policy
from repro.errors import SimulationError
from repro.runtime.metrics import IterationMetrics, RunResult
from repro.sim.activity import KernelActivity
from repro.sim.platform import HeteroSystem, make_testbed
from repro.sim.trace import TraceRecorder
from repro.telemetry import NOOP, NullTelemetry, Telemetry
from repro.workloads.base import Workload

_MAX_STEPS_PER_ITERATION = 10_000_000


@dataclass(frozen=True, slots=True)
class ExecutorOptions:
    """Knobs of the heterogeneous runtime."""

    sync_spin: bool = True
    repartition_overhead_s: float = 0.5
    iteration_timeout_s: float = 1.0e5

    def __post_init__(self) -> None:
        if self.repartition_overhead_s < 0.0:
            raise SimulationError("repartition overhead must be non-negative")
        if self.iteration_timeout_s <= 0.0:
            raise SimulationError("iteration timeout must be positive")


class HeteroExecutor:
    """Runs a workload's iterations under a live controller."""

    def __init__(
        self,
        system: HeteroSystem,
        workload: Workload,
        controller: GreenGpuController,
        options: ExecutorOptions | None = None,
        telemetry: Telemetry | NullTelemetry | None = None,
    ):
        self.system = system
        self.workload = workload
        self.controller = controller
        self.options = options or ExecutorOptions()
        self.telemetry = telemetry if telemetry is not None else NOOP
        self._last_shares: tuple[float, ...] | None = None

    def run_iteration(self, index: int) -> IterationMetrics:
        """Execute one divided iteration and feed tier 1 at the barrier."""
        with self.telemetry.span("iteration"):
            metrics = self._run_iteration_body(index)
        if self.telemetry.enabled:
            self.telemetry.event(
                "iteration", index=metrics.index, r=metrics.r, tc=metrics.tc,
                tg=metrics.tg, sim_s=metrics.wall_s,
                energy_j=metrics.energy_j,
            )
            self.telemetry.histogram("iteration_sim_s").observe(metrics.wall_s)
            self.telemetry.histogram("iteration_energy_j").observe(
                metrics.energy_j
            )
        return metrics

    def _run_iteration_body(self, index: int) -> IterationMetrics:
        system = self.system
        workload = self.workload
        cpu = system.cpu
        shares = self.controller.shares

        # Repartitioning cost when the division changed since last iteration.
        if (
            self._last_shares is not None
            and shares != self._last_shares
            and self.options.repartition_overhead_s > 0.0
        ):
            self.telemetry.counter("repartitions_total").inc()
            cpu.spin()
            system.run_for(self.options.repartition_overhead_s)
            cpu.stop_spin()
        self._last_shares = shares

        t0 = system.now
        e0 = system.total_energy_j
        e0_gpu = system.gpu_energy_j
        e0_cpu = system.meter_cpu.energy_j

        for gpu, units in zip(system.gpus, shares[1:]):
            if units > 0.0:
                gpu.submit_transfer(
                    system.bus.make_transfer(workload.h2d_bytes(units), label="h2d")
                )
                gpu.submit_kernel(
                    KernelActivity(workload.gpu_phases(units, index), label=workload.name)
                )
                gpu.submit_transfer(
                    system.bus.make_transfer(workload.d2h_bytes(units), label="d2h")
                )
        if shares[0] > 0.0:
            cpu.submit_kernel(
                KernelActivity(workload.cpu_phases(shares[0], index), label=workload.name)
            )

        # When each side finished: [cpu, card 0, ...]; an idle side at t0.
        # A side is busy exactly while its entry is None.
        done: list[float | None] = [None if units > 0.0 else t0 for units in shares]
        cards = tuple(enumerate(system.gpus, start=1))
        deadline = t0 + self.options.iteration_timeout_s
        steps = 0

        if self.options.sync_spin and not cpu.has_work and system.any_gpu_busy():
            cpu.spin()

        while None in done:
            if system.now >= deadline:
                raise SimulationError(
                    f"iteration {index} of {workload.name!r} exceeded "
                    f"{self.options.iteration_timeout_s}s"
                )
            system.step(horizon=deadline - system.now)
            steps += 1
            if steps > _MAX_STEPS_PER_ITERATION:
                raise SimulationError("step explosion inside an iteration")
            for slot, gpu in cards:
                if done[slot] is None and not gpu.busy:
                    done[slot] = system.now
            if done[0] is None and not cpu.has_work:
                done[0] = system.now
                if self.options.sync_spin and None in done:
                    cpu.spin()
        cpu.stop_spin()

        times = [when - t0 for when in done]
        self.controller.on_iteration_end(*times)

        return IterationMetrics(
            index=index,
            r=shares[0],
            tc=times[0],
            tg=max(times[1:]),
            wall_s=system.now - t0,
            energy_j=system.total_energy_j - e0,
            gpu_energy_j=system.gpu_energy_j - e0_gpu,
            cpu_energy_j=system.meter_cpu.energy_j - e0_cpu,
        )

    def run(self, n_iterations: int) -> list[IterationMetrics]:
        """Execute ``n_iterations`` back to back."""
        if n_iterations < 1:
            raise SimulationError("need at least one iteration")
        return [self.run_iteration(i) for i in range(n_iterations)]


def simulate(
    workload: Workload,
    policy: Policy,
    n_iterations: int | None = None,
    system: HeteroSystem | None = None,
    options: ExecutorOptions | None = None,
    recorder: TraceRecorder | None = None,
    warmup_s: float = 0.0,
    telemetry: Telemetry | NullTelemetry | None = None,
    audit=None,
) -> RunResult:
    """Simulate one workload under one policy on the scalar engine.

    Builds a fresh default testbed unless one is supplied, applies the
    policy's initial state, attaches its controller, runs the iterations,
    and returns a :class:`RunResult` with wall energies from both meters.

    ``warmup_s`` inserts an idle lead-in (controller attached, no work
    submitted) before the first iteration — the paper's Fig. 5 trace
    starts this way, with the scaler observing an idle GPU.

    With an enabled ``telemetry`` backend, every metric/span the run
    emits is labeled ``workload=<name>, policy=<name>``, spans carry the
    testbed's simulated clock, and run-level energy/time gauges are set
    at the end (see ``docs/observability.md``).

    ``audit`` optionally attaches a decision
    :class:`~repro.telemetry.audit.AuditTrail`; the caller serializes it
    (``audit.write(dir)``) next to the telemetry exports.
    """
    if n_iterations is None:
        n_iterations = workload.default_iterations
    if warmup_s < 0.0:
        raise SimulationError("warmup must be non-negative")
    tel = telemetry if telemetry is not None else NOOP
    if system is None:
        system = make_testbed()
    recorder = recorder if recorder is not None else TraceRecorder()
    if tel.enabled:
        # Labels and the sim-clock binding must be in place before the
        # controller caches its health counters at construction time.
        tel.set_base_labels(workload=workload.name, policy=policy.name)
        tel.bind_clock(system.clock)
        system.clock.set_telemetry(tel)

    policy.apply_initial_state(system)
    controller = policy.make_controller(recorder, telemetry=telemetry, audit=audit)
    controller.attach(system)
    system.reset_meters()
    t0 = system.now
    spin0 = system.cpu.spin_seconds
    spin_e0 = system.cpu.spin_energy_j
    if warmup_s > 0.0:
        system.run_for(warmup_s)

    executor = HeteroExecutor(system, workload, controller, options, telemetry=tel)
    try:
        with tel.span("run", n_iterations=n_iterations):
            iterations = executor.run(n_iterations)
        # detach() drops all learned state, so read the ratio first.
        final_ratio = controller.ratio
    finally:
        controller.detach()
        system.clock.set_telemetry(None)
        # The 1 Hz logs must cover the full measurement, including the
        # trailing partial sampling window — even when an iteration dies
        # mid-horizon (timeout, step explosion): a caller-owned system's
        # meter logs must never be left with an unflushed partial window.
        system.finalize_meters()

    result = RunResult(
        workload=workload.name,
        policy=policy.name,
        iterations=iterations,
        total_s=system.now - t0,
        total_energy_j=system.total_energy_j,
        gpu_energy_j=system.gpu_energy_j,
        cpu_energy_j=system.meter_cpu.energy_j,
        cpu_spin_s=system.cpu.spin_seconds - spin0,
        cpu_spin_energy_j=system.cpu.spin_energy_j - spin_e0,
        cpu_energy_emulated_idle_spin_j=0.0,
        final_ratio=final_ratio,
        traces=recorder.as_dict(),
        health=controller.health,
    )
    # Fig. 6c emulation input: Meter1 energy with spin periods replaced by
    # lowest-P-state idle (see CpuDevice.emulated_energy_with_idle_spin).
    floor_ratio = system.cpu.spec.ladder.floor / system.cpu.spec.ladder.peak
    idle_floor_w = system.cpu.spec.power.idle_power(floor_ratio)
    saved_device_j = result.cpu_spin_energy_j - result.cpu_spin_s * idle_floor_w
    result.cpu_energy_emulated_idle_spin_j = (
        result.cpu_energy_j - saved_device_j / system.config.meter1_efficiency
    )
    if tel.enabled:
        t_end = system.now
        tel.gauge("run_total_energy_j").set(result.total_energy_j, t=t_end)
        tel.gauge("run_gpu_energy_j").set(result.gpu_energy_j, t=t_end)
        tel.gauge("run_cpu_energy_j").set(result.cpu_energy_j, t=t_end)
        tel.gauge("run_time_s").set(result.total_s, t=t_end)
        if result.total_s > 0.0:
            tel.gauge("run_avg_power_w").set(
                result.total_energy_j / result.total_s, t=t_end
            )
        tel.gauge("run_final_ratio").set(result.final_ratio, t=t_end)
    return result


def run_workload(
    workload: Workload,
    policy: Policy,
    n_iterations: int | None = None,
    system: HeteroSystem | None = None,
    options: ExecutorOptions | None = None,
    recorder: TraceRecorder | None = None,
    warmup_s: float = 0.0,
    telemetry: Telemetry | NullTelemetry | None = None,
    audit=None,
    cache=None,
) -> RunResult:
    """Run a full measured experiment: one workload under one policy.

    Takes :func:`simulate`'s arguments plus an optional ``cache``
    (:class:`~repro.cache.ResultCache`).  This is the one-request case of
    :meth:`~repro.runtime.batch_executor.BatchExecutor.run_many`, which
    alone decides whether the cache serves or stores the run, and
    otherwise runs :func:`simulate` (``engine == "scalar:<reason>"``).
    """
    from repro.runtime.batch_executor import BatchExecutor, RunRequest

    request = RunRequest(
        workload=workload, policy=policy, n_iterations=n_iterations,
        options=options, system=system, recorder=recorder,
        warmup_s=warmup_s, telemetry=telemetry, audit=audit,
    )
    return BatchExecutor(cache).run_many([request])[0]
