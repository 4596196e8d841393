"""The assembled two-tier GreenGPU controller (paper §IV, Fig. 3).

:class:`GreenGpuController` wires the paper's control loops onto a
simulated :class:`~repro.sim.platform.HeteroSystem`:

- **Tier 2, GPU**: every ``scaling_interval_s`` (3 s), read the windowed
  core/memory utilizations through the ``nvidia-smi`` facade, run one WMA
  step, and enforce the chosen frequency pair.
- **Tier 2, CPU**: every ``ondemand_interval_s``, read /proc/stat-style
  utilization and apply the `ondemand` rule.  While the CPU's state
  provably repeats the last decision the tick is parked off the clock
  and its grid ticks are backfilled when the state moves (see
  ``_maybe_park``).
- **Tier 1**: at every iteration boundary the executor reports the
  CPU's and every card's time and reads the next :attr:`shares`.

Tier 2 runs one WMA scaler, monitor and actuator per GPU card (§VI's
"one pthread for one GPU"), as one loop over the cards; tier 1 is one
:class:`~repro.core.division.WorkloadDivider` over all of them.

The two tiers are deliberately decoupled: division happens at iteration
granularity (long), scaling at a short fixed period, so the WMA loop can
settle within one division interval (§IV).  :class:`TierMode` selects
which tiers are active, which is how the paper's *Division-only* and
*Frequency-scaling-only* baselines are expressed.

Hardening (the degradation ladder)
----------------------------------

The paper's daemon ran against real hardware where ``nvidia-smi`` reads
stall and ``nvidia-settings`` writes fail; the controller tolerates the
same faults when driven through :mod:`repro.faults`:

1. **fresh** — a clean read drives a normal WMA/ondemand step;
2. **fallback** — a failed read is served from the last good sample,
   for at most ``stale_window_ticks`` intervals of staleness;
3. **skip** — with no usable sample the tick is skipped and the previous
   decision stays in force;
4. **degraded** — after ``watchdog_threshold`` consecutive faulty ticks
   the watchdog escalates to the safe state: peak GPU frequencies and a
   frozen division ratio.  The first fully clean tick recovers.

Frequency writes go through bounded retry with capped backoff and are
verified against ``peek_clocks()``, which is the only way to catch
silently-ignored writes and thermal-throttle pinning.  Every fault,
retry, fallback, skip and degradation is counted in
:class:`~repro.faults.health.ControlHealth` and recorded on the trace
(``ctrl_*`` channels).  With no faults injected, every guard is on the
success path and the controller is bit-identical to the unhardened one.

Observability
-------------

The controller is instrumented through :mod:`repro.telemetry`: every
tier-2 tick runs inside a span (``scaling_tick`` / ``ondemand_tick``)
with nested spans for the monitor read, the WMA update and the
frequency actuation; retries, ladder transitions and WMA decisions
become structured events; and power is tracked as a gauge plus a
distribution histogram.  The :class:`ControlHealth` counters live in
the telemetry registry (see :func:`repro.faults.health.counter_name`) —
``controller.health`` is a view over them, so the legacy record and the
exported metrics are one set of numbers.  Without a telemetry backend
all instruments are the allocation-free no-ops from
:data:`repro.telemetry.NOOP`; only the health counters stay real, in a
private registry.

An optional :class:`~repro.telemetry.audit.AuditTrail` records the *why*
of every decision: one structured record per scaling tick (inputs, loss
vectors, weight table, argmax-vs-runner-up margin, fault overrides) and
per division boundary, rendered by ``repro explain`` and compared by
``repro diff``.  Like telemetry, the audit path is guarded by a cached
flag and defers all derivation off the hot tick.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.core.config import GreenGpuConfig
from repro.core.division import WorkloadDivider
from repro.core.ondemand import OndemandGovernor
from repro.core.wma import ScalingDecision, WmaFrequencyScaler
from repro.errors import ActuationError, ConfigError, MonitorError, SimulationError
from repro.faults.health import HEALTH_FIELDS, ControlHealth, counter_name
from repro.faults.injector import FaultInjector
from repro.faults.retry import RetryPolicy, call_with_retry
from repro.faults.wrappers import FaultyCpuStat, FaultyGpuActuator, FaultyNvidiaSmi
from repro.monitors.cpustat import CpuStat, CpuUtilizationSample
from repro.monitors.nvsmi import GpuUtilizationSample, NvidiaSmi
from repro.sim.engine import TaskHandle
from repro.sim.platform import HeteroSystem
from repro.sim.trace import TraceRecorder
from repro.telemetry import NOOP, MetricsRegistry, NullTelemetry, Telemetry
from repro.telemetry.audit import AuditTrail


class TierMode(enum.Enum):
    """Which GreenGPU tiers are active."""

    HOLISTIC = "holistic"              # both tiers (GreenGPU proper)
    DIVISION_ONLY = "division-only"    # tier 1 only; frequencies pinned
    SCALING_ONLY = "scaling-only"      # tier 2 only; division pinned
    NONE = "none"                      # everything pinned (baselines)

    @property
    def division_enabled(self) -> bool:
        return self in (TierMode.HOLISTIC, TierMode.DIVISION_ONLY)

    @property
    def scaling_enabled(self) -> bool:
        return self in (TierMode.HOLISTIC, TierMode.SCALING_ONLY)


@dataclass(frozen=True)
class HardeningPolicy:
    """Knobs of the degradation ladder (see module docstring)."""

    retry: RetryPolicy = RetryPolicy()
    stale_window_ticks: int = 3
    watchdog_threshold: int = 5

    def __post_init__(self) -> None:
        if self.stale_window_ticks < 0:
            raise SimulationError("stale window must be non-negative")
        if self.watchdog_threshold < 1:
            raise SimulationError("watchdog threshold must be >= 1")


class _Card:
    """One GPU card's tier-2 state.  Card i >= 1 records ``gpu{i}_``
    channels and a ``card`` label, so no card overwrites another's."""

    __slots__ = ("gpu", "scaler", "nvsmi", "actuator", "last_sample",
                 "channels", "labels")

    def __init__(self, index: int, gpu, scaler: WmaFrequencyScaler,
                 nvsmi, actuator):
        self.gpu = gpu
        self.scaler = scaler
        self.nvsmi = nvsmi
        self.actuator = actuator
        self.last_sample: GpuUtilizationSample | None = None
        prefix = f"gpu{index}_" if index else "gpu_"
        self.channels = tuple(prefix + name
                              for name in ("u_core", "u_mem", "f_core", "f_mem"))
        self.labels = {"card": str(index)} if index else {}


class GreenGpuController:
    """Runtime composition of the WMA scalers, ondemand and the divider."""

    def __init__(
        self,
        mode: TierMode = TierMode.HOLISTIC,
        config: GreenGpuConfig | None = None,
        initial_ratio: float | None = None,
        recorder: TraceRecorder | None = None,
        faults: FaultInjector | None = None,
        hardening: HardeningPolicy | None = None,
        telemetry: Telemetry | NullTelemetry | None = None,
        audit: AuditTrail | None = None,
    ):
        self.mode = mode
        self.config = config or GreenGpuConfig()
        self.recorder = recorder
        self.faults = faults
        self.hardening = hardening or HardeningPolicy()
        self.telemetry = telemetry if telemetry is not None else NOOP
        self.audit = audit
        # Cached so the tier-2 tick bodies can guard their span sites
        # with a plain branch: the CI overhead gate budgets the disabled
        # hot path at < 3 %, which a `with null_span` per site would blow.
        # The audit flag gets the same treatment (< 5 % enabled budget).
        self._tel_on = self.telemetry.enabled
        self._audit_on = audit is not None
        # Health counters must be readable even with telemetry disabled,
        # so they fall back to a private registry (counters only — the
        # span/event path stays on the no-op backend).
        metrics = (self.telemetry.registry if self.telemetry.enabled
                   else MetricsRegistry())
        base = dict(self.telemetry.base_labels) if self.telemetry.enabled else {}
        self._health_counters = {
            name: metrics.counter(counter_name(name), **base)
            for name in HEALTH_FIELDS
        }
        self._initial_ratio = initial_ratio
        self._cards: tuple[_Card, ...] = ()
        self.governor: OndemandGovernor | None = None
        self.divider: WorkloadDivider | None = None
        self._system: HeteroSystem | None = None
        self._cpustat: CpuStat | FaultyCpuStat | None = None
        self._tasks: list[TaskHandle] = []
        self._ondemand_task: TaskHandle | None = None
        # Parking (see _maybe_park): allowed only when the CPU monitor
        # cannot fault; (busy, f) of the CPU while the tick is parked.
        self._park_ok = False
        self._parked: tuple[bool, float] | None = None
        self._last_cpu_sample: CpuUtilizationSample | None = None
        self._consecutive_failures = 0
        self._degraded = False
        # Frequency-ladder ceiling (power-cap enforcement): WMA decisions
        # are clamped to level indices >= these (index 0 = peak), so a
        # fleet coordinator can bound this node's draw without touching
        # the learning loop.  (0, 0) — the default — is a no-op and the
        # controller is bit-identical to the unceilinged one.
        self._level_ceiling: tuple[int, int] = (0, 0)

    # -- lifecycle -----------------------------------------------------------------

    @property
    def attached(self) -> bool:
        return self._system is not None

    @property
    def scaler(self) -> WmaFrequencyScaler | None:
        """Card 0's WMA scaler (None unless attached with tier 2 on)."""
        return self._cards[0].scaler if self._cards else None

    @property
    def scalers(self) -> tuple[WmaFrequencyScaler, ...]:
        """One WMA scaler per card, in card order."""
        return tuple(card.scaler for card in self._cards)

    @property
    def degraded(self) -> bool:
        """True while the watchdog holds the controller in the safe state."""
        return self._degraded

    @property
    def health(self) -> ControlHealth:
        """The fault/recovery record, materialized from telemetry counters.

        The counters are the single source of truth; this view survives
        :meth:`detach` (they reset on the next :meth:`attach`), matching
        the historical "health readable post-run" contract.
        """
        return ControlHealth(**{
            name: int(counter.value)
            for name, counter in self._health_counters.items()
        })

    def attach(self, system: HeteroSystem) -> None:
        """Bind to a testbed and register the periodic tier-2 loops."""
        if self.attached:
            raise SimulationError("controller already attached")
        n_cards = len(system.gpus)
        if self._audit_on and n_cards > 1:
            raise ConfigError(
                "the decision audit records one WMA scaler; "
                f"cannot audit a {n_cards}-card system"
            )
        self._system = system
        for counter in self._health_counters.values():
            counter.reset()
        cfg = self.config
        if self.faults is not None:
            self.faults.bind(clock=system.clock, recorder=self.recorder,
                             telemetry=self.telemetry)
        if self.mode.division_enabled:
            self.divider = WorkloadDivider(cfg, r0=self._initial_ratio,
                                           cards=n_cards)
        if self.mode.scaling_enabled:
            self._cards = tuple(self._make_card(i, gpu)
                                for i, gpu in enumerate(system.gpus))
            if self._audit_on:
                self.audit.note_scaler(self.scaler)
            self.governor = OndemandGovernor(
                system.cpu.spec.ladder,
                up_threshold=cfg.ondemand_up_threshold,
                down_threshold=cfg.ondemand_down_threshold,
            )
            if self.faults is not None:
                self._cpustat = FaultyCpuStat(CpuStat(system.cpu), self.faults)
            else:
                self._cpustat = CpuStat(system.cpu)
            self._tasks.append(
                system.clock.every(
                    cfg.scaling_interval_s, self._scaling_tick, name="wma-scaling"
                )
            )
            self._ondemand_task = system.clock.every(
                cfg.ondemand_interval_s, self._ondemand_tick, name="ondemand"
            )
            self._tasks.append(self._ondemand_task)
            # fire() draws only for non-zero rates, so with these three at
            # zero a parked tick moves no fault stream.
            self._park_ok = self.faults is None or not any(
                self.faults.plan.rate_for(kind) > 0.0
                for kind in ("cpu_monitor_timeout", "cpu_monitor_drop",
                             "cpu_monitor_freeze")
            )

    def _make_card(self, index: int, gpu) -> _Card:
        spec = gpu.spec
        scaler = WmaFrequencyScaler(spec.core_ladder, spec.mem_ladder, self.config)
        if self.faults is not None:
            return _Card(index, gpu, scaler,
                         FaultyNvidiaSmi(NvidiaSmi(gpu), self.faults),
                         FaultyGpuActuator(gpu, self.faults))
        return _Card(index, gpu, scaler, NvidiaSmi(gpu), gpu)

    def detach(self) -> None:
        """Cancel the periodic loops, unbind, and drop all learned state.

        Detach is a full reset: a controller detached from one system and
        attached to another must not leak learned WMA weights, governor
        state or the division ratio between runs.  ``health`` survives
        until the next attach so callers can read it post-run.
        """
        if self._parked is not None:
            self._system.unwatch_cpu()
            self._unpark(resume=False)
        for task in self._tasks:
            task.cancel()
        self._tasks.clear()
        self._ondemand_task = None
        self._park_ok = False
        self._system = None
        self._cpustat = None
        self._cards = ()
        self.governor = None
        self.divider = None
        self._last_cpu_sample = None
        self._consecutive_failures = 0
        self._degraded = False

    # -- power-cap ceiling ---------------------------------------------------------

    @property
    def level_ceiling(self) -> tuple[int, int]:
        """Current (core, mem) ladder-ceiling indices; (0, 0) = uncapped."""
        return self._level_ceiling

    def set_level_ceiling(self, core_level: int, mem_level: int) -> None:
        """Cap every GPU card at ladder levels no faster than the given indices.

        Index 0 is each ladder's peak, so a ceiling of ``(i, j)`` forbids
        levels above ``i``/``j`` — the enforcement half of a fleet power
        cap, which a coordinator derives from the node's worst-case wall
        power at each level pair.  Scaling decisions (and the watchdog's
        safe state) are clamped to the ceiling; the WMA table itself
        keeps learning over the full ladder, so lifting the cap restores
        full-range control instantly.  If the controller is attached and
        a card's clocks currently sit above the new ceiling, they are
        pushed down immediately (best effort, like the safe state).

        The ceiling is operator configuration, not learned state: it
        survives :meth:`detach` until explicitly changed.
        """
        if core_level < 0 or mem_level < 0:
            raise SimulationError("ceiling level indices must be >= 0")
        self._level_ceiling = (core_level, mem_level)
        if self.telemetry.enabled:
            self.telemetry.event(
                "cap_ceiling_set",
                t_sim=self._system.now if self._system is not None else 0.0,
                core_level=core_level, mem_level=mem_level,
            )
        for card in self._cards:
            gpu = card.gpu
            spec = gpu.spec
            ci, cj = self._clamped_ceiling(spec)
            f_core_max = spec.core_ladder[ci]
            f_mem_max = spec.mem_ladder[cj]
            if gpu.f_core > f_core_max or gpu.f_mem > f_mem_max:
                try:
                    card.actuator.set_frequencies(min(gpu.f_core, f_core_max),
                                                  min(gpu.f_mem, f_mem_max))
                except ActuationError:
                    pass  # retried by the next scaling tick's clamp

    def _clamped_ceiling(self, spec) -> tuple[int, int]:
        """Ceiling indices clipped into one card's ladder ranges."""
        ci, cj = self._level_ceiling
        return (min(ci, len(spec.core_ladder) - 1),
                min(cj, len(spec.mem_ladder) - 1))

    def _apply_ceiling(self, decision: ScalingDecision, spec) -> ScalingDecision:
        """Clamp one card's scaling decision to the ladder ceiling (if any)."""
        if self._level_ceiling == (0, 0):
            return decision
        ci, cj = self._clamped_ceiling(spec)
        i = max(decision.core_level, ci)
        j = max(decision.mem_level, cj)
        if i == decision.core_level and j == decision.mem_level:
            return decision
        return ScalingDecision(i, j, spec.core_ladder[i], spec.mem_ladder[j],
                               decision.core_loss, decision.mem_loss)

    # -- hardening plumbing --------------------------------------------------------

    def _record_event(self, channel: str, t: float, value: float = 1.0) -> None:
        if self.recorder is not None:
            self.recorder.record(channel, t, value)

    def _count(self, field: str) -> None:
        """Bump one :class:`ControlHealth` counter (the only write path)."""
        self._health_counters[field].inc()

    def _stale_sample(self, last, t: float, interval_s: float):
        """``last`` (a card's or the CPU's last good sample) if it is at
        most ``stale_window_ticks`` ticks of ``interval_s`` old, else None."""
        max_age = self.hardening.stale_window_ticks * interval_s
        return last if last is not None and (t - last.t) <= max_age else None

    def _apply_gpu_frequencies(self, card: _Card, t: float, f_core: float,
                               f_mem: float) -> bool:
        """Write a frequency pair to one card with retry + verification.

        Returns True once ``peek_clocks()`` confirms the pair landed;
        False (after counting the actuation fault) when every attempt
        failed or was silently swallowed.
        """
        telemetry = self.telemetry

        def attempt() -> None:
            card.actuator.set_frequencies(f_core, f_mem)
            if card.nvsmi.peek_clocks() != (f_core, f_mem):
                raise ActuationError("frequency write did not take effect")

        def on_retry(attempt_index: int, backoff_s: float, exc: Exception) -> None:
            self._count("retries")
            self._record_event("ctrl_retry", t, backoff_s)
            telemetry.event("retry", t_sim=t, attempt=attempt_index,
                            backoff_s=backoff_s, error=str(exc))

        try:
            if self._tel_on:
                with telemetry.span("freq_actuation"):
                    call_with_retry(attempt, self.hardening.retry,
                                    on_retry=on_retry)
            else:
                call_with_retry(attempt, self.hardening.retry,
                                on_retry=on_retry)
        except ActuationError:
            self._count("actuation_faults")
            self._record_event("ctrl_actuation_failed", t)
            return False
        return True

    def _note_tick_outcome(self, t: float, clean: bool) -> None:
        """Advance or reset the watchdog after a GPU scaling tick."""
        if clean:
            self._consecutive_failures = 0
            if self._degraded:
                self._degraded = False
                self._count("recoveries")
                self._record_event("ctrl_degraded", t, 0.0)
                self.telemetry.event("ladder_transition", t_sim=t,
                                     state="recovered")
            return
        self._consecutive_failures += 1
        if (
            not self._degraded
            and self._consecutive_failures >= self.hardening.watchdog_threshold
        ):
            self._degraded = True
            self._count("degraded_entries")
            self._record_event("ctrl_degraded", t, 1.0)
            self.telemetry.event("ladder_transition", t_sim=t,
                                 state="degraded",
                                 consecutive_failures=self._consecutive_failures)
        if self._degraded:
            self._enforce_safe_state()

    def _enforce_safe_state(self) -> None:
        """Best-effort push of every card to peak (the watchdog's safe state).

        Peak is safe in the paper's sense: it can only cost energy, never
        correctness or deadline — the best-performance baseline.  Under a
        power-cap ceiling the safe state is the ceiling pair instead:
        exceeding the node's cap is not "safe" in a coordinated fleet.
        A write may itself fail (e.g. during a throttle episode); it is
        retried on every degraded tick until it lands.
        """
        for card in self._cards:
            spec = card.gpu.spec
            ci, cj = self._clamped_ceiling(spec)
            try:
                card.actuator.set_frequencies(spec.core_ladder[ci],
                                              spec.mem_ladder[cj])
            except ActuationError:
                pass

    # -- tier 2 ticks -----------------------------------------------------------------

    def _scaling_tick(self, t: float) -> None:
        if self._tel_on:
            with self.telemetry.span("scaling_tick"):
                self._scaling_tick_body(t)
        else:
            self._scaling_tick_body(t)

    def _scaling_tick_body(self, t: float) -> None:
        # Clean: every card read a fresh sample and its write landed.
        clean = True
        decided = False
        for card in self._cards:
            outcome = self._scale_card(card, t)
            if outcome is None:
                clean = False
            else:
                decided = True
                clean = clean and outcome[2] == "fresh" and outcome[3]
        power_w: float | None = None
        if decided and (self._tel_on or self.recorder is not None):
            power_w = self._system.system_power()
            self.telemetry.gauge("system_power_w").set(power_w, t=t)
            self.telemetry.histogram("system_power_w_dist").observe(power_w)
            if self.recorder is not None:
                self.recorder.record("system_power_w", t, power_w)
        self._note_tick_outcome(t, clean)
        if self._audit_on:
            # After _note_tick_outcome so `degraded` reflects whether the
            # watchdog's safe state overrides this decision.  Audited
            # controllers have one card (see attach), whose outcome this is.
            if outcome is None:
                self.audit.note_skip(t, degraded=self._degraded)
                return
            sample, decision, source, actuated = outcome
            # weights=None: the trail replays the scaler at render time.
            self.audit.note_scaling(
                t, sample.u_core, sample.u_mem, decision, source,
                actuated, self._degraded, None, power_w,
            )

    def _scale_card(self, card: _Card, t: float):
        """One card's WMA step: read, decide, clamp, actuate, record.

        Returns ``(sample, decision, source, actuated)``, or None when the
        card had no usable sample and kept its previous decision.
        """
        telemetry = self.telemetry
        tel_on = self._tel_on
        source = "fresh"
        try:
            if tel_on:
                with telemetry.span("monitor_read", device="gpu", **card.labels):
                    sample = card.nvsmi.query()
            else:
                sample = card.nvsmi.query()
            card.last_sample = sample
        except MonitorError:
            self._count("monitor_faults")
            sample = self._stale_sample(card.last_sample, t,
                                        self.config.scaling_interval_s)
            if sample is None:
                # No usable data: skip the step, keep the previous decision.
                self._count("skipped_ticks")
                self._record_event("ctrl_skip", t)
                return None
            self._count("fallbacks")
            self._record_event("ctrl_fallback", t)
            source = "fallback"
        if tel_on:
            with telemetry.span("wma_update", **card.labels):
                decision = card.scaler.step(sample.u_core, sample.u_mem)
        else:
            decision = card.scaler.step(sample.u_core, sample.u_mem)
        decision = self._apply_ceiling(decision, card.gpu.spec)
        if tel_on:
            telemetry.event(
                "wma_update", t_sim=t,
                core_level=decision.core_level, mem_level=decision.mem_level,
                f_core=decision.f_core, f_mem=decision.f_mem,
                u_core=sample.u_core, u_mem=sample.u_mem,
                w_max=float(card.scaler.table.weights.max()), **card.labels,
            )
            telemetry.gauge("wma_f_core_hz", **card.labels).set(decision.f_core, t=t)
            telemetry.gauge("wma_f_mem_hz", **card.labels).set(decision.f_mem, t=t)
        actuated = self._apply_gpu_frequencies(card, t, decision.f_core,
                                               decision.f_mem)
        recorder = self.recorder
        if recorder is not None:
            u_core, u_mem, f_core, f_mem = card.channels
            recorder.record(u_core, t, sample.u_core)
            recorder.record(u_mem, t, sample.u_mem)
            recorder.record(f_core, t, decision.f_core)
            recorder.record(f_mem, t, decision.f_mem)
        return sample, decision, source, actuated

    def _ondemand_tick(self, t: float) -> None:
        if self._tel_on:
            with self.telemetry.span("ondemand_tick"):
                self._ondemand_tick_body(t)
        else:
            self._ondemand_tick_body(t)

    def _ondemand_tick_body(self, t: float) -> None:
        assert self._system is not None and self._cpustat is not None
        assert self.governor is not None
        tel_on = self._tel_on
        try:
            if tel_on:
                with self.telemetry.span("monitor_read", device="cpu"):
                    sample = self._cpustat.query()
            else:
                sample = self._cpustat.query()
            self._last_cpu_sample = sample
        except MonitorError:
            self._count("monitor_faults")
            sample = self._stale_sample(self._last_cpu_sample, t,
                                        self.config.ondemand_interval_s)
            if sample is None:
                self._count("skipped_ticks")
                self._record_event("ctrl_skip", t)
                return
            self._count("fallbacks")
            self._record_event("ctrl_fallback", t)
        decision = self.governor.step(sample.u, self._system.cpu.f)
        if decision.changed:
            self._system.cpu.set_frequency(decision.f_target)
            if tel_on:
                self.telemetry.gauge("cpu_f_hz").set(decision.f_target, t=t)
        if self.recorder is not None:
            self.recorder.record_many(t, cpu_u=sample.u, cpu_f=decision.f_target)
        if self._park_ok:
            self._maybe_park()

    # -- ondemand parking ---------------------------------------------------------------
    #
    # Under synchronized communication the CPU spins at u == 1.0 for whole
    # runs, and an idle CPU sits at the floor: either way every ondemand
    # tick repeats the last decision.  A parked tick costs no engine
    # step; its skipped grid ticks are accounted exactly on wake/detach.

    def _maybe_park(self) -> None:
        """Park the ondemand tick if the next sample provably holds.

        While the CPU stays in its current (busy, f) state, every later
        tick reads u == 1.0 (busy) or 0.0 (idle), and the governor keeps
        the P-state at that u, so no skipped tick could act.
        """
        system = self._system
        cpu = system.cpu
        busy = cpu.busy
        f = cpu.f
        if not self.governor.holds(1.0 if busy else 0.0, f):
            return
        system.clock.park(self._ondemand_task)
        self._parked = (busy, f)
        system.watch_cpu(self._unpark)

    def _unpark(self, resume: bool = True) -> None:
        """Backfill every grid tick skipped up to and including now.

        The CPU watch calls this (resume) when the CPU state moves;
        :meth:`detach` calls it without resuming.

        Each skipped tick counts in ``governor.ticks`` and records the
        (u, f) it would have recorded.  On resume the CPU window restarts
        at the last skipped grid time, so the next real tick reads one
        full interval, and the task rejoins the clock at the next grid
        time.
        """
        system = self._system
        busy, f = self._parked
        self._parked = None
        now = system.now
        period = self.config.ondemand_interval_s
        task = self._ondemand_task
        deadline = task.deadline
        skipped: list[float] = []
        while deadline <= now:
            skipped.append(deadline)
            deadline += period
        if skipped:
            self.governor.ticks += len(skipped)
            u = 1.0 if busy else 0.0
            if self.recorder is not None:
                self.recorder.record_series(skipped, cpu_u=u, cpu_f=f)
            if self._tel_on:
                self.telemetry.counter("ondemand_ticks_skipped_total").inc(
                    len(skipped))
        if resume:
            if skipped:
                self._cpustat.rebase(now - skipped[-1], busy)
            system.clock.resume(task, deadline)

    # -- tier 1 boundary -----------------------------------------------------------------

    @property
    def ratio(self) -> float:
        """Current CPU work share."""
        if self.divider is not None:
            return self.divider.r
        if self._initial_ratio is not None:
            return self._initial_ratio
        return 0.0  # paper default: everything on the GPU

    @property
    def shares(self) -> tuple[float, ...]:
        """Work shares ``(cpu, card 0, ...)``; without a divider the cards
        split what :attr:`ratio` leaves evenly."""
        if self.divider is not None:
            return self.divider.shares
        r = self.ratio
        n_cards = len(self._system.gpus)
        return (r, *[(1.0 - r) / n_cards] * n_cards)

    def on_iteration_end(self, tc: float, tg: float, *tgs: float) -> float:
        """Tier-1 boundary: feed the CPU's, card 0's and further cards'
        times, get the next CPU ratio.  Records carry the slowest card's
        time as ``tg``."""
        if self.divider is None:
            return self.ratio
        tg_slowest = max((tg, *tgs))
        now = self._system.now if self._system is not None else -1.0
        if self._degraded:
            # Watchdog safe state: hold the division steady rather than
            # learn from timings measured under faulty control.
            self._count("frozen_divisions")
            if self._system is not None:
                self._record_event("ctrl_division_frozen", now)
                if self.recorder is not None:
                    self.recorder.record_many(
                        now, division_r=self.divider.r, tc=tc, tg=tg_slowest
                    )
            if self._audit_on:
                self.audit.note_division(
                    now, tc, tg_slowest, r_prev=self.divider.r,
                    r_next=self.divider.r, moved=False,
                    held_by_safeguard=False, frozen=True,
                )
            return self.divider.r
        r_prev = self.divider.r
        decision = self.divider.update(tc, tg, *tgs)
        r_next = self.divider.r
        if self._audit_on:
            self.audit.note_division(
                now, tc, tg_slowest, r_prev=r_prev, r_next=r_next,
                moved=decision.moved,
                held_by_safeguard=decision.held_by_safeguard, frozen=False,
            )
        if self.telemetry.enabled and self._system is not None:
            self.telemetry.event("division_update", t_sim=self._system.now,
                                 r_next=r_next, tc=tc, tg=tg_slowest)
            self.telemetry.gauge("division_r").set(r_next, t=self._system.now)
        if self.recorder is not None and self._system is not None:
            self.recorder.record_many(
                self._system.now, division_r=r_next, tc=tc, tg=tg_slowest
            )
        return r_next
