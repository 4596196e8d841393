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
silently-ignored writes and thermal-throttle pinning.  With no faults
injected, every guard is on the success path and the controller is
bit-identical to the unhardened one.

Observability
-------------

The tick bodies hold decisions only: each decision is one call on the
controller's :class:`~repro.core.observer.ControlObserver`, which writes
the trace rows (``ctrl_*`` channels included), the optional
:class:`~repro.telemetry.audit.AuditTrail` notes and telemetry, and
counts :class:`~repro.faults.health.ControlHealth`.  Attach picks the
bare or the spanned (``scaling_tick`` / ``ondemand_tick`` around
``monitor_read``, ``wma_update``, ``freq_actuation``) callables once.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.core.config import GreenGpuConfig
from repro.core.division import WorkloadDivider
from repro.core.observer import ControlObserver
from repro.core.ondemand import OndemandGovernor
from repro.core.wma import ScalingDecision, WmaFrequencyScaler
from repro.errors import ActuationError, MonitorError, SimulationError
from repro.faults.health import ControlHealth
from repro.faults.injector import FaultInjector
from repro.faults.retry import RetryPolicy, call_with_retry
from repro.faults.wrappers import FaultyCpuStat, FaultyGpuActuator, FaultyNvidiaSmi
from repro.monitors.cpustat import CpuStat, CpuUtilizationSample
from repro.monitors.nvsmi import GpuUtilizationSample, NvidiaSmi
from repro.sim.engine import TaskHandle
from repro.sim.platform import HeteroSystem
from repro.sim.trace import TraceRecorder
from repro.telemetry import NullTelemetry, Telemetry
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
    channels and a ``card`` label, so no card overwrites another's.
    ``query`` and ``step`` are its monitor read and WMA step, spanned or
    bare as the observer chose; assigning ``nvsmi`` rebinds ``query``."""

    __slots__ = ("gpu", "scaler", "_nvsmi", "actuator", "last_sample",
                 "channels", "labels", "_spanned", "query", "step")

    def __init__(self, index: int, gpu, scaler: WmaFrequencyScaler,
                 nvsmi, actuator, spanned):
        self.gpu = gpu
        self.scaler = scaler
        self.actuator = actuator
        self.last_sample: GpuUtilizationSample | None = None
        prefix = f"gpu{index}_" if index else "gpu_"
        self.channels = tuple(prefix + name
                              for name in ("u_core", "u_mem", "f_core", "f_mem"))
        self.labels = {"card": str(index)} if index else {}
        self._spanned = spanned
        self.step = spanned("wma_update", scaler.step, **self.labels)
        self.nvsmi = nvsmi

    @property
    def nvsmi(self):
        return self._nvsmi

    @nvsmi.setter
    def nvsmi(self, monitor) -> None:
        self._nvsmi = monitor
        self.query = self._spanned("monitor_read", monitor.query,
                                   device="gpu", **self.labels)


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
        self.faults = faults
        self.hardening = hardening or HardeningPolicy()
        # Each clean-path report site is one cached check (CI budgets a
        # sink-less tick at < 3 % overhead and an audited one at < 5 %).
        self.observer = ControlObserver(recorder, telemetry, audit)
        self._traced = self.observer.traced
        self._report_tick = self.observer.tick_report
        self._initial_ratio = initial_ratio
        self._cards: tuple[_Card, ...] = ()
        self.governor: OndemandGovernor | None = None
        self.divider: WorkloadDivider | None = None
        self._system: HeteroSystem | None = None
        self._cpustat: CpuStat | FaultyCpuStat | None = None
        # Chosen at attach, spanned when telemetry is on (see _Card).
        self._read_cpu = None
        self._retry = call_with_retry
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
        """The fault/recovery record; it survives :meth:`detach` (the
        counters reset on the next :meth:`attach`)."""
        return self.observer.health

    def attach(self, system: HeteroSystem) -> None:
        """Bind to a testbed and register the periodic tier-2 loops."""
        if self.attached:
            raise SimulationError("controller already attached")
        observer = self.observer
        observer.attach(system)
        self._system = system
        cfg = self.config
        if self.faults is not None:
            self.faults.bind(clock=system.clock, observer=observer)
        if self.mode.division_enabled:
            self.divider = WorkloadDivider(cfg, r0=self._initial_ratio,
                                           cards=len(system.gpus))
        if self.mode.scaling_enabled:
            spanned = observer.spanned
            self._cards = tuple(self._make_card(i, gpu, spanned)
                                for i, gpu in enumerate(system.gpus))
            observer.scaler_started(self.scaler)
            self.governor = OndemandGovernor(
                system.cpu.spec.ladder,
                up_threshold=cfg.ondemand_up_threshold,
                down_threshold=cfg.ondemand_down_threshold,
            )
            if self.faults is not None:
                self._cpustat = FaultyCpuStat(CpuStat(system.cpu), self.faults)
            else:
                self._cpustat = CpuStat(system.cpu)
            self._read_cpu = spanned("monitor_read", self._cpustat.query,
                                     device="cpu")
            self._retry = spanned("freq_actuation", call_with_retry)
            self._tasks.append(system.clock.every(
                cfg.scaling_interval_s,
                spanned("scaling_tick", self._scaling_tick), name="wma-scaling",
            ))
            self._ondemand_task = system.clock.every(
                cfg.ondemand_interval_s,
                spanned("ondemand_tick", self._ondemand_tick), name="ondemand",
            )
            self._tasks.append(self._ondemand_task)
            # fire() draws only for non-zero rates, so with these three at
            # zero a parked tick moves no fault stream.
            self._park_ok = self.faults is None or not any(
                self.faults.plan.rate_for(kind) > 0.0
                for kind in ("cpu_monitor_timeout", "cpu_monitor_drop",
                             "cpu_monitor_freeze")
            )

    def _make_card(self, index: int, gpu, spanned) -> _Card:
        spec = gpu.spec
        scaler = WmaFrequencyScaler(spec.core_ladder, spec.mem_ladder, self.config)
        if self.faults is not None:
            return _Card(index, gpu, scaler,
                         FaultyNvidiaSmi(NvidiaSmi(gpu), self.faults),
                         FaultyGpuActuator(gpu, self.faults), spanned)
        return _Card(index, gpu, scaler, NvidiaSmi(gpu), gpu, spanned)

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
        self._read_cpu = None
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
        self.observer.ceiling(self._system.now if self._system is not None else 0.0,
                              core_level, mem_level)
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

    def _fallback_sample(self, last, t: float, interval_s: float):
        """Serve a failed monitor read: ``last`` (a card's or the CPU's last
        good sample) if it is at most ``stale_window_ticks`` ticks of
        ``interval_s`` old (a fallback), else None (a skipped tick)."""
        observer = self.observer
        observer.fault_reaction("monitor_faults", t)
        max_age = self.hardening.stale_window_ticks * interval_s
        if last is not None and (t - last.t) <= max_age:
            observer.fault_reaction("fallbacks", t, "ctrl_fallback")
            return last
        observer.fault_reaction("skipped_ticks", t, "ctrl_skip")
        return None

    def _apply_gpu_frequencies(self, card: _Card, t: float, f_core: float,
                               f_mem: float) -> bool:
        """Write a frequency pair to one card with retry + verification.

        Returns True once ``peek_clocks()`` confirms the pair landed;
        False (after counting the actuation fault) when every attempt
        failed or was silently swallowed.
        """
        observer = self.observer

        def attempt() -> None:
            card.actuator.set_frequencies(f_core, f_mem)
            if card.nvsmi.peek_clocks() != (f_core, f_mem):
                raise ActuationError("frequency write did not take effect")

        def on_retry(attempt_index: int, backoff_s: float, exc: Exception) -> None:
            observer.retry(t, attempt_index, backoff_s, exc)

        try:
            self._retry(attempt, self.hardening.retry, on_retry=on_retry)
        except ActuationError:
            observer.fault_reaction("actuation_faults", t, "ctrl_actuation_failed")
            return False
        return True

    def _watch(self, t: float, clean: bool) -> None:
        """Advance or reset the watchdog after a GPU scaling tick."""
        if clean:
            self._consecutive_failures = 0
            if self._degraded:
                self._degraded = False
                self.observer.fault_reaction("recoveries", t, "ctrl_degraded", 0.0,
                                             state="recovered")
            return
        self._consecutive_failures += 1
        if (
            not self._degraded
            and self._consecutive_failures >= self.hardening.watchdog_threshold
        ):
            self._degraded = True
            self.observer.fault_reaction(
                "degraded_entries", t, "ctrl_degraded", state="degraded",
                consecutive_failures=self._consecutive_failures)

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
        # Clean: every card read a fresh sample and its write landed.
        clean = True
        outcome = None  # the last card decision, if any card decided
        for card in self._cards:
            card_outcome = self._scale_card(card, t)
            if card_outcome is None:
                clean = False
            else:
                outcome = card_outcome
                clean = clean and card_outcome[2] == "fresh" and card_outcome[3]
        self._watch(t, clean)
        if self._report_tick is not None:
            # Before the safe state, so the power sample is the decision's.
            self._report_tick(t, outcome, self._degraded)
        if self._degraded:
            self._enforce_safe_state()

    def _scale_card(self, card: _Card, t: float):
        """One card's WMA step: read, decide, clamp, report, actuate.

        Returns ``(sample, decision, source, actuated)``, or None when the
        card had no usable sample and kept its previous decision.
        """
        source = "fresh"
        try:
            sample = card.query()
            card.last_sample = sample
        except MonitorError:
            sample = self._fallback_sample(card.last_sample, t,
                                           self.config.scaling_interval_s)
            if sample is None:
                return None  # no usable data: keep the previous decision
            source = "fallback"
        decision = self._apply_ceiling(card.step(sample.u_core, sample.u_mem),
                                       card.gpu.spec)
        if self._traced:
            self.observer.card_decided(card, t, sample, decision)
        actuated = self._apply_gpu_frequencies(card, t, decision.f_core,
                                               decision.f_mem)
        return sample, decision, source, actuated

    def _ondemand_tick(self, t: float) -> None:
        try:
            sample = self._read_cpu()
            self._last_cpu_sample = sample
        except MonitorError:
            sample = self._fallback_sample(self._last_cpu_sample, t,
                                           self.config.ondemand_interval_s)
            if sample is None:
                return
        decision = self.governor.step(sample.u, self._system.cpu.f)
        if decision.changed:
            self._system.cpu.set_frequency(decision.f_target)
        if self._traced:
            self.observer.ondemand_tick(t, sample, decision)
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
            self.observer.parked_span(skipped, 1.0 if busy else 0.0, f)
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
        divider = self.divider
        if divider is None:
            return self.ratio
        r_prev = divider.r
        if self._degraded:
            # Watchdog safe state: hold the division steady rather than
            # learn from timings measured under faulty control.
            moved = held = False
        else:
            decision = divider.update(tc, tg, *tgs)
            moved, held = decision.moved, decision.held_by_safeguard
        self.observer.division(self._system.now, tc, max((tg, *tgs)), r_prev,
                               divider.r, moved, held, frozen=self._degraded)
        return divider.r
