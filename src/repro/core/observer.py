"""The controller's one observer: every side channel of its decisions.

:class:`~repro.core.controller.GreenGpuController` and its
:class:`~repro.faults.injector.FaultInjector` report each decision to a
:class:`ControlObserver`, one method per decision.  It writes the run's
optional sinks (the trace recorder behind Figs. 5, 7 and 8, the decision
audit, telemetry) and owns its tallies (:class:`~repro.faults.health.
ControlHealth` and ``faults_injected_total{kind=...}``).  Without a sink
(every fleet node) the controller skips each clean-path report behind
one cached check; fault-path reports always run, because they count.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.errors import ConfigError
from repro.faults.health import HEALTH_FIELDS, ControlHealth, counter_name
from repro.telemetry import NOOP, MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.sim.platform import HeteroSystem
    from repro.sim.trace import TraceRecorder
    from repro.telemetry import NullTelemetry, Telemetry
    from repro.telemetry.audit import AuditTrail


class ControlObserver:
    """The recorder, audit trail, telemetry and tallies of one controller."""

    def __init__(self, recorder: TraceRecorder | None = None,
                 telemetry: Telemetry | NullTelemetry | None = None,
                 audit: AuditTrail | None = None):
        self.recorder = recorder
        self.telemetry = telemetry = telemetry if telemetry is not None else NOOP
        self.audit = audit
        self._tel_on = telemetry.enabled
        #: A recorder or telemetry takes per-sample rows: the guard before
        #: card and ondemand reports.
        self.traced = self._tel_on or recorder is not None
        #: The scaling-tick report in its cheapest form: the fan-out, the
        #: audit's own writer when the audit is the only sink, or None.
        self.tick_report = (self.scaling_tick if self.traced
                            else audit.note_tick if audit is not None else None)
        # The tallies must be readable with telemetry off: then one private
        # registry holds them.
        self._tallies = telemetry if self._tel_on else MetricsRegistry()
        self._health = {name: self._tallies.counter(counter_name(name))
                        for name in HEALTH_FIELDS}
        self._faults: dict[str, Any] = {}
        self._system: HeteroSystem | None = None

    def attach(self, system: HeteroSystem) -> None:
        """Start a run on ``system``: zero the health counters.  Raises
        :class:`~repro.errors.ConfigError` for an audited multi-card system."""
        n_cards = len(system.gpus)
        if self.audit is not None and n_cards > 1:
            raise ConfigError(
                "the decision audit records one WMA scaler; "
                f"cannot audit a {n_cards}-card system"
            )
        self._system = system
        for counter in self._health.values():
            counter.reset()

    def spanned(self, name: str, fn: Callable, **labels: Any) -> Callable:
        """``fn`` inside a ``name`` span when telemetry is on, else ``fn``."""
        if not self._tel_on:
            return fn
        span = self.telemetry.span

        def call(*args: Any, **kwargs: Any) -> Any:
            with span(name, **labels):
                return fn(*args, **kwargs)

        return call

    @property
    def health(self) -> ControlHealth:
        return ControlHealth(**{name: int(counter.value)
                                for name, counter in self._health.items()})

    @property
    def fault_counts(self) -> dict[str, int]:
        """Injected-fault tallies by kind."""
        return {kind: int(counter.value)
                for kind, counter in sorted(self._faults.items())
                if counter.value}

    # -- decisions -----------------------------------------------------------

    def scaler_started(self, scaler) -> None:
        """A fresh WMA scaler starts deciding (the audit replays from here)."""
        if self.audit is not None:
            self.audit.note_scaler(scaler)

    def card_decided(self, card, t: float, sample, decision) -> None:
        """One card's clamped WMA decision, before its frequency write."""
        if self._tel_on:
            telemetry = self.telemetry
            labels = card.labels
            telemetry.event(
                "wma_update", t_sim=t,
                core_level=decision.core_level, mem_level=decision.mem_level,
                f_core=decision.f_core, f_mem=decision.f_mem,
                u_core=sample.u_core, u_mem=sample.u_mem,
                w_max=float(card.scaler.table.weights.max()), **labels,
            )
            telemetry.gauge("wma_f_core_hz", **labels).set(decision.f_core, t=t)
            telemetry.gauge("wma_f_mem_hz", **labels).set(decision.f_mem, t=t)
        if self.recorder is not None:
            for channel, value in zip(card.channels, (
                    sample.u_core, sample.u_mem, decision.f_core, decision.f_mem)):
                self.recorder.record(channel, t, value)

    def scaling_tick(self, t: float, outcome, degraded: bool) -> None:
        """The end of a scaling tick, before the watchdog's safe state.

        ``outcome`` is the last deciding card's ``(sample, decision,
        source, actuated)``, or None when no card decided (a skip).
        """
        power_w = None
        if outcome is not None:
            power_w = self._system.system_power()
            self.telemetry.gauge("system_power_w").set(power_w, t=t)
            self.telemetry.histogram("system_power_w_dist").observe(power_w)
            if self.recorder is not None:
                self.recorder.record("system_power_w", t, power_w)
        if self.audit is not None:  # then there is one card
            self.audit.note_tick(t, outcome, degraded, power_w)

    def ondemand_tick(self, t: float, sample, decision) -> None:
        if decision.changed:
            self.telemetry.gauge("cpu_f_hz").set(decision.f_target, t=t)
        if self.recorder is not None:
            self.recorder.record_many(t, cpu_u=sample.u, cpu_f=decision.f_target)

    def parked_span(self, times: list[float], u: float, f: float) -> None:
        """Ondemand ticks skipped while parked, each repeating ``(u, f)``."""
        if self.recorder is not None:
            self.recorder.record_series(times, cpu_u=u, cpu_f=f)
        self.telemetry.counter("ondemand_ticks_skipped_total").inc(len(times))

    def division(self, t: float, tc: float, tg: float, r_prev: float,
                 r_next: float, moved: bool, held_by_safeguard: bool,
                 frozen: bool) -> None:
        """One tier-1 boundary (``tg``: the slowest card's time); a frozen
        one, held by the watchdog, is also a fault reaction."""
        if frozen:
            self.fault_reaction("frozen_divisions", t, "ctrl_division_frozen")
        if self.audit is not None:
            self.audit.note_division(t, tc, tg, r_prev, r_next, moved,
                                     held_by_safeguard, frozen)
        if not frozen:
            self.telemetry.event("division_update", t_sim=t, r_next=r_next,
                                 tc=tc, tg=tg)
            self.telemetry.gauge("division_r").set(r_next, t=t)
        if self.recorder is not None:
            self.recorder.record_many(t, division_r=r_next, tc=tc, tg=tg)

    def ceiling(self, t: float, core_level: int, mem_level: int) -> None:
        """A new power-cap ladder ceiling."""
        self.telemetry.event("cap_ceiling_set", t_sim=t,
                             core_level=core_level, mem_level=mem_level)

    def fault_reaction(self, field: str, t: float, row: str | None = None,
                       value: float = 1.0, **ladder: Any) -> None:
        """Count one :class:`ControlHealth` field and write its ``ctrl_*``
        ``row``; a watchdog transition passes its ``ladder`` event fields."""
        self._health[field].inc()
        if row is not None and self.recorder is not None:
            self.recorder.record(row, t, value)
        if ladder:
            self.telemetry.event("ladder_transition", t_sim=t, **ladder)

    def retry(self, t: float, attempt: int, backoff_s: float,
              exc: Exception) -> None:
        """One retried frequency write."""
        self.fault_reaction("retries", t, "ctrl_retry", backoff_s)
        self.telemetry.event("retry", t_sim=t, attempt=attempt,
                             backoff_s=backoff_s, error=str(exc))

    def fault_injected(self, kind: str, t: float) -> None:
        """One fault the injector fired."""
        counter = self._faults.get(kind)
        if counter is None:
            counter = self._faults[kind] = self._tallies.counter(
                "faults_injected_total", kind=kind)
        counter.inc()
        self.telemetry.event("fault_injected", kind=kind, t_sim=t)
        if self.recorder is not None:
            self.recorder.record(f"fault_{kind}", t, 1.0)
