"""Deterministic, seeded fault injection for the simulated testbed.

The paper's daemon ran against 2012-era hardware where ``nvidia-smi``
reads stall, ``nvidia-settings`` writes get silently rejected and thermal
events pin the clocks.  The simulated testbed is perfect by construction,
so this module recreates those failure modes *on purpose*:

- a :class:`FaultPlan` declares per-decision-point fault rates (and,
  optionally, trace-driven device-stall episodes at fixed times);
- a :class:`FaultInjector` turns the plan into a seeded PCG64 draw
  stream, one uniform draw per decision point, so any run is
  bit-reproducible for a given seed;
- every injected fault is reported to the controller's
  :class:`~repro.core.observer.ControlObserver`, which counts it as
  ``faults_injected_total{kind=...}``, logs a telemetry event and writes
  a ``fault_<kind>`` trace row, so chaos tests can prove no injected
  fault was silently lost.  :attr:`FaultInjector.counts` is a view over
  the observer's counters.

The injector itself never touches a device; the wrappers in
:mod:`repro.faults.wrappers` consult it at each monitor query /
frequency write and act on its verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigError
from repro.seeding import spawn_seed

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core -> faults)
    from repro.core.observer import ControlObserver

#: Every fault kind the injector can fire, mapped to its plan rate field.
FAULT_KIND_RATES: dict[str, str] = {
    "gpu_monitor_timeout": "monitor_timeout_rate",
    "gpu_monitor_drop": "monitor_drop_rate",
    "gpu_monitor_freeze": "monitor_freeze_rate",
    "cpu_monitor_timeout": "monitor_timeout_rate",
    "cpu_monitor_drop": "monitor_drop_rate",
    "cpu_monitor_freeze": "monitor_freeze_rate",
    "actuator_reject": "actuator_reject_rate",
    "actuator_ignore": "actuator_ignore_rate",
    "actuator_offby": "actuator_offby_rate",
    "device_stall": "device_stall_rate",
}


@dataclass(frozen=True)
class FaultPlan:
    """Declarative description of the faults to inject into one run.

    All ``*_rate`` fields are per-decision-point probabilities in
    [0, 1]: each monitor query or frequency write consumes one draw per
    applicable kind.  ``stall_episodes`` adds trace-driven
    thermal-throttle episodes ``(start_s, duration_s)`` on top of the
    rate-driven ones; during an episode every card's clocks are pinned
    to their floors and frequency writes are ignored.
    """

    seed: int = 0
    monitor_timeout_rate: float = 0.0
    monitor_drop_rate: float = 0.0
    monitor_freeze_rate: float = 0.0
    actuator_reject_rate: float = 0.0
    actuator_ignore_rate: float = 0.0
    actuator_offby_rate: float = 0.0
    device_stall_rate: float = 0.0
    device_stall_duration_s: float = 5.0
    stall_episodes: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        for f in fields(self):
            if f.name.endswith("_rate"):
                v = getattr(self, f.name)
                if not 0.0 <= v <= 1.0:
                    raise ConfigError(f"{f.name} must be in [0, 1], got {v}")
        if self.device_stall_duration_s <= 0.0:
            raise ConfigError("device stall duration must be positive")
        for episode in self.stall_episodes:
            start, duration = episode
            if start < 0.0 or duration <= 0.0:
                raise ConfigError(f"bad stall episode {episode}")

    @property
    def any_faults(self) -> bool:
        """True if this plan can ever inject anything."""
        if self.stall_episodes:
            return True
        return any(
            getattr(self, f.name) > 0.0
            for f in fields(self)
            if f.name.endswith("_rate")
        )

    def rate_for(self, kind: str) -> float:
        """Probability of fault ``kind`` at one decision point."""
        try:
            return getattr(self, FAULT_KIND_RATES[kind])
        except KeyError:
            raise ConfigError(f"unknown fault kind {kind!r}") from None

    def for_node(self, node_id: int, *path: int) -> "FaultPlan":
        """This plan re-seeded for one node of a larger simulation.

        The child seed comes from :func:`repro.seeding.spawn_seed`, so
        sibling nodes get decorrelated draw streams (a ``seed + i``
        derivation would hand adjacent nodes near-identical fault
        schedules).  Rates and episodes are unchanged.
        """
        return replace(self, seed=spawn_seed(self.seed, node_id, *path))


#: Named fault profiles for the CLI's ``--faults`` flag.  Rates cover
#: monitors and the actuator; "moderate" is the 5-10 % band the chaos
#: robustness benchmark pins.
FAULT_PROFILES: dict[str, dict[str, float]] = {
    "light": dict(
        monitor_timeout_rate=0.02,
        monitor_freeze_rate=0.01,
        actuator_reject_rate=0.02,
        actuator_ignore_rate=0.01,
    ),
    "moderate": dict(
        monitor_timeout_rate=0.05,
        monitor_drop_rate=0.02,
        monitor_freeze_rate=0.03,
        actuator_reject_rate=0.05,
        actuator_ignore_rate=0.03,
        actuator_offby_rate=0.02,
        device_stall_rate=0.005,
    ),
    "heavy": dict(
        monitor_timeout_rate=0.12,
        monitor_drop_rate=0.05,
        monitor_freeze_rate=0.08,
        actuator_reject_rate=0.12,
        actuator_ignore_rate=0.08,
        actuator_offby_rate=0.05,
        device_stall_rate=0.01,
    ),
}


def fault_profile(name: str, seed: int = 0) -> FaultPlan:
    """Build the named :class:`FaultPlan` profile (seeded)."""
    try:
        rates = FAULT_PROFILES[name]
    except KeyError:
        raise ConfigError(
            f"unknown fault profile {name!r}; choose from {sorted(FAULT_PROFILES)}"
        ) from None
    return FaultPlan(seed=seed, **rates)


class FaultInjector:
    """Seeded fault oracle consulted by the faulty device/monitor wrappers.

    One injector drives one run.  Controller attach binds it to the run's
    sim clock (timestamps, trace-driven stall episodes) and observer (the
    tallies and logs of every injected fault; unbound, a sink-less one).
    """

    def __init__(self, plan: FaultPlan):
        from repro.core.observer import ControlObserver

        self.plan = plan
        self._rng = np.random.default_rng(plan.seed)
        self._clock = None
        self._actuators: list = []
        self._observer = ControlObserver()

    # -- wiring ----------------------------------------------------------------

    def bind(self, clock=None, observer: ControlObserver | None = None) -> None:
        """Attach the run's clock and the observer of its faults.

        Trace-driven stall episodes from the plan are scheduled on the
        clock here (episodes already in the past are skipped).
        """
        if clock is not None:
            self._clock = clock
            for start, duration in self.plan.stall_episodes:
                if start < clock.now:
                    continue
                clock.at(
                    start,
                    lambda t, d=duration: self._begin_scheduled_stall(t, d),
                    name="fault-stall-episode",
                )
        if observer is not None:
            self._observer = observer

    def attach_actuator(self, actuator) -> None:
        """Register one card's faulty GPU actuator (stall episodes pin
        every registered card)."""
        self._actuators.append(actuator)

    def _begin_scheduled_stall(self, t: float, duration: float) -> None:
        for actuator in self._actuators:
            self._observer.fault_injected("device_stall", self.now)
            actuator.begin_stall(duration)

    @property
    def now(self) -> float:
        """Current simulated time (0.0 before a clock is bound)."""
        return self._clock.now if self._clock is not None else 0.0

    # -- the draw stream -------------------------------------------------------

    def fire(self, kind: str) -> bool:
        """Draw once for fault ``kind``; report it to the observer on a hit.

        A draw is consumed even when the rate is nonzero and misses, so
        the stream depends only on the seed and the call sequence.
        """
        rate = self.plan.rate_for(kind)
        if rate <= 0.0:
            return False
        if self._rng.random() >= rate:
            return False
        self._observer.fault_injected(kind, self.now)
        return True

    @property
    def counts(self) -> dict[str, int]:
        """Injected-fault tallies by kind (a view over the observer's)."""
        return self._observer.fault_counts

    @property
    def total_injected(self) -> int:
        """Total faults injected so far, across all kinds."""
        return sum(self.counts.values())
