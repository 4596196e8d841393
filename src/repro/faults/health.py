"""Controller-side fault/recovery bookkeeping.

:class:`ControlHealth` counts what the *hardened controller observed and
did* — distinct from the injector's counts of what was *injected*.  The
two views bracket the robustness story: every injected fault must show up
either as a controller reaction here (fallback, retry, skip, degradation)
or as a verified-and-corrected write, never as silent corruption.

The dataclass is a *view*: each field is backed by one counter (named
by :func:`counter_name`) that the controller's
:class:`~repro.core.observer.ControlObserver` owns and increments, and
``GreenGpuController.health`` reads this record from them.

The record rides on :class:`~repro.runtime.metrics.RunResult` (which
re-exports this class) so chaos benchmarks can assert on it and the CLI
can print it in the run summary.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass
class ControlHealth:
    """Counters of faults seen and degradations taken during one run."""

    monitor_faults: int = 0      # queries that raised MonitorError
    actuation_faults: int = 0    # frequency writes failed after all retries
    retries: int = 0             # individual retry attempts that were needed
    fallbacks: int = 0           # ticks served from the last good sample
    skipped_ticks: int = 0       # ticks with no usable data at all
    degraded_entries: int = 0    # watchdog escalations to the safe state
    recoveries: int = 0          # returns from the safe state
    frozen_divisions: int = 0    # tier-1 updates suppressed while degraded

    @property
    def total_events(self) -> int:
        """All recorded events, across every counter."""
        return sum(getattr(self, f.name) for f in fields(self))

    @property
    def degraded(self) -> bool:
        """True if the run ended inside the watchdog's safe state."""
        return self.degraded_entries > self.recoveries

    def as_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict[str, int]) -> "ControlHealth":
        known = {f.name for f in fields(cls)}
        return cls(**{k: int(v) for k, v in data.items() if k in known})


#: Every ControlHealth field, in declaration order.
HEALTH_FIELDS: tuple[str, ...] = tuple(f.name for f in fields(ControlHealth))


def counter_name(field: str) -> str:
    """The telemetry counter backing one :class:`ControlHealth` field.

    This mapping is the single place the controller's health counters
    are defined: the observer increments ``ctrl_<field>_total`` and the
    ``health`` view reads the same counters back, so the dataclass and
    the exported metrics can never disagree.
    """
    return f"ctrl_{field}_total"
