"""The Linux `ondemand` CPU frequency governor (paper §IV).

GreenGPU does not design a new CPU DVFS policy; it adopts the stock
linux-2.6.32 `ondemand` governor, which the paper describes as:

    "If CPU utilization rises above a upper utilization threshold value,
    the ondemand governor increases the CPU frequency to the highest
    available frequency.  When CPU utilization falls below a low
    utilization threshold, the governor sets the CPU to run at the next
    lowest frequency."

This module implements exactly that decision rule over a P-state ladder.
Utilization between the two thresholds keeps the current P-state.

The paper's key observation about this governor (§VII-A) is reproduced by
construction: because the benchmarks' synchronized GPU communication spins
the CPU at 100 % utilization, `ondemand` keeps the CPU at the peak P-state
even when it is doing no useful work — which is why Fig. 6c has to
*emulate* the CPU-throttling savings.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.sim.frequency import FrequencyLadder


@dataclass(frozen=True, slots=True)
class GovernorDecision:
    """Outcome of one governor tick."""

    f_target: float
    changed: bool
    reason: str


class OndemandGovernor:
    """Stateful `ondemand` reimplementation over a frequency ladder."""

    def __init__(
        self,
        ladder: FrequencyLadder,
        up_threshold: float = 0.80,
        down_threshold: float = 0.30,
    ):
        if not 0.0 < up_threshold <= 1.0:
            raise ConfigError("up_threshold must be in (0, 1]")
        if not 0.0 <= down_threshold < up_threshold:
            raise ConfigError("down_threshold must be in [0, up_threshold)")
        self.ladder = ladder
        self.up_threshold = up_threshold
        self.down_threshold = down_threshold
        self.ticks = 0
        self.transitions = 0

    def target(self, u: float, f_current: float) -> tuple[float, str]:
        """The P-state one tick at utilization ``u`` moves to, and why.

        Pure: no counters move.  :meth:`step` is this plus bookkeeping.
        """
        if u > self.up_threshold:
            return self.ladder.peak, "above up_threshold -> peak"
        if u < self.down_threshold:
            return self.ladder.step_down(f_current), "below down_threshold -> step down"
        return f_current, "within band -> hold"

    def holds(self, u: float, f_current: float) -> bool:
        """Whether a tick at utilization ``u`` keeps ``f_current`` (pure)."""
        return self.target(u, f_current)[0] == f_current

    def step(self, u: float, f_current: float) -> GovernorDecision:
        """One sampling tick: map utilization to the next P-state."""
        if not 0.0 <= u <= 1.0:
            raise ConfigError(f"utilization must be in [0, 1], got {u}")
        self.ticks += 1
        target, reason = self.target(u, f_current)
        changed = target != f_current
        if changed:
            self.transitions += 1
        return GovernorDecision(f_target=target, changed=changed, reason=reason)
