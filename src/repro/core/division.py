"""Tier 1: the workload-division algorithm (paper §V-B).

``r`` is the fraction of an iteration's work assigned to the CPU (the GPU
takes ``1 - r``).  After each iteration the divider compares the two
sides' execution times:

- ``tc > tg`` — the CPU was the straggler: move one step of work to the
  GPU (``r -= step``);
- ``tc < tg`` — the GPU was the straggler: move one step to the CPU
  (``r += step``).

Oscillation safeguard
---------------------
Because divisions are quantized to the step size, the optimum may sit
between two grid points and the raw rule would bounce between them
forever, paying the division overhead each time.  Before committing a
move, the divider linearly extrapolates both sides' times to the candidate
division:

    tc' = (r_candidate / r) * tc
    tg' = ((1 - r_candidate) / (1 - r)) * tg

If the predicted comparison *flips* (the side we are unloading would
become the straggler), the move would be reverted next iteration, so the
divider holds the current division instead.  This is the paper's exact
example: at 10/90 with ``tc < tg`` the candidate is 15/85, and if
``tc' > tg'`` the division stays at 10/90.

Boundary behaviour: at ``r = 0`` the CPU has no work (``tc = 0``), linear
extrapolation is undefined, and the safeguard is skipped — the divider
simply probes one step toward the CPU when the GPU is the straggler.

Several GPU cards
-----------------
The runtime launches "one pthread for one GPU" (§VI), and the same rule
divides over any number of cards.  ``r`` is decided exactly as above
against the GPU side's time, which is the slowest card's.  The cards
split ``1 - r`` by per-card fractions that start uniform; at each
boundary one ``division_step`` of fraction moves from the slowest card
to the fastest, held by the same extrapolation when the move would flip
the two cards' order.  A card whose fraction is zero reports no time and
only receives.  With one card the fraction is exactly 1.0 and nothing
else changes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import GreenGpuConfig
from repro.errors import PartitionError
from repro.units import clamp

#: Below this share a side's measured time carries no per-unit signal.
_MIN_SIGNAL_RATIO = 1e-9


@dataclass(frozen=True, slots=True)
class DivisionDecision:
    """Outcome of one division update.

    ``moved`` and ``held_by_safeguard`` cover the CPU share and, with
    several cards, the card split; ``tg`` is the slowest card's time.
    """

    r_next: float
    moved: bool
    held_by_safeguard: bool
    tc: float
    tg: float


class WorkloadDivider:
    """Stateful tier-1 controller for the CPU work share ``r`` and the
    split of ``1 - r`` over ``cards`` GPU cards."""

    def __init__(self, config: GreenGpuConfig | None = None, r0: float | None = None,
                 cards: int = 1):
        self.config = config or GreenGpuConfig()
        r_init = self.config.initial_cpu_ratio if r0 is None else float(r0)
        if not self.config.min_cpu_ratio <= r_init <= self.config.max_cpu_ratio:
            raise PartitionError(
                f"initial ratio {r_init} outside "
                f"[{self.config.min_cpu_ratio}, {self.config.max_cpu_ratio}]"
            )
        if cards < 1:
            raise PartitionError(f"need at least one GPU card, got {cards}")
        self.r = r_init
        self.fractions = [1.0 / cards] * cards
        self.iterations = 0
        self.safeguard_holds = 0
        self.history: list[DivisionDecision] = []

    @property
    def shares(self) -> tuple[float, ...]:
        """Current work shares ``(cpu, card 0, ...)``."""
        return (self.r, *((1.0 - self.r) * q for q in self.fractions))

    def _candidate(self, tc: float, tg: float) -> float:
        cfg = self.config
        if tc > tg:
            return clamp(self.r - cfg.division_step, cfg.min_cpu_ratio, cfg.max_cpu_ratio)
        if tc < tg:
            return clamp(self.r + cfg.division_step, cfg.min_cpu_ratio, cfg.max_cpu_ratio)
        return self.r

    def _would_oscillate(self, candidate: float, tc: float, tg: float) -> bool:
        """Linear extrapolation check from the module docstring.

        Extrapolation needs a measured per-unit time for the side gaining
        work, so the check is skipped only when the *current* ratio gives
        that side zero work (probing up from r = 0, or down from r = 1).
        A candidate at a boundary is fine: its predicted time is zero.
        """
        r = self.r
        if tc < tg:
            # Moving work toward the CPU; needs tc's per-unit rate.  A
            # vanishing share carries no usable estimate (and dividing by
            # it would overflow), so probe unconditionally.
            if r <= _MIN_SIGNAL_RATIO:
                return False
            tc_pred = (candidate / r) * tc
            tg_pred = ((1.0 - candidate) / (1.0 - r)) * tg
            # Oscillation if the CPU would become the straggler.
            return tc_pred > tg_pred
        # Moving work toward the GPU; needs tg's per-unit rate.
        if 1.0 - r <= _MIN_SIGNAL_RATIO:
            return False
        tc_pred = (candidate / r) * tc if r > _MIN_SIGNAL_RATIO else 0.0
        tg_pred = ((1.0 - candidate) / (1.0 - r)) * tg
        return tg_pred > tc_pred

    def _split(self, times: tuple[float, ...]) -> tuple[bool, bool]:
        """Move one step of card fraction from the slowest card to the
        fastest; returns ``(moved, held)``.

        The cards' times scale with the same ``1 - r``, so the §V-B
        extrapolation compares them on fractions alone.
        """
        q = self.fractions
        # A card with no work only receives: its time counts as zero.
        t = [times[i] if q[i] > _MIN_SIGNAL_RATIO else 0.0 for i in range(len(q))]
        donor = max(range(len(q)), key=t.__getitem__)
        receiver = min(range(len(q)), key=t.__getitem__)
        if t[donor] == t[receiver]:
            return False, False
        step = min(self.config.division_step, q[donor])
        if self.config.oscillation_safeguard and q[receiver] > _MIN_SIGNAL_RATIO:
            donor_pred = ((q[donor] - step) / q[donor]) * t[donor]
            receiver_pred = ((q[receiver] + step) / q[receiver]) * t[receiver]
            if receiver_pred > donor_pred:
                return False, True
        q[donor] -= step
        q[receiver] += step
        return True, False

    def update(self, tc: float, tg: float, *tgs: float) -> DivisionDecision:
        """Consume one iteration's CPU time and every card's time (card 0
        first) and decide the next division."""
        if len(tgs) + 1 != len(self.fractions):
            raise PartitionError(
                f"expected {len(self.fractions)} card times, got {len(tgs) + 1}"
            )
        times = (tg, *tgs)
        if tgs:
            tg = max(times)
        if tc < 0.0 or min(times) < 0.0:
            raise PartitionError("execution times must be non-negative")
        self.iterations += 1
        candidate = self._candidate(tc, tg)
        held = False
        if candidate != self.r and self.config.oscillation_safeguard:
            if self._would_oscillate(candidate, tc, tg):
                candidate = self.r
                held = True
                self.safeguard_holds += 1
        moved = candidate != self.r
        self.r = candidate
        if tgs:
            split_moved, split_held = self._split(times)
            moved = moved or split_moved
            held = held or split_held
            self.safeguard_holds += split_held
        decision = DivisionDecision(
            r_next=self.r, moved=moved, held_by_safeguard=held, tc=tc, tg=tg
        )
        self.history.append(decision)
        return decision

    @property
    def converged(self) -> bool:
        """True once the divider has settled (held or stationary twice)."""
        if len(self.history) < 2:
            return False
        last_two = self.history[-2:]
        return all(not d.moved for d in last_two)
