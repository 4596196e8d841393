"""N-way workload division: multiple GPUs plus the CPU.

The paper's runtime already anticipates this ("multiple pthreads are
launched ... one pthread for one GPU", §VI) but only evaluates one GPU.
This module generalizes the tier-1 algorithm to N devices:

- the division state is a share vector ``r`` on the probability simplex
  (one entry per device);
- each iteration, one ``step``-sized slice of work moves from the
  *slowest* device to the *fastest* one — the natural N-way analogue of
  the paper's pairwise rule;
- the oscillation safeguard extrapolates both affected devices' times
  linearly (exactly the §V-B check) and holds when the transfer would
  invert their ordering.

The closed-loop fixed point equalizes finish times across devices, which
minimizes idle/spin energy for the same reasons as the two-device case.
:class:`DeviceTiming` carries one iteration's measured per-device times.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import PartitionError

_MIN_SIGNAL_SHARE = 1e-9


@dataclass(frozen=True, slots=True)
class DeviceTiming:
    """One device's measured execution time for its share."""

    name: str
    seconds: float

    def __post_init__(self) -> None:
        if self.seconds < 0.0:
            raise PartitionError("execution time must be non-negative")


@dataclass(frozen=True, slots=True)
class MultiwayDecision:
    shares: np.ndarray
    donor: int | None
    receiver: int | None
    held_by_safeguard: bool


class MultiwayDivider:
    """Tier-1 division over N devices (see module docstring)."""

    def __init__(
        self,
        device_names: list[str],
        step: float = 0.05,
        initial_shares: list[float] | None = None,
        oscillation_safeguard: bool = True,
    ):
        if len(device_names) < 2:
            raise PartitionError("need at least two devices to divide work")
        if not 0.0 < step <= 0.5:
            raise PartitionError("step must be in (0, 0.5]")
        self.names = list(device_names)
        self.step = step
        self.safeguard = oscillation_safeguard
        n = len(self.names)
        if initial_shares is None:
            shares = np.full(n, 1.0 / n)
        else:
            shares = np.asarray(initial_shares, dtype=float)
            if shares.shape != (n,):
                raise PartitionError("one initial share per device required")
            if np.any(shares < 0.0) or abs(shares.sum() - 1.0) > 1e-9:
                raise PartitionError("shares must be non-negative and sum to 1")
        self._shares = shares
        self.iterations = 0
        self.safeguard_holds = 0
        self.history: list[MultiwayDecision] = []

    @property
    def shares(self) -> np.ndarray:
        """Current work shares (copy), summing to 1."""
        return self._shares.copy()

    @property
    def r(self) -> float:
        """Current share of the first device (the CPU in a controller)."""
        return float(self._shares[0])

    def _predict(self, share_new: float, share_old: float, t_old: float) -> float:
        """Linear §V-B extrapolation of one device's time to a new share."""
        if share_old <= _MIN_SIGNAL_SHARE:
            return 0.0 if share_new <= _MIN_SIGNAL_SHARE else float("inf")
        return (share_new / share_old) * t_old

    def update(self, timings: list[DeviceTiming]) -> MultiwayDecision:
        """Consume one iteration's per-device times; move one step."""
        if len(timings) != len(self.names):
            raise PartitionError(
                f"expected {len(self.names)} timings, got {len(timings)}"
            )
        by_name = {t.name: t.seconds for t in timings}
        if set(by_name) != set(self.names):
            raise PartitionError("timings must name every device exactly once")
        times = np.array([by_name[n] for n in self.names])
        self.iterations += 1

        # Devices with zero share report zero time; they are receivers
        # only (a zero-share device can't be slow at doing nothing).
        donor = int(np.argmax(times))
        active = self._shares > _MIN_SIGNAL_SHARE
        # Fastest device *per unit of remaining headroom*: the one that
        # finished earliest.  Zero-share devices count as instantly done.
        receiver = int(np.argmin(np.where(active, times, 0.0)))
        if receiver == donor or times[donor] == times[receiver]:
            decision = MultiwayDecision(self.shares, None, None, False)
            self.history.append(decision)
            return decision

        moved = min(self.step, self._shares[donor])
        if moved <= 0.0:
            decision = MultiwayDecision(self.shares, None, None, False)
            self.history.append(decision)
            return decision

        held = False
        if self.safeguard and self._shares[donor] > _MIN_SIGNAL_SHARE:
            donor_pred = self._predict(
                self._shares[donor] - moved, self._shares[donor], times[donor]
            )
            receiver_pred = self._predict(
                self._shares[receiver] + moved, self._shares[receiver], times[receiver]
            )
            if (
                np.isfinite(receiver_pred)
                and receiver_pred > donor_pred
            ):
                held = True

        if held:
            self.safeguard_holds += 1
            decision = MultiwayDecision(self.shares, donor, receiver, True)
        else:
            self._shares[donor] -= moved
            self._shares[receiver] += moved
            decision = MultiwayDecision(self.shares, donor, receiver, False)
        self.history.append(decision)
        return decision

    def update_times(self, *seconds: float) -> MultiwayDecision:
        """:meth:`update` from one time per device, in ``names`` order."""
        return self.update([DeviceTiming(name, t) for name, t
                            in zip(self.names, seconds, strict=True)])

    # -- closed-loop helper used by tests and benches ---------------------------

    def drive(self, unit_times: list[float], iterations: int) -> np.ndarray:
        """Closed loop against fixed per-unit device speeds.

        ``unit_times[i]`` is device i's seconds per unit of work; each
        iteration's measured time is share * unit_time.  Returns the final
        share vector.
        """
        if len(unit_times) != len(self.names):
            raise PartitionError("one unit time per device required")
        for _ in range(iterations):
            timings = [
                DeviceTiming(name, self._shares[i] * unit_times[i])
                for i, name in enumerate(self.names)
            ]
            self.update(timings)
        return self.shares

    def imbalance(self, unit_times: list[float]) -> float:
        """max/min finish-time ratio at the current shares (1.0 = perfect)."""
        times = self._shares * np.asarray(unit_times, dtype=float)
        nonzero = times[times > 0.0]
        if nonzero.size == 0:
            raise PartitionError("no device has work")
        return float(nonzero.max() / nonzero.min())
