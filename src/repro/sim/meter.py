"""WattsUp-Pro-style wall-power meters.

The paper measures energy at two boundaries (Fig. 4): *Meter1* sits between
the wall outlet and the desktop box (CPU, motherboard, disk, main memory)
and *Meter2* between the wall and the dedicated ATX supply powering the GPU
card.  We reproduce both boundaries:

- each meter reads one instantaneous power *source* (a callable) plus a
  constant overhead (motherboard/disk for Meter1, PSU loss for Meter2),
  divided by a supply efficiency;
- the exact energy integral is maintained continuously (power is piecewise
  constant between simulator events, so this is exact);
- a WattsUp-style 1 Hz sample log is also kept for trace realism, recording
  the average power over each sampling window like the real instrument.

The sample log is fed in O(1) per integration step regardless of how many
sample windows the step spans (power is constant within a step, so every
interior window averages to the same value).  Call :meth:`finalize` at end
of run to flush the trailing partial window into the log; ``sample_log_cap``
bounds the log on long runs by decimating it (keep every other sample,
double the stride) whenever it fills, like a scope in envelope mode.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.errors import ConfigError, MeterError


class PowerMeter:
    """Energy-integrating wall meter over one power source."""

    def __init__(
        self,
        name: str,
        source: Callable[[], float],
        overhead_w: float = 0.0,
        efficiency: float = 1.0,
        sample_period_s: float = 1.0,
        sample_log_cap: int | None = None,
    ):
        if not callable(source):
            raise ConfigError("a meter's power source must be a callable")
        if overhead_w < 0.0:
            raise ConfigError("overhead must be non-negative")
        if not 0.0 < efficiency <= 1.0:
            raise ConfigError("efficiency must be in (0, 1]")
        if sample_period_s <= 0.0:
            raise ConfigError("sample period must be positive")
        if sample_log_cap is not None and sample_log_cap < 2:
            raise ConfigError("sample_log_cap must be at least 2")
        self.name = name
        self._source = source
        self.overhead_w = float(overhead_w)
        self.efficiency = float(efficiency)
        self.sample_period_s = float(sample_period_s)
        self.sample_log_cap = sample_log_cap
        self.energy_j = 0.0
        self.elapsed_s = 0.0
        self._window_energy = 0.0
        self._window_elapsed = 0.0
        self._window_count = 0
        self.sample_stride = 1
        self.samples: list[float] = []

    def instantaneous_power(self) -> float:
        """Wall power right now, in watts."""
        return (self._source() + self.overhead_w) / self.efficiency

    def accumulate(self, dt: float) -> None:
        """Integrate the current power over ``dt`` seconds.

        The platform calls this *before* devices change state, so the
        piecewise-constant assumption holds exactly.
        """
        if dt < 0.0:
            raise MeterError("dt must be non-negative")
        if dt == 0.0:
            return
        self.accumulate_from(self.instantaneous_power(), dt)

    def accumulate_from(self, p: float, dt: float) -> None:
        """Integrate a precomputed wall power ``p`` over ``dt`` seconds.

        Hot-path entry: the platform evaluates each meter's power once per
        step (from the devices' epoch-cached powers) and hands it in, so
        the meter does no source calls of its own.  The sample log is
        advanced arithmetically — one append per *closed* window, never a
        per-window loop.
        """
        self.energy_j += p * dt
        self.elapsed_s += dt
        period = self.sample_period_s
        # Close the currently open partial window first.
        if self._window_elapsed > 0.0:
            room = period - self._window_elapsed
            if dt < room - 1e-12:
                self._window_energy += p * dt
                self._window_elapsed += dt
                return
            self._window_energy += p * room
            self._window_elapsed += room
            self._log_samples(self._window_energy / self._window_elapsed, 1)
            self._window_energy = 0.0
            self._window_elapsed = 0.0
            dt -= room
        # Whole windows at constant power all log the same average.
        n = int(dt / period)
        rem = dt - n * period
        if rem >= period - 1e-12:
            n += 1
            rem -= period
        if n > 0:
            self._log_samples((p * period) / period, n)
        if rem > 0.0:
            self._window_energy = p * rem
            self._window_elapsed = rem

    def _log_samples(self, value: float, n: int) -> None:
        """Record ``n`` consecutive closed windows that all averaged ``value``."""
        stride = self.sample_stride
        if stride == 1:
            self.samples.extend([value] * n)
        else:
            # Record windows whose index is a multiple of the stride, the
            # same phase ``samples[::2]`` decimation preserves; this counts
            # such indexes in [count, count + n).
            count = self._window_count
            recorded = (count + n - 1) // stride - (count - 1) // stride
            if recorded:
                self.samples.extend([value] * recorded)
        self._window_count += n
        cap = self.sample_log_cap
        if cap is not None:
            while len(self.samples) > cap:
                self.samples[:] = self.samples[::2]
                self.sample_stride *= 2

    def finalize(self) -> None:
        """Flush the trailing partial sample window into the log.

        Without this the last fraction of a run (anything after the final
        whole sampling window) never reaches ``samples`` even though it is
        in the energy integral.  Idempotent; safe to call on a fresh meter.
        """
        if self._window_elapsed > 0.0:
            self._log_samples(self._window_energy / self._window_elapsed, 1)
            self._window_energy = 0.0
            self._window_elapsed = 0.0

    def average_power(self) -> float:
        """Mean wall power over the whole measurement, in watts."""
        if self.elapsed_s == 0.0:
            raise MeterError(f"meter {self.name!r} has not accumulated any time")
        return self.energy_j / self.elapsed_s

    def reset(self) -> None:
        """Zero all integrals and the sample log (new measurement run)."""
        self.energy_j = 0.0
        self.elapsed_s = 0.0
        self._window_energy = 0.0
        self._window_elapsed = 0.0
        self._window_count = 0
        self.sample_stride = 1
        self.samples.clear()
