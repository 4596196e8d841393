"""Discrete frequency ladders for DVFS-capable simulated devices.

The paper's testbed exposes six equally spaced frequency levels for the
GPU core and memory domains (e.g. 900/820/740/660/580/500 MHz for GPU
memory) and four P-states for the AMD Phenom II CPU (2.8/2.1/1.3/0.8 GHz).
:class:`FrequencyLadder` models such a set of discrete operating points.

Levels are stored descending (index 0 = peak) to match the paper's
convention that level 0 / "highest level" is the best-performance point.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.errors import FrequencyError


class FrequencyLadder:
    """An immutable, descending-sorted set of discrete frequencies in Hz.

    Parameters
    ----------
    levels_hz:
        The available frequencies in Hz.  Duplicates are rejected; order
        does not matter (the ladder sorts descending).

    Examples
    --------
    >>> from repro.units import mhz
    >>> ladder = FrequencyLadder([mhz(v) for v in (500, 580, 660, 740, 820, 900)])
    >>> ladder.peak == mhz(900)
    True
    >>> ladder.index_of(mhz(740))
    2
    """

    __slots__ = ("_levels",)

    def __init__(self, levels_hz: Iterable[float]):
        levels = sorted(float(f) for f in levels_hz)
        if not levels:
            raise FrequencyError("a frequency ladder needs at least one level")
        if any(f <= 0.0 for f in levels):
            raise FrequencyError("frequencies must be positive")
        for a, b in zip(levels, levels[1:]):
            if a == b:
                raise FrequencyError(f"duplicate frequency level: {a!r}")
        # store descending: index 0 is the peak frequency
        self._levels: tuple[float, ...] = tuple(reversed(levels))

    def cache_state(self) -> tuple[float, ...]:
        """Canonical state for content-addressed cache keys (repro.cache)."""
        return self._levels

    # -- construction helpers -------------------------------------------------

    @classmethod
    def equally_spaced(cls, lo_hz: float, hi_hz: float, n: int) -> "FrequencyLadder":
        """Build ``n`` equally spaced levels spanning [lo_hz, hi_hz].

        Mirrors the paper's level selection: "six frequency levels with
        equal distance in the dynamic range" (§VI).
        """
        if n < 1:
            raise FrequencyError("need at least one level")
        if n == 1:
            return cls([hi_hz])
        if lo_hz >= hi_hz:
            raise FrequencyError("lo must be strictly below hi")
        step = (hi_hz - lo_hz) / (n - 1)
        return cls([lo_hz + i * step for i in range(n)])

    # -- queries ---------------------------------------------------------------

    @property
    def levels(self) -> tuple[float, ...]:
        """All levels, descending (index 0 = peak)."""
        return self._levels

    @property
    def peak(self) -> float:
        """Highest available frequency (Hz)."""
        return self._levels[0]

    @property
    def floor(self) -> float:
        """Lowest available frequency (Hz)."""
        return self._levels[-1]

    def __len__(self) -> int:
        return len(self._levels)

    def __iter__(self) -> Iterator[float]:
        return iter(self._levels)

    def __contains__(self, hz: float) -> bool:
        return hz in self._levels

    def __getitem__(self, index: int) -> float:
        try:
            return self._levels[index]
        except IndexError:
            raise FrequencyError(
                f"level index {index} out of range for {len(self)} levels"
            ) from None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FrequencyLadder):
            return NotImplemented
        return self._levels == other._levels

    def __hash__(self) -> int:
        return hash(self._levels)

    def __repr__(self) -> str:
        mhz_levels = ", ".join(f"{f / 1e6:g}" for f in self._levels)
        return f"FrequencyLadder([{mhz_levels}] MHz)"

    def index_of(self, hz: float) -> int:
        """Return the level index of an exact frequency value."""
        for i, f in enumerate(self._levels):
            if f == hz:
                return i
        raise FrequencyError(f"{hz!r} Hz is not a level of {self!r}")

    def nearest(self, hz: float) -> float:
        """Return the ladder level closest to ``hz`` (ties go to the faster)."""
        return min(self._levels, key=lambda f: (abs(f - hz), -f))

    def step_down(self, hz: float) -> float:
        """Next lower level, or the floor if already there.

        This is the actuation primitive of the `ondemand` governor's
        downward path ("run at the next lowest frequency").
        """
        i = self.index_of(hz)
        return self._levels[min(i + 1, len(self._levels) - 1)]

    def step_up(self, hz: float) -> float:
        """Next higher level, or the peak if already there."""
        i = self.index_of(hz)
        return self._levels[max(i - 1, 0)]

    def normalized(self, hz: float) -> float:
        """Position of ``hz`` in the ladder span, in [0, 1].

        0 maps to the floor and 1 to the peak.  This is the linear map the
        paper uses to define ``umean`` for each level (Table I discussion):
        peak frequency is "suitable" for 100 % utilization, the lowest for
        0 %, with linear interpolation in between.  With a single level the
        map degenerates and we return 1.0 (that level must serve all
        utilizations).
        """
        if hz not in self:
            raise FrequencyError(f"{hz!r} Hz is not a level of {self!r}")
        if len(self._levels) == 1:
            return 1.0
        return (hz - self.floor) / (self.peak - self.floor)

    def umean(self, level_index: int) -> float:
        """Most-suitable utilization for a level index (paper's ``umean``)."""
        return self.normalized(self[level_index])
