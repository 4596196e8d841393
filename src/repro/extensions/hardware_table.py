"""Hardware tables: the node catalog and the §VI fixed-point sketch.

Two related things live here:

1. **The hardware catalog** (:data:`HARDWARE_TABLE`) — named, validated
   :class:`HardwareEntry` node classes a fleet simulation mixes: the
   paper's calibrated testbed, a DVFS-capable variant of the same card,
   and two synthetic 2012-era classes (a low-power efficiency node and a
   high-performance node).  :func:`validate` / :func:`validate_all`
   check every entry's frequency ladders and power figures before a
   fleet instantiates thousands of copies — one bad entry would
   otherwise become a silent fleet-wide error.

2. **The §VI on-chip sketch** — an 8-bit fixed-point weight table.

The paper argues the frequency-scaling tier is cheap enough to implement
on-chip: a 36-byte table (6 x 6 pairs x 8 bits), shift-add multipliers for
the fixed-coefficient loss blend, and the claim that "because the loss
factor value is between 0 and 1, 8-bit precision is accurate enough for
the purpose of picking up the largest weight".

This module implements that sketch faithfully:

- weights live in unsigned ``bits``-bit integers (Q0.8 by default:
  255 == 1.0);
- the Eq. 4 multiplicative update happens in fixed point with
  round-to-nearest;
- renormalization shifts the whole table left whenever the maximum drops
  below half scale (a barrel shift in hardware), which preserves argmax;
- the loss inputs are themselves quantized to the same precision, since a
  hardware implementation would compute them with the sketched shift-add
  units.

:class:`QuantizedWmaScaler` drops this table into Algorithm 1 so the
paper's accuracy claim becomes testable.  Measured finding (pinned by the
tests): the claim holds *with a blur*.  The per-update factor
``1 - (1 - beta) * loss`` compresses loss gaps by (1 - beta) = 0.8, so two
levels whose losses differ by less than ~1.25 quanta collapse to the same
8-bit factor and become indistinguishable.  With the paper's
``alpha_core = 0.15`` the core losses are well separated and the
fixed-point controller agrees with the float one within one level; with
``alpha_mem = 0.02`` the memory-side energy losses are tiny and the blur
reaches two levels — always erring toward the *faster* clock (ties
resolve to the lowest index), i.e. trading a little energy for
performance, consistent with the paper's priorities.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from repro.core.config import GreenGpuConfig
from repro.core.loss import loss_vector, total_loss_matrix
from repro.errors import ConfigError
from repro.sim.bus import PcieBus
from repro.sim.calibration import default_testbed_config
from repro.sim.cpu import CpuSpec
from repro.sim.frequency import FrequencyLadder
from repro.sim.gpu import GpuSpec
from repro.sim.perf import RooflineModel
from repro.sim.platform import TestbedConfig
from repro.sim.power import CpuPowerModel, GpuPowerModel
from repro.units import ghz, mhz


# -- the hardware catalog ------------------------------------------------------


@dataclass(frozen=True)
class HardwareEntry:
    """One node class a fleet can instantiate.

    ``factory`` builds a fresh :class:`TestbedConfig` per call (specs are
    frozen but devices built from them are stateful, so sharing a config
    between nodes is fine while sharing devices is not).
    """

    key: str
    description: str
    factory: Callable[[], TestbedConfig]

    def make_config(self, sample_log_cap: int | None = None) -> TestbedConfig:
        """A fresh testbed config (optionally bounding meter sample logs)."""
        config = self.factory()
        if sample_log_cap is not None:
            config = replace(config, sample_log_cap=sample_log_cap)
        return config


def wall_power_bound_w(config: TestbedConfig, core_level: int,
                       mem_level: int) -> float:
    """Worst-case node wall draw with every card held at a ladder pair.

    Upper bound used to translate a power cap into a frequency-ladder
    ceiling: every GPU card fully busy at ``(core_level, mem_level)``,
    clipped into that card's ladders as the controller clips its
    ceiling, the CPU fully busy at its peak P-state, every meter's
    overhead and conversion loss included.  Every term in the power
    models is monotone in utilization and frequency, so capping the
    ladder at a pair whose bound fits the cap guarantees the measured
    wall power fits too.
    """
    cards_w = 0.0
    for gpu in (config.gpu, *config.extra_gpus):
        ci = min(core_level, len(gpu.core_ladder) - 1)
        cj = min(mem_level, len(gpu.mem_ladder) - 1)
        fc = gpu.core_ladder[ci] / gpu.core_ladder.peak
        fm = gpu.mem_ladder[cj] / gpu.mem_ladder.peak
        gpu_w = gpu.power.power_unchecked(fc, fm, 1.0, 1.0)
        cards_w += (gpu_w + config.meter2_overhead_w) / config.meter2_efficiency
    cpu_w = config.cpu.power.power_unchecked(1.0, 1.0)
    return cards_w + (cpu_w + config.meter1_overhead_w) / config.meter1_efficiency


def peak_wall_power_w(config: TestbedConfig) -> float:
    """Worst-case wall draw with every clock at its peak."""
    return wall_power_bound_w(config, 0, 0)


def floor_wall_power_w(config: TestbedConfig) -> float:
    """Worst-case wall draw with every card pinned to its ladder floors.

    This is the least power a cap can usefully demand of a node: below
    it, no frequency ceiling can honour the cap while the node works.
    """
    gpus = (config.gpu, *config.extra_gpus)
    return wall_power_bound_w(config, max(len(g.core_ladder) for g in gpus) - 1,
                              max(len(g.mem_ladder) for g in gpus) - 1)


def _paper_testbed() -> TestbedConfig:
    """The calibrated 8800 GTX + Phenom II node (the paper's testbed)."""
    return default_testbed_config()


def _paper_testbed_dvfs() -> TestbedConfig:
    """Same card, but voltage-and-frequency scaling (§VII-C expectation)."""
    from repro.extensions.gpu_dvfs import DvfsGpuPowerModel

    config = default_testbed_config()
    base = config.gpu.power
    return replace(config, gpu=replace(config.gpu, power=DvfsGpuPowerModel(
        static_w=base.static_w,
        clock_core_w=base.clock_core_w,
        clock_mem_w=base.clock_mem_w,
        active_core_w=base.active_core_w,
        active_mem_w=base.active_mem_w,
        v_floor_ratio=0.80,
    )))


def _efficiency_node() -> TestbedConfig:
    """Synthetic low-power node: small card, small CPU, lean PSU.

    Roughly a GeForce 9600-GT-class card on a 45 W dual-core — a third
    of the paper testbed's wall draw at a quarter of its throughput, so
    its *marginal* perf/W headroom differs sharply from the big nodes'.
    """
    gpu = GpuSpec(
        name="Synthetic 9600 GT class",
        core_ladder=FrequencyLadder.equally_spaced(mhz(325), mhz(650), 6),
        mem_ladder=FrequencyLadder.equally_spaced(mhz(450), mhz(900), 6),
        peak_compute_rate=208.0e9,
        peak_bandwidth=57.6e9,
        power=GpuPowerModel(static_w=22.0, clock_core_w=12.0,
                            clock_mem_w=13.0, active_core_w=9.0,
                            active_mem_w=5.0),
        roofline=RooflineModel(4.0),
        launch_overhead_s=1.0e-4,
    )
    cpu = CpuSpec(
        name="Synthetic 45 W dual-core",
        ladder=FrequencyLadder([ghz(v) for v in (2.4, 1.8, 1.2)]),
        cores=2,
        peak_compute_rate=19.2e9,
        host_bandwidth=8.0e9,
        power=CpuPowerModel(static_w=8.0, active_w=22.0, v_floor_ratio=0.78,
                            f_floor_ratio=1.2 / 2.4),
        roofline=RooflineModel(2.0),
    )
    return TestbedConfig(
        gpu=gpu, cpu=cpu, bus=PcieBus(bandwidth=3.0e9, latency_s=10.0e-6),
        meter1_overhead_w=35.0, meter1_efficiency=0.84,
        meter2_overhead_w=4.0, meter2_efficiency=0.82,
    )


def _highperf_node() -> TestbedConfig:
    """Synthetic high-performance node: Fermi-class card, quad-core host.

    Twice the paper testbed's throughput at roughly twice the wall
    draw — the fleet's best absolute performer but with a wide power
    swing, so it is the node an efficiency-weighted allocator throttles
    first when the datacenter budget tightens.
    """
    gpu = GpuSpec(
        name="Synthetic GTX 480 class",
        core_ladder=FrequencyLadder.equally_spaced(mhz(350), mhz(700), 6),
        mem_ladder=FrequencyLadder.equally_spaced(mhz(924), mhz(1848), 6),
        peak_compute_rate=1344.0e9,
        peak_bandwidth=177.4e9,
        power=GpuPowerModel(static_w=90.0, clock_core_w=48.0,
                            clock_mem_w=42.0, active_core_w=45.0,
                            active_mem_w=25.0),
        roofline=RooflineModel(4.0),
        launch_overhead_s=0.8e-4,
    )
    cpu = CpuSpec(
        name="Synthetic 95 W quad-core",
        ladder=FrequencyLadder([ghz(v) for v in (3.2, 2.4, 1.6, 0.8)]),
        cores=4,
        peak_compute_rate=51.2e9,
        host_bandwidth=12.8e9,
        power=CpuPowerModel(static_w=20.0, active_w=55.0, v_floor_ratio=0.72,
                            f_floor_ratio=0.8 / 3.2),
        roofline=RooflineModel(2.0),
    )
    return TestbedConfig(
        gpu=gpu, cpu=cpu, bus=PcieBus(bandwidth=6.0e9, latency_s=8.0e-6),
        meter1_overhead_w=70.0, meter1_efficiency=0.82,
        meter2_overhead_w=6.0, meter2_efficiency=0.80,
    )


#: Every node class a fleet can mix, keyed by its catalog name.
HARDWARE_TABLE: dict[str, HardwareEntry] = {
    entry.key: entry
    for entry in (
        HardwareEntry(
            key="paper-8800gtx",
            description="Calibrated paper testbed: 8800 GTX + Phenom II X2",
            factory=_paper_testbed,
        ),
        HardwareEntry(
            key="paper-8800gtx-dvfs",
            description="Paper testbed with a DVFS-capable GPU power model",
            factory=_paper_testbed_dvfs,
        ),
        HardwareEntry(
            key="efficiency-node",
            description="Low-power 9600-GT-class node (lean PSU, 45 W host)",
            factory=_efficiency_node,
        ),
        HardwareEntry(
            key="highperf-node",
            description="Fermi-class high-performance node (quad-core host)",
            factory=_highperf_node,
        ),
    )
}


def hardware_keys() -> tuple[str, ...]:
    """Catalog keys, in table order."""
    return tuple(HARDWARE_TABLE)


def hardware_entry(key: str) -> HardwareEntry:
    """Look up one catalog entry by key."""
    try:
        return HARDWARE_TABLE[key]
    except KeyError:
        raise ConfigError(
            f"unknown hardware entry {key!r}; choose from {sorted(HARDWARE_TABLE)}"
        ) from None


#: Sanity band for a single node's wall draw: anything outside almost
#: certainly mixed up units (kW vs W, MHz vs Hz).
_WALL_POWER_BAND_W = (20.0, 3000.0)


def _check_ladder(problems: list[str], label: str,
                  ladder: FrequencyLadder) -> None:
    levels = ladder.levels
    if any(f <= 0.0 for f in levels):
        problems.append(f"{label}: non-positive frequency level")
    if any(a <= b for a, b in zip(levels, levels[1:])):
        problems.append(f"{label}: levels not strictly descending")
    if levels and not 1.0e6 <= levels[0] <= 1.0e10:
        problems.append(
            f"{label}: peak {levels[0]:g} Hz outside the 1 MHz..10 GHz "
            "band (Hz/MHz mixup?)"
        )


def validate(entry: HardwareEntry) -> list[str]:
    """Validate one catalog entry; returns a list of problems (empty = ok).

    Checks the frequency ladders (strictly positive, strictly
    descending, plausible units) and the power figures for unit
    consistency: non-negative coefficients, idle strictly below peak,
    monotone wall-power bounds, and node wall draw inside a sane band.
    """
    problems: list[str] = []
    try:
        config = entry.make_config()
    except Exception as exc:  # a broken factory is itself the finding
        return [f"{entry.key}: factory failed: {exc!r}"]

    gpu, cpu = config.gpu, config.cpu
    _check_ladder(problems, f"{entry.key}: gpu core ladder", gpu.core_ladder)
    _check_ladder(problems, f"{entry.key}: gpu mem ladder", gpu.mem_ladder)
    _check_ladder(problems, f"{entry.key}: cpu ladder", cpu.ladder)

    for name, value in (
        ("gpu static_w", gpu.power.static_w),
        ("gpu clock_core_w", gpu.power.clock_core_w),
        ("gpu clock_mem_w", gpu.power.clock_mem_w),
        ("gpu active_core_w", gpu.power.active_core_w),
        ("gpu active_mem_w", gpu.power.active_mem_w),
        ("cpu static_w", cpu.power.static_w),
        ("cpu active_w", cpu.power.active_w),
        ("meter1_overhead_w", config.meter1_overhead_w),
        ("meter2_overhead_w", config.meter2_overhead_w),
    ):
        if value < 0.0:
            problems.append(f"{entry.key}: {name} is negative ({value:g})")
    for name, value in (("meter1_efficiency", config.meter1_efficiency),
                        ("meter2_efficiency", config.meter2_efficiency)):
        if not 0.0 < value <= 1.0:
            problems.append(f"{entry.key}: {name} must be in (0, 1], "
                            f"got {value:g}")

    fc_floor = gpu.core_ladder.floor / gpu.core_ladder.peak
    fm_floor = gpu.mem_ladder.floor / gpu.mem_ladder.peak
    if gpu.power.idle_power(fc_floor, fm_floor) >= gpu.power.peak_power:
        problems.append(f"{entry.key}: gpu idle power >= peak power")
    if cpu.power.idle_power(cpu.power.f_floor_ratio) >= cpu.power.peak_power:
        problems.append(f"{entry.key}: cpu idle power >= peak power")

    if not problems:
        floor_w = floor_wall_power_w(config)
        peak_w = peak_wall_power_w(config)
        if not floor_w < peak_w:
            problems.append(
                f"{entry.key}: wall floor {floor_w:.1f} W not below wall "
                f"peak {peak_w:.1f} W (no cap headroom)"
            )
        lo, hi = _WALL_POWER_BAND_W
        if not lo <= peak_w <= hi:
            problems.append(
                f"{entry.key}: peak wall draw {peak_w:.1f} W outside the "
                f"[{lo:g}, {hi:g}] W sanity band (unit mixup?)"
            )
    return problems


def validate_all(table: dict[str, HardwareEntry] | None = None) -> None:
    """Validate every catalog entry; raises :class:`ConfigError` listing
    all problems found (fleet startup calls this before mixing nodes)."""
    problems: list[str] = []
    for entry in (table or HARDWARE_TABLE).values():
        problems.extend(validate(entry))
    if problems:
        raise ConfigError(
            "hardware table validation failed:\n  " + "\n  ".join(problems)
        )


# -- the §VI on-chip fixed-point sketch ---------------------------------------


class QuantizedWeightTable:
    """Fixed-point weight table with the Eq. 4 update (see module docs)."""

    def __init__(self, n_core_levels: int, n_mem_levels: int, bits: int = 8):
        if n_core_levels < 1 or n_mem_levels < 1:
            raise ConfigError("need at least one level per component")
        if not 2 <= bits <= 16:
            raise ConfigError("bits must be in [2, 16]")
        self.bits = bits
        self.scale = (1 << bits) - 1
        self._weights = np.full((n_core_levels, n_mem_levels), self.scale, dtype=np.int64)
        self.updates = 0
        self.renormalizations = 0

    @property
    def shape(self) -> tuple[int, int]:
        return self._weights.shape  # type: ignore[return-value]

    @property
    def weights(self) -> np.ndarray:
        """Current integer weights (copy)."""
        return self._weights.copy()

    @property
    def storage_bytes(self) -> int:
        """Table storage in bytes (the paper's 36-byte figure for 6x6x8)."""
        return self._weights.size * self.bits // 8

    def _quantize(self, values: np.ndarray) -> np.ndarray:
        """Round a [0, 1] array to ``bits``-bit fixed point integers."""
        return np.rint(np.clip(values, 0.0, 1.0) * self.scale).astype(np.int64)

    def update(self, total_loss: np.ndarray, beta: float) -> None:
        """Eq. 4 in fixed point: w <- w * (1 - (1-beta) * loss).

        The multiplicative factor is quantized once per entry, then the
        product is computed exactly in integers and rounded back — the
        behaviour of a fixed-point multiplier with round-to-nearest.
        """
        if not 0.0 < beta < 1.0:
            raise ConfigError(f"beta must be in (0, 1), got {beta}")
        loss = np.asarray(total_loss, dtype=float)
        if loss.shape != self._weights.shape:
            raise ConfigError(
                f"loss shape {loss.shape} != table shape {self._weights.shape}"
            )
        factor_q = self._quantize(1.0 - (1.0 - beta) * loss)
        product = self._weights * factor_q  # exact integer product
        self._weights = (product + self.scale // 2) // self.scale
        self.updates += 1
        peak = int(self._weights.max())
        if peak == 0:
            # Total collapse (possible after extreme quantized losses):
            # reset to uniform, as a hardware saturating table would.
            self._weights[:] = self.scale
            self.renormalizations += 1
        elif peak <= self.scale // 2:
            shift = 0
            while (peak << (shift + 1)) <= self.scale:
                shift += 1
            if shift:
                self._weights <<= shift
                self.renormalizations += 1

    def best_pair(self) -> tuple[int, int]:
        """Argmax pair; ties resolve to the fastest (lowest indices)."""
        flat = int(np.argmax(self._weights))
        return np.unravel_index(flat, self._weights.shape)  # type: ignore[return-value]

    def reset(self) -> None:
        self._weights[:] = self.scale
        self.updates = 0
        self.renormalizations = 0


@dataclass(frozen=True, slots=True)
class QuantizedDecision:
    core_level: int
    mem_level: int
    f_core: float
    f_mem: float


class QuantizedWmaScaler:
    """Algorithm 1 running on the fixed-point table (hardware analogue)."""

    def __init__(
        self,
        core_ladder: FrequencyLadder,
        mem_ladder: FrequencyLadder,
        config: GreenGpuConfig | None = None,
        bits: int = 8,
    ):
        self.config = config or GreenGpuConfig()
        self.core_ladder = core_ladder
        self.mem_ladder = mem_ladder
        self._umean_core = np.array(
            [core_ladder.umean(i) for i in range(len(core_ladder))]
        )
        self._umean_mem = np.array(
            [mem_ladder.umean(j) for j in range(len(mem_ladder))]
        )
        self.table = QuantizedWeightTable(len(core_ladder), len(mem_ladder), bits=bits)
        self._loss_scale = (1 << bits) - 1

    def _quantize_loss(self, loss: np.ndarray) -> np.ndarray:
        """Losses as the shift-add hardware would compute them."""
        return np.rint(loss * self._loss_scale) / self._loss_scale

    def step(self, u_core: float, u_mem: float) -> QuantizedDecision:
        cfg = self.config
        lc = self._quantize_loss(loss_vector(u_core, self._umean_core, cfg.alpha_core))
        lm = self._quantize_loss(loss_vector(u_mem, self._umean_mem, cfg.alpha_mem))
        total = self._quantize_loss(total_loss_matrix(lc, lm, cfg.phi))
        self.table.update(total, cfg.beta)
        i, j = self.table.best_pair()
        return QuantizedDecision(
            core_level=i, mem_level=j,
            f_core=self.core_ladder[i], f_mem=self.mem_ladder[j],
        )
