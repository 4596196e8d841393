"""Batched structure-of-arrays engine: N runs stepped in lockstep.

The scalar engine walks one :class:`~repro.sim.platform.HeteroSystem` at a
time through Python objects; a parameter sweep of N compatible runs pays
the interpreter once per event per run.  This module keeps the *hot* state
of N independent runs — accumulated meter energies, device utilization
integrals, queue heads, clock deadlines — in numpy arrays of shape ``(N,)``
(segment tables are ``(N, S)``) and advances every lane by its own
next-event ``dt`` with one vectorized array op per concern per tick:
power evaluation, meter integration, utilization/queue advance, and the
clock-deadline min-chain.  Lanes are independent, so no cross-lane barrier
is needed: a tick moves lane *i* to lane *i*'s next event.  Every lane
is pinned — its ratio and frequencies never move — so it ticks only its
first iteration and replays the rest (see Replay): a static sweep's
python-level ticks collapse from ``sum(events_i)`` to the longest first
iteration.

Bit-exactness contract
----------------------
Lane *i* of a batch must produce a :class:`RunResult` whose
``result_to_dict`` is **identical** to the scalar ``run_workload`` for the
same request — division-ratio trajectories and every energy integral
included.  Two rules make this hold:

- Elementwise ``+ - * / min max`` on float64 arrays are IEEE-identical to
  the scalar interpreter ops, so the per-tick loop uses only those and
  mirrors the scalar expressions term for term (including association
  order, e.g. the power model's left-to-right sum).
- ``np.power`` is *not* ulp-identical to CPython's ``**`` on this code
  path, so roofline estimates are never vectorized: segment execution
  estimates are computed by the real ``RooflineModel.estimate`` at
  segment-table build, and the tick loop only gathers the precomputed
  ``seconds`` and per-segment wall watts.

Replay
------
A pinned lane repeats one tick sequence every iteration: ``dt``, head
fractions and the wall-watt addends depend only on its segment table,
never on absolute time.  During iteration 0 the loop records the tape of
every lane with more than one iteration — per tick ``dt``, the two meter
addends ``wall * dt``, the two spin addends — and the ticks that stamp
``gpu_done`` / ``cpu_done``.  At the lane's first barrier ``_replay``
runs iterations 1..n-1, one at a time, as a row-wise ``np.cumsum`` over a
``(lanes, ticks + 1)`` array with the carry in column 0, and retires the
lane.  ``cumsum`` adds strictly left to right, so each prefix is the float
the loop's ``x += a`` would hold after that tick; memory stays
O(lanes x ticks per iteration).

The iteration deadline is the one input that moves with absolute time.
An iteration replays only if, on every taped tick, ``it_dl - now > 0``
(the loop's timeout probe would not fire) and ``it_dl - now >= dt`` (the
horizon would not cut the tick), and only if the horizon cut none of
iteration 0's ticks.  Otherwise the lane goes back to the tick loop at
the start of that iteration through ``_begin_iterations_bulk``, and the
loop raises the scalar engine's ``SimulationError`` — or finishes the
iteration — exactly as it would have without replay.

Lanes run only ``TierMode.NONE`` policies: no clock tasks, no divider,
frequencies and ratio where the policy pinned them, and the only per-lane
events are iteration barriers.  A policy with either GreenGPU tier runs
on the scalar engine — tier 2 because its ondemand tick parks while its
decision holds, tier 1 (division-only) because no measured traffic
batches it; re-expressing either here would be another copy of the
controller.

The traffic that reaches this engine is static sweeps: one workload at
many ratios (or pinned levels), tens to hundreds of lanes.  The
mechanisms kept are the ones that traffic pays for: roofline estimates
memoized by exact arguments, donor systems and rate columns shared
between lanes at equal frequency levels, the replay of pinned lanes, a
vectorized iteration restart, and a scalar walk for ticks where one or
two heads complete.  Every other head advance takes one index loop.

The engine only accepts runs that the scalar fast path would execute on a
fresh default testbed with no faults, no controller tiers, no
audit/telemetry instrumentation, and no warmup (see
:mod:`repro.runtime.batch_executor` for the dispatch rules); everything
else runs on the scalar engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.controller import TierMode
from repro.core.policies import Policy
from repro.errors import SimulationError
from repro.faults.health import ControlHealth
from repro.runtime.metrics import IterationMetrics, RunResult
from repro.runtime.partition import split_units
from repro.sim.cpu import CpuDevice
from repro.sim.gpu import GpuDevice
from repro.workloads.base import DemandModelWorkload, Workload

_EPS = 1e-12
_ROLL = 1.0 - 1e-12
_MAX_TICKS = 50_000_000
_EMPTY_IDX = np.empty(0, dtype=np.int64)

# Head kinds in the segment tables / live-head arrays.
_IDLE = -1
_TRANSFER = 0
_KERNEL = 1


@dataclass(slots=True)
class BatchRunRequest:
    """One lane of a batch: the same request shape ``run_workload`` takes."""

    workload: Workload
    policy: Policy
    n_iterations: int | None = None
    options: object | None = None  # ExecutorOptions | None

    def resolved_iterations(self) -> int:
        if self.n_iterations is None:
            return self.workload.default_iterations
        return self.n_iterations


@dataclass(slots=True)
class _Lane:
    """Per-lane cold state: the request and its segment templates."""

    workload: Workload
    policy: Policy
    n_iterations: int
    sync_spin: bool
    iteration_timeout_s: float
    system: object  # donor HeteroSystem: specs, ladders, frequency state
    # Row columns staged by _build_segments for _write_segment_rows:
    # (kinds, durs, ests, ucs, ums, cests).
    row_cache: tuple = ()

    @property
    def ratio(self) -> float:
        """Clone of ``GreenGpuController.ratio`` for a pinned policy."""
        r = self.policy.ratio
        return r if r is not None else 0.0


class _LaneDonor:
    """Just the donor state a batch lane needs: devices + bus + config.

    A full ``HeteroSystem`` also assembles a clock and two sampled power
    meters, all of which the lockstep engine re-expresses as arrays; a
    lane only ever reads the devices' specs/frequency state, the bus,
    and the config constants, so skipping the rest roughly halves lane
    setup of a 256-lane sweep.
    """

    __slots__ = ("gpu", "cpu", "bus", "config")

    def __init__(self, config) -> None:
        self.gpu = GpuDevice(config.gpu)
        self.cpu = CpuDevice(config.cpu)
        self.bus = config.bus
        self.config = config


def _make_lane(req: BatchRunRequest, testbed_config,
               donor_cache: dict) -> _Lane:
    from repro.runtime.executor import ExecutorOptions

    options = req.options or ExecutorOptions()
    # Specs and the testbed config are immutable value objects, so one
    # shared config serves every donor; only device state is per-lane.
    # With no clock tasks the donor is read-only after
    # apply_initial_state, and the applied state is a pure function of
    # the policy's pinned ladder levels — so lanes with equal levels
    # share one donor.  A pure-ratio sweep builds a single donor for the
    # whole batch.
    donor_key = (req.policy.gpu_core_level, req.policy.gpu_mem_level,
                 req.policy.cpu_level)
    system = donor_cache.get(donor_key)
    if system is None:
        system = _LaneDonor(testbed_config)
        req.policy.apply_initial_state(system)
        donor_cache[donor_key] = system
    return _Lane(
        workload=req.workload,
        policy=req.policy,
        n_iterations=req.resolved_iterations(),
        sync_spin=options.sync_spin,
        iteration_timeout_s=options.iteration_timeout_s,
        system=system,
    )


class _BatchEngine:
    """SoA state plus the lockstep tick loop over all lanes."""

    def __init__(self, requests: list[BatchRunRequest]):
        if not requests:
            raise SimulationError("empty batch")
        from repro.sim.calibration import default_testbed_config

        shared_config = default_testbed_config()
        donor_cache: dict = {}
        self.lanes = [
            _make_lane(r, shared_config, donor_cache) for r in requests
        ]
        L = len(self.lanes)
        donor = self.lanes[0].system
        # All lanes run on the default testbed (dispatch guarantees it),
        # so the meter and power-model constants are batch-wide scalars.
        # These config fields are exactly what make_testbed hands the two
        # PowerMeters, so the meter arithmetic below matches the scalar
        # engine's meters bit for bit.
        self.OVH1 = shared_config.meter1_overhead_w
        self.EFF1 = shared_config.meter1_efficiency
        self.OVH2 = shared_config.meter2_overhead_w
        self.EFF2 = shared_config.meter2_efficiency
        gp = donor.gpu.spec.power
        self.A_CORE = gp.active_core_w
        self.A_MEM = gp.active_mem_w
        # Exact-args roofline memo shared by every lane: estimate() is a
        # pure function of (exponent, demands, rates), so a hit returns
        # the bitwise-identical triple the scalar engine would compute.
        # Parameter grids repeat demand tuples heavily (same workload at
        # many ratios/levels), making this the dominant setup saving.
        self._est_memo: dict[tuple, tuple[float, float, float]] = {}

        f64 = lambda: np.zeros(L, dtype=np.float64)  # noqa: E731
        self.now = f64()
        self.mc_e = f64()  # meter1 (CPU-side wall) energy
        self.mg_e = f64()  # meter2 (GPU-side wall) energy
        self.c_spin_s = f64()
        self.c_spin_e = f64()
        # Frequency-derived per-lane scalars (set once from the donor).
        self.g_fcr = f64()
        self.g_fmr = f64()
        self.g_base = f64()  # gpu power at zero utilization
        self.cpu_busy_w = f64()
        self.cpu_idle_w = f64()
        # Wall (meter-side) watts, precomputed per lane and segment: the
        # meter expression ((device_w + OVH) / EFF) over a head's lifetime
        # uses the same operand floats every tick, so folding it once is
        # bitwise the per-tick arithmetic.
        self.cpu_busy_wall = f64()
        self.cpu_idle_wall = f64()
        self.g_wall = f64()  # wall watts of the current gpu head
        self.g_wall_idle = f64()
        # Live heads.
        self.g_kind = np.full(L, _IDLE, dtype=np.int8)
        self.g_rem = f64()
        self.g_est = f64()
        self.g_frac = f64()
        self.c_kind = np.full(L, _IDLE, dtype=np.int8)
        self.c_est = f64()
        self.c_frac = f64()
        self.it_timeout = np.array(
            [ln.iteration_timeout_s for ln in self.lanes]
        )
        # Executor state.
        self.t0_it = f64()
        self.e0_cpu = f64()
        self.e0_gpu = f64()
        self.e0_tot = f64()
        self.gpu_done = np.full(L, np.nan)
        self.cpu_done = np.full(L, np.nan)
        self.it_dl = f64()
        self.r_it = f64()
        self.cpu_units = f64()
        self.gpu_units = f64()
        self.iter_i = np.zeros(L, dtype=np.int64)
        self.n_iter = np.array([ln.n_iterations for ln in self.lanes])
        # Per-iteration metric columns, scattered at each barrier and
        # materialized as IterationMetrics once at result assembly —
        # boundary ticks then run no per-lane Python for static lanes.
        mi = int(self.n_iter.max())
        self.it_r = np.zeros((L, mi))
        self.it_tc = np.zeros((L, mi))
        self.it_tg = np.zeros((L, mi))
        self.it_wall = np.zeros((L, mi))
        self.it_e = np.zeros((L, mi))
        self.it_ge = np.zeros((L, mi))
        self.it_ce = np.zeros((L, mi))
        self._it_lists: tuple | None = None
        self.spin = np.zeros(L, dtype=bool)
        self.act = np.ones(L, dtype=bool)
        self.sync_spin = np.array([ln.sync_spin for ln in self.lanes])
        # Completion stamps still pending this iteration (replaces per-tick
        # isnan() probes on gpu_done/cpu_done).  Pending lanes are always
        # active: the stamp lands before the boundary that deactivates.
        self.g_pending = np.zeros(L, dtype=bool)
        self.c_pending = np.zeros(L, dtype=bool)
        # act[] only changes inside _finish_boundaries, so the "every lane
        # still active" fast path is a flag, not a per-tick reduction.
        self._all_act = True

        # Lanes sharing a donor share its frequency state, so their
        # rate scalars are the same floats — copy instead of recompute.
        _rate_cols = (self.g_fcr, self.g_fmr, self.g_base, self.g_wall_idle,
                      self.cpu_busy_w, self.cpu_idle_w,
                      self.cpu_busy_wall, self.cpu_idle_wall)
        _rate_seen: dict[int, int] = {}
        for i, lane in enumerate(self.lanes):
            j = _rate_seen.setdefault(id(lane.system), i)
            if j == i:
                self._set_gpu_rates(i)
                self._set_cpu_rates(i)
            else:
                for col in _rate_cols:
                    col[i] = col[j]
        self.g_wall[:] = self.g_wall_idle

        # Segment tables, built once: the ratio is pinned and
        # DemandModelWorkload queues are iteration-invariant, so setup is:
        # pick splits, build templates, size the arrays, one bulk begin.
        self.g_nseg = np.zeros(L, dtype=np.int64)
        self.c_nseg = np.zeros(L, dtype=np.int64)
        for i, lane in enumerate(self.lanes):
            r = lane.ratio
            cpu_units, gpu_units = split_units(1.0, r)
            self.r_it[i] = r
            self.cpu_units[i] = cpu_units
            self.gpu_units[i] = gpu_units
            self._build_segments(i, cpu_units, gpu_units)
        self._alloc_segment_arrays()
        self.g_ptr = np.zeros(L, dtype=np.int64)
        self.c_ptr = np.zeros(L, dtype=np.int64)
        for i in range(L):
            self._write_segment_rows(i)
        # Iteration-0 tapes (see "Replay" in the module docstring).
        # Every lane starts iteration 0 on tick 0, so tape row t is tick t
        # of each lane still in its first iteration; the five quantities
        # per row are dt and the now/meter/spin addends.
        self.taping = self.n_iter > 1
        self._taping = bool(self.taping.any())
        # Ticks into iteration 0 when gpu_done / cpu_done were stamped.
        self.g_stamp = np.zeros(L, dtype=np.int64)
        self.c_stamp = np.zeros(L, dtype=np.int64)
        self._tape = np.zeros((int((self.g_nseg + self.c_nseg).max()) + 2,
                               5, L))
        self._tape_len = 0
        self._begin_iterations_bulk(np.arange(L))

    def _estimate(self, roofline, flops: float, bytes_: float, rate: float,
                  bandwidth: float, stall_s: float) -> tuple[float, float, float]:
        """Memoized ``roofline.estimate`` → ``(seconds, u_core, u_mem)``."""
        key = (roofline.overlap_exponent, flops, bytes_, rate, bandwidth,
               stall_s)
        hit = self._est_memo.get(key)
        if hit is None:
            est = roofline.estimate(flops, bytes_, rate, bandwidth, stall_s)
            hit = (est.seconds, est.u_core, est.u_mem)
            self._est_memo[key] = hit
        return hit

    def _estimate_phases(self, roofline, phases: list, rate: float,
                         bandwidth: float) -> list[tuple[float, float, float]]:
        """``_estimate`` for each phase of one queue at fixed rates.

        gpu_phases interleaves a handful of distinct PhaseDemand objects
        many times over, so a bare-id dict resolves the repeats without a
        key tuple per segment.  It lives only for this call, while the
        caller holds ``phases``, so no id can be reused under it.
        """
        local: dict[int, tuple[float, float, float]] = {}
        out = []
        for phase in phases:
            est3 = local.get(id(phase))
            if est3 is None:
                est3 = local[id(phase)] = self._estimate(
                    roofline, phase.flops, phase.bytes, rate, bandwidth,
                    phase.stall_s,
                )
            out.append(est3)
        return out

    # -- segment tables -------------------------------------------------------

    def _build_segments(self, i: int, cpu_units: float, gpu_units: float) -> None:
        lane = self.lanes[i]
        system = lane.system
        workload = lane.workload
        gpu = system.gpu
        cpu = system.cpu
        # Kernel segments sit in one contiguous block between the leading
        # transfers and the trailing d2h, so the row columns assemble from
        # constant prefixes/suffixes plus one memoized estimate per phase.
        phases: list = []
        npre = 0
        kinds: list = []
        durs: list = []
        ests: list = []
        ucs: list = []
        ums: list = []
        if gpu_units > 0.0:
            pre = [system.bus.transfer_time(workload.h2d_bytes(gpu_units))]
            if gpu.spec.launch_overhead_s > 0.0:
                pre.append(gpu.spec.launch_overhead_s)
            npre = len(pre)
            phases = workload.gpu_phases(gpu_units, 0)
            gtrip = self._estimate_phases(
                gpu.spec.roofline, phases, gpu.compute_rate, gpu.bandwidth)
            d2h = system.bus.transfer_time(workload.d2h_bytes(gpu_units))
            kinds = [_TRANSFER] * npre + [_KERNEL] * len(phases) + [_TRANSFER]
            durs = pre + [0.0] * len(phases) + [d2h]
            zpre = [0.0] * npre
            ests = zpre + [t[0] for t in gtrip] + [0.0]
            ucs = zpre + [t[1] for t in gtrip] + [0.0]
            ums = zpre + [t[2] for t in gtrip] + [0.0]
        cphases: list = []
        if cpu_units > 0.0:
            cphases = workload.cpu_phases(cpu_units, 0)
        ctrip = self._estimate_phases(
            cpu.spec.roofline, cphases, cpu.compute_rate,
            cpu.spec.host_bandwidth)
        lane.row_cache = (kinds, durs, ests, ucs, ums, [t[0] for t in ctrip])

    def _alloc_segment_arrays(self) -> None:
        L = len(self.lanes)
        # row_cache[0] is the GPU kind column, row_cache[5] the CPU
        # estimate column — their lengths are the per-lane row widths.
        gs = max(1, max(len(lane.row_cache[0]) for lane in self.lanes))
        cs = max(1, max(len(lane.row_cache[5]) for lane in self.lanes))
        self.gseg_kind = np.full((L, gs), _IDLE, dtype=np.int8)
        self.gseg_dur = np.zeros((L, gs))
        self.gseg_est = np.zeros((L, gs))
        self.gseg_pw = np.zeros((L, gs))
        self.cseg_est = np.zeros((L, cs))

    def _write_segment_rows(self, i: int) -> None:
        # Row columns were staged by _build_segments; storing is one
        # slice assign per array — tens of scalar `arr[i, s] = x` writes
        # per lane would dominate setup of a 256-lane sweep.
        kinds, durs, ests, ucs, ums, cests = self.lanes[i].row_cache
        n = len(kinds)
        self.gseg_kind[i, :n] = kinds
        self.gseg_dur[i, :n] = durs
        self.gseg_est[i, :n] = ests
        self.g_nseg[i] = n
        # Per-segment wall watts: the exact meter expression
        # ((g_base + (A_CORE*uc)*fcr + (A_MEM*um)*fmr) + OVH2) / EFF2,
        # folded row-wise.  For transfer segments uc == um == 0.0, so the
        # active terms add exactly +0.0 and the entry equals g_wall_idle.
        self.gseg_pw[i, :n] = (
            (
                float(self.g_base[i])
                + (self.A_CORE * np.asarray(ucs, dtype=float))
                * float(self.g_fcr[i])
            )
            + (self.A_MEM * np.asarray(ums, dtype=float)) * float(self.g_fmr[i])
            + self.OVH2
        ) / self.EFF2
        m = len(cests)
        self.cseg_est[i, :m] = cests
        self.c_nseg[i] = m

    # -- frequency state ------------------------------------------------------

    def _set_gpu_rates(self, i: int) -> None:
        gpu = self.lanes[i].system.gpu
        fcr = gpu.f_core / gpu.spec.core_ladder.peak
        fmr = gpu.f_mem / gpu.spec.mem_ladder.peak
        self.g_fcr[i] = fcr
        self.g_fmr[i] = fmr
        # power(u=0): the trailing active terms add exactly +0.0, so this
        # equals the scalar expression's static+clock prefix bit for bit.
        self.g_base[i] = gpu.spec.power.power_unchecked(fcr, fmr, 0.0, 0.0)
        self.g_wall_idle[i] = (
            float(self.g_base[i]) + self.OVH2
        ) / self.EFF2

    def _set_cpu_rates(self, i: int) -> None:
        cpu = self.lanes[i].system.cpu
        f_ratio = cpu.f / cpu.spec.ladder.peak
        self.cpu_busy_w[i] = cpu.spec.power.power_unchecked(f_ratio, 1.0)
        self.cpu_idle_w[i] = cpu.spec.power.power_unchecked(f_ratio, 0.0)
        self.cpu_busy_wall[i] = (
            float(self.cpu_busy_w[i]) + self.OVH1
        ) / self.EFF1
        self.cpu_idle_wall[i] = (
            float(self.cpu_idle_w[i]) + self.OVH1
        ) / self.EFF1

    # -- iteration lifecycle --------------------------------------------------

    def _load_gpu_head(self, i: int) -> None:
        p = int(self.g_ptr[i])
        if p >= self.g_nseg[i]:
            self.g_kind[i] = _IDLE
            # Invariant: g_wall reads the idle wall rate whenever the
            # queue is drained, so the tick loop can use it unmasked.
            # g_rem holds +inf at idle so the per-tick time-to-event
            # select needs no idle mask.
            self.g_wall[i] = self.g_wall_idle[i]
            self.g_rem[i] = np.inf
            return
        kind = int(self.gseg_kind[i, p])
        self.g_kind[i] = kind
        self.g_rem[i] = self.gseg_dur[i, p]
        self.g_est[i] = self.gseg_est[i, p]
        self.g_wall[i] = self.gseg_pw[i, p]
        self.g_frac[i] = 0.0

    def _load_cpu_head(self, i: int) -> None:
        p = int(self.c_ptr[i])
        if p >= self.c_nseg[i]:
            self.c_kind[i] = _IDLE
            # c_est holds +inf at idle (see _load_gpu_head's invariant):
            # omf_c * c_est is then +inf, no idle mask needed.
            self.c_est[i] = np.inf
            return
        self.c_kind[i] = _KERNEL
        self.c_est[i] = self.cseg_est[i, p]
        self.c_frac[i] = 0.0

    def _begin_iterations_bulk(self, idx: np.ndarray) -> None:
        """Start the next iteration of every lane in ``idx``.

        ``r_it``/``cpu_units``/``gpu_units`` and the segment rows describe
        every iteration of a lane (the setup loop fills them and the
        pinned ratio never rebuilds them).  Iteration restarts happen
        batch-wide on the same tick for lanes with equal segment counts,
        so this replaces the dominant per-lane Python cost of static
        sweeps with a dozen array ops.
        """
        t0 = self.now[idx]
        self.t0_it[idx] = t0
        self.e0_cpu[idx] = self.mc_e[idx]
        self.e0_gpu[idx] = self.mg_e[idx]
        self.e0_tot[idx] = self.mc_e[idx] + self.mg_e[idx]
        self.g_ptr[idx] = 0
        self.c_ptr[idx] = 0
        g_has = self.gpu_units[idx] > 0.0
        c_has = self.cpu_units[idx] > 0.0
        self.g_kind[idx] = _IDLE
        self.g_wall[idx] = self.g_wall_idle[idx]
        self.g_rem[idx] = np.inf
        gi = idx[g_has]
        if gi.size:
            self.g_kind[gi] = self.gseg_kind[gi, 0]
            self.g_rem[gi] = self.gseg_dur[gi, 0]
            self.g_est[gi] = self.gseg_est[gi, 0]
            self.g_wall[gi] = self.gseg_pw[gi, 0]
            self.g_frac[gi] = 0.0
        self.c_kind[idx] = _IDLE
        self.c_est[idx] = np.inf
        ci = idx[c_has]
        if ci.size:
            self.c_kind[ci] = _KERNEL
            self.c_est[ci] = self.cseg_est[ci, 0]
            self.c_frac[ci] = 0.0
        self.gpu_done[idx] = np.where(g_has, np.nan, t0)
        self.cpu_done[idx] = np.where(c_has, np.nan, t0)
        self.g_pending[idx] = g_has
        self.c_pending[idx] = c_has
        self.it_dl[idx] = t0 + self.it_timeout[idx]
        self.spin[idx] = self.sync_spin[idx] & ~c_has & g_has

    def _finish_boundaries(self, idx: np.ndarray) -> None:
        # Metric terms are elementwise float64, so computing them for the
        # whole boundary cohort at once is bitwise the per-lane arithmetic.
        # The terms scatter into the per-iteration columns (materialized
        # as IterationMetrics in _result); a store/load round trip does
        # not change a float64, so deferring construction is invisible.
        self.spin[idx] = False  # cpu.stop_spin() at the barrier
        t0v = self.t0_it[idx]
        nowv = self.now[idx]
        tcv = np.where(
            self.cpu_units[idx] > 0.0, self.cpu_done[idx] - t0v, 0.0
        )
        tgv = np.where(
            self.gpu_units[idx] > 0.0, self.gpu_done[idx] - t0v, 0.0
        )
        col = self.iter_i[idx]
        self.it_r[idx, col] = self.r_it[idx]
        self.it_tc[idx, col] = tcv
        self.it_tg[idx, col] = tgv
        self.it_wall[idx, col] = nowv - t0v
        self.it_e[idx, col] = (self.mc_e[idx] + self.mg_e[idx]) - self.e0_tot[idx]
        self.it_ge[idx, col] = self.mg_e[idx] - self.e0_gpu[idx]
        self.it_ce[idx, col] = self.mc_e[idx] - self.e0_cpu[idx]
        self.iter_i[idx] += 1
        live = self.iter_i[idx] < self.n_iter[idx]
        self.act[idx] = live
        cont = idx[live]
        if self._taping:
            first = self.taping[cont]
            if first.any():
                # Lanes at their first barrier: iteration 0's tape
                # stands in for every later iteration the deadline cannot
                # bind; the rest come back to tick.
                rp = cont[first]
                self.taping[rp] = False
                cont = np.concatenate((cont[~first], self._replay(rp)))
            self._taping = bool(self.taping.any())
            if not self._taping:
                self._tape = None
        if cont.size:
            # Pinned ratio: nothing to rebuild, so the restart is one
            # vectorized bulk begin.
            self._begin_iterations_bulk(cont)
        self._all_act = bool(self.act.all())

    def _replay(self, idx: np.ndarray) -> np.ndarray:
        """Run iterations 1.. of lanes from their iteration-0 tape.

        Each iteration is one row-wise ``cumsum`` per quantity with the
        lane's carry in column 0: ``np.cumsum`` accumulates strictly left
        to right, so every prefix is the float the tick loop's ``x += a``
        would hold after that tick.  A lane replays an iteration only if
        its deadline provably cannot bind on any taped tick (horizon
        positive and no shorter than the tick's dt); otherwise it stops
        at that iteration.  Returns the lanes that go back to the tick
        loop, positioned at the start of their next iteration.
        """
        back = []
        E = self._tape_len
        # (quantity, lane, tick): column 0 is the carry, 1..E the addends.
        acc = np.empty((5, idx.size, E + 1))
        acc[:, :, 1:] = self._tape[:E][:, :, idx].transpose(1, 2, 0)
        g_at = self.g_stamp[idx]
        c_at = self.c_stamp[idx]
        carry = (self.now, self.mc_e, self.mg_e, self.c_spin_s, self.c_spin_e)
        k = 1
        while idx.size:
            keep = self.n_iter[idx] > k
            if not keep.all():
                self.act[idx[~keep]] = False
                idx, acc = idx[keep], acc[:, keep]
                g_at, c_at = g_at[keep], c_at[keep]
                if not idx.size:
                    break
            for q, col in enumerate(carry):
                acc[q, :, 0] = col[idx]
            run = np.cumsum(acc, axis=2)
            t0 = acc[0, :, 0]
            dl = t0 + self.it_timeout[idx]
            h = dl[:, None] - run[0, :, :-1]
            ok = ((h > 0.0) & (h >= acc[0, :, 1:])).all(axis=1)
            if not ok.all():
                self.iter_i[idx[~ok]] = k
                back.append(idx[~ok])
                idx, acc, run = idx[ok], acc[:, ok], run[:, ok]
                t0, dl, g_at, c_at = t0[ok], dl[ok], g_at[ok], c_at[ok]
                if not idx.size:
                    break
            # Retired lanes keep their last iteration's deadline, as a
            # ticked lane would, so the loop's horizon.min() probe stays
            # on its fast path.
            self.it_dl[idx] = dl
            rows = np.arange(idx.size)
            now_e, mc_e, mg_e = run[0, :, E], run[1, :, E], run[2, :, E]
            mc0, mg0 = acc[1, :, 0], acc[2, :, 0]
            self.it_r[idx, k] = self.r_it[idx]
            self.it_tc[idx, k] = np.where(
                self.cpu_units[idx] > 0.0, run[0, rows, c_at] - t0, 0.0)
            self.it_tg[idx, k] = np.where(
                self.gpu_units[idx] > 0.0, run[0, rows, g_at] - t0, 0.0)
            self.it_wall[idx, k] = now_e - t0
            self.it_e[idx, k] = (mc_e + mg_e) - (mc0 + mg0)
            self.it_ge[idx, k] = mg_e - mg0
            self.it_ce[idx, k] = mc_e - mc0
            for q, col in enumerate(carry):
                col[idx] = run[q, :, E]
            k += 1
            self.iter_i[idx] = k
        return np.concatenate(back) if back else _EMPTY_IDX

    # -- the lockstep tick loop -----------------------------------------------

    def _advance_one_gpu(self, i: int) -> None:
        """Scalar pop-and-drain for one lane (see _advance_completed_heads)."""
        while True:
            self.g_ptr[i] += 1
            self._load_gpu_head(i)
            # Idle heads hold g_rem == +inf, so they stop the drain too.
            left = self.g_est[i] if self.g_kind[i] == _KERNEL else self.g_rem[i]
            if left > _EPS:
                return

    def _advance_one_cpu(self, i: int) -> None:
        while True:
            self.c_ptr[i] += 1
            self._load_cpu_head(i)
            if self.c_est[i] > _EPS:  # +inf when the queue drained
                return

    def _advance_completed_heads(self, g_adv: np.ndarray, c_adv: np.ndarray) -> None:
        """Pop completed heads and drain zero-time successors, vectorized.

        The drain iterates on index arrays rather than boolean masks:
        after the first pop, only the (rare) zero-time successors stay in
        play, and mid-queue pops — where every popping lane still has a
        next segment — skip the have/have-not partitioning entirely.
        Heterogeneous batches mostly complete one or two heads per tick,
        where a dozen one-element fancy-index ops cost far more than the
        equivalent scalar walk — hence the small-cohort fast path.
        """
        idx = g_adv.nonzero()[0]
        if idx.size <= 2:
            for i in idx:
                self._advance_one_gpu(int(i))
            idx = _EMPTY_IDX
        while idx.size:
            self.g_ptr[idx] += 1
            p = self.g_ptr[idx]
            have = p < self.g_nseg[idx]
            if have.all():
                li, pi, done = idx, p, _EMPTY_IDX
            else:
                li = idx[have]
                pi = p[have]
                done = idx[~have]
            if done.size:
                self.g_kind[done] = _IDLE
                # Keep the g_wall == idle / g_rem == inf invariants (see
                # _load_gpu_head) for lanes whose queue just drained.
                self.g_wall[done] = self.g_wall_idle[done]
                self.g_rem[done] = np.inf
            if not li.size:
                break
            kk = self.gseg_kind[li, pi]
            rr = self.gseg_dur[li, pi]
            ee = self.gseg_est[li, pi]
            self.g_kind[li] = kk
            self.g_rem[li] = rr
            self.g_est[li] = ee
            self.g_wall[li] = self.gseg_pw[li, pi]
            self.g_frac[li] = 0.0
            zero = np.where(
                kk == _TRANSFER, rr <= _EPS, (kk == _KERNEL) & (ee <= _EPS)
            )
            idx = li[zero]
        idx = c_adv.nonzero()[0]
        if idx.size <= 2:
            for i in idx:
                self._advance_one_cpu(int(i))
            idx = _EMPTY_IDX
        while idx.size:
            self.c_ptr[idx] += 1
            p = self.c_ptr[idx]
            have = p < self.c_nseg[idx]
            if have.all():
                li, pi, done = idx, p, _EMPTY_IDX
            else:
                li = idx[have]
                pi = p[have]
                done = idx[~have]
            if done.size:
                self.c_kind[done] = _IDLE
                self.c_est[done] = np.inf
            if not li.size:
                break
            ee = self.cseg_est[li, pi]
            self.c_kind[li] = _KERNEL
            self.c_est[li] = ee
            self.c_frac[li] = 0.0
            idx = li[ee <= _EPS]

    def run(self) -> list[RunResult]:
        # One errstate for the whole loop (enter/exit per tick is real
        # overhead at this tick rate); `over` covers the dt/est divides
        # below, which legitimately overflow to inf before min-clamping.
        with np.errstate(over="ignore"):
            return self._run_loop()

    def _run_loop(self) -> list[RunResult]:
        act = self.act
        ticks = 0
        while act.any():
            ticks += 1
            if ticks > _MAX_TICKS:
                raise SimulationError("step explosion inside batch engine")
            all_act = self._all_act
            # horizon doubles as the timeout probe: now >= it_dl exactly
            # when the (Sterbenz-exact near zero) difference is <= 0.
            # Finished lanes froze with a positive horizon (they beat
            # their deadline), so one min() reduction gates the probe.
            horizon = self.it_dl - self.now
            if horizon.min() <= 0.0:
                late = horizon <= 0.0
                if not all_act:
                    late &= act
                if late.any():
                    bad = int(np.flatnonzero(late)[0])
                    lane = self.lanes[bad]
                    raise SimulationError(
                        f"iteration {int(self.iter_i[bad])} of "
                        f"{lane.workload.name!r} exceeded "
                        f"{lane.iteration_timeout_s}s"
                    )
            # Head-kind masks are stable until _advance_completed_heads
            # below; hoist them for every pre-advance use this tick.
            gkern = self.g_kind == _KERNEL
            gtrans = self.g_kind == _TRANSFER
            ckern = self.c_kind == _KERNEL
            # 1. per-lane dt: min over device events and the horizon.
            # (1 - frac) * est is +0.0 when est == 0.0, so the scalar
            # engine's explicit zero-estimate branch needs no extra where.
            omf_g = 1.0 - self.g_frac
            omf_c = 1.0 - self.c_frac
            # Idle sentinels (g_rem / c_est hold +inf at idle, and rolled
            # fractions stay strictly below 1 so omf_c > 0) make the
            # not-a-kernel arm of each select a plain array read.
            g_tte = np.where(gkern, omf_g * self.g_est, self.g_rem)
            c_tte = omf_c * self.c_est
            dev = np.minimum(g_tte, c_tte)
            dt = np.minimum(dev, horizon)
            if not all_act:
                dt = np.where(act, dt, 0.0)
            # 2+3. meter integration via precomputed wall watts: the
            # accumulate_from expression over a head's lifetime repeats
            # the same operand floats, so it was folded once per segment
            # / actuation (gseg_pw, cpu_*_wall) instead of once per tick.
            cpu_busy = (self.c_kind >= 0) | self.spin
            mc_add = np.where(
                cpu_busy, self.cpu_busy_wall, self.cpu_idle_wall
            ) * dt
            mg_add = self.g_wall * dt
            self.mc_e += mc_add
            self.mg_e += mg_add
            taping = self._taping
            if taping:
                t = self._tape_len
                if t == len(self._tape):
                    self._tape = np.concatenate(
                        (self._tape, np.zeros_like(self._tape)))
                row = self._tape[t]
                row[0] = dt
                row[1] = mc_add
                row[2] = mg_add
                # A tick whose dt the horizon cut is not a device event
                # and would not repeat in later iterations: such a lane
                # stops taping and ticks every iteration.
                self.taping &= horizon >= dev
                self._tape_len = t + 1
            # 4. spin accounting.
            if self.spin.any():
                # Spinning lanes are busy by definition, so their device
                # draw is exactly cpu_busy_w.  Non-spinning lanes get
                # cpu_busy_w * 0.0 == +0.0, the same addend as before.
                spin_m = self.spin & (self.c_kind < 0)
                sdt = np.where(spin_m, dt, 0.0)
                spin_e = self.cpu_busy_w * sdt
                self.c_spin_s += sdt
                self.c_spin_e += spin_e
                if taping:
                    row[3] = sdt
                    row[4] = spin_e
            # 5. queue-head progress.  Inactive lanes sit at kind == _IDLE,
            # so when every lane is active the head-kind masks need no
            # act[] intersection at all.
            gt = gtrans if all_act else act & gtrans
            # Transfers head only a few segments per queue, so most
            # ticks have none in flight and the remaining-time update
            # (an identity without them) is skipped wholesale.
            any_gt = bool(gt.any())
            if any_gt:
                step = np.minimum(dt, self.g_rem)
                self.g_rem = np.where(
                    gt, np.maximum(0.0, self.g_rem - step), self.g_rem
                )
            gk = gkern if all_act else act & gkern
            # dt over a denormal-tiny estimate overflows to inf; the
            # minimum() clamp then picks 1-frac, exactly as the scalar
            # engine's Python division (inf, no exception) would — so
            # the overflow is expected, not an error (errstate in run()).
            # A zero estimate makes est_safe 1.0 and df = min(dt, 1-frac)
            # with dt == 0 for that lane (its tte is 0); the head still
            # completes this tick through the est <= eps drain term, and
            # the fraction resets on the next load — so the scalar
            # engine's explicit zero-estimate branch is not needed.
            est_safe = np.where(self.g_est == 0.0, 1.0, self.g_est)
            df = np.minimum(dt / est_safe, omf_g)
            g_newf = self.g_frac + df
            g_roll = gk & (g_newf >= _ROLL)
            self.g_frac = np.where(gk & ~g_roll, g_newf, self.g_frac)
            ck = ckern if all_act else act & ckern
            cest_safe = np.where(self.c_est == 0.0, 1.0, self.c_est)
            cdf = np.minimum(dt / cest_safe, omf_c)
            c_newf = self.c_frac + cdf
            c_roll = ck & (c_newf >= _ROLL)
            self.c_frac = np.where(ck & ~c_roll, c_newf, self.c_frac)
            # Scalar advance() always ends in _drain_zero_time_heads, which
            # also completes kernels whose estimate is sub-epsilon, so the
            # est <= eps terms are part of the completion rule, not just
            # the rolled-fraction case.
            g_adv = g_roll | (gk & (self.g_est <= _EPS))
            if any_gt:
                g_adv |= gt & (self.g_rem <= _EPS)
            c_adv = c_roll | (ck & (self.c_est <= _EPS))
            self._advance_completed_heads(g_adv, c_adv)
            # 6. clock: land on `when`.
            when = self.now + dt
            if all_act:
                self.now = when
            else:
                self.now = np.where(act, when, self.now)
            # 7. executor bookkeeping: completion stamps, spin, barriers.
            # Pending lanes are active by construction, so the stamps need
            # no act[] mask; most ticks stamp nothing and fall through.
            g_idle = self.g_kind < 0
            c_idle = self.c_kind < 0
            nd = self.g_pending & g_idle
            ncd = self.c_pending & c_idle
            stamped = False
            if nd.any():
                self.gpu_done[nd] = self.now[nd]
                self.g_pending &= ~nd
                if taping:
                    self.g_stamp[nd] = t + 1
                stamped = True
            if ncd.any():
                self.cpu_done[ncd] = self.now[ncd]
                if taping:
                    self.c_stamp[ncd] = t + 1
                self.c_pending &= ~ncd
                self.spin |= ncd & self.sync_spin & ~g_idle
                stamped = True
            # A lane reaches its barrier the same tick its second device
            # goes idle, which is also the tick that device's completion
            # stamp lands — so no stamp this tick means no boundary.
            if stamped:
                bnd = g_idle & c_idle
                if not all_act:
                    bnd &= act
                if bnd.any():
                    self._finish_boundaries(bnd.nonzero()[0])
        return [self._result(i) for i in range(len(self.lanes))]

    # -- result assembly ------------------------------------------------------

    def _iterations(self, i: int) -> list[IterationMetrics]:
        # One whole-table tolist() (cached) hands back Python floats at
        # C speed; the scattered column values are the exact float64s
        # the boundary computed.
        if self._it_lists is None:
            self._it_lists = (
                self.it_r.tolist(), self.it_tc.tolist(), self.it_tg.tolist(),
                self.it_wall.tolist(), self.it_e.tolist(),
                self.it_ge.tolist(), self.it_ce.tolist(),
            )
        rl, tcl, tgl, wl, el, gel, cel = (c[i] for c in self._it_lists)
        return [
            IterationMetrics(
                index=k, r=rl[k], tc=tcl[k], tg=tgl[k], wall_s=wl[k],
                energy_j=el[k], gpu_energy_j=gel[k], cpu_energy_j=cel[k],
            )
            for k in range(int(self.iter_i[i]))
        ]

    def _result(self, i: int) -> RunResult:
        lane = self.lanes[i]
        system = lane.system
        final_ratio = lane.ratio
        result = RunResult(
            workload=lane.workload.name,
            policy=lane.policy.name,
            iterations=self._iterations(i),
            total_s=float(self.now[i]),
            total_energy_j=float(self.mc_e[i]) + float(self.mg_e[i]),
            gpu_energy_j=float(self.mg_e[i]),
            cpu_energy_j=float(self.mc_e[i]),
            cpu_spin_s=float(self.c_spin_s[i]),
            cpu_spin_energy_j=float(self.c_spin_e[i]),
            cpu_energy_emulated_idle_spin_j=0.0,
            final_ratio=final_ratio,
            traces={},  # a TierMode.NONE controller records nothing
            health=ControlHealth(),
            engine="batch",
        )
        floor_ratio = system.cpu.spec.ladder.floor / system.cpu.spec.ladder.peak
        idle_floor_w = system.cpu.spec.power.idle_power(floor_ratio)
        saved_device_j = (
            result.cpu_spin_energy_j - result.cpu_spin_s * idle_floor_w
        )
        result.cpu_energy_emulated_idle_spin_j = (
            result.cpu_energy_j - saved_device_j / system.config.meter1_efficiency
        )
        return result


def batch_eligible(workload: Workload) -> bool:
    """Only demand-model workloads have iteration-invariant segment queues."""
    return isinstance(workload, DemandModelWorkload)


def run_batch(requests: list[BatchRunRequest]) -> list[RunResult]:
    """Step every request in lockstep; lane *i* ≡ scalar ``run_workload``.

    Callers are expected to have filtered requests through the dispatch
    rules (:func:`repro.runtime.batch_executor.classify`); this function
    validates the workload type and little else.
    """
    for req in requests:
        if not batch_eligible(req.workload):
            raise SimulationError(
                f"workload {req.workload.name!r} is not batchable"
            )
        if req.policy.fault_plan is not None:
            raise SimulationError("faulted runs must use the scalar engine")
        if req.policy.mode is not TierMode.NONE:
            raise SimulationError(
                f"{req.policy.mode.value} runs must use the scalar engine"
            )
    return _BatchEngine(requests).run()
