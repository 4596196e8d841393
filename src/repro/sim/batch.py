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
is needed: a tick moves lane *i* to lane *i*'s next event, and the number
of python-level ticks collapses from ``sum(events_i)`` to ``max(events_i)``.

Bit-exactness contract
----------------------
Lane *i* of a batch must produce a :class:`RunResult` whose
``result_to_dict`` is **identical** to the scalar ``run_workload`` for the
same request — including WMA frequency decisions, ondemand governor moves,
division-ratio trajectories, and every energy integral.  Two rules make
this hold:

- Elementwise ``+ - * / min max`` on float64 arrays are IEEE-identical to
  the scalar interpreter ops, so the per-tick loop uses only those and
  mirrors the scalar expressions term for term (including association
  order, e.g. the power model's left-to-right sum).
- ``np.power`` is *not* ulp-identical to CPython's ``**`` on this code
  path, so roofline estimates are never vectorized: segment execution
  estimates are computed by the real ``RooflineModel.estimate`` at
  segment-table build and on frequency changes (both rare), and the tick
  loop only gathers the precomputed ``seconds``/``u_core``/``u_mem``.

Rare per-lane events — controller ticks, iteration barriers, repartition
stalls — run through the *real* control classes (``WmaFrequencyScaler``,
``OndemandGovernor``, ``WorkloadDivider``, ``TraceRecorder``) held per
lane, so tier-2 learning state is the genuine article rather than a clone.

The engine only accepts runs that the scalar fast path would execute on a
fresh default testbed with no faults, no audit/telemetry instrumentation,
and no warmup (see :mod:`repro.runtime.batch_executor` for the dispatch
rules); everything else runs on the scalar engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import GreenGpuConfig
from repro.core.division import WorkloadDivider
from repro.core.ondemand import OndemandGovernor
from repro.core.policies import Policy
from repro.core.wma import WmaFrequencyScaler
from repro.errors import SimulationError
from repro.faults.health import ControlHealth
from repro.runtime.metrics import IterationMetrics, RunResult
from repro.runtime.partition import split_units
from repro.sim.cpu import CpuDevice
from repro.sim.gpu import GpuDevice
from repro.sim.trace import TraceRecorder
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
    """Per-lane cold state: real control objects + segment templates."""

    workload: Workload
    policy: Policy
    n_iterations: int
    sync_spin: bool
    repartition_overhead_s: float
    iteration_timeout_s: float
    system: object  # donor HeteroSystem: specs, ladders, frequency state
    cfg: GreenGpuConfig
    recorder: TraceRecorder
    divider: WorkloadDivider | None
    scaler: WmaFrequencyScaler | None
    governor: OndemandGovernor | None
    # Monitor baselines (NvidiaSmi / CpuStat clone state).
    nv_last_t: float = 0.0
    nv_last_core: float = 0.0
    nv_last_mem: float = 0.0
    cs_last_t: float = 0.0
    cs_last_busy: float = 0.0
    last_ratio: float | None = None
    # Phase templates for the current iteration's queues.  The GPU row
    # layout is [g_npre transfers][kernels, one per g_phases entry][d2h],
    # so the phase lists plus the kernel-block offset fully describe the
    # rows for re-estimation after a frequency change.
    g_phases: list = field(default_factory=list)
    c_phases: list = field(default_factory=list)
    g_npre: int = 0
    segs_units: float = -1.0  # units the templates were built for
    # Precomputed row columns for the segment tables (shared via the
    # engine's template memo; valid for the rates they were built at).
    row_cache: tuple = ()

    @property
    def ratio(self) -> float:
        """Clone of ``GreenGpuController.ratio`` for the no-fault case."""
        if self.divider is not None:
            return self.divider.r
        r = self.policy.ratio
        return r if r is not None else 0.0


class _LaneDonor:
    """Just the donor state a batch lane needs: devices + bus + config.

    A full ``HeteroSystem`` also assembles a clock and two sampled power
    meters, all of which the lockstep engine re-expresses as arrays; a
    lane only ever reads the devices' specs/frequency state, the bus,
    and the config constants, so skipping the rest roughly halves lane
    setup at fleet-scale batch widths.
    """

    __slots__ = ("gpu", "cpu", "bus", "config")

    def __init__(self, config) -> None:
        self.gpu = GpuDevice(config.gpu)
        self.cpu = CpuDevice(config.cpu)
        self.bus = config.bus
        self.config = config


def _make_lane(req: BatchRunRequest, testbed_config,
               donor_cache: dict | None = None) -> _Lane:
    from repro.runtime.executor import ExecutorOptions

    options = req.options or ExecutorOptions()
    # Specs and the testbed config are immutable value objects, so one
    # shared config serves every donor; only device state is per-lane.
    # Without live scaling the donor itself is read-only after
    # apply_initial_state (the only mutation sites are the scaling /
    # ondemand ticks, gated on mode.scaling_enabled), and the applied
    # state is a pure function of the policy's pinned ladder levels —
    # so scaling-free lanes with equal levels share one donor.  A
    # pure-ratio sweep then builds a single donor for the whole batch.
    mode = req.policy.mode
    system = None
    donor_key = None
    if donor_cache is not None and not mode.scaling_enabled:
        donor_key = (req.policy.gpu_core_level, req.policy.gpu_mem_level,
                     req.policy.cpu_level)
        system = donor_cache.get(donor_key)
    if system is None:
        system = _LaneDonor(testbed_config)
        req.policy.apply_initial_state(system)
        if donor_key is not None:
            donor_cache[donor_key] = system
    cfg = req.policy.config or GreenGpuConfig()
    divider = scaler = governor = None
    if mode.division_enabled:
        divider = WorkloadDivider(cfg, r0=req.policy.ratio)
    if mode.scaling_enabled:
        scaler = WmaFrequencyScaler(
            system.gpu.spec.core_ladder, system.gpu.spec.mem_ladder, cfg
        )
        governor = OndemandGovernor(
            system.cpu.spec.ladder,
            up_threshold=cfg.ondemand_up_threshold,
            down_threshold=cfg.ondemand_down_threshold,
        )
    return _Lane(
        workload=req.workload,
        policy=req.policy,
        n_iterations=req.resolved_iterations(),
        sync_spin=options.sync_spin,
        repartition_overhead_s=options.repartition_overhead_s,
        iteration_timeout_s=options.iteration_timeout_s,
        system=system,
        cfg=cfg,
        recorder=TraceRecorder(),
        divider=divider,
        scaler=scaler,
        governor=governor,
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
        # Identity-level front for _est_memo: phase lists repeat the same
        # few PhaseDemand objects, and the objects are kept alive by the
        # segment memo below, so ids stay unambiguous for engine lifetime.
        self._est_by_id: dict[tuple, tuple[float, float, float]] = {}
        # Segment-template memo: lanes sweeping the same workload hit the
        # same (cpu_units, gpu_units) splits; the templates are read-only
        # so they are safely shared across lanes and iterations.
        self._seg_memo: dict[tuple, tuple[list, list]] = {}

        f64 = lambda: np.zeros(L, dtype=np.float64)  # noqa: E731
        self.now = f64()
        self.mc_e = f64()  # meter1 (CPU-side wall) energy
        self.mg_e = f64()  # meter2 (GPU-side wall) energy
        self.g_bcore = f64()  # gpu busy_core_seconds
        self.g_bmem = f64()  # gpu busy_mem_seconds
        self.g_elapsed = f64()
        self.c_elapsed = f64()
        self.c_busy = f64()  # cpu busy_seconds (/proc/stat view)
        self.c_spin_s = f64()
        self.c_spin_e = f64()
        # Frequency-derived per-lane scalars (refreshed on actuation).
        self.g_fcr = f64()
        self.g_fmr = f64()
        self.g_base = f64()  # gpu power at zero utilization
        self.cpu_busy_w = f64()
        self.cpu_idle_w = f64()
        # Wall (meter-side) watts, precomputed on actuation: the meter
        # expression ((device_w + OVH) / EFF) over a head's lifetime uses
        # the same operand floats every tick, so folding it once per
        # frequency change / segment is bitwise the per-tick arithmetic.
        self.cpu_busy_wall = f64()
        self.cpu_idle_wall = f64()
        self.g_wall = f64()  # wall watts of the current gpu head
        self.g_wall_idle = f64()
        # Live heads.
        self.g_kind = np.full(L, _IDLE, dtype=np.int8)
        self.g_rem = f64()
        self.g_est = f64()
        self.g_uc = f64()
        self.g_um = f64()
        self.g_frac = f64()
        self.c_kind = np.full(L, _IDLE, dtype=np.int8)
        self.c_est = f64()
        self.c_uc = f64()
        self.c_um = f64()
        self.c_frac = f64()
        # Clock deadlines (inf == no task).
        self.wma_dl = np.full(L, np.inf)
        self.od_dl = np.full(L, np.inf)
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
        self.div_mask = np.array(
            [ln.divider is not None for ln in self.lanes], dtype=bool
        )
        self._any_div = bool(self.div_mask.any())
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
                self._refresh_gpu_rates(i, reestimate=False)
                self._refresh_cpu_rates(i, reestimate=False)
            else:
                for col in _rate_cols:
                    col[i] = col[j]
            # clock.every(...) at attach time, with now == 0.
            if lane.scaler is not None:
                self.wma_dl[i] = 0.0 + lane.cfg.scaling_interval_s
                self.od_dl[i] = 0.0 + lane.cfg.ondemand_interval_s
        self.g_wall[:] = self.g_wall_idle
        # Controllers only register clock tasks at attach; an all-static
        # batch can skip the per-tick deadline math entirely.
        self._has_tasks = any(ln.scaler is not None for ln in self.lanes)

        # Segment tables, sized after the first build (segment counts are
        # iteration-invariant for DemandModelWorkload queues).  Iteration 0
        # never repartitions (last_ratio starts unset), so setup is: pick
        # splits, build templates, size the arrays, then one bulk begin.
        self.g_nseg = np.zeros(L, dtype=np.int64)
        self.c_nseg = np.zeros(L, dtype=np.int64)
        for i, lane in enumerate(self.lanes):
            r = lane.ratio
            lane.last_ratio = r
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

    # -- segment tables -------------------------------------------------------

    def _build_segments(self, i: int, cpu_units: float, gpu_units: float) -> None:
        lane = self.lanes[i]
        system = lane.system
        workload = lane.workload
        index = int(self.iter_i[i])
        gpu = system.gpu
        roofline = gpu.spec.roofline
        exp = roofline.overlap_exponent
        rate = gpu.compute_rate
        bw = gpu.bandwidth
        cpu = system.cpu
        croof = cpu.spec.roofline
        cexp = croof.overlap_exponent
        crate = cpu.compute_rate
        cbw = cpu.spec.host_bandwidth
        # Demand-model phase lists are iteration-invariant (the table
        # reuse below already relies on that), and the precomputed row
        # columns additionally depend on the current device rates — so
        # the memo is keyed by (split, rates) and shared between lanes
        # running at equal frequency levels.
        memo_key = (id(workload), cpu_units, gpu_units, rate, bw, crate, cbw)
        hit = self._seg_memo.get(memo_key)
        if hit is None:
            # Kernel segments sit in one contiguous block between the
            # leading transfers and the trailing d2h, so the row columns
            # assemble from constant prefixes/suffixes plus one memoized
            # estimate lookup per phase — no per-segment branching.
            ememo = self._est_memo
            idmemo = self._est_by_id
            phases: list = []
            npre = 0
            kinds: list = []
            durs: list = []
            gtrip: list = []
            if gpu_units > 0.0:
                pre = [system.bus.transfer_time(
                    workload.h2d_bytes(gpu_units))]
                if gpu.spec.launch_overhead_s > 0.0:
                    pre.append(gpu.spec.launch_overhead_s)
                npre = len(pre)
                phases = workload.gpu_phases(gpu_units, index)
                # gpu_phases interleaves a handful of distinct PhaseDemand
                # objects many times over; rate/bw are fixed for this
                # build, so a local bare-id dict resolves the repeats
                # without building a key tuple per segment.  The engine
                # memo (idmemo, rate-qualified and kept safe by the memo
                # retaining the phase lists) still shares across builds.
                add = gtrip.append
                local: dict = {}
                for phase in phases:
                    pid = id(phase)
                    est3 = local.get(pid)
                    if est3 is None:
                        ikey = (pid, rate, bw)
                        est3 = idmemo.get(ikey)
                        if est3 is None:
                            key = (exp, phase.flops, phase.bytes, rate, bw,
                                   phase.stall_s)
                            est3 = ememo.get(key)
                            if est3 is None:
                                est = roofline.estimate(
                                    phase.flops, phase.bytes, rate, bw,
                                    phase.stall_s)
                                est3 = (est.seconds, est.u_core, est.u_mem)
                                ememo[key] = est3
                            idmemo[ikey] = est3
                        local[pid] = est3
                    add(est3)
                d2h = system.bus.transfer_time(
                    workload.d2h_bytes(gpu_units))
                kinds = ([_TRANSFER] * npre + [_KERNEL] * len(phases)
                         + [_TRANSFER])
                durs = pre + [0.0] * len(phases) + [d2h]
                zpre = [0.0] * npre
                ges, guc, gum = zip(*gtrip) if gtrip else ((), (), ())
                ests = zpre + list(ges) + [0.0]
                ucs = zpre + list(guc) + [0.0]
                ums = zpre + list(gum) + [0.0]
            else:
                ests = []
                ucs = []
                ums = []
            cphases: list = []
            ctrip: list = []
            if cpu_units > 0.0:
                cphases = workload.cpu_phases(cpu_units, index)
                add = ctrip.append
                for phase in cphases:
                    ikey = (id(phase), crate, cbw)
                    est3 = idmemo.get(ikey)
                    if est3 is None:
                        key = (cexp, phase.flops, phase.bytes, crate, cbw,
                               phase.stall_s)
                        est3 = ememo.get(key)
                        if est3 is None:
                            est = croof.estimate(phase.flops, phase.bytes,
                                                 crate, cbw, phase.stall_s)
                            est3 = (est.seconds, est.u_core, est.u_mem)
                            ememo[key] = est3
                        idmemo[ikey] = est3
                    add(est3)
            cests = [t[0] for t in ctrip]
            cucs = [t[1] for t in ctrip]
            cums = [t[2] for t in ctrip]
            hit = (phases, npre, cphases, kinds, durs, ests, ucs, ums,
                   cests, cucs, cums)
            self._seg_memo[memo_key] = hit
        lane.g_phases = hit[0]
        lane.g_npre = hit[1]
        lane.c_phases = hit[2]
        lane.row_cache = hit
        lane.segs_units = gpu_units

    def _alloc_segment_arrays(self) -> None:
        L = len(self.lanes)
        # row_cache[3] is the GPU kind column, row_cache[8] the CPU
        # estimate column — their lengths are the per-lane row widths.
        gs = max(1, max(len(lane.row_cache[3]) for lane in self.lanes))
        cs = max(1, max(len(lane.row_cache[8]) for lane in self.lanes))
        self.gseg_kind = np.full((L, gs), _IDLE, dtype=np.int8)
        self.gseg_dur = np.zeros((L, gs))
        self.gseg_est = np.zeros((L, gs))
        self.gseg_uc = np.zeros((L, gs))
        self.gseg_um = np.zeros((L, gs))
        self.gseg_pw = np.zeros((L, gs))
        self.cseg_est = np.zeros((L, cs))
        self.cseg_uc = np.zeros((L, cs))
        self.cseg_um = np.zeros((L, cs))
        # Running floor over every row's segment count, only ever
        # lowered, so `p0 < _g_nseg_min` safely gates whole-column head
        # loads without a per-advance cohort gather.
        self._g_nseg_min = gs + 1
        # Per-column "has a zero-time segment" flags, rebuilt lazily
        # after any row write; a clean column lets the advance skip its
        # whole-array drain probe.
        self._gcol_zero: np.ndarray | None = None

    def _write_segment_rows(self, i: int) -> None:
        # Row columns were staged (and memo-shared) by _build_segments;
        # storing is one slice assign per array — tens of scalar
        # `arr[i, s] = x` writes per lane would dominate setup at fleet-
        # scale batch widths.
        (_p, _n, _cp, kinds, durs, ests, ucs, ums,
         cests, cucs, cums) = self.lanes[i].row_cache
        n = len(kinds)
        self.gseg_kind[i, :n] = kinds
        self.gseg_dur[i, :n] = durs
        self.gseg_est[i, :n] = ests
        self.gseg_uc[i, :n] = ucs
        self.gseg_um[i, :n] = ums
        self.g_nseg[i] = n
        self._write_segment_walls(i)
        m = len(cests)
        self.cseg_est[i, :m] = cests
        self.cseg_uc[i, :m] = cucs
        self.cseg_um[i, :m] = cums
        self.c_nseg[i] = m
        if n < self._g_nseg_min:
            self._g_nseg_min = n
        self._gcol_zero = None

    def _write_segment_walls(self, i: int) -> None:
        # Per-segment wall watts: the exact meter expression
        # ((g_base + (A_CORE*uc)*fcr + (A_MEM*um)*fmr) + OVH2) / EFF2,
        # folded row-wise.  For transfer segments uc == um == 0.0, so the
        # active terms add exactly +0.0 and the entry equals g_wall_idle.
        n = int(self.g_nseg[i])
        self.gseg_pw[i, :n] = (
            (
                float(self.g_base[i])
                + (self.A_CORE * self.gseg_uc[i, :n]) * float(self.g_fcr[i])
            )
            + (self.A_MEM * self.gseg_um[i, :n]) * float(self.g_fmr[i])
            + self.OVH2
        ) / self.EFF2

    def _refresh_gcol_zero(self) -> np.ndarray:
        # Rows beyond a lane's segment count sit at kind == _IDLE and
        # match neither arm, so they never mark a column.  False
        # positives (another lane's zero-time segment in the same
        # column) only cost the probe they would have run anyway.
        zm = np.where(
            self.gseg_kind == _TRANSFER, self.gseg_dur <= _EPS,
            (self.gseg_kind == _KERNEL) & (self.gseg_est <= _EPS),
        )
        self._gcol_zero = zm.any(axis=0)
        return self._gcol_zero

    def _reestimate_gpu_row(self, i: int) -> None:
        lane = self.lanes[i]
        gpu = lane.system.gpu
        roofline = gpu.spec.roofline
        for s, phase in enumerate(lane.g_phases, start=lane.g_npre):
            sec, uc, um = self._estimate(
                roofline, phase.flops, phase.bytes, gpu.compute_rate,
                gpu.bandwidth, phase.stall_s,
            )
            self.gseg_est[i, s] = sec
            self.gseg_uc[i, s] = uc
            self.gseg_um[i, s] = um
        # Frequencies changed, so every wall-power entry is stale — and
        # so are the column zero-time flags the new estimates feed.
        self._write_segment_walls(i)
        self._gcol_zero = None
        # In-flight kernels keep their fraction and re-time the remainder.
        if self.g_kind[i] == _KERNEL:
            p = int(self.g_ptr[i])
            self.g_est[i] = self.gseg_est[i, p]
            self.g_uc[i] = self.gseg_uc[i, p]
            self.g_um[i] = self.gseg_um[i, p]
        # Any head — kernel, transfer, or idle — draws at the new wall rate.
        if self.g_kind[i] >= 0:
            self.g_wall[i] = self.gseg_pw[i, int(self.g_ptr[i])]
        else:
            self.g_wall[i] = self.g_wall_idle[i]

    def _reestimate_cpu_row(self, i: int) -> None:
        lane = self.lanes[i]
        cpu = lane.system.cpu
        croof = cpu.spec.roofline
        for s, phase in enumerate(lane.c_phases):
            sec, uc, um = self._estimate(
                croof, phase.flops, phase.bytes, cpu.compute_rate,
                cpu.spec.host_bandwidth, phase.stall_s,
            )
            self.cseg_est[i, s] = sec
            self.cseg_uc[i, s] = uc
            self.cseg_um[i, s] = um
        if self.c_kind[i] == _KERNEL:
            p = int(self.c_ptr[i])
            self.c_est[i] = self.cseg_est[i, p]
            self.c_uc[i] = self.cseg_uc[i, p]
            self.c_um[i] = self.cseg_um[i, p]

    # -- frequency state ------------------------------------------------------

    def _refresh_gpu_rates(self, i: int, reestimate: bool = True) -> None:
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
        if reestimate:
            self._reestimate_gpu_row(i)

    def _refresh_cpu_rates(self, i: int, reestimate: bool = True) -> None:
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
        if reestimate:
            self._reestimate_cpu_row(i)

    # -- controller ticks (real control objects, scalar per firing) -----------

    def _scaling_tick(self, i: int, t: float) -> None:
        lane = self.lanes[i]
        gpu = lane.system.gpu
        now_e = float(self.g_elapsed[i])
        window = now_e - lane.nv_last_t
        if window <= 0.0:
            # Deadlines strictly increase between firings and device time
            # advances with sim time, so an empty window is unreachable on
            # the fault-free batch path (the scalar engine's stale-sample
            # fallback only exists for injected faults).
            raise SimulationError("batch monitor window collapsed")
        u_core = (float(self.g_bcore[i]) - lane.nv_last_core) / window
        u_mem = (float(self.g_bmem[i]) - lane.nv_last_mem) / window
        lane.nv_last_t = now_e
        lane.nv_last_core = float(self.g_bcore[i])
        lane.nv_last_mem = float(self.g_bmem[i])
        u_core = min(1.0, u_core)
        u_mem = min(1.0, u_mem)
        decision = lane.scaler.step(u_core, u_mem)
        if (decision.f_core, decision.f_mem) != (gpu.f_core, gpu.f_mem):
            gpu.set_frequencies(decision.f_core, decision.f_mem)
            self._refresh_gpu_rates(i)
        power_w = self._system_power(i)
        lane.recorder.record_many(
            t,
            gpu_u_core=u_core,
            gpu_u_mem=u_mem,
            gpu_f_core=decision.f_core,
            gpu_f_mem=decision.f_mem,
            system_power_w=power_w,
        )

    def _ondemand_tick(self, i: int, t: float) -> None:
        lane = self.lanes[i]
        cpu = lane.system.cpu
        now_e = float(self.c_elapsed[i])
        window = now_e - lane.cs_last_t
        if window <= 0.0:
            raise SimulationError("batch monitor window collapsed")
        u = (float(self.c_busy[i]) - lane.cs_last_busy) / window
        lane.cs_last_t = now_e
        lane.cs_last_busy = float(self.c_busy[i])
        u = min(1.0, u)
        decision = lane.governor.step(u, cpu.f)
        if decision.changed:
            cpu.set_frequency(decision.f_target)
            self._refresh_cpu_rates(i)
        lane.recorder.record_many(t, cpu_u=u, cpu_f=decision.f_target)

    def _system_power(self, i: int) -> float:
        cpu_dev = (
            float(self.cpu_busy_w[i])
            if (self.c_kind[i] >= 0 or self.spin[i])
            else float(self.cpu_idle_w[i])
        )
        if self.g_kind[i] == _KERNEL:
            uc, um = float(self.g_uc[i]), float(self.g_um[i])
        else:
            uc, um = 0.0, 0.0
        gpu_dev = (
            float(self.g_base[i])
            + (self.A_CORE * uc) * float(self.g_fcr[i])
        ) + (self.A_MEM * um) * float(self.g_fmr[i])
        return (cpu_dev + self.OVH1) / self.EFF1 + (gpu_dev + self.OVH2) / self.EFF2

    def _fire_lane(self, i: int, when: float) -> None:
        """Clone of ``SimClock.advance_to`` task dispatch for one lane.

        The wma task is registered first, so it wins deadline ties by
        sequence number, exactly like the scalar heap ordering.
        """
        lane = self.lanes[i]
        while True:
            wd = float(self.wma_dl[i])
            od = float(self.od_dl[i])
            if wd <= od:
                dl, which = wd, 0
            else:
                dl, which = od, 1
            if dl > when or math.isinf(dl):
                break
            if dl > self.now[i]:
                self.now[i] = dl
            if which == 0:
                self.wma_dl[i] = dl + lane.cfg.scaling_interval_s
                self._scaling_tick(i, float(self.now[i]))
            else:
                self.od_dl[i] = dl + lane.cfg.ondemand_interval_s
                self._ondemand_tick(i, float(self.now[i]))

    # -- iteration lifecycle --------------------------------------------------

    def _load_gpu_head(self, i: int) -> None:
        p = int(self.g_ptr[i])
        if p >= self.g_nseg[i]:
            self.g_kind[i] = _IDLE
            # Invariant: u_core/u_mem read 0.0 (and g_wall reads the idle
            # wall rate) whenever the head is not a kernel, so the tick
            # loop can use them unmasked.  g_rem holds +inf at idle so
            # the per-tick time-to-event select needs no idle mask.
            self.g_uc[i] = 0.0
            self.g_um[i] = 0.0
            self.g_wall[i] = self.g_wall_idle[i]
            self.g_rem[i] = np.inf
            return
        kind = int(self.gseg_kind[i, p])
        self.g_kind[i] = kind
        self.g_rem[i] = self.gseg_dur[i, p]
        self.g_est[i] = self.gseg_est[i, p]
        self.g_uc[i] = self.gseg_uc[i, p]
        self.g_um[i] = self.gseg_um[i, p]
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
        self.c_uc[i] = self.cseg_uc[i, p]
        self.c_um[i] = self.cseg_um[i, p]
        self.c_frac[i] = 0.0

    def _start_iteration(self, i: int) -> None:
        lane = self.lanes[i]
        r = lane.ratio
        if (
            lane.last_ratio is not None
            and r != lane.last_ratio
            and lane.repartition_overhead_s > 0.0
        ):
            self.spin[i] = True
            self._lane_run_for(i, lane.repartition_overhead_s)
            self.spin[i] = False
        lane.last_ratio = r
        cpu_units, gpu_units = split_units(1.0, r)
        rebuild = gpu_units != lane.segs_units
        if rebuild:
            self._build_segments(i, cpu_units, gpu_units)
            self._write_segment_rows(i)
        self._begin_iteration_state(i)

    def _begin_iteration_state(self, i: int) -> None:
        lane = self.lanes[i]
        r = lane.last_ratio
        cpu_units, gpu_units = split_units(1.0, r)
        t0 = float(self.now[i])
        self.t0_it[i] = t0
        self.e0_cpu[i] = self.mc_e[i]
        self.e0_gpu[i] = self.mg_e[i]
        self.e0_tot[i] = float(self.mc_e[i]) + float(self.mg_e[i])
        self.r_it[i] = r
        self.cpu_units[i] = cpu_units
        self.gpu_units[i] = gpu_units
        self.g_ptr[i] = 0
        self.c_ptr[i] = 0
        if gpu_units > 0.0:
            self._load_gpu_head(i)
        else:
            self.g_kind[i] = _IDLE
            self.g_uc[i] = 0.0
            self.g_um[i] = 0.0
            self.g_wall[i] = self.g_wall_idle[i]
            self.g_rem[i] = np.inf
        if cpu_units > 0.0:
            self._load_cpu_head(i)
        else:
            self.c_kind[i] = _IDLE
            self.c_est[i] = np.inf
        self.gpu_done[i] = np.nan if gpu_units > 0.0 else t0
        self.cpu_done[i] = np.nan if cpu_units > 0.0 else t0
        self.g_pending[i] = gpu_units > 0.0
        self.c_pending[i] = cpu_units > 0.0
        self.it_dl[i] = t0 + lane.iteration_timeout_s
        if lane.sync_spin and cpu_units <= 0.0 and gpu_units > 0.0:
            self.spin[i] = True

    def _begin_iterations_bulk(self, idx: np.ndarray) -> None:
        """Vectorized ``_begin_iteration_state`` for same-ratio restarts.

        Valid only when ``r_it``/``cpu_units``/``gpu_units`` and the
        segment rows already describe the lanes' next iteration — true at
        construction (the setup loop fills them) and at every boundary of
        a divider-less lane (the ratio is pinned, so nothing rebuilds).
        Iteration restarts happen batch-wide on the same tick for lanes
        with equal segment counts, so this replaces the dominant per-lane
        Python cost of static sweeps with a dozen array ops.
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
            self.g_uc[gi] = self.gseg_uc[gi, 0]
            self.g_um[gi] = self.gseg_um[gi, 0]
            self.g_wall[gi] = self.gseg_pw[gi, 0]
            self.g_frac[gi] = 0.0
        self.c_kind[idx] = _IDLE
        self.c_est[idx] = np.inf
        ci = idx[c_has]
        if ci.size:
            self.c_kind[ci] = _KERNEL
            self.c_est[ci] = self.cseg_est[ci, 0]
            self.c_uc[ci] = self.cseg_uc[ci, 0]
            self.c_um[ci] = self.cseg_um[ci, 0]
            self.c_frac[ci] = 0.0
        self.gpu_done[idx] = np.where(g_has, np.nan, t0)
        self.cpu_done[idx] = np.where(c_has, np.nan, t0)
        self.g_pending[idx] = g_has
        self.c_pending[idx] = c_has
        self.it_dl[idx] = t0 + self.it_timeout[idx]
        self.spin[idx] = self.sync_spin[idx] & ~c_has & g_has

    def _lane_run_for(self, i: int, duration: float) -> None:
        """Clone of ``HeteroSystem.run_for`` for an idle-device lane.

        Only reached for the repartition stall, where both queues are
        empty and the CPU spins; steps are bounded by clock deadlines and
        the horizon exactly like the scalar loop.
        """
        end = float(self.now[i]) + duration
        guard = 0
        while float(self.now[i]) < end - 1e-12:
            guard += 1
            if guard > _MAX_TICKS:
                raise SimulationError("step explosion inside repartition")
            now_i = float(self.now[i])
            dl = min(float(self.wma_dl[i]), float(self.od_dl[i]))
            dt: float | None = None
            if not math.isinf(dl):
                dt = dl - now_i
                if dt < 0.0:
                    dt = 0.0
            horizon = end - now_i
            if dt is None or horizon < dt:
                dt = horizon
            cpu_pw = (
                float(self.cpu_busy_w[i]) if self.spin[i]
                else float(self.cpu_idle_w[i])
            )
            gpu_pw = float(self.g_base[i])
            self.mc_e[i] += ((cpu_pw + self.OVH1) / self.EFF1) * dt
            self.mg_e[i] += ((gpu_pw + self.OVH2) / self.EFF2) * dt
            self.g_elapsed[i] += dt
            self.c_elapsed[i] += dt
            if self.spin[i]:
                self.c_busy[i] += dt
                self.c_spin_s[i] += dt
                self.c_spin_e[i] += cpu_pw * dt
            when = now_i + dt
            self._fire_lane(i, when)
            self.now[i] = when

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
        if self._any_div:
            # Dividers repartition between iterations: they need the
            # scalar tc/tg and a per-lane rebuild, so they peel off the
            # vectorized bulk restart below.
            dsel = self.div_mask[idx]
            if dsel.any():
                il = idx.tolist()
                tcl = tcv.tolist()
                tgl = tgv.tolist()
                nowl = nowv.tolist()
                livel = live.tolist()
                for k in np.flatnonzero(dsel).tolist():
                    i = il[k]
                    lane = self.lanes[i]
                    decision = lane.divider.update(tcl[k], tgl[k])
                    lane.recorder.record_many(
                        nowl[k], division_r=decision.r_next,
                        tc=tcl[k], tg=tgl[k],
                    )
                    if livel[k]:
                        self._start_iteration(i)
                cont = cont[~self.div_mask[cont]]
        if cont.size:
            # Pinned ratio: nothing to repartition or rebuild, so the
            # restart is one vectorized bulk begin.
            self._begin_iterations_bulk(cont)
        self._all_act = bool(self.act.all())

    # -- the lockstep tick loop -----------------------------------------------

    def _advance_one_gpu(self, i: int) -> None:
        """Scalar pop-and-drain for one lane (see _advance_completed_heads)."""
        while True:
            self.g_ptr[i] += 1
            p = self.g_ptr[i]
            if p >= self.g_nseg[i]:
                self.g_kind[i] = _IDLE
                self.g_uc[i] = 0.0
                self.g_um[i] = 0.0
                self.g_wall[i] = self.g_wall_idle[i]
                self.g_rem[i] = np.inf
                return
            kind = int(self.gseg_kind[i, p])
            rr = self.gseg_dur[i, p]
            ee = self.gseg_est[i, p]
            self.g_kind[i] = kind
            self.g_rem[i] = rr
            self.g_est[i] = ee
            self.g_uc[i] = self.gseg_uc[i, p]
            self.g_um[i] = self.gseg_um[i, p]
            self.g_wall[i] = self.gseg_pw[i, p]
            self.g_frac[i] = 0.0
            if (rr > _EPS) if kind == _TRANSFER else (ee > _EPS):
                return

    def _advance_one_cpu(self, i: int) -> None:
        while True:
            self.c_ptr[i] += 1
            p = self.c_ptr[i]
            if p >= self.c_nseg[i]:
                self.c_kind[i] = _IDLE
                self.c_est[i] = np.inf
                return
            ee = self.cseg_est[i, p]
            self.c_kind[i] = _KERNEL
            self.c_est[i] = ee
            self.c_uc[i] = self.cseg_uc[i, p]
            self.c_um[i] = self.cseg_um[i, p]
            self.c_frac[i] = 0.0
            if ee > _EPS:
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
        elif idx.size > 8:
            # Same-workload lanes complete segments in lockstep, so large
            # cohorts almost always share one queue pointer; the gather
            # then collapses to scalar-column copies.  Live heads are
            # never zero-time (they would have drained at load), so the
            # whole-array zero probe below only fires for cohort lanes.
            uni = self.g_ptr[idx]
            if (uni == uni[0]).all():
                p0 = int(uni[0]) + 1
                if (idx.size >= self.act.shape[0] - 4
                        and p0 < self._g_nseg_min):
                    # Near-full cohort: whole-column copies are several
                    # times cheaper than per-lane gathers, so stash the
                    # few straggler heads, copy the column over everyone,
                    # and put the stragglers back.  Column p0 is inside
                    # the table for every row (width == max segment
                    # count), so the transiently clobbered straggler
                    # values are in-bounds garbage, never reads past the
                    # row.
                    rest = (~g_adv).nonzero()[0].tolist()
                    saved = [
                        (int(self.g_ptr[j]), int(self.g_kind[j]),
                         float(self.g_rem[j]), float(self.g_est[j]),
                         float(self.g_uc[j]), float(self.g_um[j]),
                         float(self.g_wall[j]), float(self.g_frac[j]))
                        for j in rest
                    ]
                    self.g_ptr += 1
                    self.g_kind[:] = self.gseg_kind[:, p0]
                    self.g_rem[:] = self.gseg_dur[:, p0]
                    self.g_est[:] = self.gseg_est[:, p0]
                    self.g_uc[:] = self.gseg_uc[:, p0]
                    self.g_um[:] = self.gseg_um[:, p0]
                    self.g_wall[:] = self.gseg_pw[:, p0]
                    self.g_frac[:] = 0.0
                    for j, s in zip(rest, saved):
                        self.g_ptr[j] = s[0]
                        self.g_kind[j] = s[1]
                        self.g_rem[j] = s[2]
                        self.g_est[j] = s[3]
                        self.g_uc[j] = s[4]
                        self.g_um[j] = s[5]
                        self.g_wall[j] = s[6]
                        self.g_frac[j] = s[7]
                    # Restored straggler heads are idle or non-zero-time
                    # (live heads drain at load), so the whole-array
                    # probe only fires for cohort lanes — and a column
                    # with no zero-time segments skips it outright.
                    gz = self._gcol_zero
                    if gz is None:
                        gz = self._refresh_gcol_zero()
                    if gz[p0]:
                        zm = np.where(
                            self.g_kind == _TRANSFER, self.g_rem <= _EPS,
                            (self.g_kind == _KERNEL) & (self.g_est <= _EPS),
                        )
                        idx = zm.nonzero()[0]
                    else:
                        idx = _EMPTY_IDX
                elif p0 < int(self.g_nseg[idx].min()):
                    self.g_ptr[idx] = p0
                    self.g_kind[idx] = self.gseg_kind[idx, p0]
                    self.g_rem[idx] = self.gseg_dur[idx, p0]
                    self.g_est[idx] = self.gseg_est[idx, p0]
                    self.g_uc[idx] = self.gseg_uc[idx, p0]
                    self.g_um[idx] = self.gseg_um[idx, p0]
                    self.g_wall[idx] = self.gseg_pw[idx, p0]
                    self.g_frac[idx] = 0.0
                    gz = self._gcol_zero
                    if gz is None:
                        gz = self._refresh_gcol_zero()
                    if gz[p0]:
                        zm = np.where(
                            self.g_kind == _TRANSFER, self.g_rem <= _EPS,
                            (self.g_kind == _KERNEL) & (self.g_est <= _EPS),
                        )
                        idx = zm.nonzero()[0]
                    else:
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
                # Keep the u_core/u_mem == 0.0 / g_wall == idle / g_rem
                # == inf invariants (see _load_gpu_head) for lanes whose
                # queue just drained.
                self.g_uc[done] = 0.0
                self.g_um[done] = 0.0
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
            self.g_uc[li] = self.gseg_uc[li, pi]
            self.g_um[li] = self.gseg_um[li, pi]
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
            self.c_uc[li] = self.cseg_uc[li, pi]
            self.c_um[li] = self.cseg_um[li, pi]
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
            # 1. per-lane dt: min over clock deadline, device events, horizon.
            # (1 - frac) * est is +0.0 when est == 0.0, so the scalar
            # engine's explicit zero-estimate branch needs no extra where.
            omf_g = 1.0 - self.g_frac
            omf_c = 1.0 - self.c_frac
            # Idle sentinels (g_rem / c_est hold +inf at idle, and rolled
            # fractions stay strictly below 1 so omf_c > 0) make the
            # not-a-kernel arm of each select a plain array read.
            g_tte = np.where(gkern, omf_g * self.g_est, self.g_rem)
            c_tte = omf_c * self.c_est
            dt = np.minimum(np.minimum(g_tte, c_tte), horizon)
            if self._has_tasks:
                task_dl = np.minimum(self.wma_dl, self.od_dl)
                dt = np.minimum(dt, np.maximum(task_dl - self.now, 0.0))
            if not all_act:
                dt = np.where(act, dt, 0.0)
            # 2+3. meter integration via precomputed wall watts: the
            # accumulate_from expression over a head's lifetime repeats
            # the same operand floats, so it was folded once per segment
            # / actuation (gseg_pw, cpu_*_wall) instead of once per tick.
            cpu_busy = (self.c_kind >= 0) | self.spin
            self.mc_e += np.where(
                cpu_busy, self.cpu_busy_wall, self.cpu_idle_wall
            ) * dt
            self.mg_e += self.g_wall * dt
            # 4. device utilization integrals (+0.0 when dt == 0:
            # identity).  The WMA/ondemand monitors are their only
            # readers, so all-static batches skip them entirely.
            if self._has_tasks:
                self.g_bcore += self.g_uc * dt
                self.g_bmem += self.g_um * dt
                self.g_elapsed += dt
                self.c_elapsed += dt
                self.c_busy += np.where(cpu_busy, dt, 0.0)
            if self.spin.any():
                # Spinning lanes are busy by definition, so their device
                # draw is exactly cpu_busy_w.  Non-spinning lanes get
                # cpu_busy_w * 0.0 == +0.0, the same addend as before.
                spin_m = self.spin & (self.c_kind < 0)
                sdt = np.where(spin_m, dt, 0.0)
                self.c_spin_s += sdt
                self.c_spin_e += self.cpu_busy_w * sdt
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
            # 6. clock: fire due controller tasks, then land on `when`.
            when = self.now + dt
            if self._has_tasks:
                fire = act & (task_dl <= when)
                if fire.any():
                    for i in np.flatnonzero(fire):
                        self._fire_lane(int(i), float(when[i]))
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
                stamped = True
            if ncd.any():
                self.cpu_done[ncd] = self.now[ncd]
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
            traces=lane.recorder.as_dict(),
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
    return _BatchEngine(requests).run()
