"""Fleet scenarios: first-class workload generators for fleet runs.

A :class:`FleetScenario` is a frozen, JSON-round-trippable description
of everything time-varying in a fleet simulation:

- the **diurnal load wave** — each node's offered load follows a raised
  cosine over the scenario's day length, with per-rack "timezone"
  offsets and per-node phase jitter so racks peak at different times
  (that staggering is what gives the coordinator slack to reclaim);
- **rolling power-cap changes** — the datacenter budget fraction can
  step at scheduled times mid-run (a grid event, a demand-response
  window);
- **correlated rack-level fault bursts** — a deterministic subset of
  racks suffers thermal-throttle stall episodes in declared windows,
  injected through the existing :mod:`repro.faults` machinery.

Everything derives from ``seed`` through
:func:`repro.seeding.spawn_seed`, keyed by *stable identifiers* (node
id, rack id, window index) rather than iteration order — so a node's
hardware class, workload mix, load trace and fault stream are identical
no matter which shard simulates it, which is what makes sharded and
inline fleet runs bit-comparable and node results content-addressable.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, asdict, dataclass, fields, replace

from repro.errors import ConfigError
from repro.extensions.hardware_table import HARDWARE_TABLE
from repro.faults.injector import FAULT_PROFILES, FaultPlan
from repro.seeding import spawn_seed, spawn_uniform

# Derivation salts: one per per-node random quantity, so streams keyed
# by the same node id never collide across dimensions.
_SALT_HW = 1
_SALT_MIX = 2
_SALT_PHASE = 3
_SALT_JITTER = 4
_SALT_BURST = 5
_SALT_FAULT = 6

#: Default hardware mix for generated scenarios (entry key -> weight).
DEFAULT_HARDWARE_MIX: tuple[tuple[str, float], ...] = (
    ("paper-8800gtx", 0.40),
    ("paper-8800gtx-dvfs", 0.15),
    ("efficiency-node", 0.25),
    ("highperf-node", 0.20),
)


@dataclass(frozen=True)
class FleetScenario:
    """Deterministic description of one fleet run (see module docs)."""

    name: str
    n_nodes: int
    nodes_per_rack: int = 20
    duration_s: float = 240.0
    coordination_interval_s: float = 12.0
    day_length_s: float = 240.0
    load_floor: float = 0.08
    load_peak: float = 0.95
    budget_frac: float = 0.5
    #: Scheduled budget-fraction changes: (time_s, new_frac), ascending.
    budget_changes: tuple[tuple[float, float], ...] = ()
    hardware_mix: tuple[tuple[str, float], ...] = DEFAULT_HARDWARE_MIX
    fault_profile: str = "none"
    #: Correlated rack-level stall-burst windows: (start_s, duration_s).
    fault_burst_windows: tuple[tuple[float, float], ...] = ()
    #: Fraction of racks hit by each burst wave.
    fault_burst_rack_frac: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ConfigError("a fleet needs at least one node")
        if self.nodes_per_rack < 1:
            raise ConfigError("nodes_per_rack must be >= 1")
        if self.duration_s <= 0.0 or self.day_length_s <= 0.0:
            raise ConfigError("durations must be positive")
        if not 0.0 < self.coordination_interval_s <= self.duration_s:
            raise ConfigError(
                "coordination interval must be in (0, duration_s]"
            )
        if not 0.0 <= self.load_floor <= self.load_peak <= 1.0:
            raise ConfigError("need 0 <= load_floor <= load_peak <= 1")
        for frac in (self.budget_frac,
                     *(frac for _, frac in self.budget_changes)):
            if not 0.0 <= frac <= 1.0:
                raise ConfigError(f"budget fraction {frac:g} outside [0, 1]")
        times = [t for t, _ in self.budget_changes]
        if times != sorted(times):
            raise ConfigError("budget_changes must be in ascending time order")
        if not self.hardware_mix:
            raise ConfigError("hardware_mix must name at least one entry")
        for key, weight in self.hardware_mix:
            if key not in HARDWARE_TABLE:
                raise ConfigError(f"unknown hardware entry {key!r} in mix")
            if weight <= 0.0:
                raise ConfigError(f"hardware mix weight for {key!r} must be "
                                  "positive")
        if self.fault_profile not in ("none", *FAULT_PROFILES):
            raise ConfigError(
                f"unknown fault profile {self.fault_profile!r}; choose from "
                f"{['none', *sorted(FAULT_PROFILES)]}"
            )
        for start, duration in self.fault_burst_windows:
            if start < 0.0 or duration <= 0.0:
                raise ConfigError(
                    f"bad fault burst window ({start:g}, {duration:g})"
                )
        if not 0.0 <= self.fault_burst_rack_frac <= 1.0:
            raise ConfigError("fault_burst_rack_frac must be in [0, 1]")

    # -- topology -------------------------------------------------------------

    @property
    def n_racks(self) -> int:
        return -(-self.n_nodes // self.nodes_per_rack)  # ceil division

    def rack_of(self, node_id: int) -> int:
        return node_id // self.nodes_per_rack

    @property
    def n_windows(self) -> int:
        """Coordination windows inside the scenario duration."""
        return -(-int(round(self.duration_s * 1e9))
                 // int(round(self.coordination_interval_s * 1e9)))

    def window_start(self, window: int) -> float:
        return window * self.coordination_interval_s

    # -- budget schedule ------------------------------------------------------

    def budget_frac_at(self, t: float) -> float:
        """Budget fraction in force at time ``t`` (rolling cap changes)."""
        frac = self.budget_frac
        for change_t, change_frac in self.budget_changes:
            if t >= change_t:
                frac = change_frac
            else:
                break
        return frac

    # -- per-node deterministic draws ----------------------------------------

    def node_hardware(self, node_id: int) -> str:
        """Hardware-catalog key for one node (weighted, seeded draw)."""
        total = sum(weight for _, weight in self.hardware_mix)
        draw = spawn_uniform(self.seed, _SALT_HW, node_id) * total
        for key, weight in self.hardware_mix:
            draw -= weight
            if draw < 0.0:
                return key
        return self.hardware_mix[-1][0]

    def node_mix(self, node_id: int) -> tuple[float, float]:
        """(compute_frac, mem_frac) of the node's kernels, max pinned at 1.

        Half the fleet leans compute-bound, half memory-bound, with the
        bound side saturated so one second of offered work takes one
        second at peak clocks.
        """
        side = spawn_uniform(self.seed, _SALT_MIX, node_id)
        depth = spawn_uniform(self.seed, _SALT_MIX, node_id, 1)
        if side < 0.5:
            return 1.0, 0.30 + 0.60 * depth
        return 0.40 + 0.55 * depth, 1.0

    def node_phase(self, node_id: int) -> float:
        """Diurnal phase offset: rack timezone + per-node jitter, in days."""
        rack_share = self.rack_of(node_id) / max(1, self.n_racks)
        jitter = spawn_uniform(self.seed, _SALT_PHASE, node_id)
        return 0.35 * rack_share + 0.06 * jitter

    def load(self, node_id: int, window: int) -> float:
        """Offered load in [0, 1] for one node over one window."""
        t = self.window_start(window)
        phase = t / self.day_length_s + self.node_phase(node_id)
        wave = 0.5 * (1.0 - math.cos(2.0 * math.pi * phase))
        base = self.load_floor + (self.load_peak - self.load_floor) * wave
        jitter = 0.85 + 0.30 * spawn_uniform(self.seed, _SALT_JITTER,
                                             node_id, window)
        return min(1.0, max(0.0, base * jitter))

    # -- correlated fault bursts ----------------------------------------------

    def burst_racks(self) -> tuple[int, ...]:
        """Racks hit by the stall-burst waves (deterministic subset)."""
        if not self.fault_burst_windows:
            return ()
        return tuple(
            rack for rack in range(self.n_racks)
            if spawn_uniform(self.seed, _SALT_BURST, rack)
            < self.fault_burst_rack_frac
        )

    def node_in_burst(self, node_id: int) -> bool:
        return self.rack_of(node_id) in self.burst_racks()

    def fault_plan_for(self, node_id: int) -> FaultPlan | None:
        """The node's seeded fault plan, or None for a fault-free node.

        Rate-driven faults follow the named profile; nodes in burst
        racks additionally get every burst window as a trace-driven
        stall episode (thermal throttle: clocks pinned to the floors).
        Seeds spawn per node, so sibling nodes draw decorrelated
        streams regardless of sharding.
        """
        rates = (dict(FAULT_PROFILES[self.fault_profile])
                 if self.fault_profile != "none" else {})
        episodes = (self.fault_burst_windows
                    if self.node_in_burst(node_id) else ())
        if not rates and not episodes:
            return None
        return FaultPlan(seed=spawn_seed(self.seed, _SALT_FAULT, node_id),
                         stall_episodes=tuple(episodes), **rates)

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready form (shard kwargs, cache keys, run manifests)."""
        data = asdict(self)
        data["budget_changes"] = [list(c) for c in self.budget_changes]
        data["hardware_mix"] = [list(m) for m in self.hardware_mix]
        data["fault_burst_windows"] = [list(w)
                                       for w in self.fault_burst_windows]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "FleetScenario":
        """Parse a :meth:`to_dict` payload (a shard job's scenario).

        ``name``, ``n_nodes`` and ``hardware_mix`` are required: a
        payload without its mix must not silently simulate the default
        catalog.  Malformed input raises :class:`ConfigError` naming the
        field.
        """
        if not isinstance(data, dict):
            raise ConfigError("scenario payload must be an object, got "
                              f"{type(data).__name__}")
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ConfigError(f"unknown scenario field(s) {unknown}")
        data = dict(data)
        for f in fields(cls):
            if f.name not in data:
                if f.default is MISSING or f.name == "hardware_mix":
                    raise ConfigError(f"scenario field {f.name!r} is missing")
            elif f.name in _PAIR_FIELDS:
                data[f.name] = _pairs(f.name, data[f.name], _PAIR_FIELDS[f.name])
            elif not _is_a(data[f.name], _SCALAR_TYPES[f.type]):
                raise ConfigError(f"scenario field {f.name!r} must be {f.type}, "
                                  f"got {data[f.name]!r}")
        return cls(**data)


#: JSON types accepted per scalar field annotation (an int is a float).
_SCALAR_TYPES = {"str": (str,), "int": (int,), "float": (int, float)}
#: Pair-list fields and the type of each pair's first element.
_PAIR_FIELDS = {"budget_changes": "float", "hardware_mix": "str",
                "fault_burst_windows": "float"}


def _is_a(value, types: tuple[type, ...]) -> bool:
    return isinstance(value, types) and not isinstance(value, bool)


def _pairs(name: str, value, first: str) -> tuple[tuple, ...]:
    """Validate a JSON list of ``[first, float]`` pairs into tuples."""
    pairs = []
    for item in value if isinstance(value, (list, tuple)) else [value]:
        if not (isinstance(item, (list, tuple)) and len(item) == 2
                and _is_a(item[0], _SCALAR_TYPES[first])
                and _is_a(item[1], _SCALAR_TYPES["float"])):
            raise ConfigError(f"scenario field {name!r} needs [{first}, float] "
                              f"pairs, got {item!r}")
        key, number = item
        pairs.append((key if first == "str" else float(key), float(number)))
    return tuple(pairs)


# -- named scenario generators -------------------------------------------------


def diurnal(n_nodes: int = 1000, seed: int = 0, **overrides) -> FleetScenario:
    """The baseline diurnal wave: staggered racks, steady budget."""
    return FleetScenario(name="diurnal", n_nodes=n_nodes, seed=seed,
                         **overrides)


def rolling_caps(n_nodes: int = 1000, seed: int = 0,
                 **overrides) -> FleetScenario:
    """Diurnal wave plus two scheduled budget steps mid-run.

    The budget tightens sharply in the middle third (a demand-response
    window) and partially recovers — the coordinator must re-plan every
    node's cap on the fly.
    """
    base = FleetScenario(name="rolling-caps", n_nodes=n_nodes, seed=seed,
                         **overrides)
    third = base.duration_s / 3.0
    return replace(base, budget_changes=(
        (third, max(0.0, base.budget_frac * 0.5)),
        (2.0 * third, min(1.0, base.budget_frac * 0.9)),
    ))


def fault_bursts(n_nodes: int = 1000, seed: int = 0,
                 **overrides) -> FleetScenario:
    """Diurnal wave plus two correlated rack-level throttle bursts.

    A quarter of the racks stall (clocks pinned to the floors) in two
    windows; the affected nodes can't use their caps, so the coordinator
    reclaims that headroom for the healthy racks.
    """
    base = FleetScenario(name="fault-bursts", n_nodes=n_nodes, seed=seed,
                         **overrides)
    win = base.coordination_interval_s
    return replace(base, fault_burst_windows=(
        (base.duration_s * 0.25, 1.5 * win),
        (base.duration_s * 0.60, 1.5 * win),
    ))


#: Named scenario registry (CLI ``--scenario`` values).
SCENARIOS = {
    "diurnal": diurnal,
    "rolling-caps": rolling_caps,
    "fault-bursts": fault_bursts,
}


def make_scenario(name: str, n_nodes: int, seed: int = 0,
                  **overrides) -> FleetScenario:
    """Build a named scenario with overrides applied."""
    try:
        factory = SCENARIOS[name]
    except KeyError:
        raise ConfigError(
            f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}"
        ) from None
    return factory(n_nodes=n_nodes, seed=seed, **overrides)
