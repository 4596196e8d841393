"""Spawn-safe fleet shard: simulate one contiguous slice of the fleet.

:func:`run_shard` is a harness job target (``repro.fleet.shard:run_shard``)
— plain JSON kwargs in, JSON payload out — so a fleet run can ride the
supervised harness's isolated workers, resume after a kill, and
serve unchanged shards from the content-addressed result cache.

Each shard rebuilds the scenario from its dict form and **re-plans the
cap schedule locally**: the coordinator's fluid model is deterministic
and cheap relative to the node simulations, so recomputing it per shard
keeps the job kwargs small (no thousand-node cap matrix in every spec)
while guaranteeing every shard enforces the identical plan.  Shard
results therefore depend only on ``(scenario, allocator, node range)``
— exactly what the cache key fingerprints.

With a ``telemetry_dir`` the shard exports rack-labelled ``fleet_*``
instruments under ``<dir>/workers/<shard>/`` — the per-worker half of
the :mod:`repro.telemetry.merge` contract.  Only ``fleet_*`` names are
exported (per-node controller telemetry stays off): a thousand nodes'
tick-level gauges would swamp the merge, and the fleet-level questions
(energy by rack, violations by rack, drain tail) need only aggregates.
"""

from __future__ import annotations

from typing import Any

from repro.errors import ConfigError
from repro.fleet.coordinator import CapPlan, PowerCapCoordinator
from repro.fleet.node import FleetNode
from repro.fleet.scenario import FleetScenario
from repro.runtime.batch_executor import FLEET_SCALAR_REASON


def shard_name(node_lo: int, node_hi: int) -> str:
    """Harness job name for one shard (stable, filesystem-safe)."""
    return f"nodes-{node_lo:05d}-{node_hi:05d}"


def simulate_nodes(scenario: FleetScenario, plan: CapPlan, node_lo: int,
                   node_hi: int) -> list[dict[str, Any]]:
    """Run nodes ``[node_lo, node_hi)`` against the plan; dict results.

    This is the single simulation path: the inline runner and the
    spawned shard worker both call it, so sharded and inline fleet runs
    are bit-identical by construction.
    """
    results = []
    for node_id in range(node_lo, node_hi):
        node = FleetNode(node_id, scenario)
        results.append(node.run(plan.caps_for(node_id)).to_dict())
    return results


def export_fleet_worker(nodes: list[dict[str, Any]], telemetry_dir: str,
                        name: str, allocator: str) -> None:
    """Export one worker's rack-labelled ``fleet_*`` instruments.

    Shared by the spawned shard workers and the inline runner so a
    merged telemetry directory looks the same either way: per-rack
    violation/fault counters plus node energy and drain-end histograms.
    """
    from repro.telemetry import Telemetry, export_worker

    # The Telemetry roots at the ambient trace context — propagated via
    # TRACEPARENT_ENV by the worker for isolated shards and set by the
    # inline runner around this call — so the shard's span stitches into
    # the fleet run's trace identically either way.
    telemetry = Telemetry(base_labels={"allocator": allocator})
    with telemetry.span("fleet_shard", shard=name):
        for record in nodes:
            rack = str(record["rack"])
            telemetry.counter("fleet_nodes_total", rack=rack).inc()
            telemetry.counter("fleet_cap_violation_ticks_total",
                              rack=rack).inc(record["violation_ticks"])
            telemetry.counter("fleet_faults_injected_total",
                              rack=rack).inc(record["faults_injected"])
            telemetry.histogram("fleet_node_energy_j",
                                rack=rack).observe(record["energy_j"])
            telemetry.histogram("fleet_node_busy_end_s",
                                rack=rack).observe(record["busy_end_s"])
    export_worker(telemetry, telemetry_dir, name)


def run_shard(scenario: dict[str, Any], allocator: str, node_lo: int,
              node_hi: int,
              telemetry_dir: str | None = None) -> dict[str, Any]:
    """Harness target: simulate one node range of the fleet (module docs)."""
    if not 0 <= node_lo < node_hi:
        raise ConfigError(f"bad shard range [{node_lo}, {node_hi})")
    scn = FleetScenario.from_dict(scenario)
    if node_hi > scn.n_nodes:
        raise ConfigError(
            f"shard range [{node_lo}, {node_hi}) exceeds fleet size "
            f"{scn.n_nodes}"
        )
    plan = PowerCapCoordinator(scn, allocator).plan()
    nodes = simulate_nodes(scn, plan, node_lo, node_hi)
    if telemetry_dir is not None:
        export_fleet_worker(nodes, telemetry_dir,
                            shard_name(node_lo, node_hi), allocator)
    # Fleet nodes build their own capped, fault-injected systems, which
    # the lockstep batch engine excludes by construction — record why so
    # payload consumers can tell this apart from a batched sweep shard.
    return {"allocator": allocator, "node_lo": node_lo, "node_hi": node_hi,
            "engine": FLEET_SCALAR_REASON, "nodes": nodes}
