"""Byte pins on every side channel of the controller.

A run's record of its own decisions (the WMA, frequency and division
traces behind the paper's Figs. 5, 7 and 8, the telemetry stream, the
decision audit and the fault tallies) is written at the controller's
decision points.  These digests pin all of it for three faulted runs:
kmeans under GreenGPU at time scale 0.05 with the ``moderate`` and then
the ``heavy`` profile (together they reach every ``ctrl_*`` channel and
every fault kind), and a ``heavy`` two-card run, which cannot be
audited.

Hashed per run:

- every trace channel's times and values;
- every telemetry event, minus its wall-clock fields (``wall_s``,
  ``t_wall_start``, ``t_unix*``);
- every registry counter, gauge and histogram except ``span_wall_s``;
- the audit records, ``ControlHealth`` and the injector's counts.

A digest that moves means a run writes different bytes than before:
fix the change, do not re-pin, unless the output is meant to change.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.core.policies import GreenGpuPolicy
from repro.experiments.common import scaled_config, scaled_options, scaled_workload
from repro.faults.injector import FAULT_KIND_RATES, fault_profile
from repro.faults.health import HEALTH_FIELDS
from repro.runtime.executor import simulate
from repro.sim.calibration import default_testbed_config, geforce_8800_gtx_spec
from repro.sim.platform import HeteroSystem
from repro.sim.trace import TraceRecorder
from repro.telemetry import AuditTrail, Telemetry

TIME_SCALE = 0.05
ITERATIONS = 3
FAULT_SEED = 3

_WALL_FIELDS = ("wall_s", "t_wall_start")


class _Keeping:
    """A policy that keeps the controller it builds (for its injector)."""

    def __init__(self, policy):
        self._policy = policy
        self.controller = None

    def __getattr__(self, name):
        return getattr(self._policy, name)

    def make_controller(self, *args, **kwargs):
        self.controller = self._policy.make_controller(*args, **kwargs)
        return self.controller


def _digest(obj) -> str:
    text = json.dumps(obj, separators=(",", ":"), default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def _channels(profile: str, n_cards: int = 1) -> dict:
    """Run once and collect every side channel in a JSON-ready form."""
    policy = _Keeping(GreenGpuPolicy(config=scaled_config(TIME_SCALE)).with_faults(
        fault_profile(profile, seed=FAULT_SEED)))
    system = HeteroSystem(dataclasses.replace(
        default_testbed_config(),
        extra_gpus=tuple(geforce_8800_gtx_spec() for _ in range(n_cards - 1)),
    ))
    recorder = TraceRecorder()
    telemetry = Telemetry()
    audit = AuditTrail() if n_cards == 1 else None
    result = simulate(
        scaled_workload("kmeans", TIME_SCALE), policy, n_iterations=ITERATIONS,
        system=system, options=scaled_options(TIME_SCALE), recorder=recorder,
        telemetry=telemetry, audit=audit,
    )
    snapshot = telemetry.registry.snapshot()
    snapshot["histograms"] = [h for h in snapshot["histograms"]
                              if h["name"] != "span_wall_s"]
    return {
        "trace": {name: [trace.times.tolist(), trace.values.tolist()]
                  for name, trace in recorder.as_dict().items()},
        "events": [{k: v for k, v in event.items()
                    if k not in _WALL_FIELDS and not k.startswith("t_unix")}
                   for event in telemetry.events],
        "metrics": snapshot,
        "health": result.health.as_dict(),
        "faults": policy.controller.faults.counts,
        **({"audit": audit.records()} if audit is not None else {}),
    }


#: run -> {channel group: sha256}, taken before the side channels moved
#: into one observer; every byte must survive that refactor.
PINNED = {
    ('moderate', 1): {
        "trace": "2abaadd035b0298206df4efd4716f92b1fbda7b1bd2615e3f78b83a386fb475d",
        "events": "28332e3900c91ff0be08d91de14d505bf480649c2f164d4716ac80a40e756245",
        "metrics": "cd44407fcb9151ab9a6db04ca95bce374f20db357fd573bc85b1ce3c36c5c1f4",
        "health": "e37f7a1bc9a7dc871501d41aeeb1665e2a5f4130385298858244a0c3646c7fff",
        "faults": "9a0a9e1c44c9ccab568d1d9d4b24cc6e99c7878ae65a92815d7a0e4b1d1b7e9b",
        "audit": "d43460832a498a5246a87802f9c5ec0ee71e7f039f57d931f1aa1d46550c2569",
    },
    ('heavy', 1): {
        "trace": "03ae7fd96c14f61101b2bfa1bcd22fb022cb8fbb3842c4aa56b893890d066bc1",
        "events": "b79ecc91b31664a931000a9093ee0e759296ffcf0cc91647837108640dc32983",
        "metrics": "63f8e98315c26bb3e008079fd0513c79acf5396ff42a3876590b778dd1691446",
        "health": "a815b482dccf4671bc5cfc320a5a70632dfc44a3528ca3359dc8582cb78a4c01",
        "faults": "a7ea8911bba72c989c01d6bceda8873b99b72f9a6991181b82ecccf4b32191f2",
        "audit": "85db0e84576c3d3ad8329bd832692be994861b1afc7f87e82f331b2093262803",
    },
    ('heavy', 2): {
        "trace": "51149c28989f5e098f2087171081a5deb2a343872591c446d03d583460d9f76f",
        "events": "ee38b2fcc70340cbabd08c60620ad58bad51ed1b18633d825a2110580787e83e",
        "metrics": "8ab11710babfb9973d46d0fe1bcd0a9939fd2e01268aa72bbbd6decec5ea1435",
        "health": "cf79dd6b75c0a6b85153a5139cb1620f8b5d245427a7c303f0e936d105adf412",
        "faults": "f323b9770e80d1bb869e723ac9f28d459ff15f08efc5d4b5a3726bcfbd18ef7b",
    },
}


@pytest.fixture(scope="module")
def runs():
    return {key: _channels(*key) for key in PINNED}


@pytest.mark.parametrize("key", list(PINNED), ids=lambda k: f"{k[0]}-{k[1]}card")
def test_side_channels_are_pinned(runs, key):
    digests = {group: _digest(value) for group, value in runs[key].items()}
    assert digests == PINNED[key]


def test_pinned_runs_reach_every_fault_path(runs):
    """The pins mean something only if the runs take every fault path:
    every ``ctrl_*`` channel, every health counter and every fault kind."""
    single = [runs[("moderate", 1)], runs[("heavy", 1)]]
    channels = set().union(*(run["trace"] for run in single))
    assert {"ctrl_retry", "ctrl_actuation_failed", "ctrl_fallback", "ctrl_skip",
            "ctrl_degraded", "ctrl_division_frozen"} <= channels
    assert {f"fault_{kind}" for kind in FAULT_KIND_RATES} <= channels
    assert all(any(run["health"][field] for run in single)
               for field in HEALTH_FIELDS)
    assert set().union(*(run["faults"] for run in single)) == set(FAULT_KIND_RATES)
