"""The run-diff engine: compare two run directories, typed delta out.

Energy conclusions are fragile without systematic run-to-run comparison
(the DVFS measurement literature's recurring warning), so the repo gives
the comparison a first-class type.  :func:`diff_runs` reads two telemetry
run directories — the ``snapshot.json`` metrics plus the ``audit.jsonl``
decision trail — and folds the comparison into one :class:`RunDelta`:

- **outcome deltas** — total energy and time, absolute and relative;
- **behaviour deltas** — tick counts, decision-flip counts, and the
  *first-divergence tick* (the first scaling tick whose chosen frequency
  pair differs between the runs);
- **health drift** — per-counter ``ctrl_*`` differences (fault, retry,
  fallback, skip, degradation counts);
- **metric diffs** — every instrument whose state differs after
  :func:`~repro.telemetry.merge.strip_wall_clock` removes the
  nondeterministic wall-time fields.

Two identically-seeded runs compare **exactly equal** (the simulator is
deterministic), which is what makes ``repro diff A B
--fail-on-divergence`` a CI determinism gate, and ``repro diff GOLDEN RUN
--fail-on energy=2%`` a perf-regression gate.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.errors import ConfigError
from repro.telemetry.audit import (
    audit_path,
    decision_flips,
    read_audit,
    scaling_records,
)
from repro.telemetry.exporters import SNAPSHOT_NAME, read_snapshot
from repro.telemetry.merge import strip_wall_clock

#: ``--fail-on`` keys measured as relative (percentage) deltas.
RELATIVE_KEYS = ("energy", "time")
#: ``--fail-on`` keys measured as absolute count deltas.
COUNT_KEYS = ("flips",)


@dataclass(frozen=True)
class RunDelta:
    """Typed outcome of comparing run ``a`` against run ``b``."""

    dir_a: str
    dir_b: str
    energy_a: float | None
    energy_b: float | None
    time_a: float | None
    time_b: float | None
    ticks_a: int
    ticks_b: int
    flips_a: int
    flips_b: int
    first_divergence_tick: int | None
    metric_diffs: tuple[str, ...]
    health_drift: dict[str, float] = field(default_factory=dict)

    @staticmethod
    def _rel(a: float | None, b: float | None) -> float | None:
        if a is None or b is None or a == 0.0:
            return None
        return (b - a) / a

    @property
    def energy_rel(self) -> float | None:
        """Relative energy change of ``b`` versus ``a`` (None if unknown)."""
        return self._rel(self.energy_a, self.energy_b)

    @property
    def time_rel(self) -> float | None:
        return self._rel(self.time_a, self.time_b)

    @property
    def flip_delta(self) -> int:
        return self.flips_b - self.flips_a

    @property
    def divergent(self) -> bool:
        """True if *anything* deterministic differs between the runs."""
        return bool(
            self.metric_diffs
            or self.first_divergence_tick is not None
            or self.ticks_a != self.ticks_b
            or self.health_drift
        )


def _sum_gauge(snapshot: dict[str, Any], name: str) -> float | None:
    values = [float(g["value"]) for g in snapshot.get("gauges", ())
              if g["name"] == name]
    return sum(values) if values else None


def _instrument_states(stripped: dict[str, Any]) -> dict[tuple, Any]:
    """Flatten a stripped snapshot into comparable (identity -> state)."""
    states: dict[tuple, Any] = {}
    for rec in stripped["counters"]:
        key = ("counter", rec["name"], tuple(sorted(rec["labels"].items())))
        states[key] = rec["value"]
    for rec in stripped["gauges"]:
        key = ("gauge", rec["name"], tuple(sorted(rec["labels"].items())))
        states[key] = (rec["value"], rec.get("updated_at"))
    for rec in stripped["histograms"]:
        key = ("histogram", rec["name"], tuple(sorted(rec["labels"].items())))
        states[key] = (rec["count"], rec["sum"], rec.get("min"),
                       rec.get("max"), tuple(rec["samples"]))
    return states


def _metric_diffs(snap_a: dict[str, Any],
                  snap_b: dict[str, Any]) -> tuple[str, ...]:
    a = _instrument_states(strip_wall_clock(snap_a))
    b = _instrument_states(strip_wall_clock(snap_b))
    names = {key[1] for key in set(a) ^ set(b)}
    names.update(key[1] for key in set(a) & set(b) if a[key] != b[key])
    return tuple(sorted(names))


def _counter_totals(snapshot: dict[str, Any], prefix: str) -> dict[str, float]:
    totals: dict[str, float] = {}
    for rec in snapshot.get("counters", ()):
        if rec["name"].startswith(prefix):
            totals[rec["name"]] = totals.get(rec["name"], 0.0) + float(rec["value"])
    return totals


def _decision_key(record: dict[str, Any]) -> tuple:
    """What "the same decision" means when aligning two trails."""
    return (
        str(record.get("job", "")),
        record["kind"],
        record.get("core_level"),
        record.get("mem_level"),
    )


def _first_divergence(ticks_a: list[dict[str, Any]],
                      ticks_b: list[dict[str, Any]]) -> int | None:
    for index, (ra, rb) in enumerate(zip(ticks_a, ticks_b)):
        if _decision_key(ra) != _decision_key(rb):
            return index
    if len(ticks_a) != len(ticks_b):
        return min(len(ticks_a), len(ticks_b))
    return None


def diff_runs(dir_a: str | os.PathLike[str],
              dir_b: str | os.PathLike[str]) -> RunDelta:
    """Compare two run directories into a :class:`RunDelta`.

    Raises :class:`~repro.errors.SerializationError` when either
    directory has no readable ``snapshot.json`` (a missing or corrupt
    run); a missing ``audit.jsonl`` reads as an empty trail so pre-audit
    runs stay comparable on metrics alone.
    """
    dir_a, dir_b = os.fspath(dir_a), os.fspath(dir_b)
    snap_a = read_snapshot(os.path.join(dir_a, SNAPSHOT_NAME))
    snap_b = read_snapshot(os.path.join(dir_b, SNAPSHOT_NAME))
    audit_a = read_audit(audit_path(dir_a), missing_ok=True)
    audit_b = read_audit(audit_path(dir_b), missing_ok=True)
    ticks_a = scaling_records(audit_a)
    ticks_b = scaling_records(audit_b)

    totals_a = _counter_totals(snap_a, "ctrl_")
    totals_b = _counter_totals(snap_b, "ctrl_")
    drift = {
        name: totals_b.get(name, 0.0) - totals_a.get(name, 0.0)
        for name in sorted(set(totals_a) | set(totals_b))
        if totals_b.get(name, 0.0) != totals_a.get(name, 0.0)
    }

    return RunDelta(
        dir_a=dir_a,
        dir_b=dir_b,
        energy_a=_sum_gauge(snap_a, "run_total_energy_j"),
        energy_b=_sum_gauge(snap_b, "run_total_energy_j"),
        time_a=_sum_gauge(snap_a, "run_time_s"),
        time_b=_sum_gauge(snap_b, "run_time_s"),
        ticks_a=len(ticks_a),
        ticks_b=len(ticks_b),
        flips_a=len(decision_flips(audit_a)),
        flips_b=len(decision_flips(audit_b)),
        first_divergence_tick=_first_divergence(ticks_a, ticks_b),
        metric_diffs=_metric_diffs(snap_a, snap_b),
        health_drift=drift,
    )


# -- thresholds (`--fail-on energy=2%`) --------------------------------


def parse_fail_on(specs: Iterable[str] | None,
                  keys: tuple[str, ...] = RELATIVE_KEYS + COUNT_KEYS,
                  percent_keys: tuple[str, ...] = RELATIVE_KEYS,
                  ) -> dict[str, float]:
    """Parse ``key=value[%]`` gate specs (comma- or flag-separated).

    The default keys are ``diff``'s: ``energy`` and ``time`` (relative,
    percent or fraction) and ``flips`` (absolute count delta).  Only
    ``percent_keys`` take a ``%`` suffix.  Values must be finite and
    non-negative: a NaN limit compares false and would pass every gate.
    """
    thresholds: dict[str, float] = {}
    for spec in specs or ():
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            key, sep, raw = part.partition("=")
            key = key.strip().lower()
            if not sep or key not in keys:
                raise ConfigError(
                    f"bad --fail-on spec {part!r}; expected "
                    f"key=value with key in {sorted(keys)}"
                )
            raw = raw.strip()
            percent = key in percent_keys and raw.endswith("%")
            try:
                value = float(raw[:-1]) / 100.0 if percent else float(raw)
            except ValueError:
                raise ConfigError(
                    f"bad --fail-on value {raw!r} for {key!r}"
                ) from None
            if not math.isfinite(value) or value < 0.0:
                raise ConfigError(
                    f"--fail-on {key} threshold must be a finite number "
                    f">= 0, got {raw!r}"
                )
            thresholds[key] = value
    return thresholds


def check_thresholds(delta: RunDelta,
                     thresholds: dict[str, float]) -> list[str]:
    """Threshold violations for ``delta`` (empty list = gate passes)."""
    violations: list[str] = []
    for key, limit in sorted(thresholds.items()):
        if key in RELATIVE_KEYS:
            rel = delta.energy_rel if key == "energy" else delta.time_rel
            if rel is None:
                violations.append(
                    f"{key}: not comparable (gauge missing in one run)"
                )
            elif abs(rel) > limit:
                violations.append(
                    f"{key}: {rel:+.2%} exceeds the ±{limit:.2%} gate"
                )
        elif key == "flips":
            if abs(delta.flip_delta) > limit:
                violations.append(
                    f"flips: {delta.flip_delta:+d} exceeds the "
                    f"±{limit:g} gate"
                )
    return violations


def format_delta(delta: RunDelta) -> str:
    """Human-readable rendering of a :class:`RunDelta`."""
    def side(value: float | None, scale: float, unit: str) -> str:
        return "n/a" if value is None else f"{value / scale:.2f} {unit}"

    def rel(value: float | None) -> str:
        return "n/a" if value is None else f"{value:+.2%}"

    lines = [
        "run diff",
        f"  A: {delta.dir_a}",
        f"  B: {delta.dir_b}",
        "",
        f"  energy : {side(delta.energy_a, 1e3, 'kJ')} -> "
        f"{side(delta.energy_b, 1e3, 'kJ')}  ({rel(delta.energy_rel)})",
        f"  time   : {side(delta.time_a, 1.0, 's')} -> "
        f"{side(delta.time_b, 1.0, 's')}  ({rel(delta.time_rel)})",
        f"  ticks  : {delta.ticks_a} vs {delta.ticks_b}; decision flips "
        f"{delta.flips_a} vs {delta.flips_b} ({delta.flip_delta:+d})",
    ]
    if delta.first_divergence_tick is not None:
        lines.append(
            f"  control trajectories diverge at tick "
            f"{delta.first_divergence_tick} "
            f"(inspect with: greengpu explain <dir> --tick "
            f"{delta.first_divergence_tick})"
        )
    elif delta.ticks_a or delta.ticks_b:
        lines.append("  control trajectories identical (no divergence)")
    if delta.health_drift:
        drift = ", ".join(f"{name} {value:+g}"
                          for name, value in delta.health_drift.items())
        lines.append(f"  health drift: {drift}")
    if delta.metric_diffs:
        shown = ", ".join(delta.metric_diffs[:6])
        more = len(delta.metric_diffs) - 6
        suffix = f" (+{more} more)" if more > 0 else ""
        lines.append(
            f"  {len(delta.metric_diffs)} instruments differ: {shown}{suffix}"
        )
    else:
        lines.append("  all sim-time metrics identical")
    lines.append("")
    lines.append("  verdict: " + ("DIVERGENT" if delta.divergent
                                  else "runs identical (modulo wall clock)"))
    return "\n".join(lines)
