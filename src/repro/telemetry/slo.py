"""Service-level objectives evaluated from telemetry, with burn rates.

An :class:`SloSpec` declares an objective as a *good-fraction target*
("99.9% of admissions complete within 250 ms", "95% of jobs beat their
deadline").  Compliance is read two ways:

- **run-level**, from the merged registry: counter ratios
  (``kind="ratio"``) or the fraction of histogram samples within a
  threshold (``kind="quantile"`` — a p99-style objective expressed as a
  graded fraction rather than a single percentile);
- **windowed**, from timestamped event samples (the SRE multi-window
  technique): per window, compliance over just the samples inside it.

The *burn rate* normalizes error spend against the objective's error
budget::

    burn = (1 - compliance) / (1 - target)

1.0 means failing at exactly the tolerated rate; 2.0 burns a period's
budget in half the period; multi-window alerting fires only when both a
short and a long window burn hot, filtering blips without missing slow
leaks.  The service daemon exposes these as ``slo_*`` gauges on
``/metrics`` (:meth:`repro.service.daemon.SimulationService.refresh_slo_gauges`)
and ``greengpu slo check --fail-on`` gates CI on the same math.

Everything here is pure and offline-replayable: the same snapshot +
event stream always yields the same report.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.errors import ConfigError, SerializationError
from repro.telemetry.diff import parse_fail_on as parse_gates
from repro.telemetry.exporters import EVENTS_NAME, SNAPSHOT_NAME, read_events
from repro.telemetry.registry import MetricsRegistry

#: Default burn-rate windows (seconds): short catches fast burns, long
#: catches slow leaks.  Deliberately small — runs and CI smokes last
#: seconds to minutes, not the 1h/6h of a production pager.
DEFAULT_WINDOWS: tuple[float, ...] = (60.0, 300.0)

#: Known event-sample extractors, keyed by ``SloSpec.source``.  Each maps
#: one event to ``(t_unix, good)`` or ``None`` when the event is not a
#: sample for that objective.  Declarative (names, not callables) so SLO
#: files stay plain JSON.
_SOURCES = ("span_ok", "service_job_deadline", "service_job_cache",
            "service_admission_latency")


@dataclass(frozen=True)
class SloSpec:
    """One declared objective."""

    name: str
    description: str
    target: float                       # good-fraction objective in [0, 1)
    kind: str = "ratio"                 # "ratio" | "quantile"
    good: tuple[str, ...] = ()          # counter names, good events
    bad: tuple[str, ...] = ()           # counter names, bad events
    total: tuple[str, ...] = ()         # counter names, all events
    histogram: str | None = None        # kind="quantile": histogram name
    threshold: float | None = None      # kind="quantile": good iff <= this
    source: str | None = None           # windowed-sample extractor key

    def __post_init__(self) -> None:
        if not 0.0 <= self.target < 1.0:
            raise ConfigError(
                f"slo {self.name!r}: target must be in [0, 1), "
                f"got {self.target}"
            )
        if self.kind not in ("ratio", "quantile"):
            raise ConfigError(
                f"slo {self.name!r}: unknown kind {self.kind!r}"
            )
        if self.kind == "quantile" and (self.histogram is None
                                        or self.threshold is None):
            raise ConfigError(
                f"slo {self.name!r}: kind='quantile' needs histogram "
                f"and threshold"
            )
        if self.kind == "ratio" and not (self.good or self.bad):
            raise ConfigError(
                f"slo {self.name!r}: kind='ratio' needs good or bad counters"
            )
        if self.source is not None and self.source not in _SOURCES:
            raise ConfigError(
                f"slo {self.name!r}: unknown source {self.source!r} "
                f"(known: {', '.join(_SOURCES)})"
            )


#: Objectives every run understands.  The span-success SLO works on any
#: telemetry-enabled run (including the committed golden runs); the
#: ``service_*`` objectives read as "no data" outside served runs.
DEFAULT_SLOS: tuple[SloSpec, ...] = (
    SloSpec(
        name="span-success",
        description="spans finish without raising",
        target=0.99,
        kind="ratio",
        bad=("span_errors_total",),
        total=("span_total",),
        source="span_ok",
    ),
    SloSpec(
        name="deadline-hit-rate",
        description="served jobs finish before their deadline",
        target=0.95,
        kind="ratio",
        good=("service_jobs_done_total",),
        bad=("service_jobs_expired_total",),
        source="service_job_deadline",
    ),
    SloSpec(
        name="admission-latency-p99",
        description="admission decisions within 250 ms",
        target=0.99,
        kind="quantile",
        histogram="service_admission_latency_s",
        threshold=0.25,
        source="service_admission_latency",
    ),
    SloSpec(
        name="cache-hit-ratio",
        description="submissions served from the result cache "
                    "(informational: target 0 never violates)",
        target=0.0,
        kind="ratio",
        good=("service_cache_hits_total",),
        total=("service_submissions_total",),
        source="service_job_cache",
    ),
)


@dataclass
class SloResult:
    """Evaluation of one objective against one run."""

    spec: SloSpec
    compliance: float | None            # None: no data
    samples: int
    burn: float | None
    window_burns: dict[str, float | None] = field(default_factory=dict)

    @property
    def violated(self) -> bool:
        return (self.compliance is not None
                and self.compliance < self.spec.target)

    @property
    def max_burn(self) -> float | None:
        burns = [b for b in [self.burn, *self.window_burns.values()]
                 if b is not None]
        return max(burns) if burns else None


def burn_rate(compliance: float | None, target: float) -> float | None:
    """Error spend relative to the error budget; ``None`` without data."""
    if compliance is None:
        return None
    return (1.0 - compliance) / (1.0 - target)


def _counter_sum(snapshot_counters: dict[str, float],
                 names: Iterable[str]) -> float:
    return sum(snapshot_counters.get(name, 0.0) for name in names)


def _snapshot_counter_totals(registry: MetricsRegistry) -> dict[str, float]:
    totals: dict[str, float] = {}
    for counter in registry.counters():
        totals[counter.name] = totals.get(counter.name, 0.0) + counter.value
    return totals


def compliance_from_registry(
        spec: SloSpec, registry: MetricsRegistry) -> tuple[float | None, int]:
    """Run-level (compliance, sample count) for one objective."""
    if spec.kind == "quantile":
        within = 0
        samples = 0
        for hist in registry.histograms():
            if hist.name != spec.histogram:
                continue
            retained = hist.samples
            samples += len(retained)
            within += sum(1 for v in retained if v <= spec.threshold)
        if samples == 0:
            return None, 0
        return within / samples, samples

    totals = _snapshot_counter_totals(registry)
    good = _counter_sum(totals, spec.good)
    bad = _counter_sum(totals, spec.bad)
    total = _counter_sum(totals, spec.total) if spec.total else good + bad
    if total <= 0:
        return None, 0
    if not spec.good:
        good = total - bad
    return max(0.0, min(1.0, good / total)), int(total)


def event_samples(spec: SloSpec,
                  events: list[dict[str, Any]]) -> list[tuple[float, bool]]:
    """Timestamped (t_unix, good) samples for windowed burn rates."""
    out: list[tuple[float, bool]] = []
    for event in events:
        sample = _extract_sample(spec, event)
        if sample is not None:
            out.append(sample)
    out.sort(key=lambda s: s[0])
    return out


def _extract_sample(spec: SloSpec,
                    event: dict[str, Any]) -> tuple[float, bool] | None:
    source = spec.source
    if source == "span_ok":
        if event.get("type") != "span" or event.get("t_unix0") is None:
            return None
        return float(event["t_unix0"]), bool(event.get("ok", True))
    if event.get("type") != "event" or event.get("t_unix") is None:
        return None
    t = float(event["t_unix"])
    if source == "service_job_deadline":
        if event.get("name") != "service_job":
            return None
        phase = event.get("phase")
        if phase == "done":
            return t, True
        if phase == "expired":
            return t, False
        return None
    if source == "service_job_cache":
        if event.get("name") != "service_job":
            return None
        return t, bool(event.get("cached", False))
    if source == "service_admission_latency":
        if event.get("name") != "service_admission":
            return None
        threshold = spec.threshold if spec.threshold is not None else 0.25
        return t, float(event.get("latency_s", 0.0)) <= threshold
    return None


def windowed_compliance(samples: list[tuple[float, bool]],
                        window_s: float, now: float) -> float | None:
    """Good fraction over samples inside ``[now - window_s, now]``."""
    lo = now - window_s
    inside = [good for t, good in samples if t >= lo]
    if not inside:
        return None
    return sum(inside) / len(inside)


def evaluate_slos(registry: MetricsRegistry,
                  events: list[dict[str, Any]] | None = None,
                  specs: tuple[SloSpec, ...] = DEFAULT_SLOS,
                  windows: tuple[float, ...] = DEFAULT_WINDOWS,
                  now: float | None = None) -> list[SloResult]:
    """Evaluate every objective; offline ``now`` defaults to the stream end."""
    events = events or []
    per_spec_samples = {spec.name: event_samples(spec, events)
                        for spec in specs if spec.source is not None}
    if now is None:
        ends = [s[-1][0] for s in per_spec_samples.values() if s]
        now = max(ends) if ends else 0.0
    results: list[SloResult] = []
    for spec in specs:
        compliance, n = compliance_from_registry(spec, registry)
        result = SloResult(spec=spec, compliance=compliance, samples=n,
                           burn=burn_rate(compliance, spec.target))
        if spec.source is not None:
            samples = per_spec_samples[spec.name]
            for window_s in windows:
                wc = windowed_compliance(samples, window_s, now)
                result.window_burns[f"{window_s:g}s"] = burn_rate(
                    wc, spec.target)
        results.append(result)
    return results


def evaluate_directory(directory: str | os.PathLike[str],
                       specs: tuple[SloSpec, ...] = DEFAULT_SLOS,
                       windows: tuple[float, ...] = DEFAULT_WINDOWS,
                       ) -> list[SloResult]:
    """Evaluate objectives against a run directory's merged exports."""
    directory = os.fspath(directory)
    snapshot_path = os.path.join(directory, SNAPSHOT_NAME)
    if not os.path.exists(snapshot_path):
        raise SerializationError(
            f"{snapshot_path}: no telemetry snapshot "
            f"(re-run with --telemetry to record one)"
        )
    from repro.telemetry.exporters import read_snapshot
    registry = MetricsRegistry()
    registry.merge_snapshot(read_snapshot(snapshot_path))
    events = read_events(os.path.join(directory, EVENTS_NAME))
    return evaluate_slos(registry, events, specs=specs, windows=windows)


def format_slo_report(results: list[SloResult]) -> str:
    """Human-readable table of objectives, compliance, and burn rates."""
    from repro.analysis.tables import format_table  # deferred: avoids cycle

    def fmt(value: float | None, pattern: str = "{:.4f}") -> str:
        return pattern.format(value) if value is not None else "-"

    windows = sorted({w for r in results for w in r.window_burns},
                     key=lambda w: float(w[:-1]))
    header = ["slo", "target", "compliance", "samples", "burn",
              *[f"burn[{w}]" for w in windows], "status"]
    rows = []
    for result in results:
        status = ("VIOLATED" if result.violated
                  else "no-data" if result.compliance is None else "ok")
        rows.append([
            result.spec.name,
            f"{result.spec.target:.4f}",
            fmt(result.compliance),
            str(result.samples),
            fmt(result.burn, "{:.2f}"),
            *[fmt(result.window_burns.get(w), "{:.2f}") for w in windows],
            status,
        ])
    return format_table(header, rows)


def parse_fail_on(pairs: list[str] | None) -> dict[str, float]:
    """Parse ``--fail-on`` gates: ``violations=N`` and/or ``burn=X``."""
    return parse_gates(pairs, keys=("violations", "burn"), percent_keys=())


def check_slos(results: list[SloResult],
               gates: dict[str, float]) -> list[str]:
    """Apply gates; return human-readable failure strings (empty = pass)."""
    failures: list[str] = []
    if "violations" in gates:
        violated = [r.spec.name for r in results if r.violated]
        if len(violated) > gates["violations"]:
            failures.append(
                f"{len(violated)} violated objective(s) "
                f"(allowed {gates['violations']:g}): {', '.join(violated)}"
            )
    if "burn" in gates:
        for result in results:
            # Informational objectives (target 0) burn by definition;
            # the burn gate watches objectives with a real error budget.
            if result.spec.target <= 0.0:
                continue
            max_burn = result.max_burn
            if max_burn is not None and max_burn > gates["burn"]:
                failures.append(
                    f"{result.spec.name}: burn rate {max_burn:.2f} "
                    f"exceeds {gates['burn']:g}"
                )
    return failures


def load_slo_file(path: str) -> tuple[SloSpec, ...]:
    """Load objectives from a JSON file: ``{"slos": [{...}, ...]}``."""
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise SerializationError(f"{path}: cannot read SLO file ({exc})") \
            from exc
    except json.JSONDecodeError as exc:
        raise SerializationError(f"{path}: corrupt SLO file ({exc})") from exc
    raw_specs = payload.get("slos") if isinstance(payload, dict) else None
    if not isinstance(raw_specs, list) or not raw_specs:
        raise ConfigError(f"{path}: expected an object with a 'slos' list")
    specs = []
    for raw in raw_specs:
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: each slo must be an object")
        try:
            specs.append(SloSpec(
                name=str(raw["name"]),
                description=str(raw.get("description", "")),
                target=float(raw["target"]),
                kind=str(raw.get("kind", "ratio")),
                good=tuple(raw.get("good", ())),
                bad=tuple(raw.get("bad", ())),
                total=tuple(raw.get("total", ())),
                histogram=raw.get("histogram"),
                threshold=(float(raw["threshold"])
                           if raw.get("threshold") is not None else None),
                source=raw.get("source"),
            ))
        except KeyError as exc:
            raise ConfigError(f"{path}: slo missing field {exc}") from exc
    return tuple(specs)
