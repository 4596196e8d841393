"""The decision audit trail: one structured record per control decision.

Metrics say *what* the controller did; the audit trail says *why*.  Every
tier-2 scaling tick and every tier-1 division boundary appends one record
to an :class:`AuditTrail`, which serializes to an append-only
``audit.jsonl`` next to the telemetry snapshot.  A scaling record carries
the decision's full evidence — the utilization inputs, the per-level loss
vectors, the post-update weight table, the argmax pair versus the
runner-up and their weight margin, and whether a fault or degradation
path overrode the outcome — which is what lets ``repro explain`` narrate
Fig. 5's "jump straight to the best level" behaviour tick by tick, and
``repro diff`` locate the first tick where two runs diverged.

Hot-path contract
-----------------

The controller's scaling tick is the hottest loop in the system, so the
``note_*`` methods do **no derivation**: they append the few values the
tick already holds.  Everything derived — the loss vectors,
the weight table, flip detection, runner-up margins, JSON encoding —
happens in :meth:`AuditTrail.records` / :meth:`write`, after the run.
CI budgets the audit-enabled tick at < 5 % over the bare tick
(``benchmarks/check_telemetry_overhead.py --audit-budget``).

Keeping a copy of the weight table per tick (36 floats) made the trail
the tick's largest allocation, so the trail notes where the scaler
starts (:meth:`AuditTrail.note_scaler`) and then each tick's inputs and
outcome; :meth:`AuditTrail.records` replays a fresh
:class:`~repro.core.wma.WmaFrequencyScaler` over the noted inputs, the
same code on the same inputs, which reproduces every loss and weight
bit for bit.

Record schema (``audit.jsonl``, schema 1; see docs/observability.md):

- ``kind: "scaling"`` — a WMA decision: ``tick``, ``t_sim``, ``u_core``,
  ``u_mem``, ``source`` (``fresh``/``fallback``), ``core_level``,
  ``mem_level``, ``f_core``, ``f_mem``, ``runner_up`` (pair), ``margin``
  (relative weight gap, 0 = tie), ``flipped``, ``actuated``,
  ``degraded``, ``core_loss``, ``mem_loss``, ``weights``, ``power_w``;
- ``kind: "skip"`` — a tick with no usable sample: ``tick``, ``t_sim``,
  ``degraded`` (the previous decision stays in force);
- ``kind: "division"`` — a tier-1 boundary: ``index``, ``t_sim``,
  ``tc``, ``tg``, ``r_prev``, ``r_next``, ``moved``,
  ``held_by_safeguard``, ``frozen``.

Merged run directories (harness sweeps, ``compare``) add a ``job`` field
naming the worker each record came from.
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING, Any

from repro.errors import SerializationError
from repro.ioutil import atomic_write_text

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core -> telemetry)
    from repro.core.wma import WmaFrequencyScaler

#: File name of the trail inside a run/telemetry directory.
AUDIT_NAME = "audit.jsonl"

AUDIT_SCHEMA = 1

_SKIP = object()    # sentinel tag for skipped-tick entries
_SCALER = object()  # sentinel tag for the start of a fresh WMA scaler

#: Slots per scaling-log entry.  The log is one flat list, not a list of
#: tuples: a tuple kept per tick is a GC-tracked container, and the
#: young-generation collections they trigger cost an audited tick more
#: than the note itself.
_STRIDE = 9
_PAD = (None,) * _STRIDE


class AuditTrail:
    """Append-only decision log with deferred derivation.

    One trail observes one controller for one run.  ``note_tick`` and
    ``note_division`` are the hot-path writers; the derived, JSON-ready
    view is :meth:`records`.
    """

    __slots__ = ("_scaling", "_division")

    def __init__(self) -> None:
        self._scaling: list = []  # flat, _STRIDE slots per entry
        self._division: list[tuple] = []

    # -- hot-path writers (no derivation, no JSON) ---------------------

    def note_scaler(self, scaler: "WmaFrequencyScaler") -> None:
        """Mark the start of a fresh WMA scaler (ladders and config kept).

        Until the next mark, scaling notes get their loss vectors,
        frequencies and weights at render time by replaying a fresh copy
        of the scaler over the noted utilizations — so every step of the
        scaler must be noted.
        """
        self._scaling.extend(
            (_SCALER, scaler.core_ladder, scaler.mem_ladder, scaler.config)
            + _PAD[4:]
        )

    def note_tick(self, t: float, outcome: tuple | None, degraded: bool,
                  power_w: float | None = None) -> None:
        """Record one scaling tick.

        ``outcome`` is the card's ``(sample, decision, source, actuated)``,
        or None for a tick skipped for want of a usable sample.  Only the
        chosen levels are kept; the rest is derived at render time (see
        :meth:`note_scaler`).
        """
        if outcome is None:
            self._scaling.extend((_SKIP, t, degraded) + _PAD[3:])
            return
        sample, decision, source, actuated = outcome
        self._scaling.extend((t, sample.u_core, sample.u_mem, decision.core_level,
                              decision.mem_level, source, actuated, degraded,
                              power_w))

    def note_division(self, t: float, tc: float, tg: float, r_prev: float,
                      r_next: float, moved: bool, held_by_safeguard: bool,
                      frozen: bool) -> None:
        """Record one tier-1 division boundary."""
        self._division.append(
            (t, tc, tg, r_prev, r_next, moved, held_by_safeguard, frozen)
        )

    # -- derived views -------------------------------------------------

    def records(self) -> list[dict[str, Any]]:
        """The JSON-ready trail, in simulated-time order.

        Scaling ticks are numbered in sequence (skips included — a skip
        consumes a tick and holds the previous pair); division updates
        carry their own ``index``.  Flips and runner-up margins are
        derived here, not on the hot path.
        """
        from repro.core.wma import WmaFrequencyScaler, best_and_runner_up

        out: list[dict[str, Any]] = []
        last_pair: tuple[int, int] | None = None
        replay: WmaFrequencyScaler | None = None
        tick = -1
        scaling = self._scaling
        for i in range(0, len(scaling), _STRIDE):
            entry = scaling[i:i + _STRIDE]
            if entry[0] is _SCALER:
                replay = WmaFrequencyScaler(*entry[1:4])
                continue
            tick += 1
            if entry[0] is _SKIP:
                t, degraded = entry[1:3]
                out.append({
                    "kind": "skip", "tick": tick, "t_sim": float(t),
                    "degraded": bool(degraded),
                })
                continue
            (t, u_core, u_mem, core_level, mem_level, source, actuated,
             degraded, power_w) = entry
            chosen = (int(core_level), int(mem_level))
            if replay is None:
                raise ValueError("a scaling note needs a note_scaler() "
                                 "before it")
            derived = replay.step(u_core, u_mem)
            weights = replay.table.weights
            _, runner_up, margin = best_and_runner_up(weights)
            record: dict[str, Any] = {
                "kind": "scaling", "tick": tick, "t_sim": float(t),
                "u_core": float(u_core), "u_mem": float(u_mem),
                "source": source,
                "core_level": chosen[0], "mem_level": chosen[1],
                "f_core": float(replay.core_ladder[chosen[0]]),
                "f_mem": float(replay.mem_ladder[chosen[1]]),
                "runner_up": [int(runner_up[0]), int(runner_up[1])],
                "margin": float(margin),
                "flipped": last_pair is not None and chosen != last_pair,
                "actuated": bool(actuated),
                "degraded": bool(degraded),
                "core_loss": [float(v) for v in derived.core_loss],
                "mem_loss": [float(v) for v in derived.mem_loss],
                "weights": [[float(v) for v in row] for row in weights],
            }
            if power_w is not None:
                record["power_w"] = float(power_w)
            out.append(record)
            last_pair = chosen
        for index, entry in enumerate(self._division):
            t, tc, tg, r_prev, r_next, moved, held, frozen = entry
            out.append({
                "kind": "division", "index": index, "t_sim": float(t),
                "tc": float(tc), "tg": float(tg),
                "r_prev": float(r_prev), "r_next": float(r_next),
                "moved": bool(moved), "held_by_safeguard": bool(held),
                "frozen": bool(frozen),
            })
        # Interleave by simulated time; ties keep scaling-before-division
        # (sort is stable and scaling records were appended first).
        out.sort(key=lambda r: r["t_sim"])
        return out

    def write(self, directory: str | os.PathLike[str]) -> str:
        """Serialize the trail to ``<directory>/audit.jsonl`` atomically."""
        directory = os.fspath(directory)
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, AUDIT_NAME)
        atomic_write_text(path, render_audit_jsonl(self.records()))
        return path


def render_audit_jsonl(records: list[dict[str, Any]]) -> str:
    """Records -> one compact JSON object per line, in order."""
    return "".join(
        json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        for record in records
    )


def audit_path(directory: str | os.PathLike[str]) -> str:
    """Path of the trail file inside a run directory."""
    return os.path.join(os.fspath(directory), AUDIT_NAME)


def read_audit(path: str | os.PathLike[str], *,
               missing_ok: bool = False) -> list[dict[str, Any]]:
    """Load an ``audit.jsonl``; typed error on a missing/corrupt file.

    With ``missing_ok`` a missing file reads as an empty trail (runs
    recorded before the audit layer existed, or policies that never
    decide anything).
    """
    path = os.fspath(path)
    if not os.path.exists(path):
        if missing_ok:
            return []
        raise SerializationError(
            f"{path}: no audit trail found (was the run started with "
            "--telemetry after the audit layer landed?)"
        )
    records = []
    try:
        with open(path, encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise SerializationError(
                        f"{path}:{lineno}: corrupt audit record ({exc})"
                    ) from exc
                if not isinstance(record, dict) or "kind" not in record:
                    raise SerializationError(
                        f"{path}:{lineno}: corrupt audit record "
                        "(not an object with a 'kind')"
                    )
                records.append(record)
    except OSError as exc:
        raise SerializationError(
            f"{path}: cannot read audit trail ({exc})"
        ) from exc
    return records


def scaling_records(records: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """The scaling-tick subsequence (decisions and skips), in tick order."""
    ticks = [r for r in records if r.get("kind") in ("scaling", "skip")]
    ticks.sort(key=lambda r: (str(r.get("job", "")), int(r.get("tick", 0))))
    return ticks


def decision_flips(records: list[dict[str, Any]]) -> list[int]:
    """Tick numbers where the chosen frequency pair changed."""
    return [int(r["tick"]) for r in records
            if r.get("kind") == "scaling" and r.get("flipped")]


# -- the `repro explain` renderer --------------------------------------


def _pair_text(record: dict[str, Any]) -> str:
    return (f"core L{record['core_level']} "
            f"({record['f_core'] / 1e6:.0f} MHz) · "
            f"mem L{record['mem_level']} "
            f"({record['f_mem'] / 1e6:.0f} MHz)")


def _tick_line(record: dict[str, Any], prev_pair: tuple[int, int] | None) -> str:
    if record["kind"] == "skip":
        note = " [DEGRADED]" if record.get("degraded") else ""
        return (f"tick {record['tick']:>4}  t={record['t_sim']:>8.1f}s  "
                f"SKIPPED — no usable sample; previous pair held{note}")
    notes = []
    if record.get("flipped") and prev_pair is not None:
        notes.append(f"FLIP from (L{prev_pair[0]}, L{prev_pair[1]})")
    if record.get("source") == "fallback":
        notes.append("stale sample")
    if not record.get("actuated", True):
        notes.append("actuation FAILED")
    if record.get("degraded"):
        notes.append("DEGRADED: watchdog holds peak frequencies")
    note = ("  [" + "; ".join(notes) + "]") if notes else ""
    return (f"tick {record['tick']:>4}  t={record['t_sim']:>8.1f}s  "
            f"u={100 * record['u_core']:3.0f}%/{100 * record['u_mem']:3.0f}%"
            f"  -> {_pair_text(record)}  margin {100 * record['margin']:.1f}%"
            f"{note}")


def _explain_tick_detail(record: dict[str, Any]) -> list[str]:
    """The full "why" for one scaling tick."""
    lines = [_tick_line(record, None), ""]
    if record["kind"] == "skip":
        lines.append("no decision this tick: the monitor read failed and no "
                     "sample was inside the staleness window.")
        return lines
    lines.append(
        f"inputs   : u_core={record['u_core']:.4f}  "
        f"u_mem={record['u_mem']:.4f}  (source: {record['source']})"
    )
    lines.append(
        "core loss: " + "  ".join(
            f"L{i}={v:.4f}" for i, v in enumerate(record["core_loss"]))
    )
    lines.append(
        "mem loss : " + "  ".join(
            f"L{j}={v:.4f}" for j, v in enumerate(record["mem_loss"]))
    )
    weights = record["weights"]
    lines.append("weights  (rows = core levels, cols = memory levels):")
    for i, row in enumerate(weights):
        lines.append("  L%d  %s" % (i, "  ".join(f"{v:.4g}" for v in row)))
    ru = record["runner_up"]
    lines.append(
        f"argmax   : (L{record['core_level']}, L{record['mem_level']}) — "
        f"runner-up (L{ru[0]}, L{ru[1]}), margin "
        f"{100 * record['margin']:.2f}%"
        + ("  [decision FLIPPED here]" if record.get("flipped") else "")
    )
    if record.get("degraded"):
        lines.append("override : watchdog DEGRADED state — peak frequencies "
                     "enforced regardless of the WMA choice")
    elif not record.get("actuated", True):
        lines.append("override : frequency write failed after retries — the "
                     "previous hardware state remains in force")
    if "power_w" in record:
        lines.append(f"power    : {record['power_w']:.1f} W wall")
    return lines


def format_explanation(directory: str | os.PathLike[str],
                       tick: int | None = None) -> str:
    """Render the per-tick "why" narrative for one run directory.

    Steady stretches (no flip, no fault path) are elided to one line;
    every flip, skip, fallback, failed actuation and degraded tick is
    always shown.  ``tick`` selects the full detail view for one tick.
    """
    directory = os.fspath(directory)
    records = read_audit(audit_path(directory))
    ticks = scaling_records(records)
    divisions = [r for r in records if r.get("kind") == "division"]
    flips = decision_flips(records)

    if tick is not None:
        matches = [r for r in ticks if r.get("tick") == tick]
        if not matches:
            raise SerializationError(
                f"{directory}: no audit record for tick {tick} "
                f"({len(ticks)} ticks recorded)"
            )
        lines = [f"audit: {directory}", ""]
        for record in matches:
            if record.get("job"):
                lines.append(f"[job {record['job']}]")
            lines.extend(_explain_tick_detail(record))
            lines.append("")
        return "\n".join(lines).rstrip() + "\n"

    n_skips = sum(1 for r in ticks if r["kind"] == "skip")
    lines = [
        f"audit: {directory}",
        f"  {len(ticks)} scaling ticks ({len(flips)} decision flips, "
        f"{n_skips} skipped), {len(divisions)} division updates",
        "",
    ]

    prev_pair: tuple[int, int] | None = None
    steady: list[dict[str, Any]] = []

    def flush_steady() -> None:
        if not steady:
            return
        if len(steady) == 1:
            lines.append(_tick_line(steady[0], prev_pair))
        else:
            first, last = steady[0], steady[-1]
            lines.append(
                f"tick {first['tick']:>4}-{last['tick']:<4} "
                f"({len(steady)} ticks): steady at "
                f"(L{first['core_level']}, L{first['mem_level']})"
            )
        steady.clear()

    for record in ticks:
        eventful = (
            record["kind"] == "skip"
            or record.get("flipped")
            or record.get("source") == "fallback"
            or not record.get("actuated", True)
            or record.get("degraded")
        )
        if eventful:
            flush_steady()
            lines.append(_tick_line(record, prev_pair))
        elif prev_pair is None:
            flush_steady()
            lines.append(_tick_line(record, prev_pair))
        else:
            steady.append(record)
        if record["kind"] == "scaling":
            prev_pair = (record["core_level"], record["mem_level"])
    flush_steady()

    if divisions:
        lines += ["", "division updates:"]
        for record in divisions:
            if record.get("frozen"):
                note = "FROZEN (degraded)"
            elif record.get("held_by_safeguard"):
                note = "held by oscillation safeguard"
            elif record.get("moved"):
                note = "moved"
            else:
                note = "steady"
            lines.append(
                f"  t={record['t_sim']:>8.1f}s  r {record['r_prev']:.2f} -> "
                f"{record['r_next']:.2f}  (tc={record['tc']:.2f}s, "
                f"tg={record['tg']:.2f}s; {note})"
            )

    if not ticks and not divisions:
        lines.append("(empty trail — the policy made no live decisions)")
    return "\n".join(lines).rstrip() + "\n"
