"""The decision audit trail: recording, serialization, and the
``explain`` narrative."""

import json

import numpy as np
import pytest

from repro.core.config import GreenGpuConfig
from repro.core.policies import GreenGpuPolicy
from repro.core.wma import best_and_runner_up
from repro.errors import SerializationError
from repro.experiments.common import (
    scaled_config,
    scaled_options,
    scaled_workload,
)
from repro.runtime.executor import run_workload
from repro.telemetry import AuditTrail, format_explanation, read_audit
from repro.telemetry.audit import (
    AUDIT_NAME,
    audit_path,
    decision_flips,
    scaling_records,
)

TIME_SCALE = 0.05


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """One seeded GreenGPU run with its trail written out."""
    directory = tmp_path_factory.mktemp("audit-run")
    trail = AuditTrail()
    run_workload(
        scaled_workload("kmeans", TIME_SCALE), GreenGpuPolicy(config=scaled_config(TIME_SCALE)),
        n_iterations=2, options=scaled_options(TIME_SCALE), audit=trail,
    )
    trail.write(directory)
    return directory


class TestAuditTrail:
    def test_live_run_records_both_tiers(self, run_dir):
        records = read_audit(audit_path(run_dir))
        kinds = {r["kind"] for r in records}
        assert "scaling" in kinds and "division" in kinds

    def test_scaling_record_schema(self, run_dir):
        records = read_audit(audit_path(run_dir))
        record = next(r for r in records if r["kind"] == "scaling")
        for key in ("tick", "t_sim", "u_core", "u_mem", "source",
                    "core_level", "mem_level", "f_core", "f_mem",
                    "runner_up", "margin", "flipped", "actuated",
                    "degraded", "core_loss", "mem_loss", "weights"):
            assert key in record, key
        assert record["source"] in ("fresh", "fallback")
        assert 0.0 <= record["margin"] <= 1.0
        assert len(record["weights"]) == len(record["core_loss"])

    def test_division_record_schema(self, run_dir):
        records = read_audit(audit_path(run_dir))
        record = next(r for r in records if r["kind"] == "division")
        for key in ("index", "t_sim", "tc", "tg", "r_prev", "r_next",
                    "moved", "held_by_safeguard", "frozen"):
            assert key in record, key

    def test_records_are_time_ordered(self, run_dir):
        records = read_audit(audit_path(run_dir))
        times = [r["t_sim"] for r in records]
        assert times == sorted(times)

    def test_flip_flag_matches_pair_changes(self, run_dir):
        ticks = [r for r in scaling_records(read_audit(audit_path(run_dir)))
                 if r["kind"] == "scaling"]
        pairs = [(r["core_level"], r["mem_level"]) for r in ticks]
        expected = [False] + [a != b for a, b in zip(pairs, pairs[1:])]
        assert [bool(r["flipped"]) for r in ticks] == expected
        assert decision_flips(read_audit(audit_path(run_dir))) == [
            r["tick"] for r, flip in zip(ticks, expected) if flip
        ]

    def test_skip_notes_consume_a_tick(self):
        trail = AuditTrail()
        trail.note_tick(1.0, None, degraded=False)
        trail.note_tick(2.0, None, degraded=True)
        records = trail.records()
        assert [r["tick"] for r in records] == [0, 1]
        assert records[1]["degraded"] is True

    def test_written_file_is_valid_jsonl(self, run_dir):
        with open(run_dir / AUDIT_NAME, encoding="utf-8") as handle:
            for line in handle:
                assert isinstance(json.loads(line), dict)


class TestReadAudit:
    def test_missing_file_raises_typed_error(self, tmp_path):
        with pytest.raises(SerializationError):
            read_audit(audit_path(tmp_path))

    def test_missing_ok_reads_empty(self, tmp_path):
        assert read_audit(audit_path(tmp_path), missing_ok=True) == []

    def test_corrupt_line_raises_with_line_number(self, tmp_path):
        path = tmp_path / AUDIT_NAME
        path.write_text('{"kind":"skip","tick":0,"t_sim":0.0}\n{oops\n')
        with pytest.raises(SerializationError, match=":2:"):
            read_audit(path)

    def test_record_without_kind_is_corrupt(self, tmp_path):
        path = tmp_path / AUDIT_NAME
        path.write_text('{"tick": 0}\n')
        with pytest.raises(SerializationError, match="kind"):
            read_audit(path)


class TestBestAndRunnerUp:
    def test_margin_and_pairs(self):
        weights = np.array([[1.0, 0.5], [0.25, 0.8]])
        best, runner_up, margin = best_and_runner_up(weights)
        assert best == (0, 0)
        assert runner_up == (1, 1)
        assert margin == pytest.approx(0.2)

    def test_tie_gives_zero_margin(self):
        best, runner_up, margin = best_and_runner_up(np.ones((2, 3)))
        assert margin == 0.0
        assert best != runner_up

    def test_singleton_table(self):
        best, runner_up, margin = best_and_runner_up(np.array([[2.0]]))
        assert best == runner_up == (0, 0)
        assert margin == 0.0


class TestFormatExplanation:
    def test_summary_counts_flips_and_ticks(self, run_dir):
        text = format_explanation(run_dir)
        records = read_audit(audit_path(run_dir))
        n_ticks = len(scaling_records(records))
        n_flips = len(decision_flips(records))
        assert f"{n_ticks} scaling ticks ({n_flips} decision flips" in text

    def test_every_flip_appears_in_the_narrative(self, run_dir):
        text = format_explanation(run_dir)
        for tick in decision_flips(read_audit(audit_path(run_dir))):
            assert f"tick {tick:>4} " in text
        assert text.count("FLIP from") == len(
            decision_flips(read_audit(audit_path(run_dir)))
        )

    def test_steady_stretches_are_elided(self, run_dir):
        text = format_explanation(run_dir)
        n_ticks = len(scaling_records(read_audit(audit_path(run_dir))))
        assert len(text.splitlines()) < n_ticks  # not one line per tick
        assert "steady at" in text

    def test_tick_detail_shows_the_evidence(self, run_dir):
        tick = decision_flips(read_audit(audit_path(run_dir)))[0]
        text = format_explanation(run_dir, tick=tick)
        assert "core loss:" in text and "mem loss :" in text
        assert "weights" in text
        assert "runner-up" in text
        assert "decision FLIPPED here" in text

    def test_unknown_tick_raises_typed_error(self, run_dir):
        with pytest.raises(SerializationError, match="no audit record"):
            format_explanation(run_dir, tick=10_000)

    def test_missing_trail_raises_typed_error(self, tmp_path):
        with pytest.raises(SerializationError):
            format_explanation(tmp_path)

    def test_static_policy_trail_reports_divisions_only(self, tmp_path):
        from repro.core.policies import BestPerformancePolicy

        trail = AuditTrail()
        run_workload(
            scaled_workload("kmeans", TIME_SCALE), BestPerformancePolicy(),
            n_iterations=1, options=scaled_options(TIME_SCALE), audit=trail,
        )
        trail.write(tmp_path)
        text = format_explanation(tmp_path)
        assert "0 scaling ticks" in text


class TestDeterminism:
    def test_identical_runs_produce_identical_trails(self, run_dir, tmp_path):
        trail = AuditTrail()
        run_workload(
            scaled_workload("kmeans", TIME_SCALE), GreenGpuPolicy(config=scaled_config(TIME_SCALE)),
            n_iterations=2, options=scaled_options(TIME_SCALE), audit=trail,
        )
        trail.write(tmp_path)
        assert (tmp_path / AUDIT_NAME).read_text() == (
            run_dir / AUDIT_NAME
        ).read_text()
