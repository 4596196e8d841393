"""Tests for the one-shot evaluation suite."""

import os
import subprocess
import sys

import pytest

from repro.experiments import suite

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


@pytest.fixture(scope="module")
def summary():
    return suite.run(time_scale=0.08)


class TestSuite:
    def test_all_table2_classes_match(self, summary):
        assert summary.table2_matches == summary.table2_total == 9

    def test_paper_anchors(self, summary):
        assert summary.fig5_converged_mem_mhz == pytest.approx(820.0)
        assert summary.fig7_kmeans_converged_r == pytest.approx(0.20)
        assert summary.fig7_hotspot_converged_r == pytest.approx(0.50)
        assert summary.fig8_ordering_holds

    def test_headline_in_band(self, summary):
        assert 0.15 < summary.headline_average_saving < 0.30

    def test_fig1_minima_exist(self, summary):
        assert summary.fig1_nbody_mem_best_energy < 1.0
        assert summary.fig1_sc_core_best_energy < 1.0

    def test_markdown_renders(self, summary):
        md = summary.to_markdown()
        assert md.startswith("# Evaluation suite summary")
        assert "| Fig. 5" in md
        assert "820 MHz" in md

    def test_elapsed_recorded(self, summary):
        assert summary.elapsed_s > 0.0


class TestFromPayloads:
    def test_fields_merge_in_canonical_order(self):
        summary = suite.SuiteSummary.from_payloads({
            "table2": {"table2_matches": 8, "table2_total": 9,
                       "notes": ["table2 mismatch: srad"]},
            "fig2": {"fig2_optimal_r": 0.15},
        })
        assert summary.fig2_optimal_r == 0.15
        assert summary.table2_matches == 8
        assert summary.notes == ["table2 mismatch: srad"]
        # Untouched artifacts keep their zero defaults.
        assert summary.headline_average_saving == 0.0

    def test_merge_ignores_completion_order(self):
        payloads = {"fig2": {"fig2_optimal_r": 0.15},
                    "fig8": {"fig8_ordering_holds": True}}
        forward = suite.SuiteSummary.from_payloads(dict(payloads))
        backward = suite.SuiteSummary.from_payloads(
            dict(reversed(list(payloads.items()))))
        assert forward == backward

    def test_markdown_without_elapsed_is_deterministic(self):
        summary = suite.SuiteSummary.from_payloads(
            {"fig2": {"fig2_optimal_r": 0.15}})
        summary.elapsed_s = 12.34
        md = summary.to_markdown(include_elapsed=False)
        assert "wall time" not in md
        assert "12.3" not in md
        assert "| Fig. 2" in md


class TestRunSupervised:
    def test_inline_supervised_matches_direct_run(self, tmp_path):
        run_dir = tmp_path / "run"
        summary, result = suite.run_supervised(
            time_scale=0.05, run_dir=str(run_dir), only=("fig2", "table2"),
            isolate=False,
        )
        assert result.report.succeeded == 2
        assert summary.fig2_optimal_r == pytest.approx(0.15)
        assert summary.table2_matches == summary.table2_total == 9
        assert (run_dir / "summary.md").exists()
        assert (run_dir / "health.md").exists()
        assert (run_dir / "journal.jsonl").exists()

    def test_resume_reuses_artifacts_and_ledger_is_stable(self, tmp_path):
        run_dir = tmp_path / "run"
        suite.run_supervised(time_scale=0.05, run_dir=str(run_dir),
                             only=("fig2",), isolate=False)
        first = (run_dir / "summary.md").read_bytes()
        _, result = suite.run_supervised(time_scale=0.05, run_dir=str(run_dir),
                                         only=("fig2",), isolate=False,
                                         resume=True)
        assert result.report.resumed == 1
        assert result.report.succeeded == 0
        assert (run_dir / "summary.md").read_bytes() == first

    def test_resume_needs_run_dir(self):
        with pytest.raises(ValueError):
            suite.run_supervised(resume=True)


def test_runs_as_a_module_without_a_runpy_warning():
    """``python -m repro.experiments.suite`` must not find itself already
    imported by its package (runpy warns, and ``-W error`` makes it fatal)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = (os.path.abspath(SRC) + os.pathsep
                         + env.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m",
         "repro.experiments.suite", "--help"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
