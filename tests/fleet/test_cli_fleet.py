"""End-to-end tests for the ``greengpu fleet`` subcommand."""

import json

import pytest

from repro.cli import main
from repro.fleet.sim import FleetResult

FAST = ["--nodes", "6", "--nodes-per-rack", "3", "--duration", "36",
        "--interval", "12", "--seed", "13", "--budget-frac", "0.35"]


class TestFleetCommand:
    def test_single_allocator_table(self, capsys):
        assert main(["fleet", *FAST]) == 0
        out = capsys.readouterr().out
        assert "fleet — diurnal, 6 nodes / 2 racks" in out
        assert "efficiency-weighted" in out
        assert "cap violations" in out

    def test_allocator_comparison_names_the_winner(self, capsys):
        assert main(["fleet", *FAST, "--allocator",
                     "uniform-cap,efficiency-weighted"]) == 0
        out = capsys.readouterr().out
        assert "uniform-cap" in out and "efficiency-weighted" in out
        assert "lowest fleet energy:" in out

    def test_out_writes_summaries(self, capsys, tmp_path):
        out_file = tmp_path / "fleet.json"
        assert main(["fleet", *FAST, "--allocator",
                     "uniform-cap,proportional-share",
                     "--out", str(out_file)]) == 0
        summaries = json.loads(out_file.read_text())
        assert [s["allocator"] for s in summaries] == [
            "uniform-cap", "proportional-share"]
        assert all(s["energy_j"] > 0 for s in summaries)

    def test_unknown_allocator_errors(self, capsys):
        assert main(["fleet", *FAST, "--allocator", "lottery"]) == 2
        assert "unknown allocator" in capsys.readouterr().err

    def test_telemetry_with_multiple_allocators_rejected(self, capsys,
                                                         tmp_path):
        assert main(["fleet", *FAST, "--allocator", "uniform-cap,proportional-share",
                     "--telemetry", str(tmp_path / "tel")]) == 2
        assert "single" in capsys.readouterr().err

    def test_resume_without_run_dir_rejected(self, capsys):
        assert main(["fleet", *FAST, "--resume"]) == 2
        assert "--run-dir" in capsys.readouterr().err


def _unencodable(method):
    """``method`` with a value the JSON encoder rejects in its dict."""
    def patched(self, *args, **kwargs):
        return {**method(self, *args, **kwargs), "unencodable": object()}
    return patched


class TestAtomicOutputs:
    """An encoding failure leaves an earlier output file whole."""

    def test_out_survives_a_failed_encoding(self, capsys, tmp_path,
                                            monkeypatch):
        out_file = tmp_path / "fleet.json"
        out_file.write_text("earlier")
        monkeypatch.setattr(FleetResult, "summary",
                            _unencodable(FleetResult.summary))
        with pytest.raises(TypeError):
            main(["fleet", *FAST, "--out", str(out_file)])
        assert out_file.read_text() == "earlier"
        assert [p.name for p in tmp_path.iterdir()] == ["fleet.json"]

    def test_fleet_summary_survives_a_failed_encoding(self, capsys, tmp_path,
                                                      monkeypatch):
        tel = tmp_path / "tel"
        tel.mkdir()
        summary = tel / "fleet_summary.json"
        summary.write_text("earlier")
        monkeypatch.setattr(FleetResult, "to_dict",
                            _unencodable(FleetResult.to_dict))
        with pytest.raises(TypeError):
            main(["fleet", *FAST, "--telemetry", str(tel)])
        assert summary.read_text() == "earlier"
        assert not list(tel.glob("*.tmp"))


class TestFleetTelemetry:
    @pytest.fixture
    def telemetry_dir(self, capsys, tmp_path):
        tel = tmp_path / "tel"
        assert main(["fleet", *FAST, "--telemetry", str(tel)]) == 0
        capsys.readouterr()
        return tel

    def test_snapshot_and_summary_written(self, telemetry_dir):
        snapshot = json.loads((telemetry_dir / "snapshot.json").read_text())
        counters = {c["name"] for c in snapshot["counters"]}
        gauges = {g["name"] for g in snapshot["gauges"]}
        histograms = {h["name"] for h in snapshot["histograms"]}
        assert {"fleet_nodes_total",
                "fleet_cap_violation_ticks_total"} <= counters
        assert {"run_total_energy_j", "run_time_s"} <= gauges
        assert {"fleet_node_energy_j", "fleet_node_busy_end_s"} <= histograms
        text = (telemetry_dir / "fleet_summary.json").read_text()
        assert not text.endswith("\n")
        summary = json.loads(text)
        assert summary["n_nodes"] == 6
        assert len(summary["per_rack"]) == 2

    def test_identical_runs_diff_clean(self, capsys, telemetry_dir,
                                       tmp_path):
        other = tmp_path / "tel2"
        assert main(["fleet", *FAST, "--telemetry", str(other)]) == 0
        capsys.readouterr()
        assert main(["diff", str(telemetry_dir), str(other)]) == 0
        assert "DIVERGENT" not in capsys.readouterr().out

    def test_report_renders_fleet_layout(self, capsys, telemetry_dir):
        assert main(["report", str(telemetry_dir)]) == 0
        capsys.readouterr()
        html = (telemetry_dir / "report.html").read_text()
        assert "per-rack" in html.lower()
        assert "efficiency-weighted" in html
