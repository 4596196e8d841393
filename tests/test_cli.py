"""Tests for the greengpu CLI."""

import pytest

from repro.cli import main


@pytest.fixture
def fast(tmp_path):
    """Common fast flags."""
    return ["--iterations", "2", "--time-scale", "0.05"]


class TestRun:
    def test_run_greengpu(self, capsys, fast):
        assert main(["run", "--workload", "lud", "--policy", "greengpu", *fast]) == 0
        out = capsys.readouterr().out
        assert "workload : lud" in out
        assert "energy" in out

    def test_run_each_policy(self, capsys, fast):
        for policy in ("rodinia-default", "best-performance", "scaling-only",
                       "division-only"):
            assert main(["run", "--workload", "pathfinder", "--policy", policy,
                         *fast]) == 0

    def test_alias_workload(self, capsys, fast):
        assert main(["run", "--workload", "PF", *fast]) == 0

    def test_unknown_workload_errors(self, capsys, fast):
        assert main(["run", "--workload", "doom", *fast]) == 2
        assert "error:" in capsys.readouterr().err


class TestCompare:
    def test_compare_prints_all_policies(self, capsys, fast):
        assert main(["compare", "--workload", "hotspot", "--iterations", "4",
                     "--time-scale", "0.05"]) == 0
        out = capsys.readouterr().out
        for name in ("rodinia-default", "division-only", "greengpu"):
            assert name in out

    def test_compare_table_same_with_and_without_telemetry(
            self, capsys, tmp_path, monkeypatch):
        from repro.runtime.batch_executor import BatchExecutor

        engines = []
        run_many = BatchExecutor.run_many

        def spy(self, requests):
            results = run_many(self, requests)
            engines.append([r.engine for r in results])
            return results

        monkeypatch.setattr(BatchExecutor, "run_many", spy)
        argv = ["compare", "--workload", "kmeans", "--iterations", "2",
                "--time-scale", "0.05", "--no-cache"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main([*argv, "--telemetry", str(tmp_path / "tel")]) == 0
        instrumented = capsys.readouterr().out
        assert instrumented.startswith(plain)
        assert "telemetry written" in instrumented[len(plain):]
        assert engines == [["batch"] * 4, ["scalar:telemetry"] * 4]


class TestSweep:
    def test_sweep_reports_minimum(self, capsys):
        assert main(["sweep", "--workload", "kmeans", "--iterations", "1",
                     "--time-scale", "0.03", "--step", "0.15",
                     "--max-ratio", "0.45"]) == 0
        captured = capsys.readouterr()
        assert "energy minimum at r" in captured.out
        assert "harness:" in captured.out

    def test_sweep_progress_lines_on_stderr(self, capsys):
        assert main(["sweep", "--workload", "kmeans", "--iterations", "1",
                     "--time-scale", "0.03", "--step", "0.15",
                     "--max-ratio", "0.45"]) == 0
        err = capsys.readouterr().err
        # One journal-backed line per completed point, with count and ETA.
        assert "[1/4]" in err and "[4/4]" in err
        assert "elapsed" in err

    def test_sweep_resume_skips_completed_points(self, capsys, tmp_path):
        run_dir = str(tmp_path / "sweep-run")
        args = ["sweep", "--workload", "kmeans", "--iterations", "1",
                "--time-scale", "0.03", "--step", "0.15",
                "--max-ratio", "0.45", "--run-dir", run_dir]
        assert main(args) == 0
        first = capsys.readouterr()
        assert main([*args, "--resume"]) == 0
        second = capsys.readouterr()
        assert "4 resumed" in second.out
        # Same table, recomputed from the journaled artifacts.
        assert ("energy minimum at r = 0.15"
                in first.out) and ("energy minimum at r = 0.15" in second.out)

    @pytest.mark.parametrize("step, max_ratio, last", [
        ("0.1", "0.3", "0.30"),    # 0.3 / 0.1 == 2.9999999999999996
        ("0.1", "0.7", "0.70"),
        ("0.05", "0.93", "0.90"),  # ends on the last whole step
    ])
    def test_sweep_includes_endpoint_and_never_exceeds_it(
            self, capsys, step, max_ratio, last):
        assert main(["sweep", "--workload", "kmeans", "--iterations", "1",
                     "--time-scale", "0.03", "--step", step,
                     "--max-ratio", max_ratio]) == 0
        rows = [line.split()[0] for line in capsys.readouterr().out.splitlines()
                if line.strip()[:1].isdigit()]
        n_points = round(float(last) / float(step)) + 1
        assert rows[:n_points] == [f"{float(step) * i:.2f}"
                                   for i in range(n_points)]
        assert rows[n_points - 1] == last
        assert rows[n_points:] == []

    @pytest.mark.parametrize("flags", [
        ["--step", "0"],
        ["--step", "-0.1"],
        ["--max-ratio", "1.5"],
        ["--max-ratio", "-0.1"],
    ])
    def test_sweep_rejects_bad_grid(self, capsys, flags):
        assert main(["sweep", "--workload", "kmeans", *flags]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    def test_sweep_resume_without_run_dir_errors(self, capsys):
        assert main(["sweep", "--workload", "kmeans", "--resume"]) == 2
        assert "error:" in capsys.readouterr().err


class TestCharacterize:
    def test_characterize_lists_all_workloads(self, capsys):
        assert main(["characterize", "--iterations", "1",
                     "--time-scale", "0.05"]) == 0
        out = capsys.readouterr().out
        for name in ("bfs", "kmeans", "streamcluster"):
            assert name in out


class TestOracle:
    def test_oracle_reports_levels(self, capsys):
        assert main(["oracle", "--workload", "pathfinder", "--iterations", "1",
                     "--time-scale", "0.03"]) == 0
        out = capsys.readouterr().out
        assert "oracle optimum" in out
        assert "36 configs searched" in out


class TestReplay:
    def test_replay_csv(self, capsys, tmp_path):
        trace = tmp_path / "log.csv"
        trace.write_text(
            "time,core,mem\n0,80%,30%\n1,82%,31%\n2,20%,60%\n3,21%,62%\n"
        )
        assert main(["replay", str(trace), "--iterations", "1",
                     "--time-scale", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "replaying" in out
        assert "log" in out

    def test_replay_bad_csv_errors(self, capsys, tmp_path):
        trace = tmp_path / "bad.csv"
        trace.write_text("only,two\n")
        assert main(["replay", str(trace)]) == 2


class TestSaveAndShow:
    def test_save_then_show_roundtrip(self, capsys, tmp_path, fast):
        out_file = tmp_path / "result.json"
        assert main(["run", "--workload", "lud", "--policy", "rodinia-default",
                     "--save", str(out_file), *fast]) == 0
        assert out_file.exists()
        capsys.readouterr()
        assert main(["show", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "workload : lud" in out
        assert "rodinia-default" in out


class TestVersion:
    def test_version_flag(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert repro.__version__ in capsys.readouterr().out


class TestTypedFileErrors:
    def test_show_missing_file_exits_2_without_traceback(self, capsys):
        assert main(["show", "/nonexistent/result.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_show_corrupt_file_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": 1, "work')
        assert main(["show", str(bad)]) == 2
        assert "corrupt" in capsys.readouterr().err

    def test_replay_missing_trace_exits_2(self, capsys):
        assert main(["replay", "/nonexistent/trace.csv"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_metrics_missing_dir_exits_2(self, capsys, tmp_path):
        assert main(["metrics", str(tmp_path / "nothing")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "snapshot" in err


class TestTelemetry:
    def test_run_telemetry_then_metrics(self, capsys, tmp_path, fast):
        tel_dir = str(tmp_path / "tel")
        assert main(["run", "--workload", "kmeans", "--faults", "moderate",
                     "--telemetry", tel_dir, *fast]) == 0
        capsys.readouterr()
        assert main(["metrics", tel_dir]) == 0
        out = capsys.readouterr().out
        assert "spans (simulated-time durations)" in out
        assert "scaling_tick" in out
        assert "ctrl_monitor_faults_total" in out
        assert "run_total_energy_j" in out

    def test_metrics_matches_legacy_health(self, capsys, tmp_path, fast):
        """The exported ctrl_* counters equal the printed ControlHealth."""
        import json

        tel_dir = tmp_path / "tel"
        save = tmp_path / "result.json"
        assert main(["run", "--workload", "kmeans", "--faults", "moderate",
                     "--telemetry", str(tel_dir), "--save", str(save),
                     *fast]) == 0
        health = json.loads(save.read_text())["health"]
        snapshot = json.loads((tel_dir / "snapshot.json").read_text())
        exported = {
            c["name"]: c["value"] for c in snapshot["counters"]
            if c["name"].startswith("ctrl_")
        }
        for field, value in health.items():
            assert exported[f"ctrl_{field}_total"] == value, field

    def test_sweep_parallel_merge_equals_serial(self, capsys, tmp_path):
        """--parallel merged telemetry == serial, modulo wall-clock."""
        import json

        from repro.telemetry.merge import strip_wall_clock

        serial_dir, parallel_dir = tmp_path / "serial", tmp_path / "parallel"
        base = ["sweep", "--workload", "kmeans", "--iterations", "1",
                "--time-scale", "0.03", "--step", "0.3", "--max-ratio", "0.3"]
        assert main([*base, "--telemetry", str(serial_dir)]) == 0
        assert main([*base, "--telemetry", str(parallel_dir),
                     "--parallel", "2"]) == 0
        a = strip_wall_clock(
            json.loads((serial_dir / "snapshot.json").read_text())
        )
        b = strip_wall_clock(
            json.loads((parallel_dir / "snapshot.json").read_text())
        )
        assert a == b


class TestReproduce:
    def test_reproduce_emits_progress(self, capsys):
        assert main(["reproduce", "fig2"]) == 0
        captured = capsys.readouterr()
        assert "=== fig2 ===" in captured.out
        assert "[1/1] fig2 succeeded" in captured.err

    def test_reproduce_unknown_artifact_errors(self, capsys):
        assert main(["reproduce", "fig99"]) == 2

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestCache:
    def test_run_twice_populates_and_reports_stats(self, capsys, tmp_path,
                                                   fast):
        cache_dir = str(tmp_path / "cache")
        argv = ["run", "--workload", "kmeans", "--cache-dir", cache_dir, *fast]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert second == first  # served result renders identically
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "entries    : 1" in out

    def test_no_cache_leaves_no_entries(self, capsys, tmp_path, fast):
        cache_dir = str(tmp_path / "cache")
        assert main(["run", "--workload", "kmeans", "--cache-dir", cache_dir,
                     "--no-cache", *fast]) == 0
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        assert "entries    : 0" in capsys.readouterr().out

    def test_cache_clear(self, capsys, tmp_path, fast):
        cache_dir = str(tmp_path / "cache")
        assert main(["run", "--workload", "kmeans", "--cache-dir", cache_dir,
                     *fast]) == 0
        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "entries    : 1 removed" in out
        assert "files      : 1 removed" in out
        assert "reclaimed  : " in out and " 0 bytes" not in out

    def test_cache_clear_honors_env_dir(self, capsys, tmp_path, fast,
                                        monkeypatch):
        cache_dir = str(tmp_path / "env-cache")
        monkeypatch.setenv("GREENGPU_CACHE_DIR", cache_dir)
        assert main(["run", "--workload", "kmeans", *fast]) == 0
        capsys.readouterr()
        assert main(["cache", "clear"]) == 0
        out = capsys.readouterr().out
        assert f"cache root : {cache_dir}" in out
        assert "entries    : 1 removed" in out
        assert main(["cache", "stats"]) == 0
        assert "entries    : 0" in capsys.readouterr().out

    def test_cache_admin_on_missing_dir_exits_zero(self, capsys, tmp_path,
                                                   monkeypatch):
        missing = str(tmp_path / "never-created")
        monkeypatch.setenv("GREENGPU_CACHE_DIR", missing)
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "entries    : 0" in out
        assert "total bytes: 0" in out
        assert main(["cache", "clear"]) == 0
        assert "entries    : 0 removed" in capsys.readouterr().out

    def test_sweep_warm_cache_skips_points(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        argv = ["sweep", "--workload", "kmeans", "--iterations", "1",
                "--time-scale", "0.03", "--step", "0.15",
                "--max-ratio", "0.45", "--cache-dir", cache_dir]
        assert main(argv) == 0
        cold = capsys.readouterr()
        assert main(argv) == 0
        warm = capsys.readouterr()
        assert "4 cached" in warm.out
        assert "skipped_cached" in warm.err
        # The rendered sweep table is identical either way.
        table = [l for l in cold.out.splitlines() if l.startswith("0.")]
        assert [l for l in warm.out.splitlines() if l.startswith("0.")] == table


@pytest.fixture
def audited_run(capsys, tmp_path, fast):
    """One telemetry run with an audit trail, shared per test."""
    tel_dir = str(tmp_path / "tel")
    assert main(["run", "--workload", "kmeans",
                 "--telemetry", tel_dir, *fast]) == 0
    capsys.readouterr()
    return tel_dir


class TestExplain:
    def test_explain_narrates_the_trail(self, capsys, audited_run):
        assert main(["explain", audited_run]) == 0
        out = capsys.readouterr().out
        assert "scaling ticks" in out
        assert "division updates" in out

    def test_explain_tick_detail(self, capsys, audited_run):
        assert main(["explain", audited_run, "--tick", "0"]) == 0
        out = capsys.readouterr().out
        assert "core loss:" in out
        assert "argmax" in out

    def test_explain_missing_dir_exits_2(self, capsys, tmp_path):
        assert main(["explain", str(tmp_path / "nothing")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_explain_corrupt_trail_exits_2(self, capsys, tmp_path):
        (tmp_path / "audit.jsonl").write_text("{broken\n")
        assert main(["explain", str(tmp_path)]) == 2
        assert "corrupt" in capsys.readouterr().err


class TestDiff:
    def test_identical_runs_diff_clean(self, capsys, tmp_path, fast):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        for tel_dir in (a, b):
            assert main(["run", "--workload", "kmeans",
                         "--telemetry", tel_dir, *fast]) == 0
        capsys.readouterr()
        assert main(["diff", a, b, "--fail-on-divergence",
                     "--fail-on", "energy=2%"]) == 0
        assert "runs identical" in capsys.readouterr().out

    def test_perturbed_run_trips_the_energy_gate(self, capsys, tmp_path,
                                                 fast):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["run", "--workload", "kmeans",
                     "--telemetry", a, *fast]) == 0
        assert main(["run", "--workload", "kmeans", "--policy",
                     "rodinia-default", "--telemetry", b, *fast]) == 0
        capsys.readouterr()
        assert main(["diff", a, b, "--fail-on", "energy=2%"]) == 1
        captured = capsys.readouterr()
        assert "DIVERGENT" in captured.out
        assert "FAIL energy:" in captured.err

    def test_diff_missing_dir_exits_2(self, capsys, audited_run, tmp_path):
        assert main(["diff", audited_run, str(tmp_path / "nothing")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_diff_bad_fail_on_spec_exits_2(self, capsys, audited_run):
        assert main(["diff", audited_run, audited_run,
                     "--fail-on", "watts=2%"]) == 2
        assert "bad --fail-on" in capsys.readouterr().err


class TestReport:
    def test_report_writes_standalone_html(self, capsys, audited_run,
                                           tmp_path):
        out_file = tmp_path / "run.html"
        assert main(["report", audited_run, "--out", str(out_file)]) == 0
        html = out_file.read_text()
        assert html.startswith("<!DOCTYPE html>")
        assert "<svg" in html
        for forbidden in ("http://", "https://", "<script", "src="):
            assert forbidden not in html, forbidden

    def test_report_default_path_inside_run_dir(self, capsys, audited_run):
        import os

        assert main(["report", audited_run]) == 0
        assert os.path.exists(os.path.join(audited_run, "report.html"))
        assert "report written to" in capsys.readouterr().out

    def test_report_missing_dir_exits_2(self, capsys, tmp_path):
        assert main(["report", str(tmp_path / "nothing")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err


class TestCompareTelemetry:
    def test_compare_telemetry_merges_per_policy_trails(self, capsys,
                                                        tmp_path):
        import json

        tel_dir = tmp_path / "tel"
        assert main(["compare", "--workload", "kmeans", "--iterations", "2",
                     "--time-scale", "0.05", "--telemetry", str(tel_dir)]) == 0
        out = capsys.readouterr().out
        assert "telemetry written to" in out
        # Every policy's worker export exists, and the merged run-level
        # trail annotates records with the worker that produced them.
        for name in ("rodinia-default", "scaling-only", "division-only",
                     "greengpu"):
            assert (tel_dir / "workers" / name / "snapshot.json").exists()
            assert (tel_dir / "workers" / name / "audit.jsonl").exists()
        merged = [
            json.loads(line)
            for line in (tel_dir / "audit.jsonl").read_text().splitlines()
        ]
        jobs = {record["job"] for record in merged}
        assert "greengpu" in jobs and "scaling-only" in jobs
        assert any(r["kind"] == "scaling" for r in merged)
        capsys.readouterr()
        assert main(["metrics", str(tel_dir)]) == 0
        assert main(["explain", str(tel_dir)]) == 0
