"""Integration tests: instrumentation threaded through the real code paths."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.experiments import fig5_write_ops
from repro.experiments.harness import (
    EXPERIMENTS,
    approx_seconds,
    main as harness_main,
    run_experiments,
)


@pytest.fixture(autouse=True)
def _clean_obs_state():
    yield
    obs.set_registry(None)
    obs.set_recorder(None)


class TestFig5Counters:
    def test_schedule_counters_match_reported_table(self):
        """The obs counters and Figure 5's table are the same numbers."""
        names = ["Cora", "Citeseer"]
        with obs.profiled() as session:
            result = fig5_write_ops.run(names=names)
        atomic = session.registry.counter("core.schedule.atomic_writes").value
        regular = session.registry.counter("core.schedule.regular_writes").value
        assert atomic == sum(result.column("atomic"))
        assert regular == sum(result.column("regular"))
        assert session.registry.counter("core.schedule.built").value == len(names)

    def test_executor_counters_match_schedule(self, small_power_law, features):
        from repro.core import merge_path_spmm

        with obs.profiled() as session:
            result = merge_path_spmm(
                small_power_law, features(small_power_law.n_cols, 8)
            )
        registry = session.registry
        assert (
            registry.counter("core.executor.atomic_writes").value
            == result.writes.atomic_writes
            == result.schedule.statistics.atomic_writes
        )
        assert (
            registry.counter("core.executor.regular_writes").value
            == result.writes.regular_writes
        )


class TestGPUTimingMetrics:
    def test_cycle_breakdown_published(self, small_power_law):
        from repro.gpu import kernel_time

        with obs.profiled() as session:
            timing = kernel_time("mergepath", small_power_law, 16)
        breakdowns = obs.kernel_breakdowns(session.snapshot())
        parts = breakdowns[timing.label]
        for component in (
            "total", "issue", "bandwidth", "little", "span", "atomic",
            "hotspot", "serial", "launch",
        ):
            assert component in parts
        assert parts["total"] == pytest.approx(timing.cycles)
        assert parts["issue"] == pytest.approx(timing.issue_cycles)
        spans = {e["name"] for e in session.trace.events if e["ph"] == "X"}
        assert "gpu.kernels.kernel_time" in spans
        assert "gpu.timing.simulate" in spans


class TestMulticoreMetrics:
    def test_run_publishes_cache_and_noc_events(self, small_power_law):
        from repro.multicore.kernels import run_mergepath

        with obs.profiled() as session:
            result = run_mergepath(small_power_law, dim=4, n_cores=4)
        registry = session.registry
        assert registry.counter("multicore.runs").value == 1
        assert (
            registry.counter("multicore.dram_accesses").value
            == result.dram_accesses
        )
        assert registry.histogram("multicore.core_cycles").count == 4
        assert registry.counter("multicore.l1_accesses").value > 0


class TestHarnessProfiling:
    def test_profile_and_trace_cli(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        code = harness_main(
            [
                "fig3", "--profile",
                "--trace-out", str(trace_path),
                "--bench-dir", str(tmp_path / "bench"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "profile summary" in out
        assert "core.schedule.built" in out
        # (a) run record, appended to the trajectory file
        doc = json.loads((tmp_path / "bench" / "BENCH_fig3.json").read_text())
        assert doc["schema"] == "repro.obs.runs/2"
        record = doc["runs"][-1]
        assert record["schema"] == "repro.obs.run/1"
        assert record["status"] == "ok"
        assert record["wall_seconds"] > 0
        names = {m["name"] for m in record["metrics"]}
        assert "core.schedule.atomic_writes" in names
        # (b) valid Chrome trace with nested spans for the schedule build
        trace = json.loads(trace_path.read_text())
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        by_name = {e["name"] for e in spans}
        assert "experiment.fig3" in by_name
        assert "core.schedule.build" in by_name
        depths = {e["name"]: e["args"]["depth"] for e in spans}
        assert depths["core.schedule.build"] > depths["experiment.fig3"]

    def test_unprofiled_cli_exports_nothing(self, tmp_path, capsys):
        code = harness_main(["fig3", "--bench-dir", str(tmp_path / "bench")])
        assert code == 0
        assert not (tmp_path / "bench").exists()
        assert "profile summary" not in capsys.readouterr().out


class TestApproxSeconds:
    def test_falls_back_to_static_table(self, tmp_path):
        assert approx_seconds("fig9", bench_dir=tmp_path) == 200.0

    def test_prefers_measured_record(self, tmp_path):
        obs.write_run_record(
            obs.run_record("fig9", wall_seconds=123.0), directory=tmp_path
        )
        assert approx_seconds("fig9", bench_dir=tmp_path) == 123.0

    def test_list_uses_bench_dir(self, tmp_path, capsys):
        obs.write_run_record(
            obs.run_record("fig3", wall_seconds=7.0), directory=tmp_path
        )
        assert harness_main(["--list", "--bench-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "fig3     ~7s" in out
        assert len(out.strip().splitlines()) == len(EXPERIMENTS)


class TestFailureRecording:
    def test_record_mode_continues_past_failures(self, monkeypatch):
        boom = RuntimeError("synthetic failure")

        def failing():
            raise boom

        monkeypatch.setitem(EXPERIMENTS, "fig3", failing)
        with obs.profiled() as session:
            results = run_experiments(["fig3", "table1"], on_error="record")
        assert set(results) == {"fig3", "table1"}
        assert results["fig3"].failed
        assert "RuntimeError: synthetic failure" in results["fig3"].error
        assert "FAILED" in results["fig3"].format()
        assert not results["table1"].failed
        errored = [
            e for e in session.trace.events
            if e["ph"] == "X" and "error" in e.get("args", {})
        ]
        assert any(e["name"] == "experiment.fig3" for e in errored)

    def test_raise_mode_propagates(self, monkeypatch):
        def failing():
            raise RuntimeError("synthetic failure")

        monkeypatch.setitem(EXPERIMENTS, "fig3", failing)
        with pytest.raises(RuntimeError, match="synthetic"):
            run_experiments(["fig3"])

    def test_cli_reports_failures_and_exits_nonzero(
        self, monkeypatch, tmp_path, capsys
    ):
        def failing():
            raise RuntimeError("synthetic failure")

        monkeypatch.setitem(EXPERIMENTS, "fig3", failing)
        code = harness_main(
            ["fig3", "table1", "--profile", "--bench-dir", str(tmp_path)]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "1 experiment(s) failed: fig3" in captured.err
        doc = json.loads((tmp_path / "BENCH_fig3.json").read_text())
        record = doc["runs"][-1]
        assert record["status"] == "error"
        assert "RuntimeError" in record["error"]

    def test_bad_on_error_value(self):
        with pytest.raises(ValueError, match="on_error"):
            run_experiments(["fig3"], on_error="explode")


class TestObsReportCLI:
    def test_reports_latest_record(self, tmp_path, capsys):
        from repro.__main__ import main as repro_main

        assert harness_main(
            ["fig3", "--profile", "--bench-dir", str(tmp_path)]
        ) == 0
        capsys.readouterr()
        code = repro_main(["obs-report", "--bench-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "run record: fig3" in out
        assert "core.schedule.built" in out

    def test_no_records(self, tmp_path, capsys):
        from repro.__main__ import main as repro_main

        code = repro_main(["obs-report", "--bench-dir", str(tmp_path)])
        assert code == 1
        assert "no run records" in capsys.readouterr().out

    def test_all_listing(self, tmp_path, capsys):
        from repro.__main__ import main as repro_main

        obs.write_run_record(
            obs.run_record("fig3", wall_seconds=1.0), directory=tmp_path
        )
        code = repro_main(["obs-report", "--all", "--bench-dir", str(tmp_path)])
        assert code == 0
        assert "fig3" in capsys.readouterr().out


def _load_lint_module():
    import importlib.util
    from pathlib import Path

    tool = Path(__file__).parent.parent / "tools" / "check_instrumentation.py"
    spec = importlib.util.spec_from_file_location("check_inst", tool)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestInstrumentationLint:
    def test_repo_is_clean(self, capsys):
        module = _load_lint_module()
        assert module.main() == 0
        assert "clean" in capsys.readouterr().out

    def test_detects_missing_decorator(self, tmp_path):
        module = _load_lint_module()
        offender = module.REPO_ROOT / "src" / "repro" / "_lint_probe_tmp.py"
        offender.write_text(
            "def run_everything():\n    pass\n\n"
            "@instrumented\ndef run_covered():\n    pass\n\n"
            "class ToySystem:\n"
            "    def run(self):\n        pass\n"
        )
        try:
            messages = module.check_file(offender)
        finally:
            offender.unlink()
        assert len(messages) == 2
        assert any("run_everything" in m for m in messages)
        assert any("ToySystem.run" in m for m in messages)

    def test_names_a_missing_package_or_module(self, monkeypatch, capsys):
        module = _load_lint_module()
        monkeypatch.setattr(module, "PACKAGES", (*module.PACKAGES, "gone"))
        monkeypatch.setattr(
            module,
            "OBS_REQUIRED_MODULES",
            (*module.OBS_REQUIRED_MODULES, "src/repro/gone.py"),
        )
        assert module.main() == 1
        out = capsys.readouterr().out
        assert "src/repro/gone: PACKAGES entry is not a directory" in out
        assert (
            "src/repro/gone.py: OBS_REQUIRED_MODULES entry is not a file"
            in out
        )
