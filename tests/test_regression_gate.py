"""Append-only run trajectories and the perf-regression gate.

Covers satellite 1 (``write_run_record`` appends history with
schema-versioned migration of legacy single-run files) and the tentpole's
``tools/check_regression.py`` gate (pass / regression / insufficient
history / ``--require``).
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro import obs
from repro.obs.export import (
    MAX_RUNS,
    SCHEMA,
    TRAJECTORY_SCHEMA,
    read_records,
    read_trajectory,
    write_run_record,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_gate():
    path = REPO_ROOT / "tools" / "check_regression.py"
    spec = importlib.util.spec_from_file_location("check_regression", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def gate():
    return _load_gate()


def _kernel_record(rows_per_s, status="ok"):
    return obs.run_record(
        "kernel",
        extra={
            "results": [
                {
                    "dataset": "cora",
                    "executor": "fused",
                    "rows_per_s": rows_per_s,
                    "check": "pass",
                }
            ]
        },
        status=status,
    )


def _serve_record(p95_ms, rps, status="ok"):
    return obs.run_record(
        "serve",
        extra={
            "serve": {
                "steady": {
                    "latency_ms": {"p95": p95_ms},
                    "throughput_rps": rps,
                }
            }
        },
        status=status,
    )


class TestTrajectories:
    def test_write_appends(self, tmp_path):
        write_run_record(_kernel_record(100.0), directory=tmp_path)
        path = write_run_record(_kernel_record(110.0), directory=tmp_path)
        doc = json.loads(path.read_text())
        assert doc["schema"] == TRAJECTORY_SCHEMA
        assert doc["name"] == "kernel"
        assert len(doc["runs"]) == 2
        values = [r["results"][0]["rows_per_s"] for r in doc["runs"]]
        assert values == [100.0, 110.0]  # oldest first

    def test_legacy_single_run_migrated(self, tmp_path):
        # A pre-trajectory file is a bare repro.obs.run/1 dict; the next
        # append must keep it as the first history entry.
        legacy = _kernel_record(50.0)
        assert legacy["schema"] == SCHEMA
        (tmp_path / "BENCH_kernel.json").write_text(json.dumps(legacy))
        write_run_record(_kernel_record(60.0), directory=tmp_path)
        runs = read_trajectory("kernel", tmp_path)
        assert [r["results"][0]["rows_per_s"] for r in runs] == [50.0, 60.0]

    def test_max_runs_trims_oldest(self, tmp_path):
        for i in range(5):
            write_run_record(
                _kernel_record(float(i)), directory=tmp_path, max_runs=3
            )
        runs = read_trajectory("kernel", tmp_path)
        assert [r["results"][0]["rows_per_s"] for r in runs] == [
            2.0,
            3.0,
            4.0,
        ]

    def test_max_runs_validated(self, tmp_path):
        with pytest.raises(ValueError):
            write_run_record(
                _kernel_record(1.0), directory=tmp_path, max_runs=0
            )

    def test_default_bound_is_sane(self):
        assert MAX_RUNS >= 10

    def test_read_records_flattens(self, tmp_path):
        write_run_record(_kernel_record(1.0), directory=tmp_path)
        write_run_record(_kernel_record(2.0), directory=tmp_path)
        write_run_record(_serve_record(10.0, 100.0), directory=tmp_path)
        records = read_records(tmp_path)
        assert len(records) == 3
        assert all(r["schema"] == SCHEMA for r in records)
        assert obs.latest_record("kernel", tmp_path)["results"][0][
            "rows_per_s"
        ] == 2.0

    def test_corrupt_file_yields_empty(self, tmp_path):
        (tmp_path / "BENCH_kernel.json").write_text("{not json")
        assert read_trajectory("kernel", tmp_path) == []


class TestMetricExtraction:
    def test_serve_metrics(self, gate):
        metrics = gate.serve_metrics(_serve_record(12.5, 80.0))
        assert metrics["steady.latency_ms.p95"] == (12.5, gate.LOWER)
        assert metrics["steady.throughput_rps"] == (80.0, gate.HIGHER)

    def test_missing_sections_empty(self, gate):
        assert gate.serve_metrics({"serve": {}}) == {}


class TestGate:
    def _seed(self, tmp_path, throughputs):
        for rps in throughputs:
            write_run_record(_serve_record(10.0, rps), directory=tmp_path)

    def test_clean_pass(self, gate, tmp_path, capsys):
        self._seed(tmp_path, [100.0, 105.0, 98.0])
        code = gate.main(
            ["--bench-dir", str(tmp_path), "--name", "serve"]
        )
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_throughput_collapse_fails(self, gate, tmp_path, capsys):
        # Latest run at 30% of the median baseline: beyond the 50%
        # tolerance, so the gate must trip.
        self._seed(tmp_path, [100.0, 105.0, 30.0])
        code = gate.main(
            ["--bench-dir", str(tmp_path), "--name", "serve"]
        )
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_latency_blowup_fails(self, gate, tmp_path):
        for p95 in (10.0, 11.0, 40.0):  # LOWER-is-better direction
            write_run_record(_serve_record(p95, 100.0), directory=tmp_path)
        code = gate.main(["--bench-dir", str(tmp_path), "--name", "serve"])
        assert code == 1

    def test_insufficient_history_passes(self, gate, tmp_path, capsys):
        self._seed(tmp_path, [100.0])
        code = gate.main(
            ["--bench-dir", str(tmp_path), "--name", "serve"]
        )
        assert code == 0
        assert "passing without judgement" in capsys.readouterr().out

    def test_error_runs_excluded_from_baseline(self, gate, tmp_path):
        # A crashed run's numbers must not poison the baseline: only the
        # two ok runs count, and one prior ok run < min-history default.
        write_run_record(_serve_record(10.0, 100.0), directory=tmp_path)
        write_run_record(
            _serve_record(10.0, 1.0, status="error"), directory=tmp_path
        )
        write_run_record(_serve_record(10.0, 95.0), directory=tmp_path)
        code = gate.main(
            [
                "--bench-dir",
                str(tmp_path),
                "--name",
                "serve",
                "--min-history",
                "1",
            ]
        )
        assert code == 0

    def test_require_missing_trajectory(self, gate, tmp_path):
        code = gate.main(
            ["--bench-dir", str(tmp_path), "--name", "serve", "--require"]
        )
        assert code == 2

    def test_missing_without_require_skips(self, gate, tmp_path, capsys):
        code = gate.main(["--bench-dir", str(tmp_path)])
        assert code == 0
        assert "skipping" in capsys.readouterr().out

    def test_tolerance_validation(self, gate, tmp_path):
        with pytest.raises(SystemExit):
            gate.main(["--bench-dir", str(tmp_path), "--tolerance", "0"])
        with pytest.raises(SystemExit):
            gate.main(["--bench-dir", str(tmp_path), "--min-history", "0"])
