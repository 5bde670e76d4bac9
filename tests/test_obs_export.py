"""Append-only ``BENCH_<name>.json`` run trajectories.

``write_run_record`` appends to a schema-versioned history, migrates a
legacy single-run file in place, trims to ``max_runs`` and never lets a
corrupt file poison a read.
"""

import json

import pytest

from repro import obs
from repro.obs.export import (
    MAX_RUNS,
    SCHEMA,
    TRAJECTORY_SCHEMA,
    read_records,
    write_run_record,
)


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
        runs = read_records(tmp_path)
        assert [r["results"][0]["rows_per_s"] for r in runs] == [50.0, 60.0]

    def test_max_runs_trims_oldest(self, tmp_path):
        for i in range(5):
            write_run_record(
                _kernel_record(float(i)), directory=tmp_path, max_runs=3
            )
        runs = read_records(tmp_path)
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
        write_run_record(obs.run_record("serve"), directory=tmp_path)
        records = read_records(tmp_path)
        assert len(records) == 3
        assert all(r["schema"] == SCHEMA for r in records)
        assert obs.latest_record("kernel", tmp_path)["results"][0][
            "rows_per_s"
        ] == 2.0

    def test_corrupt_file_yields_empty(self, tmp_path):
        (tmp_path / "BENCH_kernel.json").write_text("{not json")
        assert read_records(tmp_path) == []
