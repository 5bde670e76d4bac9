"""Tests for the serving load generator and ``serve-bench`` CLI."""

import json

import numpy as np
import pytest

from repro.serve.loadgen import (
    BenchConfig,
    main,
    percentiles_ms,
    render_summary,
    run_bench,
    zipf_weights,
)
from repro.serve.service import ServeConfig


def _tiny_config(**overrides):
    defaults = dict(
        requests=30,
        seed=0,
        mode="open",
        rate=2000.0,
        dim=8,
        datasets=("Cora", "Citeseer"),
        scale=0.1,
        overload_requests=16,
        service=ServeConfig(max_queue=64, max_batch=4),
    )
    defaults.update(overrides)
    return BenchConfig(**defaults)


class TestZipfWeights:
    def test_normalized_and_decreasing(self):
        weights = zipf_weights(6, 1.1)
        assert weights.sum() == pytest.approx(1.0)
        assert np.all(np.diff(weights) < 0)

    def test_skew_increases_head_mass(self):
        assert zipf_weights(4, 2.0)[0] > zipf_weights(4, 0.5)[0]


class TestPercentiles:
    def test_empty_sample(self):
        stats = percentiles_ms([])
        assert stats == {
            "p50": 0.0, "p95": 0.0, "p99": 0.0, "mean": 0.0, "max": 0.0,
        }

    def test_ordering(self):
        stats = percentiles_ms([0.001 * i for i in range(1, 101)])
        assert stats["p50"] <= stats["p95"] <= stats["p99"] <= stats["max"]
        assert stats["p50"] == pytest.approx(50.5)


class TestBenchConfig:
    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            _tiny_config(mode="sideways")

    def test_rejects_empty_datasets(self):
        with pytest.raises(ValueError, match="dataset"):
            _tiny_config(datasets=())


class TestRunBench:
    @pytest.fixture(scope="class")
    def report(self):
        return run_bench(_tiny_config())

    def test_counts_balance(self, report):
        steady = report["steady"]
        assert steady["requests"] == 30
        assert (
            steady["accepted"] + steady["rejected"] + steady["errors"] == 30
        )
        assert steady["errors"] == 0

    def test_no_silent_failures(self, report):
        assert report["silent_failures"] == 0
        assert report["steady"]["mismatches"] == 0
        assert report["overload"]["mismatches"] == 0
        # Verification actually ran for every accepted response.
        assert report["steady"]["verified"] == report["steady"]["accepted"]

    def test_overload_sheds(self, report):
        overload = report["overload"]
        assert overload["requests"] == 16
        assert overload["rejected"] >= 1
        assert overload["accepted"] + overload["rejected"] + overload[
            "errors"
        ] == 16

    def test_modeled_percentiles_deterministic(self, report):
        modeled = run_bench(_tiny_config())["steady"]["modeled"]
        assert modeled == report["steady"]["modeled"]
        assert (
            modeled["p50_us"] <= modeled["p95_us"] <= modeled["p99_us"]
        )

    def test_render_summary_mentions_key_stats(self, report):
        text = render_summary(report)
        assert "backends  : scipy=" in text
        assert "silent failures" in text

    def test_closed_loop_mode(self):
        report = run_bench(_tiny_config(mode="closed", concurrency=4))
        steady = report["steady"]
        assert steady["accepted"] == 30
        assert steady["rejected"] == 0
        assert report["silent_failures"] == 0


class TestLiveUpdateBench:
    @pytest.fixture(scope="class")
    def report(self):
        return run_bench(
            _tiny_config(
                requests=60,
                rate=1500.0,
                update_rate=150.0,
                compact_threshold=8,
            )
        )

    def test_config_validation(self):
        with pytest.raises(ValueError, match="update_rate"):
            _tiny_config(update_rate=-1.0)
        with pytest.raises(ValueError, match="update_batch_max"):
            _tiny_config(update_batch_max=0)
        with pytest.raises(ValueError, match="compact_threshold"):
            _tiny_config(compact_threshold=0)

    def test_no_silent_failures_under_updates(self, report):
        assert report["silent_failures"] == 0
        assert report["steady"]["mismatches"] == 0
        assert report["steady"]["errors"] == 0

    def test_update_stream_recorded(self, report):
        stream = report["steady"]["update_stream"]
        assert stream["batches"] >= 1
        assert stream["updates"] >= stream["batches"]
        assert stream["errors"] == 0
        assert stream["rate_target"] == 150.0
        epochs = stream["epochs"]
        assert epochs["current_epoch"] == stream["batches"]
        assert epochs["updates_applied"] == stream["updates"]

    def test_per_epoch_response_counts(self, report):
        epochs = report["steady"]["epochs"]
        assert epochs, "no epoch-stamped responses recorded"
        assert sum(epochs.values()) >= 1
        assert all(count >= 1 for count in epochs.values())

    def test_config_echoed_in_report(self, report):
        assert report["config"]["update_rate"] == 150.0
        assert report["config"]["compact_threshold"] == 8

    def test_render_mentions_updates(self, report):
        text = render_summary(report)
        assert "updates" in text

    def test_static_bench_has_no_update_block(self):
        report = run_bench(_tiny_config())
        assert "update_stream" not in report["steady"]


class TestCli:
    def test_main_writes_run_record(self, tmp_path):
        bench_dir = tmp_path / "records"
        code = main(
            [
                "--requests", "20",
                "--seed", "0",
                "--rate", "2000",
                "--dim", "8",
                "--datasets", "Cora,Citeseer",
                "--scale", "0.1",
                "--bench-dir", str(bench_dir),
            ]
        )
        assert code == 0
        records = list(bench_dir.glob("BENCH_serve.json"))
        assert len(records) == 1
        doc = json.loads(records[0].read_text())
        assert doc["schema"] == "repro.obs.runs/2"
        payload = doc["runs"][-1]
        assert payload["schema"] == "repro.obs.run/1"
        assert payload["status"] == "ok"
        serve = payload["serve"]
        assert serve["silent_failures"] == 0
        assert serve["overload"]["rejected"] >= 1

    def test_main_no_record(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(
            [
                "--requests", "5",
                "--rate", "2000",
                "--dim", "8",
                "--datasets", "Cora",
                "--scale", "0.1",
                "--no-record",
                "--no-verify",
            ]
        )
        assert code == 0
        assert not list(tmp_path.rglob("BENCH_serve.json"))
