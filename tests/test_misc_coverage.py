"""Coverage for small paths not exercised elsewhere."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.merge_path import MergeCoordinate
from repro.experiments.harness import EXPERIMENTS, main as harness_main
from repro.experiments.reporting import format_table
from repro.gnn import GCN, InferenceEngine
from repro.gpu import kernel_time
from repro.graphs import Graph, load_dataset
from repro.formats import CSRMatrix


class TestMergeCoordinate:
    def test_diagonal_property(self):
        assert MergeCoordinate(row=3, nnz=4).diagonal == 7


class TestKernelTimingProperties:
    def test_memory_cycles_is_binding_memory_term(self, small_power_law):
        timing = kernel_time("mergepath", small_power_law, 16)
        assert timing.memory_cycles == max(
            timing.bandwidth_cycles, timing.little_cycles, timing.span_cycles
        )


class TestReportingFormat:
    def test_large_and_tiny_floats(self):
        table = format_table(["v"], [(123456.789,), (0.00001234,)])
        assert "1.23e+05" in table
        assert "1.23e-05" in table

    def test_zero_and_int(self):
        table = format_table(["v"], [(0.0,), (42,)])
        assert "0" in table and "42" in table

    def test_empty_rows(self):
        table = format_table(["a", "b"], [])
        assert "a" in table


class TestHarnessCLI:
    def test_main_runs_named_experiment(self, capsys, tmp_path):
        code = harness_main(["fig3", "--output-dir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "fig3.txt").exists()
        assert "merge-path decomposition" in capsys.readouterr().out

    def test_unknown_command_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            harness_main(["serve-bench"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "serve-bench" in err
        for name in ("obs-report", "chaos", *EXPERIMENTS):
            assert name in err

    @pytest.mark.parametrize("command", ["serve-bench", "slo-report"])
    def test_removed_commands_exit_two_without_traceback(self, command):
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run(
            [sys.executable, "-m", "repro", command],
            capture_output=True, text=True, timeout=120.0, env=env,
        )
        assert proc.returncode == 2, proc.stderr
        assert "usage:" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestInferenceEngineEdges:
    def test_features_from_graph(self, rng):
        dense = (rng.random((10, 10)) < 0.3) * 1.0
        graph = Graph(
            name="g", adjacency=CSRMatrix.from_dense(dense)
        ).with_features(rng.random((10, 4)))
        model = GCN.random([4, 4], seed=0)
        report = InferenceEngine().infer(model, graph)
        assert report.output.shape == (10, 4)

    def test_missing_features_rejected(self, rng):
        dense = (rng.random((10, 10)) < 0.3) * 1.0
        graph = Graph(name="g", adjacency=CSRMatrix.from_dense(dense))
        model = GCN.random([4, 4], seed=0)
        with pytest.raises(ValueError, match="features"):
            InferenceEngine().infer(model, graph)


class TestDatasetScaling:
    def test_scaled_dataset_reduces_size(self):
        full = load_dataset("Pubmed")
        quarter = load_dataset("Pubmed", scale=0.25)
        assert quarter.n_nodes == pytest.approx(full.n_nodes * 0.25, rel=0.02)
        assert quarter.n_edges == pytest.approx(full.n_edges * 0.25, rel=0.02)
        # Imbalance character preserved: max degree survives the downscale.
        assert quarter.statistics.max_degree == full.statistics.max_degree


class TestSpMMResultSurface:
    def test_result_fields_consistent(self, small_power_law, features):
        from repro.core import merge_path_spmm

        x = features(small_power_law.n_cols, 4)
        result = merge_path_spmm(small_power_law, x, cost=10, min_threads=32)
        assert result.output.shape == (small_power_law.n_rows, 4)
        assert result.schedule.matrix is small_power_law
        total_nnz = result.writes.atomic_nnz + result.writes.regular_nnz
        assert total_nnz == small_power_law.nnz
