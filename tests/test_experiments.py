"""Tests for the experiment harnesses (small configurations).

These validate that each harness runs end-to-end and that the headline
*shapes* from the paper hold in the reproduced data.  Full-size runs live
in ``benchmarks/``.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.experiments import (
    fig1_power_law,
    fig2_motivation,
    fig3_example,
    fig4_speedup,
    fig5_write_ops,
    fig6_cost_sweep,
    fig7_dimension_scaling,
    fig8_online_overhead,
    fig9_multicore_scaling,
    table1_config,
    table2_datasets,
)
from repro.experiments.reporting import ExperimentResult, format_table, geometric_mean

SMALL_I = ["Cora", "Citeseer", "Pubmed"]
SMALL_II = ["PROTEINS_full"]

#: ``python -m repro fig8``'s table on all 17 graphs, less its timing note.
FIG8_GOLDEN = Path(__file__).parent / "golden" / "fig8_online_overhead.txt"


class TestReporting:
    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_geometric_mean_rejects_empty_and_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([])
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    def test_format_table_alignment(self):
        out = format_table(["a", "bb"], [(1, 2.5), (10, 0.25)])
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_result_column_access(self):
        result = ExperimentResult("t", ["x", "y"], [(1, 2), (3, 4)])
        assert result.column("y") == [2, 4]

    def test_result_format_includes_notes(self):
        result = ExperimentResult("t", ["x"], [(1,)], notes=["hello"])
        assert "hello" in result.format()


class TestFig1:
    def test_classification_separates_types(self):
        result = fig1_power_law.run(names=("Cora", "Nell", "Yeast"))
        classes = dict(zip(result.column("graph"), result.column("classified")))
        assert classes["Cora"] == "power-law"
        assert classes["Nell"] == "power-law"
        assert classes["Yeast"] == "structured"


class TestFig2:
    def test_orderings(self):
        result = fig2_motivation.run()
        data = {row[0]: row for row in result.rows}
        headers = result.headers
        awb = headers.index("awb-gcn")
        gnna = headers.index("gnnadvisor")
        serial = headers.index("merge-path-serial")
        rowsplit = headers.index("row-splitting")
        # AWB-GCN best on the two small graphs; serial merge-path worst.
        for graph in ("Cora", "Citeseer"):
            row = data[graph]
            others = [row[i] for i in (gnna, serial, rowsplit)]
            assert row[awb] < min(others)
            assert row[serial] == max(others)
        # GNNAdvisor ahead of AWB-GCN on Nell; AWB ahead of row-splitting.
        assert data["Nell"][gnna] < data["Nell"][awb]
        assert data["Nell"][awb] < data["Nell"][rowsplit]
        # Serial merge-path also beats AWB-GCN on Nell (evil-row handling).
        assert data["Nell"][serial] < data["Nell"][awb]


class TestFig3:
    def test_matches_paper_walkthrough(self):
        result = fig3_example.run()
        thread2 = result.rows[1]
        assert thread2[1] == "(1, 6)"
        assert thread2[2] == "(3, 11)"
        assert thread2[3] == 6 and thread2[4] == 0 and thread2[5] == 5


class TestTables:
    def test_table1_core_scaling(self):
        result = table1_config.run(256)
        text = result.format()
        assert "256 single-threaded" in text
        assert "32 KB per-core slice (8 MB total)" in text

    def test_table2_generated_matches_published(self):
        result = table2_datasets.run()
        assert len(result.rows) == 23
        for row in result.rows:
            assert row[2] == row[3]  # nodes
            assert row[4] == row[5]  # nnz
            assert row[8] == row[9]  # max degree


class TestFig4:
    def test_small_suite_shapes(self):
        result = fig4_speedup.run(names=SMALL_I + SMALL_II)
        mp = result.column("mergepath")
        opt = result.column("gnnadvisor-opt")
        # MergePath-SpMM beats GNNAdvisor everywhere and opt on average.
        assert all(s > 1.0 for s in mp)
        assert geometric_mean(mp) > geometric_mean(opt) > 1.0
        # cuSPARSE loses on the small power-law graphs.
        by_name = dict(zip(result.column("graph"), result.column("cusparse")))
        assert by_name["Cora"] < 1.0


class TestFig5:
    def test_type_separation(self):
        result = fig5_write_ops.run(names=["email-Enron", "email-Euall", "Yeast"])
        frac = dict(zip(result.column("graph"), result.column("atomic_frac")))
        assert frac["Yeast"] < 0.2
        assert frac["email-Euall"] < frac["email-Enron"]


class TestFig6:
    def test_sweep_structure(self):
        result = fig6_cost_sweep.run(
            names=("Cora", "Pubmed"), dims=(16, 128), costs=(2, 10, 30, 50)
        )
        assert [row[0] for row in result.rows] == [16, 128]
        for row in result.rows:
            assert row[1] in (2, 10, 30, 50)
            # Normalized performance at the best cost is the maximum.
            perf = row[3:]
            assert max(perf) == perf[(2, 10, 30, 50).index(row[1])]


class TestFig7:
    def test_mergepath_dominates_and_dims_improve(self):
        result = fig7_dimension_scaling.run(
            names=("Cora", "Pubmed"), dims=(128, 16, 2)
        )
        rows = {row[0]: row[1:] for row in result.rows}
        # Every kernel improves from dim 128 to dim 16.
        for kernel, row in rows.items():
            assert row[1] > row[0]
        # MergePath-SpMM leads at every dimension.
        for i in range(3):
            assert rows["mergepath"][i] >= rows["gnnadvisor"][i]


class TestFig8:
    def test_overheads(self):
        result = fig8_online_overhead.run(names=["Cora", "com-Amazon"])
        over = dict(zip(result.column("graph"), result.column("overhead_%")))
        assert over["Cora"] > over["com-Amazon"]
        assert over["Cora"] < 25.0
        assert over["com-Amazon"] < 1.5
        # Each row prints as it does in the committed full-suite table.
        golden = {
            cells[0]: cells
            for cells in map(str.split, FIG8_GOLDEN.read_text().splitlines()[3:])
            if cells[0] != "*"
        }
        assert len(golden) == 17
        printed = format_table(result.headers, result.rows).splitlines()[2:]
        for cells in map(str.split, printed):
            assert cells == golden[cells[0]]


class TestFig9:
    def test_small_run_scales(self):
        result = fig9_multicore_scaling.run(
            graphs=(("Cora", 1.0),), core_counts=(64, 256)
        )
        assert len(result.rows) == 2
        for row in result.rows:
            assert row[2] == pytest.approx(1.0)  # normalized to first count
            assert row[3] < 1.0  # faster at 256 cores
            assert 0.0 <= row[-1] <= 1.0  # memory fraction
