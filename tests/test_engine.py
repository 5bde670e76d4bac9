"""Unit tests for the GCN inference engine's layer ordering and kernel."""

import numpy as np
import pytest

from repro.core import parallel
from repro.formats import CSRMatrix
from repro.gnn.inference import (
    AGGREGATE_FIRST,
    TRANSFORM_FIRST,
    InferenceEngine,
    LayerPlan,
    choose_ordering,
)
from repro.gnn.models import GCN
from repro.graphs import Graph


class TestFusedPipeline:
    def test_ordering_by_flop_count(self):
        assert choose_ordering(100, 1_000, 32, 8).ordering == TRANSFORM_FIRST
        assert choose_ordering(100, 1_000, 8, 32).ordering == AGGREGATE_FIRST
        # Ties go transform-first (the accelerators' conventional order).
        assert choose_ordering(100, 1_000, 8, 8).ordering == TRANSFORM_FIRST

    def test_flop_model(self):
        # The shared dense multiply cancels: the SpMM runs at the
        # narrower of the two widths, however large n is against nnz.
        assert choose_ordering(10, 100, 4, 2) == LayerPlan(TRANSFORM_FIRST, 2)
        assert choose_ordering(10_000, 1, 2, 4) == LayerPlan(AGGREGATE_FIRST, 2)

    def test_matches_layerwise_forward(self, small_power_law, features):
        model = GCN.random([12, 16, 3], seed=5)
        graph = Graph("pl", small_power_law)
        x = features(small_power_law.n_cols, 12)
        fused = InferenceEngine(fused=True).infer(model, graph, x).output
        adjacency = graph.normalized_adjacency()
        hidden = x
        for layer in model.layers:
            hidden = layer.forward(adjacency, hidden)
        np.testing.assert_allclose(fused, hidden, rtol=1e-9, atol=1e-12)

    def test_widening_layer_uses_aggregate_first(self, small_power_law, features):
        model = GCN.random([4, 32], seed=1)
        plan = choose_ordering(
            small_power_law.n_rows, small_power_law.nnz, 4, 32
        )
        assert plan.ordering == AGGREGATE_FIRST
        assert plan.spmm_width == 4
        graph = Graph("pl", small_power_law)
        x = features(small_power_law.n_cols, 4)
        out = InferenceEngine().infer(model, graph, x).output
        expected = model.layers[0].forward(graph.normalized_adjacency(), x)
        np.testing.assert_allclose(out, expected, rtol=1e-9, atol=1e-12)

    def test_single_plan_shared_across_layers(self, small_power_law, features):
        model = GCN.random([8, 8, 8, 8], seed=2)
        graph = Graph("pl", small_power_law)
        engine = InferenceEngine()
        out = engine.infer(model, graph, features(small_power_law.n_cols, 8))
        assert out.output.shape == (small_power_law.n_rows, 8)
        # One adjacency view serves every layer of every inference.
        view = engine._adjacency(graph)[1]
        again = engine.infer(model, graph, features(small_power_law.n_cols, 8))
        assert engine._adjacency(graph)[1] is view
        np.testing.assert_allclose(out.output, again.output)



def hub_graph() -> Graph:
    """Node 100 of 300 links to every other node.

    With self-loops its row holds 300 of the 899 merge items: longer than
    the share at three blocks, so a third cut splits it.
    """
    n, hub = 300, 100
    others = np.delete(np.arange(n), hub)
    lengths = np.zeros(n, dtype=np.int64)
    lengths[hub] = n - 1
    return Graph("hub", CSRMatrix.from_arrays(
        np.concatenate(([0], np.cumsum(lengths))), others
    ))


class TestRowBlockedPasses:
    @pytest.mark.parametrize("dims", [[12, 16, 3], [4, 32]])
    def test_blocked_pass_matches_one_block(
        self, small_power_law, blocked, dims
    ):
        model = GCN.random(dims, seed=5)
        graphs = [Graph("pl", small_power_law), hub_graph()]
        inputs = [
            np.random.default_rng(9).random((g.n_nodes, dims[0])) for g in graphs
        ]
        singles = [
            InferenceEngine().infer(model, g, x) for g, x in zip(graphs, inputs)
        ]
        assert all(single.row_blocks == 1 for single in singles)
        split_seen = False
        for k in (1, 2, 3):
            blocked(k)
            for graph, x, single in zip(graphs, inputs, singles):
                report = InferenceEngine().infer(model, graph, x)
                assert report.row_blocks == k
                plan = parallel.row_blocks(graph.normalized_adjacency(), k)
                if len(plan.split_rows) == 0:
                    np.testing.assert_array_equal(report.output, single.output)
                else:
                    split_seen = True
                    np.testing.assert_allclose(
                        report.output, single.output, rtol=1e-12, atol=0
                    )
        assert split_seen

    def test_small_graph_runs_one_block_without_pool(
        self, small_power_law, features, monkeypatch
    ):
        monkeypatch.setattr(parallel, "_pool", None)
        model = GCN.random([8, 4], seed=1)
        report = InferenceEngine().infer(
            model, Graph("pl", small_power_law), features(small_power_law.n_cols, 8)
        )
        items = small_power_law.n_rows + small_power_law.nnz
        assert items < parallel.MIN_BLOCK_ITEMS
        assert report.row_blocks == 1
        assert parallel._pool is None
