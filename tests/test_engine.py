"""Unit tests for the GCN inference engine's layer ordering and kernel."""

import numpy as np

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
