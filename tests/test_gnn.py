"""Unit tests for GNN layers, models, the inference engine, and the
modeled GPU cost of GCN inference."""

import sys

import numpy as np
import pytest

from repro.core.schedule import MergePathSchedule
from repro.core.scheduler import SchedulingMode
from repro.formats import CSRMatrix
from repro.gnn import (
    BACKENDS,
    GCN,
    GIN,
    GCNLayer,
    GraphSAGE,
    InferenceEngine,
    relu,
    sigmoid,
    spmm_backend,
)
from repro.gnn.layers import ACTIVATIONS
from repro.gpu import model_gcn_inferences
from repro.gpu import overhead as overhead_module
from repro.gpu import timing as gpu_timing
from repro.graphs import Graph
from repro.obs.rtrace import RequestContext


@pytest.fixture
def tiny_graph(rng):
    dense = (rng.random((20, 20)) < 0.2) * 1.0
    graph = Graph(name="tiny", adjacency=CSRMatrix.from_dense(dense))
    return graph.with_features(rng.random((20, 8)))


class TestActivations:
    def test_relu(self):
        assert np.array_equal(relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])

    def test_sigmoid_range(self):
        out = sigmoid(np.array([-100.0, 0.0, 100.0]))
        assert out[0] < 1e-6 and out[1] == 0.5 and out[2] > 1 - 1e-6

    @pytest.mark.parametrize("name", sorted(ACTIVATIONS))
    def test_in_place_matches_fresh(self, name):
        # The engine activates each block's rows in place.
        activate = ACTIVATIONS[name]
        x = np.random.default_rng(3).normal(size=(5, 4))
        fresh = activate(x.copy())
        in_place = x.copy()
        assert activate(in_place, out=in_place) is in_place
        np.testing.assert_array_equal(in_place, fresh)
        separate = np.empty_like(x)
        assert activate(x, out=separate) is separate
        np.testing.assert_array_equal(separate, fresh)


class TestBackends:
    def test_all_backends_agree(self, tiny_graph):
        adjacency = tiny_graph.adjacency
        x = tiny_graph.features
        reference = adjacency.multiply_dense(x)
        for name in BACKENDS:
            assert np.allclose(spmm_backend(name)(adjacency, x), reference), name

    def test_unknown_backend(self):
        with pytest.raises(KeyError, match="unknown SpMM backend"):
            spmm_backend("tensor-cores")


class TestGCNLayer:
    def test_forward_matches_manual(self, tiny_graph):
        layer = GCNLayer.random(8, 4, seed=1, backend="reference")
        adjacency = tiny_graph.normalized_adjacency()
        expected = relu(
            adjacency.to_dense() @ (tiny_graph.features @ layer.weight)
        )
        assert np.allclose(layer.forward(adjacency, tiny_graph.features), expected)

    def test_backend_equivalence(self, tiny_graph):
        adjacency = tiny_graph.normalized_adjacency()
        outputs = []
        for backend in ("reference", "mergepath", "gnnadvisor", "cusparse"):
            layer = GCNLayer.random(8, 4, seed=1, backend=backend)
            outputs.append(layer.forward(adjacency, tiny_graph.features))
        for out in outputs[1:]:
            assert np.allclose(out, outputs[0])

    def test_rejects_bad_feature_width(self, tiny_graph):
        layer = GCNLayer.random(5, 4)
        with pytest.raises(ValueError, match="feature width"):
            layer.forward(tiny_graph.adjacency, tiny_graph.features)

    def test_rejects_bad_weight(self):
        with pytest.raises(ValueError, match="2-D"):
            GCNLayer(np.ones(3))

    def test_rejects_unknown_activation(self):
        with pytest.raises(ValueError, match="activation"):
            GCNLayer(np.ones((2, 2)), activation="gelu")


class TestModels:
    def test_gcn_forward_shape(self, tiny_graph):
        model = GCN.random([8, 16, 4], seed=0)
        out = model.forward(tiny_graph)
        assert out.shape == (20, 4)

    def test_gcn_last_layer_linear(self, tiny_graph):
        model = GCN.random([8, 4], seed=0)
        out = model.forward(tiny_graph)
        assert (out < 0).any()  # no ReLU on the output layer

    def test_gcn_rejects_width_mismatch(self):
        bad = [GCNLayer.random(4, 8), GCNLayer.random(4, 2)]
        with pytest.raises(ValueError, match="width mismatch"):
            GCN(bad)

    def test_gcn_needs_features(self, tiny_graph):
        model = GCN.random([8, 4])
        bare = Graph(name="bare", adjacency=tiny_graph.adjacency)
        with pytest.raises(ValueError, match="features"):
            model.forward(bare)

    def test_graphsage_forward_shape(self, tiny_graph):
        model = GraphSAGE.random([8, 4], seed=0)
        assert model.forward(tiny_graph).shape == (20, 4)

    def test_graphsage_mean_aggregation_rows_normalized(self, tiny_graph):
        mean_adj = GraphSAGE._mean_adjacency(tiny_graph)
        sums = mean_adj.to_dense().sum(axis=1)
        nonzero = tiny_graph.adjacency.row_lengths > 0
        assert np.allclose(sums[nonzero], 1.0)

    def test_gin_forward_shape(self, tiny_graph):
        model = GIN.random([8, 6, 4], seed=0)
        assert model.forward(tiny_graph).shape == (20, 4)

    def test_gin_eps_changes_output(self, tiny_graph):
        a = GIN.random([8, 4], seed=0, eps=0.0).forward(tiny_graph)
        b = GIN.random([8, 4], seed=0, eps=1.0).forward(tiny_graph)
        assert not np.allclose(a, b)

    def test_all_models_backend_invariant(self, tiny_graph):
        for cls in (GCN, GraphSAGE, GIN):
            ref = cls.random([8, 4], seed=3, backend="reference").forward(tiny_graph)
            mp = cls.random([8, 4], seed=3, backend="mergepath").forward(tiny_graph)
            assert np.allclose(ref, mp), cls.__name__


class TestInferenceEngine:
    def test_output_matches_plain_model(self, tiny_graph):
        model = GCN.random([8, 8, 8], seed=0, backend="reference")
        engine = InferenceEngine()
        report = engine.infer(model, tiny_graph)
        assert np.allclose(report.output, model.forward(tiny_graph))

    @pytest.mark.parametrize("k", [1, 2])
    def test_cold_pass_runs_no_modeled_work(
        self, tiny_graph, monkeypatch, blocked, k
    ):
        # The engine runs the measured pass only, on one block or on
        # several: no structural hash, no GPU schedule and no GPU
        # simulation (model_gcn_inferences does those).
        blocked(k)
        calls = []

        def counting(name, original):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(CSRMatrix, "fingerprint", counting(
            "fingerprint", CSRMatrix.fingerprint))
        monkeypatch.setattr(MergePathSchedule, "__init__", counting(
            "schedule", MergePathSchedule.__init__))
        simulate = gpu_timing.simulate
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("repro")
                    and getattr(module, "simulate", None) is simulate):
                monkeypatch.setattr(module, "simulate", counting(
                    "simulate", simulate))
        model = GCN.random([8, 16, 4], seed=0)
        report = InferenceEngine().infer(model, tiny_graph)
        assert report.output.shape == (20, 4)
        assert report.row_blocks == k
        assert calls == []

    def test_bench_call_charges_the_kernel_stage(self, tiny_graph):
        # The call the gcn-offline workload makes: fused= is accepted and
        # a request context gets the pass's kernel time.
        model = GCN.random([8, 16, 4], seed=0)
        ctx = RequestContext.new()
        report = InferenceEngine(fused=True).infer(
            model, tiny_graph, tiny_graph.features, ctx=ctx
        )
        np.testing.assert_array_equal(
            report.output, InferenceEngine().infer(model, tiny_graph).output
        )
        assert set(ctx.ledger.stages()) == {"kernel"}
        assert ctx.ledger.stages()["kernel"] > 0.0

    def test_recycled_graph_address_never_serves_stale_adjacency(self):
        # Graphs created and dropped in a loop often reuse a collected
        # graph's address; the engine must still answer each graph's own
        # product, exactly as a fresh engine would.
        model = GCN.random([6, 6, 3], seed=0)
        engine = InferenceEngine()
        rng = np.random.default_rng(7)
        for i in range(50):
            dense = (rng.random((20, 20)) < 0.2) * rng.random((20, 20))
            graph = Graph(name=f"g{i}", adjacency=CSRMatrix.from_dense(dense))
            features = rng.random((20, 6))
            out = engine.infer(model, graph, features).output
            fresh = InferenceEngine().infer(model, graph, features).output
            assert np.array_equal(out, fresh), f"cycle {i}"
            del graph


class TestGpuModel:
    """Figure 8's accounting: :func:`repro.gpu.model_gcn_inferences`."""

    def test_online_one_schedule_per_inference(self, tiny_graph):
        model = GCN.random([8, 8, 8], seed=0)
        (report,) = model_gcn_inferences(
            model, tiny_graph, mode=SchedulingMode.ONLINE
        )
        assert report.schedule_computations == 1
        assert report.kernel_invocations == 2

    def test_offline_amortizes_schedules(self, tiny_graph):
        model = GCN.random([8, 8, 8], seed=0)
        first, second = model_gcn_inferences(
            model, tiny_graph, 2, mode=SchedulingMode.OFFLINE
        )
        assert first.schedule_computations == 1
        assert second.schedule_computations == 0
        assert second.modeled_schedule_cycles == 0.0

    @pytest.mark.parametrize(
        "mode, expected_calls",
        [(SchedulingMode.OFFLINE, 2), (SchedulingMode.ONLINE, 6)],
    )
    def test_simulates_once_per_schedule_and_width(
        self, tiny_graph, monkeypatch, mode, expected_calls
    ):
        # Widths 8 (aggregate-first) and 4 (transform-first): offline
        # passes share one schedule, online ones build one per pass.
        calls = []
        original = overhead_module.simulate

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(overhead_module, "simulate", counting)
        model = GCN.random([8, 16, 4], seed=0)
        model_gcn_inferences(model, tiny_graph, 3, mode=mode)
        assert len(calls) == expected_calls

    @pytest.mark.parametrize("mode", list(SchedulingMode))
    def test_modeled_fields_match_a_fresh_call(self, tiny_graph, mode):
        model = GCN.random([8, 16, 4], seed=0)
        reports = model_gcn_inferences(model, tiny_graph, 3, mode=mode)
        (fresh,) = model_gcn_inferences(model, tiny_graph, mode=mode)
        # Bit for bit: Figure 8 reads these fields.
        assert [r.modeled_kernel_cycles for r in reports] == [
            fresh.modeled_kernel_cycles
        ] * 3
        later = (
            fresh.modeled_schedule_cycles
            if mode is SchedulingMode.ONLINE
            else 0.0
        )
        assert [r.modeled_schedule_cycles for r in reports] == [
            fresh.modeled_schedule_cycles, later, later
        ]

    def test_overhead_bounded(self, tiny_graph):
        model = GCN.random([8, 8, 8], seed=0)
        (report,) = model_gcn_inferences(
            model, tiny_graph, mode=SchedulingMode.ONLINE
        )
        assert 0.0 < report.scheduling_overhead < 1.0

    def test_rejects_no_inferences(self, tiny_graph):
        with pytest.raises(ValueError, match="inferences"):
            model_gcn_inferences(GCN.random([8, 4]), tiny_graph, 0)
