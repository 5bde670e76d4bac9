"""Differential test: every serving path returns scipy's answer.

Each path's output is compared with ``matrix.to_scipy() @ dense`` on the
exact matrix the response was served against — bit for bit, since every
path runs that one kernel.  The shard tier sums per-shard partial rows,
which reorders the additions, so it is held to ``rtol=1e-12`` instead.
"""

import numpy as np

from repro.gnn.inference import TRANSFORM_FIRST, InferenceEngine, choose_ordering
from repro.gnn.models import GCN
from repro.graphs import Graph
from repro.graphs.delta import DeltaCSR, UpdatePlanner
from repro.graphs.generators import power_law_graph
from repro.serve import GraphEpochManager, InferenceService, ServeConfig
from repro.serve.procpool import ProcPoolConfig

WIDTH = 6


def _matrix(seed=0):
    return power_law_graph(n_nodes=80, nnz=600, max_degree=20, seed=seed)


def _dense(matrix, seed):
    return np.random.default_rng(seed).random((matrix.n_cols, WIDTH))


def _floor(matrix, dense):
    return matrix.to_scipy() @ dense


def _proc_config():
    return ProcPoolConfig(
        n_workers=1, heartbeat_interval=0.02, heartbeat_timeout=2.0,
        hang_timeout=10.0,
    )


class TestServingPathsMatchScipy:
    def test_thread_tier_column_stacked_batch(self):
        matrix = _matrix()
        operands = [_dense(matrix, seed) for seed in range(4)]
        config = ServeConfig(max_batch=4, max_wait_ms=200.0, n_workers=1)
        with InferenceService(config=config) as service:
            futures = [service.submit(matrix, dense) for dense in operands]
            responses = [f.result(timeout=30.0) for f in futures]
        assert max(r.batch_size for r in responses) > 1
        for dense, response in zip(operands, responses):
            assert response.ok, response.error
            assert np.array_equal(response.output, _floor(matrix, dense))

    def test_submit_ego_after_updates(self):
        base = _matrix(seed=1)
        manager = GraphEpochManager(DeltaCSR(base, compact_threshold=64))
        planner = UpdatePlanner(base)
        rng = np.random.default_rng(2)
        features = rng.random((base.n_cols, WIDTH))
        with InferenceService(epoch_manager=manager) as service:
            for _ in range(3):
                service.apply_updates(planner.batch(rng, 2))
            submission = service.submit_ego(
                0, features, fanouts=(8, 4), rng=np.random.default_rng(3)
            )
            response = submission.result(timeout=30.0)
        assert response.ok, response.error
        assert response.epoch == 3
        sub = submission.subgraph
        assert np.array_equal(
            response.output, _floor(sub.matrix, features[sub.nodes])
        )

    def test_process_tier(self):
        matrix = _matrix(seed=4)
        dense = _dense(matrix, 5)
        with InferenceService(
            config=ServeConfig(isolation="process", n_workers=1),
            proc_config=_proc_config(),
        ) as service:
            response = service.submit(matrix, dense).result(timeout=30.0)
        assert response.ok, response.error
        assert response.backend == "procpool"
        assert np.array_equal(response.output, _floor(matrix, dense))

    def test_shard_tier(self):
        matrix = _matrix(seed=6)
        dense = _dense(matrix, 7)
        with InferenceService(
            config=ServeConfig(isolation="shard", num_shards=2, n_workers=1),
            proc_config=_proc_config(),
        ) as service:
            response = service.submit(matrix, dense).result(timeout=30.0)
        assert response.ok, response.error
        np.testing.assert_allclose(
            response.output, _floor(matrix, dense), rtol=1e-12, atol=0
        )

    def test_inference_engine(self):
        graph = Graph("pl", _matrix(seed=8))
        model = GCN.random([WIDTH, 8, 3], seed=9)
        features = _dense(graph.adjacency, 10)
        out = InferenceEngine().infer(model, graph, features).output
        adjacency = graph.normalized_adjacency()
        hidden = features
        for layer in model.layers:
            plan = choose_ordering(
                adjacency.n_rows, adjacency.nnz,
                layer.in_features, layer.out_features,
            )
            if plan.ordering == TRANSFORM_FIRST:
                hidden = _floor(adjacency, hidden @ layer.weight)
            else:
                hidden = _floor(adjacency, hidden) @ layer.weight
            hidden = layer._activation(hidden)
        assert np.array_equal(out, hidden)
