"""Integration tests: ego sampling through the serving stack.

Pins the `submit_ego` contract: the pre-charged `sample` attribution
stage, epoch pinning under live updates, and exact agreement with the
independently recomputed subgraph aggregation.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.formats import CSRMatrix
from repro.graphs import power_law_graph
from repro.graphs.delta import EdgeUpdate, UpdatePlanner
from repro.serve.epoch import GraphEpochManager
from repro.serve.service import EgoSubmission, InferenceService


@pytest.fixture(scope="module")
def graph():
    return power_law_graph(n_nodes=300, nnz=2_000, max_degree=80, seed=11)


def _expected(submission, features):
    sub = submission.subgraph
    return sub.matrix.multiply_dense(features[sub.nodes])


class TestSubmitEgo:
    def test_end_to_end_matches_subgraph_aggregation(self, graph):
        features = np.random.default_rng(0).random((graph.n_cols, 8))
        with InferenceService() as service:
            submission = service.submit_ego(
                0,
                features,
                matrix=graph,
                fanouts=(6, 3),
                rng=np.random.default_rng(42),
            )
            assert isinstance(submission, EgoSubmission)
            response = submission.result(timeout=10.0)
        assert response.ok
        assert response.backend == "scipy"
        assert submission.subgraph.nodes[0] == 0
        assert np.allclose(
            response.output, _expected(submission, features), atol=1e-9
        )

    def test_sample_stage_attribution_reconciles(self, graph):
        features = np.random.default_rng(2).random((graph.n_cols, 4))
        with InferenceService() as service:
            submission = service.submit_ego(
                3,
                features,
                matrix=graph,
                rng=np.random.default_rng(7),
            )
            response = submission.result(timeout=10.0)
        assert response.ok
        assert response.attribution is not None
        stages = response.attribution["stages"]
        assert stages["sample"] == pytest.approx(submission.sample_seconds)
        # Stage sum covers sampling *plus* admission-to-reply latency.
        total = (
            submission.sample_seconds
            + response.queue_seconds
            + response.service_seconds
        )
        assert sum(stages.values()) == pytest.approx(total, abs=1e-9)

    def test_deterministic_under_explicit_rng(self, graph):
        features = np.random.default_rng(3).random((graph.n_cols, 4))
        with InferenceService() as service:
            a = service.submit_ego(
                5, features, matrix=graph, rng=np.random.default_rng(9)
            )
            b = service.submit_ego(
                5, features, matrix=graph, rng=np.random.default_rng(9)
            )
            a.result(timeout=10.0)
            b.result(timeout=10.0)
        assert np.array_equal(a.subgraph.nodes, b.subgraph.nodes)

    def test_default_rngs_differ_per_submission(self, graph):
        # Unseeded submissions of the same hub draw distinct neighborhoods
        # (service-local sequence), yet each remains a valid sample.
        hub = int(np.argmax(graph.row_lengths))
        features = np.random.default_rng(4).random((graph.n_cols, 4))
        with InferenceService() as service:
            a = service.submit_ego(hub, features, matrix=graph)
            b = service.submit_ego(hub, features, matrix=graph)
            assert a.result(timeout=10.0).ok
            assert b.result(timeout=10.0).ok
        assert not np.array_equal(a.subgraph.nodes, b.subgraph.nodes)

    def test_feature_shape_validation_releases_lease(self, graph):
        manager = GraphEpochManager(graph)
        with InferenceService(epoch_manager=manager) as service:
            with pytest.raises(ValueError, match="one row per graph node"):
                service.submit_ego(0, np.ones((3, 2)))
        assert manager.stats()["leases"] == 0

    def test_requires_epoch_manager_for_matrix_none(self, graph):
        with InferenceService() as service:
            with pytest.raises(ValueError, match="epoch-managed"):
                service.submit_ego(0, np.ones((graph.n_cols, 2)))


class TestEgoUnderLiveUpdates:
    def test_epoch_pinned_sampling_and_verification(self, graph):
        # Snapshot dense copies per epoch; every response must match the
        # aggregation of the epoch it *admitted* under, not the latest.
        manager = GraphEpochManager(graph)
        dense_by_epoch = {
            manager.current_epoch: manager.current_snapshot()
            .matrix.to_dense()
        }
        # Insert an edge node 0 does not already have; with fanout -1 the
        # one-hop sample keeps every neighbor, so the new edge *must*
        # appear in post-update samples and must not in pre-update ones.
        row0 = set(
            graph.column_indices[
                graph.row_pointers[0]:graph.row_pointers[1]
            ].tolist()
        )
        target = next(
            c for c in range(1, graph.n_cols) if c not in row0
        )
        features = np.random.default_rng(6).random((graph.n_cols, 4))
        with InferenceService(epoch_manager=manager) as service:
            before = service.submit_ego(
                0, features, fanouts=(-1,), rng=np.random.default_rng(1)
            )
            snapshot = service.apply_updates(
                [EdgeUpdate(op="insert", row=0, col=target, value=5.0)]
            )
            dense_by_epoch[snapshot.epoch] = snapshot.matrix.to_dense()
            after = service.submit_ego(
                0, features, fanouts=(-1,), rng=np.random.default_rng(1)
            )
            responses = [
                before.result(timeout=10.0),
                after.result(timeout=10.0),
            ]
        assert responses[0].ok and responses[1].ok
        assert before.epoch is not None and after.epoch is not None
        assert before.epoch != after.epoch
        assert responses[0].epoch == before.epoch
        assert responses[1].epoch == after.epoch
        for submission, response in zip((before, after), responses):
            dense = dense_by_epoch[response.epoch]
            nodes = submission.subgraph.nodes
            expected = dense[np.ix_(nodes, nodes)] @ features[nodes]
            assert np.allclose(response.output, expected, atol=1e-9)
        # The inserted edge is visible only to the post-update sample.
        assert target not in before.subgraph.nodes.tolist()
        assert target in after.subgraph.nodes.tolist()

    def test_ego_request_hashes_no_snapshot(self, graph, monkeypatch):
        manager = GraphEpochManager(graph)
        batch = UpdatePlanner(graph).batch(np.random.default_rng(3), 2)
        features = np.random.default_rng(4).random((graph.n_cols, 4))
        hashed = []
        fingerprint = CSRMatrix.fingerprint

        def counting(matrix, **kwargs):
            hashed.append(matrix)
            return fingerprint(matrix, **kwargs)

        with InferenceService(epoch_manager=manager) as service:
            snapshot = service.apply_updates(batch)
            monkeypatch.setattr(CSRMatrix, "fingerprint", counting)
            submission = service.submit_ego(
                0, features, rng=np.random.default_rng(5)
            )
            assert submission.result(timeout=10.0).ok
        assert submission.epoch == snapshot.epoch
        # The subgraph is hashed for its batching key; the snapshot never.
        assert hashed
        assert not any(matrix is snapshot.matrix for matrix in hashed)

    def test_retired_snapshot_freed_by_reference_counting(self, graph):
        manager = GraphEpochManager(graph, compact_threshold=64)
        planner = UpdatePlanner(graph)
        rng = np.random.default_rng(8)
        features = np.random.default_rng(9).random((graph.n_cols, 4))
        gc.disable()
        try:
            with InferenceService(epoch_manager=manager) as service:
                snapshot = service.apply_updates(planner.batch(rng, 2))
                # A materialized overlay, which the delta does not keep.
                assert not snapshot.compacted
                assert snapshot.matrix is not snapshot.base
                submission = service.submit_ego(
                    0, features, rng=np.random.default_rng(10)
                )
                assert submission.result(timeout=10.0).ok
                assert submission.epoch == snapshot.epoch
                service.apply_updates(planner.batch(rng, 2))
            # Closing joined the worker, whose last batch was this request.
            assert manager.stats()["retired_epochs"] == 2
            retiring = weakref.ref(snapshot.matrix)
            del snapshot, submission
            assert retiring() is None
        finally:
            gc.enable()
