"""Tests for RCU epoch management (``repro.serve.epoch``).

The acceptance criterion under test: after a graph update, an older
epoch pinned by an in-flight lease stays live, and exactly the
superseded epochs whose leases have drained retire.
"""

import numpy as np
import pytest

from repro.graphs import power_law_graph
from repro.graphs.delta import DeltaCSR, UpdatePlanner
from repro.serve import GraphEpochManager, InferenceService, ServeConfig

DIM = 8


@pytest.fixture
def base():
    return power_law_graph(n_nodes=60, nnz=360, max_degree=16, seed=0)


def _planner_batches(base, seed=0):
    planner = UpdatePlanner(base)
    rng = np.random.default_rng(seed)
    while True:
        yield planner.batch(rng, size=1)


class TestEpochLease:
    def test_lease_pins_admitted_epoch(self, base):
        manager = GraphEpochManager(base)
        lease = manager.acquire()
        pinned = lease.snapshot.matrix.fingerprint()
        manager.apply_updates(next(_planner_batches(base)))
        assert manager.current_epoch == 1
        assert lease.epoch == 0
        assert lease.matrix.fingerprint() == pinned
        lease.release()

    def test_release_is_idempotent(self, base):
        manager = GraphEpochManager(base)
        lease = manager.acquire()
        manager.apply_updates(next(_planner_batches(base)))
        lease.release()
        lease.release()
        stats = manager.stats()
        assert stats["leases"] == 0
        assert stats["retired_epochs"] == 1

    def test_context_manager_releases(self, base):
        manager = GraphEpochManager(base)
        with manager.acquire() as lease:
            assert lease.epoch == 0
        assert manager.stats()["leases"] == 0


class TestPreciseInvalidation:
    """Step-by-step lifecycle of one live graph: lease, retire, compact."""

    def test_retires_exactly_the_drained_epochs(self, base):
        manager = GraphEpochManager(DeltaCSR(base, compact_threshold=3))
        batches = _planner_batches(base)

        # Hold a lease on epoch 0 across an update: nothing may retire.
        lease = manager.acquire()
        manager.apply_updates(next(batches))
        stats = manager.stats()
        assert stats["retired_epochs"] == 0
        assert stats["live_epochs"] == 2
        assert stats["leases"] == 1

        # Released: epoch 0 retires and the current epoch stays live.
        lease.release()
        stats = manager.stats()
        assert stats["retired_epochs"] == 1
        assert stats["live_epochs"] == 1
        assert stats["oldest_live_epoch"] == stats["current_epoch"] == 1

        # Two more batches reach the compaction threshold: the delta
        # rebases, and epochs 1 and 2 retire as they are superseded.
        manager.apply_updates(next(batches))
        snap3 = manager.apply_updates(next(batches))
        assert snap3.compacted
        stats = manager.stats()
        assert stats["compactions"] == 1
        assert stats["log_size"] == 0
        assert stats["retired_epochs"] == 3
        assert stats["live_epochs"] == 1
        assert stats["current_epoch"] == 3
        assert stats["leases"] == 0


class TestStats:
    def test_epoch_lag_counts_pinned_epochs(self, base):
        manager = GraphEpochManager(base)
        batches = _planner_batches(base)
        lease = manager.acquire()
        manager.apply_updates(next(batches))
        manager.apply_updates(next(batches))
        stats = manager.stats()
        assert stats["epoch_lag"] == 2
        assert stats["live_epochs"] == 2
        assert stats["leases"] == 1
        assert stats["oldest_live_epoch"] == 0
        lease.release()
        assert manager.stats()["epoch_lag"] == 0

    def test_compaction_backlog_tracks_log(self, base):
        manager = GraphEpochManager(
            DeltaCSR(base, compact_threshold=10)
        )
        batches = _planner_batches(base)
        for _ in range(4):
            manager.apply_updates(next(batches))
        stats = manager.stats()
        assert stats["log_size"] == 4
        assert stats["compaction_backlog"] == pytest.approx(0.4)
        assert stats["compactions"] == 0


class TestServiceIntegration:
    def _service(self, manager):
        config = ServeConfig(
            max_queue=32, max_batch=2, n_workers=1
        )
        return InferenceService(config=config, epoch_manager=manager)

    def test_responses_are_epoch_stamped_and_correct(self, base):
        manager = GraphEpochManager(DeltaCSR(base, compact_threshold=64))
        rng = np.random.default_rng(3)
        dense = rng.standard_normal((base.n_cols, DIM))
        with self._service(manager) as service:
            first = service.infer(None, dense)
            assert first.ok and first.epoch == 0
            np.testing.assert_allclose(
                first.output,
                manager.current_snapshot().matrix.multiply_dense(dense),
                atol=1e-9,
            )
            snapshot = service.apply_updates(
                next(_planner_batches(base, seed=5))
            )
            second = service.infer(None, dense)
            assert second.ok and second.epoch == snapshot.epoch == 1
            np.testing.assert_allclose(
                second.output,
                snapshot.matrix.multiply_dense(dense),
                atol=1e-9,
            )
        assert manager.stats()["leases"] == 0

    def test_submit_without_manager_rejects_live_requests(self, base):
        with InferenceService(config=ServeConfig(n_workers=1)) as service:
            rng = np.random.default_rng(0)
            with pytest.raises(ValueError, match="epoch_manager"):
                service.infer(None, rng.standard_normal((base.n_cols, DIM)))

    def test_health_reports_epoch_lag_and_backlog(self, base):
        manager = GraphEpochManager(DeltaCSR(base, compact_threshold=10))
        batches = _planner_batches(base, seed=11)
        with self._service(manager) as service:
            assert service.health().status == "healthy"
            lease = manager.acquire()
            for _ in range(5):
                service.apply_updates(next(batches))
            report = service.health()
            assert report.status == "degraded"
            assert "epoch-lag-high" in {c.kind for c in report.causes}
            lease.release()
            for _ in range(4):
                service.apply_updates(next(batches))
            report = service.health()
            assert "compaction-backlog" in {c.kind for c in report.causes}
