"""Tests for RCU epoch management (``repro.serve.epoch``).

The acceptance criterion under test: after a graph update, caches keep
entries for *live* epochs (including an older epoch pinned by an
in-flight lease) and drop entries for exactly the retired epochs —
never a global flush.
"""

import numpy as np
import pytest

from repro.core import ScheduleCache
from repro.graphs import power_law_graph
from repro.graphs.delta import DeltaCSR, UpdatePlanner
from repro.sample import NeighborIndexCache
from repro.serve import GraphEpochManager, InferenceService, ServeConfig

DIM = 8


@pytest.fixture
def base():
    return power_law_graph(n_nodes=60, nnz=360, max_degree=16, seed=0)


@pytest.fixture
def bystander():
    return power_law_graph(n_nodes=50, nnz=250, max_degree=12, seed=9)


def _planner_batches(base, seed=0):
    planner = UpdatePlanner(base)
    rng = np.random.default_rng(seed)
    while True:
        yield planner.batch(rng, size=1)


class TestEpochLease:
    def test_lease_pins_admitted_epoch(self, base):
        manager = GraphEpochManager(base)
        lease = manager.acquire()
        pinned = lease.snapshot.fingerprint
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
    """Step-by-step lifecycle of one live graph across two caches."""

    def _build_all(self, caches, matrix):
        schedules, indexes = caches
        schedules.get(matrix, cost=256)
        indexes.get(matrix)

    def test_caches_drop_exactly_retired_epochs(self, base, bystander):
        schedules = ScheduleCache(max_entries=32)
        indexes = NeighborIndexCache(capacity=32)
        caches = (schedules, indexes)
        manager = GraphEpochManager(
            DeltaCSR(base, compact_threshold=3), caches=caches
        )
        batches = _planner_batches(base)
        self._build_all(caches, bystander)

        snap0 = manager.current_snapshot()
        self._build_all(caches, snap0.matrix)

        # Hold a lease on epoch 0 across an update: nothing may drop.
        lease = manager.acquire()
        snap1 = manager.apply_updates(next(batches))
        self._build_all(caches, snap1.matrix)
        assert schedules.entries == 3 and len(indexes) == 3
        assert indexes.invalidations == 0

        # Released: epoch 0 retires and exactly its keys drop.
        lease.release()
        assert manager.stats()["retired_epochs"] == 1
        assert schedules.entries == 2 and len(indexes) == 2
        assert indexes.invalidations == 1

        # Two more batches reach the compaction threshold: the delta
        # rebases and epochs 1 and 2 retire.  Epoch 2 was never built, so
        # exactly one more index drops.
        manager.apply_updates(next(batches))
        snap3 = manager.apply_updates(next(batches))
        assert snap3.compacted
        assert indexes.invalidations == 2
        # Only the bystander's entries survive retirement.
        assert schedules.entries == 1 and len(indexes) == 1
        assert schedules.schedule_computations == 3  # nothing recomputed yet

        # The bystander still hits: precise invalidation, not a flush.
        before = schedules.schedule_computations
        schedules.get(bystander, cost=256)
        assert schedules.schedule_computations == before
        hits_before = indexes.hits
        indexes.get(bystander)
        assert indexes.hits == hits_before + 1


class TestRegisterCache:
    def test_rejects_objects_without_hooks(self, base):
        manager = GraphEpochManager(base)
        with pytest.raises(TypeError, match="exposes no"):
            manager.register_cache(object())


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
            max_queue=32, max_batch=2, max_wait_ms=1.0, n_workers=1
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
