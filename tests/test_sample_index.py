"""Unit tests for the CSC-backed neighbor index and its epoch-aware cache."""

import numpy as np
import pytest

from repro.formats import CSRMatrix
from repro.sample.index import (
    PULL,
    PUSH,
    NeighborIndex,
    NeighborIndexCache,
    get_neighbor_index_cache,
    set_neighbor_index_cache,
)
from repro.serve.epoch import GraphEpochManager


def _square(dense):
    return CSRMatrix.from_dense(np.asarray(dense, dtype=float))


@pytest.fixture
def adjacency():
    # 4 nodes; row v lists the nodes v aggregates from.
    return _square(
        [
            [0, 2, 0, 1],
            [3, 0, 0, 0],
            [0, 0, 0, 0],  # isolated in the pull direction
            [1, 1, 1, 0],
        ]
    )


class TestNeighborIndex:
    def test_pull_is_zero_copy(self, adjacency):
        index = NeighborIndex(adjacency, PULL)
        assert index.csc.col_pointers is adjacency.row_pointers
        assert index.csc.row_indices is adjacency.column_indices
        assert index.nbytes == 0

    def test_pull_neighbors_are_row_entries(self, adjacency):
        index = NeighborIndex(adjacency, PULL)
        dense = adjacency.to_dense()
        for node in range(adjacency.n_rows):
            ids, values = index.neighbors(node)
            assert set(ids.tolist()) == set(
                np.flatnonzero(dense[node]).tolist()
            )
            assert np.allclose(values, dense[node][ids])

    def test_push_neighbors_are_column_entries(self, adjacency):
        index = NeighborIndex(adjacency, PUSH)
        dense = adjacency.to_dense()
        assert index.nbytes > 0
        for node in range(adjacency.n_rows):
            ids, _ = index.neighbors(node)
            assert set(ids.tolist()) == set(
                np.flatnonzero(dense[:, node]).tolist()
            )

    def test_degrees_and_n_nodes(self, adjacency):
        index = NeighborIndex(adjacency, PULL)
        assert index.n_nodes == 4
        assert np.array_equal(index.degrees, adjacency.row_lengths)

    def test_fingerprint_tracks_version(self, adjacency):
        assert (
            NeighborIndex(adjacency.with_version(3)).fingerprint
            != NeighborIndex(adjacency).fingerprint
        )

    def test_rejects_bad_inputs(self, adjacency):
        with pytest.raises(ValueError, match="direction"):
            NeighborIndex(adjacency, "sideways")
        rect = CSRMatrix.from_dense(np.ones((2, 3)))
        with pytest.raises(ValueError, match="square"):
            NeighborIndex(rect)


class TestNeighborIndexCache:
    def test_hit_miss_accounting(self, adjacency):
        cache = NeighborIndexCache()
        first = cache.get(adjacency)
        assert cache.get(adjacency) is first
        assert (cache.hits, cache.misses) == (1, 1)
        # The push view is a distinct entry under the same fingerprint.
        cache.get(adjacency, PUSH)
        assert (cache.hits, cache.misses) == (1, 2)
        assert len(cache) == 2

    def test_lru_eviction(self, adjacency):
        cache = NeighborIndexCache(capacity=2)
        epochs = [adjacency.with_version(v) for v in range(3)]
        for matrix in epochs:
            cache.get(matrix)
        assert len(cache) == 2
        # Epoch 0 was evicted; fetching it again is a miss.
        cache.get(epochs[0])
        assert cache.misses == 4

    def test_invalidate_fingerprint_drops_both_directions(self, adjacency):
        cache = NeighborIndexCache()
        cache.get(adjacency, PULL)
        cache.get(adjacency, PUSH)
        other = adjacency.with_version(1)
        cache.get(other)
        assert cache.invalidate_fingerprint(adjacency.fingerprint()) == 2
        assert len(cache) == 1
        assert cache.invalidations == 2
        # The surviving epoch still hits.
        cache.get(other)
        assert cache.hits == 1

    def test_capacity_validation(self):
        with pytest.raises(ValueError, match="capacity"):
            NeighborIndexCache(capacity=0)

    def test_clear_resets_counters(self, adjacency):
        cache = NeighborIndexCache()
        cache.get(adjacency)
        cache.clear()
        assert (len(cache), cache.hits, cache.misses) == (0, 0, 0)

    def test_process_wide_swap(self):
        fresh = NeighborIndexCache()
        previous = set_neighbor_index_cache(fresh)
        try:
            assert get_neighbor_index_cache() is fresh
        finally:
            set_neighbor_index_cache(previous)


class TestEpochIntegration:
    def test_epoch_manager_invalidates_retired_index(self, adjacency):
        # The cache duck-types the epoch manager's cache protocol: a
        # retired epoch's index entries drop, while live epochs' stay.
        from repro.graphs.delta import EdgeUpdate

        cache = NeighborIndexCache()
        manager = GraphEpochManager(adjacency, caches=(cache,))
        base = manager.current_snapshot().matrix
        cache.get(base)
        first = manager.apply_updates(
            [EdgeUpdate(op="insert", row=2, col=0, value=1.0)]
        )
        # Epoch 0 retired at the install (no lease held it).
        assert len(cache) == 0
        assert cache.invalidations == 1
        index = cache.get(first.matrix)
        ids, _ = index.neighbors(2)
        assert 0 in ids.tolist()
        manager.apply_updates(
            [EdgeUpdate(op="insert", row=2, col=1, value=1.0)]
        )
        # Epoch 1 retired too: exactly its entry is dropped.
        assert cache.invalidations == 2
        assert len(cache) == 0

    def test_lease_pins_index_until_release(self, adjacency):
        from repro.graphs.delta import EdgeUpdate

        cache = NeighborIndexCache()
        manager = GraphEpochManager(adjacency, caches=(cache,))
        # Move past the shared-base epoch first so retirement semantics
        # are purely lease-driven.
        first = manager.apply_updates(
            [EdgeUpdate(op="insert", row=2, col=0, value=1.0)]
        )
        lease = manager.acquire()
        assert lease.epoch == first.epoch
        cache.get(lease.matrix)
        manager.apply_updates(
            [EdgeUpdate(op="insert", row=2, col=1, value=1.0)]
        )
        # The leased epoch is still live: its index must survive.
        assert len(cache) == 1
        lease.release()
        assert len(cache) == 0
        assert cache.invalidations == 1
