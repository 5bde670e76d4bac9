"""Unit tests for the CSC-backed neighbor index and its per-matrix memo."""

import gc
import weakref

import numpy as np
import pytest

from repro.formats import CSRMatrix
from repro.graphs.delta import EdgeUpdate
from repro.sample.index import PULL, PUSH, NeighborIndex, neighbor_index
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

    def test_rejects_bad_inputs(self, adjacency):
        with pytest.raises(ValueError, match="direction"):
            NeighborIndex(adjacency, "sideways")
        rect = CSRMatrix.from_dense(np.ones((2, 3)))
        with pytest.raises(ValueError, match="square"):
            NeighborIndex(rect)


def _freed_without_gc(drop) -> bool:
    """Whether ``drop()`` frees what it releases by reference counting."""
    gc.disable()
    try:
        return drop()
    finally:
        gc.enable()


class TestNeighborIndexMemo:
    def test_one_index_per_matrix_and_direction(self, adjacency):
        pull = neighbor_index(adjacency)
        assert neighbor_index(adjacency, PULL) is pull
        push = neighbor_index(adjacency, PUSH)
        assert push is not pull and push.direction == PUSH
        assert neighbor_index(adjacency, PUSH) is push
        # Another epoch of the same arrays is another matrix: its own index.
        assert neighbor_index(adjacency.with_version(1)) is not pull

    def test_rebound_values_rebuild(self, adjacency):
        stale = neighbor_index(adjacency)
        # Bypass the frozen dataclass the way a rebind would.
        object.__setattr__(adjacency, "values", adjacency.values * 2.0)
        fresh = neighbor_index(adjacency)
        assert fresh is not stale
        assert fresh.csc.values is adjacency.values

    def test_index_holds_no_reference_to_its_matrix(self, adjacency):
        matrix = adjacency.with_version(5)
        index = neighbor_index(matrix, PUSH)
        gone = weakref.ref(matrix)

        def drop():
            nonlocal matrix
            matrix = None
            return gone() is None

        assert _freed_without_gc(drop)
        assert index.n_nodes == adjacency.n_rows


class TestEpochIntegration:
    def test_epoch_manager_invalidates_retired_index(self, adjacency):
        # Nothing is registered: a retired epoch's index is freed with
        # its snapshot, while the live epoch's index stays memoised.
        manager = GraphEpochManager(adjacency, compact_threshold=8)
        first = manager.apply_updates(
            [EdgeUpdate(op="insert", row=2, col=0, value=1.0)]
        )
        index = neighbor_index(first.matrix)
        assert 0 in index.neighbors(2)[0].tolist()
        retiring = weakref.ref(first.matrix)
        indexed = weakref.ref(index)
        second = manager.apply_updates(
            [EdgeUpdate(op="insert", row=2, col=1, value=1.0)]
        )
        assert manager.stats()["retired_epochs"] == 2

        def drop():
            nonlocal first, index
            first = index = None
            return retiring() is None and indexed() is None

        assert _freed_without_gc(drop)
        live = neighbor_index(second.matrix)
        assert neighbor_index(manager.current_snapshot().matrix) is live
        assert {0, 1} <= set(live.neighbors(2)[0].tolist())

    def test_lease_pins_index_until_release(self, adjacency):
        manager = GraphEpochManager(adjacency, compact_threshold=8)
        # Move past the shared-base epoch first so the leased snapshot
        # is a materialized overlay only the manager and lease hold.
        first = manager.apply_updates(
            [EdgeUpdate(op="insert", row=2, col=0, value=1.0)]
        )
        del first
        lease = manager.acquire()
        index = neighbor_index(lease.matrix)
        indexed = weakref.ref(index)
        del index
        manager.apply_updates(
            [EdgeUpdate(op="insert", row=2, col=1, value=1.0)]
        )
        # The leased epoch is still live: its index must survive.
        assert neighbor_index(lease.matrix) is indexed()
        lease.release()

        def drop():
            nonlocal lease
            lease = None
            return indexed() is None

        assert _freed_without_gc(drop)
