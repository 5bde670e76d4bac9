"""Tests for the versioned delta-CSR overlay (``repro.graphs.delta``)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.formats import CSRMatrix, SparseFormatError
from repro.graphs import power_law_graph
from repro.graphs.delta import DeltaCSR, EdgeUpdate, GraphSnapshot, UpdatePlanner


@pytest.fixture
def base():
    # The generated graph deliberately carries multi-edges (duplicate
    # columns within a row) — the adversarial case for row merging.
    return power_law_graph(n_nodes=60, nnz=360, max_degree=16, seed=0)


def _absent_edge(matrix, row=0):
    cols, _ = matrix.row_slice(row)
    present = set(cols.tolist())
    for col in range(matrix.n_cols):
        if col not in present:
            return row, col
    raise AssertionError("row is full")


def _present_edge(matrix, row=None):
    rows = [row] if row is not None else range(matrix.n_rows)
    for r in rows:
        cols, _ = matrix.row_slice(r)
        if len(cols):
            return r, int(cols[0])
    raise AssertionError("matrix is empty")


def _multi_edge_row(matrix):
    for row in range(matrix.n_rows):
        cols, _ = matrix.row_slice(row)
        if len(cols) != len(set(cols.tolist())):
            return row
    raise AssertionError("no multi-edge row in the generated base")


class TestEdgeUpdate:
    def test_factories(self):
        assert EdgeUpdate.insert(1, 2, 3.0).op == "insert"
        assert EdgeUpdate.delete(1, 2).op == "delete"
        assert EdgeUpdate.update(1, 2, 4.0).op == "update"

    def test_rejects_unknown_op(self):
        with pytest.raises(ValueError):
            EdgeUpdate(op="upsert", row=0, col=0)

    def test_rejects_negative_indices(self):
        with pytest.raises(ValueError):
            EdgeUpdate.insert(-1, 0)
        with pytest.raises(ValueError):
            EdgeUpdate.insert(0, -2)


class TestDeltaCSR:
    def test_insert_reflected_in_snapshot(self, base):
        delta = DeltaCSR(base)
        row, col = _absent_edge(base)
        delta.insert_edge(row, col, 2.5)
        expected = base.to_dense()
        expected[row, col] = 2.5
        np.testing.assert_allclose(delta.snapshot().matrix.to_dense(), expected)

    def test_delete_removes_every_parallel_copy(self, base):
        delta = DeltaCSR(base)
        row = _multi_edge_row(base)
        cols, _ = base.row_slice(row)
        dupes = [c for c in set(cols.tolist()) if (cols == c).sum() > 1]
        col = dupes[0]
        delta.delete_edge(row, col)
        expected = base.to_dense()
        expected[row, col] = 0.0
        np.testing.assert_allclose(delta.snapshot().matrix.to_dense(), expected)

    def test_update_sets_coalesced_weight(self, base):
        delta = DeltaCSR(base)
        row, col = _present_edge(base, row=_multi_edge_row(base))
        delta.update_edge(row, col, 7.0)
        expected = base.to_dense()
        expected[row, col] = 7.0
        np.testing.assert_allclose(delta.snapshot().matrix.to_dense(), expected)

    def test_clean_rows_preserve_multi_edges(self, base):
        # Coalescing is confined to *dirty* rows; a clean multi-edge row
        # must still contribute its summed parallel edges to the dense
        # operator (bulk-copied, not rebuilt).
        delta = DeltaCSR(base)
        row, col = _absent_edge(base, row=_multi_edge_row(base))
        other = (row + 1) % base.n_rows
        delta.insert_edge(row, col, 1.0)
        expected = base.to_dense()
        expected[row, col] = 1.0
        snapshot = delta.snapshot()
        np.testing.assert_allclose(snapshot.matrix.to_dense(), expected)
        np.testing.assert_allclose(
            snapshot.matrix.to_dense()[other], base.to_dense()[other]
        )

    def test_version_bumps_once_per_batch(self, base):
        delta = DeltaCSR(base)
        assert delta.version == 0
        r1, c1 = _absent_edge(base, row=0)
        r2, c2 = _absent_edge(base, row=1)
        new_version = delta.apply(
            [EdgeUpdate.insert(r1, c1), EdgeUpdate.insert(r2, c2)]
        )
        assert new_version == delta.version == 1
        assert delta.apply([]) == 1  # empty batch: no new epoch

    def test_batch_is_all_or_nothing(self, base):
        delta = DeltaCSR(base)
        row, col = _absent_edge(base)
        with pytest.raises(ValueError, match="insert of existing"):
            delta.apply(
                [EdgeUpdate.insert(row, col), EdgeUpdate.insert(row, col)]
            )
        assert delta.version == 0
        assert delta.log_size == 0
        np.testing.assert_allclose(
            delta.snapshot().matrix.to_dense(), base.to_dense()
        )

    def test_rejects_delete_and_update_of_missing_edge(self, base):
        delta = DeltaCSR(base)
        row, col = _absent_edge(base)
        with pytest.raises(ValueError, match="delete of missing"):
            delta.delete_edge(row, col)
        with pytest.raises(ValueError, match="update of missing"):
            delta.update_edge(row, col, 1.0)

    def test_rejects_out_of_bounds(self, base):
        delta = DeltaCSR(base)
        with pytest.raises(ValueError, match="out of bounds"):
            delta.insert_edge(base.n_rows, 0)

    def test_insert_then_delete_within_one_batch(self, base):
        delta = DeltaCSR(base)
        row, col = _absent_edge(base)
        delta.apply(
            [EdgeUpdate.insert(row, col, 3.0), EdgeUpdate.delete(row, col)]
        )
        np.testing.assert_allclose(
            delta.snapshot().matrix.to_dense(), base.to_dense()
        )

    def test_snapshot_cached_per_version(self, base):
        delta = DeltaCSR(base)
        first = delta.snapshot()
        assert delta.snapshot() is first
        row, col = _absent_edge(base)
        delta.insert_edge(row, col)
        second = delta.snapshot()
        assert second is not first
        assert second.epoch == first.epoch + 1

    def test_fingerprint_is_version_precise(self, base):
        # A value-only update leaves the structure identical, but the
        # epoch stamp must still change the fingerprint — stale-keyed
        # cache hits across epochs are structurally impossible.
        delta = DeltaCSR(base)
        row, col = _present_edge(base)
        before = delta.snapshot()
        delta.update_edge(row, col, 9.0)
        after = delta.snapshot()
        assert before.matrix.fingerprint() != after.matrix.fingerprint()
        assert after.base_fingerprint == before.matrix.fingerprint()

    def test_dirty_rows_reported(self, base):
        delta = DeltaCSR(base)
        row, col = _absent_edge(base, row=5)
        delta.insert_edge(row, col)
        snapshot = delta.snapshot()
        assert snapshot.dirty_rows.tolist() == [5]
        assert 0.0 < snapshot.dirty_fraction < 1.0

    def test_compaction_folds_log_into_base(self, base):
        delta = DeltaCSR(base, compact_threshold=3)
        expected = base.to_dense()
        planner_edges = []
        for row in range(3):
            r, c = _absent_edge(base, row=row)
            planner_edges.append((r, c))
            delta.insert_edge(r, c, 1.0)
            expected[r, c] = 1.0
        assert delta.log_size == 3
        snapshot = delta.snapshot()
        assert snapshot.compacted
        assert delta.compactions == 1
        assert delta.log_size == 0
        assert len(snapshot.dirty_rows) == 0
        assert snapshot.matrix.fingerprint() == snapshot.base_fingerprint  # rebased
        np.testing.assert_allclose(snapshot.matrix.to_dense(), expected)
        # Post-compaction updates keep working against the new base.
        r, c = planner_edges[0]
        delta.delete_edge(r, c)
        expected[r, c] = 0.0
        np.testing.assert_allclose(
            delta.snapshot().matrix.to_dense(), expected
        )

    def test_rejects_bad_threshold(self, base):
        with pytest.raises(ValueError, match="compact_threshold"):
            DeltaCSR(base, compact_threshold=0)

    def test_snapshot_matrix_is_frozen(self, base):
        delta = DeltaCSR(base)
        matrix = delta.snapshot().matrix
        with pytest.raises(ValueError):
            matrix.values[0] = 123.0


class TestUpdatePlanner:
    def test_batches_always_valid(self, base):
        delta = DeltaCSR(base, compact_threshold=16)
        planner = UpdatePlanner(base)
        rng = np.random.default_rng(7)
        applied = 0
        for _ in range(40):
            batch = planner.batch(rng, size=int(rng.integers(1, 4)))
            delta.apply(batch)  # must never raise
            applied += len(batch)
        assert applied > 0
        assert delta.total_updates == applied
        snapshot = delta.snapshot()
        assert isinstance(snapshot, GraphSnapshot)
        assert np.isfinite(snapshot.matrix.to_dense()).all()

    def test_mixes_operations(self, base):
        planner = UpdatePlanner(base, delete_fraction=0.5)
        rng = np.random.default_rng(0)
        ops = set()
        for _ in range(60):
            for update in planner.batch(rng, size=2):
                ops.add(update.op)
        assert {"insert", "delete"} <= ops


def _strictly_valid(matrix):
    try:
        matrix.validate(strict=True)
    except SparseFormatError:
        return False
    return True


@given(
    seed=st.integers(0, 2**16),
    sizes=st.lists(st.integers(1, 4), min_size=1, max_size=8),
    canonical=st.booleans(),
    compact_threshold=st.integers(1, 12),
)
@settings(max_examples=40, deadline=None)
def test_snapshots_pass_validation(seed, sizes, canonical, compact_threshold):
    # Snapshots are built without validating their merged arrays; they
    # must not need it, and stay strictly valid over a strictly valid
    # base (dirty rows come out sorted and coalesced).
    base = power_law_graph(n_nodes=24, nnz=120, max_degree=10, seed=seed % 5)
    if canonical:  # multi-edges summed, rows sorted
        base = CSRMatrix.from_dense(base.to_dense())
        assert _strictly_valid(base)
    strict = _strictly_valid(base)
    delta = DeltaCSR(base, compact_threshold=compact_threshold)
    planner = UpdatePlanner(base)
    rng = np.random.default_rng(seed)
    for size in sizes:
        delta.apply(planner.batch(rng, size))
        matrix = delta.snapshot().matrix
        assert matrix.version == delta.version
        matrix.validate()
        if strict:
            matrix.validate(strict=True)
