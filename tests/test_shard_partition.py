"""Tests for the graph partitioners behind sharded serving.

The load-bearing guarantee is the property test at the bottom: for any
valid CSR matrix, any shard count, and either strategy, the sharded data
path (scatter -> per-shard SpMM -> halo gather) must equal the
full-graph reference oracle *bit for bit* on integer-valued inputs — the
partition may change where work happens, never what is computed.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.formats import CSRMatrix
from repro.graphs.generators import power_law_graph
from repro.resilience.oracles import reference_spmm
from repro.shard import (
    STRATEGIES,
    build_partition,
    contiguous_block_assignment,
    edge_cut_assignment,
    partition_graph,
)


def _operand(matrix, width=5, seed=0):
    """Integer-valued float64 operand so shard summation is exact."""
    rng = np.random.default_rng(seed)
    return rng.integers(-4, 5, size=(matrix.n_cols, width)).astype(np.float64)


def _graph(seed=0):
    return power_law_graph(160, 960, 24, seed=seed)


class TestAssignments:
    def test_block_covers_every_column_in_range(self):
        matrix = _graph()
        assignment = contiguous_block_assignment(matrix, 4)
        assert assignment.shape == (matrix.n_cols,)
        assert assignment.min() >= 0 and assignment.max() < 4
        # Contiguous: shard ids never decrease along the column axis.
        assert (np.diff(assignment) >= 0).all()

    def test_block_single_shard_is_all_zero(self):
        matrix = _graph()
        assert not contiguous_block_assignment(matrix, 1).any()

    def test_edge_cut_respects_shard_range(self):
        matrix = _graph()
        assignment = edge_cut_assignment(matrix, 3, seed=7)
        assert assignment.shape == (matrix.n_cols,)
        assert assignment.min() >= 0 and assignment.max() < 3

    def test_edge_cut_shrinks_halo_on_hidden_cluster_graph(self):
        # Two 30-column clusters whose labels are shuffled: the
        # contiguous block split cannot see them, greedy affinity can,
        # so greedy should leave far fewer boundary (halo) rows.
        perm = np.random.default_rng(0).permutation(60)
        blocks = []
        for base in (0, 30):
            for row in range(30):
                cols = (base + np.arange(5) + row) % 30 + base
                blocks.append(np.sort(perm[cols]))
        lengths = [len(b) for b in blocks]
        matrix = CSRMatrix(
            n_rows=60,
            n_cols=60,
            row_pointers=np.concatenate(([0], np.cumsum(lengths))),
            column_indices=np.concatenate(blocks),
            values=np.ones(sum(lengths)),
        )
        block = partition_graph(matrix, 2, strategy="block")
        greedy = partition_graph(matrix, 2, strategy="edge-cut")
        assert greedy.stats.halo_rows < block.stats.halo_rows

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ValueError, match="n_shards"):
            contiguous_block_assignment(_graph(), 0)
        with pytest.raises(ValueError, match="slack"):
            edge_cut_assignment(_graph(), 2, slack=0.5)


class TestBuildPartition:
    def test_shards_tile_the_nnz_exactly(self):
        matrix = _graph()
        for strategy in STRATEGIES:
            partition = partition_graph(matrix, 4, strategy=strategy)
            assert sum(p.nnz for p in partition.shards) == matrix.nnz
            owned = np.concatenate([p.cols for p in partition.shards])
            assert np.array_equal(np.sort(owned), np.arange(matrix.n_cols))

    def test_halo_rows_are_multi_shard_rows(self):
        partition = partition_graph(_graph(), 4)
        counts = np.zeros(partition.n_rows, dtype=int)
        for part in partition.shards:
            counts[part.rows] += 1
        assert np.array_equal(
            partition.halo_rows, np.flatnonzero(counts >= 2)
        )
        assert np.array_equal(partition.row_shard_counts, counts)

    def test_local_matrices_carry_version(self):
        matrix = _graph().with_version(7)
        partition = partition_graph(matrix, 3)
        assert all(p.matrix.version == 7 for p in partition.shards)

    def test_bad_assignment_shape_rejected(self):
        matrix = _graph()
        with pytest.raises(ValueError, match="shape"):
            build_partition(matrix, np.zeros(3, dtype=np.int64), 2)

    def test_out_of_range_assignment_rejected(self):
        matrix = _graph()
        bad = np.zeros(matrix.n_cols, dtype=np.int64)
        bad[0] = 5
        with pytest.raises(ValueError, match="shard ids"):
            build_partition(matrix, bad, 2)

    def test_empty_matrix_partitions_cleanly(self):
        matrix = CSRMatrix(
            n_rows=4,
            n_cols=6,
            row_pointers=np.zeros(5, dtype=np.int64),
            column_indices=np.zeros(0, dtype=np.int64),
            values=np.zeros(0),
        )
        partition = partition_graph(matrix, 3)
        assert partition.stats.balance == 1.0
        assert partition.stats.edge_cut == 0.0
        out = partition.spmm(np.ones((6, 2)))
        assert np.array_equal(out, np.zeros((4, 2)))


class TestStats:
    def test_stats_fields_are_consistent(self):
        matrix = _graph()
        partition = partition_graph(matrix, 4)
        stats = partition.stats
        assert stats.n_shards == 4
        assert sum(stats.nnz_per_shard) == matrix.nnz
        assert stats.balance >= 1.0
        assert 0.0 <= stats.edge_cut <= 1.0
        assert stats.halo_rows == len(partition.halo_rows)
        assert stats.gather_rows == sum(stats.rows_per_shard)
        assert stats.distinct_rows >= stats.halo_rows

    def test_halo_bytes_prices_surplus_row_copies(self):
        partition = partition_graph(_graph(), 4)
        stats = partition.stats
        surplus = stats.gather_rows - stats.distinct_rows
        assert stats.halo_bytes(8) == surplus * 8 * 8
        single = partition_graph(_graph(), 1)
        assert single.stats.halo_bytes(8) == 0

    def test_to_dict_round_trips_via_json_types(self):
        import json

        payload = partition_graph(_graph(), 2).stats.to_dict()
        assert json.loads(json.dumps(payload))["n_shards"] == 2


class TestScatterGather:
    def test_scatter_slices_cover_operand_once(self):
        matrix = _graph()
        partition = partition_graph(matrix, 4)
        dense = _operand(matrix)
        blocks = partition.scatter(dense)
        assert sum(len(b) for b in blocks) == matrix.n_cols
        for part, block in zip(partition.shards, blocks):
            assert np.array_equal(block, dense[part.cols])

    def test_scatter_rejects_wrong_operand_shape(self):
        partition = partition_graph(_graph(), 2)
        with pytest.raises(ValueError, match="operand"):
            partition.scatter(np.ones((3, 2)))

    def test_gather_rejects_wrong_output_count_and_shape(self):
        matrix = _graph()
        partition = partition_graph(matrix, 2)
        with pytest.raises(ValueError, match="shard outputs"):
            partition.gather([None], width=2)
        bad = [
            np.zeros((1, 2)) if len(p.rows) != 1 else np.zeros((2, 2))
            for p in partition.shards
        ]
        with pytest.raises(ValueError, match="shape"):
            partition.gather(bad, width=2)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("n_shards", [1, 3, 7])
    def test_spmm_matches_dense_oracle(self, strategy, n_shards):
        matrix = _graph(seed=3)
        dense = _operand(matrix, width=6, seed=3)
        partition = partition_graph(matrix, n_shards, strategy=strategy)
        expected = matrix.multiply_dense(dense)
        assert np.array_equal(partition.spmm(dense), expected)


@st.composite
def integer_csr_matrices(draw, max_rows=24, max_cols=16, max_row_nnz=10):
    """Arbitrary CSR matrices with integer-valued float64 entries.

    Integer values keep every partial sum exactly representable, so the
    sharded accumulation order cannot perturb the result and the oracle
    comparison below can demand bit-for-bit equality.
    """
    n_rows = draw(st.integers(1, max_rows))
    n_cols = draw(st.integers(1, max_cols))
    lengths = draw(
        st.lists(st.integers(0, max_row_nnz), min_size=n_rows, max_size=n_rows)
    )
    row_pointers = np.concatenate(([0], np.cumsum(lengths)))
    nnz = int(row_pointers[-1])
    cols = draw(
        st.lists(st.integers(0, n_cols - 1), min_size=nnz, max_size=nnz)
    )
    values = draw(
        st.lists(st.integers(-8, 8), min_size=nnz, max_size=nnz)
    )
    return CSRMatrix(
        n_rows=n_rows,
        n_cols=n_cols,
        row_pointers=row_pointers,
        column_indices=np.array(cols, dtype=np.int64),
        values=np.array(values, dtype=np.float64),
    )


@given(
    matrix=integer_csr_matrices(),
    n_shards=st.integers(1, 6),
    strategy=st.sampled_from(STRATEGIES),
    seed=st.integers(0, 3),
)
@settings(max_examples=120, deadline=None)
def test_sharded_spmm_equals_scipy_oracle_bitwise(
    matrix, n_shards, strategy, seed
):
    """scatter -> per-shard SpMM -> halo gather == full-graph oracle.

    Bit-for-bit (``np.array_equal``), in row order, for any valid CSR,
    any shard count, and both partition strategies — the acceptance
    property from the sharding design.
    """
    rng = np.random.default_rng(seed)
    dense = rng.integers(-4, 5, size=(matrix.n_cols, 3)).astype(np.float64)
    partition = partition_graph(
        matrix, n_shards, strategy=strategy, seed=seed
    )
    expected = reference_spmm(matrix, dense)
    assert np.array_equal(partition.spmm(dense), expected)


@given(matrix=integer_csr_matrices(), n_shards=st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_arbitrary_assignment_partitions_are_exact(matrix, n_shards):
    """Even a pathological hand-rolled assignment stays exact."""
    rng = np.random.default_rng(matrix.nnz + n_shards)
    assignment = rng.integers(0, n_shards, size=matrix.n_cols)
    partition = build_partition(matrix, assignment, n_shards)
    dense = rng.integers(-4, 5, size=(matrix.n_cols, 2)).astype(np.float64)
    assert np.array_equal(
        partition.spmm(dense), reference_spmm(matrix, dense)
    )
