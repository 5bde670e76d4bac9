"""Unit tests for the Graph container and degree analysis."""

import numpy as np
import pytest

from repro.formats import COOMatrix, CSRMatrix
from repro.graphs import DATASETS, Graph, fit_power_law, load_dataset
from repro.graphs.degree import looks_power_law


def _graph(dense, name="g"):
    return Graph(name=name, adjacency=CSRMatrix.from_dense(dense))


def _coo_route(graph: Graph) -> CSRMatrix:
    """``D^-1/2 (A + I) D^-1/2`` through COO: the oracle for the scipy route.

    Appends the diagonal, sorts and sums duplicates in stored order, then
    scales each entry by its row's and column's inverse square-root count.
    """
    adj, n = graph.adjacency, graph.n_nodes
    coo = adj.to_coo()
    diag = np.arange(n, dtype=np.int64)
    a_hat = COOMatrix(
        n_rows=n,
        n_cols=n,
        rows=np.concatenate([coo.rows, diag]),
        cols=np.concatenate([coo.cols, diag]),
        values=np.concatenate([coo.values, np.ones(n)]),
    ).deduplicate().to_csr()
    degrees = a_hat.row_lengths.astype(np.float64)
    inv_sqrt = np.where(degrees > 0, 1.0 / np.sqrt(np.maximum(degrees, 1)), 0.0)
    rows = np.repeat(np.arange(n), a_hat.row_lengths)
    values = a_hat.values * inv_sqrt[rows] * inv_sqrt[a_hat.column_indices]
    return CSRMatrix(
        n_rows=n,
        n_cols=n,
        row_pointers=a_hat.row_pointers,
        column_indices=a_hat.column_indices,
        values=values,
    )


def _diagonal_rows(matrix: CSRMatrix) -> int:
    rows = np.repeat(np.arange(matrix.n_rows), matrix.row_lengths)
    return len(np.unique(rows[matrix.column_indices == rows]))


def _assert_bytes_equal(ours: CSRMatrix, oracle: CSRMatrix) -> None:
    assert ours.shape == oracle.shape
    for name in ("row_pointers", "column_indices", "values"):
        mine, theirs = getattr(ours, name), getattr(oracle, name)
        assert mine.dtype == theirs.dtype, name
        assert mine.tobytes() == theirs.tobytes(), name


class TestGraph:
    def test_rejects_rectangular_adjacency(self):
        rect = CSRMatrix.from_dense(np.ones((2, 3)))
        with pytest.raises(ValueError, match="square"):
            Graph(name="bad", adjacency=rect)

    def test_rejects_mismatched_features(self):
        adj = CSRMatrix.identity(4)
        with pytest.raises(ValueError, match="one row per node"):
            Graph(name="bad", adjacency=adj, features=np.ones((3, 2)))

    def test_counts(self):
        g = _graph(np.eye(5))
        assert g.n_nodes == 5 and g.n_edges == 5

    def test_random_features_deterministic(self):
        g = _graph(np.eye(4))
        assert np.array_equal(g.random_features(3, seed=1),
                              g.random_features(3, seed=1))

    def test_with_features(self):
        g = _graph(np.eye(4))
        feats = np.ones((4, 2))
        g2 = g.with_features(feats)
        assert g2.features is feats
        assert g.features is None

    def test_statistics_shortcut(self, small_power_law):
        g = Graph(name="pl", adjacency=small_power_law)
        assert g.statistics.nnz == small_power_law.nnz


class TestNormalizedAdjacency:
    def test_adds_self_loops(self):
        g = _graph(np.zeros((3, 3)))
        norm = g.normalized_adjacency()
        # With no edges, A + I = I and D = I, so the result is I.
        assert np.allclose(norm.to_dense(), np.eye(3))

    def test_symmetric_normalization_values(self):
        dense = np.array([[0.0, 1.0], [1.0, 0.0]])
        norm = _graph(dense).normalized_adjacency()
        # A + I is all-ones; degrees are 2; D^-1/2 (A+I) D^-1/2 = 0.5.
        assert np.allclose(norm.to_dense(), 0.5 * np.ones((2, 2)))

    def test_without_self_loops(self):
        dense = np.array([[0.0, 1.0], [1.0, 0.0]])
        norm = _graph(dense).normalized_adjacency(add_self_loops=False)
        assert np.allclose(norm.to_dense(), np.array([[0, 1], [1, 0]]))

    def test_without_self_loops_sums_repeated_edges(self):
        # Row 0 stores (0, 1) twice: one distinct entry of value 2, as
        # the self-loop path counts it, not two entries of 1/sqrt(2).
        graph = Graph("g", CSRMatrix.from_arrays([0, 2, 3], [1, 1, 0]))
        norm = graph.normalized_adjacency(add_self_loops=False)
        assert norm.row_pointers.tolist() == [0, 1, 2]
        assert norm.column_indices.tolist() == [1, 0]
        np.testing.assert_array_equal(norm.to_dense(), [[0.0, 2.0], [1.0, 0.0]])

    @pytest.mark.parametrize("name", sorted(DATASETS))
    def test_bytes_match_the_coo_route(self, name):
        graph = load_dataset(name, scale=0.02)
        _assert_bytes_equal(graph.normalized_adjacency(), _coo_route(graph))

    def test_stand_ins_cover_rows_with_a_diagonal(self):
        # The stand-ins store self loops, so the route sums an existing
        # diagonal entry with I's on some rows.
        assert sum(
            _diagonal_rows(load_dataset(name, scale=0.02).adjacency) > 0
            for name in DATASETS
        ) >= len(DATASETS) // 2

    def test_weighted_duplicates_sum_in_stored_order(self, small_power_law):
        # Non-unit weights make the summation order visible in the bits:
        # repeated entries and existing diagonals sum in stored order, as
        # the COO route sums them.
        weights = np.random.default_rng(5).uniform(0.5, 1.5, small_power_law.nnz)
        graph = Graph("w", small_power_law.with_values(weights))
        assert _diagonal_rows(graph.adjacency) > 0
        oracle = _coo_route(graph)
        assert oracle.nnz < small_power_law.nnz + graph.n_nodes  # merged
        _assert_bytes_equal(graph.normalized_adjacency(), oracle)

    def test_self_loops_added_and_duplicates_merged(self, small_power_law):
        g = Graph(name="pl", adjacency=small_power_law)
        norm = g.normalized_adjacency()
        # Every diagonal entry exists; duplicate edges merge, so the total
        # is bounded by nnz + n and reaches at least n.
        assert g.n_nodes <= norm.nnz <= small_power_law.nnz + g.n_nodes
        dense = norm.to_dense()
        assert (dense.diagonal() > 0).all()


class TestPowerLawFit:
    def test_fit_on_known_power_law(self, small_power_law):
        fit = fit_power_law(small_power_law)
        assert fit.alpha > 0.5
        assert 0 < fit.r_squared <= 1.0

    def test_fit_requires_two_degrees(self):
        with pytest.raises(ValueError, match="two distinct degrees"):
            fit_power_law(CSRMatrix.identity(10))

    def test_classifier_separates_types(self, small_power_law, small_structured):
        assert looks_power_law(small_power_law)
        assert not looks_power_law(small_structured)

    def test_dynamic_range(self, small_power_law):
        fit = fit_power_law(small_power_law)
        assert fit.dynamic_range >= fit.degree_range[1] / max(
            1, fit.degree_range[0]
        ) - 1e-9
