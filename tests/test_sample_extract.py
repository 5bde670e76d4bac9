"""Property tests: ego-subgraph extraction vs the SciPy fancy-indexing oracle.

``extract_subgraph(A, nodes)`` is semantically ``A[nodes][:, nodes]``.
These tests pin that equivalence over arbitrary square CSR structures
(including duplicate entries, empty rows, and explicit zeros), the
local→global mapping contract, the add-only-where-missing self-loop
semantics, the version-stamp propagation, byte-exact agreement with a
sorted scipy extraction when no row repeats a column, that every
extracted matrix passes validation (strict validation whenever its parent
does) although the compiled path skips it, and the counted fallback to
scipy's public indexing.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.formats import CSRMatrix, SparseFormatError
from repro.sample import extract
from repro.sample.extract import extract_subgraph, gather_features

scipy_sparse = pytest.importorskip("scipy.sparse")


@st.composite
def square_csr(draw, max_nodes=16, max_row_nnz=8):
    """Arbitrary small square adjacencies, duplicates and zeros included."""
    n = draw(st.integers(1, max_nodes))
    lengths = draw(
        st.lists(st.integers(0, max_row_nnz), min_size=n, max_size=n)
    )
    row_pointers = np.concatenate(([0], np.cumsum(lengths)))
    nnz = int(row_pointers[-1])
    cols = draw(st.lists(st.integers(0, n - 1), min_size=nnz, max_size=nnz))
    values = draw(
        st.lists(
            st.floats(-10, 10, allow_nan=False, allow_infinity=False),
            min_size=nnz,
            max_size=nnz,
        )
    )
    return CSRMatrix(
        n_rows=n,
        n_cols=n,
        row_pointers=row_pointers,
        column_indices=np.array(cols, dtype=np.int64),
        values=np.array(values),
    )


def _first_of_each_entry(matrix):
    """``matrix`` without repeated ``(row, column)`` entries, order kept."""
    rows = np.repeat(np.arange(matrix.n_rows), matrix.row_lengths)
    keys = rows * matrix.n_cols + matrix.column_indices
    keep = np.sort(np.unique(keys, return_index=True)[1])
    counts = np.bincount(rows[keep], minlength=matrix.n_rows)
    return CSRMatrix(
        n_rows=matrix.n_rows,
        n_cols=matrix.n_cols,
        row_pointers=np.concatenate(([0], np.cumsum(counts))),
        column_indices=matrix.column_indices[keep],
        values=matrix.values[keep],
    )


@st.composite
def matrix_and_nodes(draw, repeats=True):
    matrix = draw(square_csr())
    if not repeats:
        matrix = _first_of_each_entry(matrix)
    count = draw(st.integers(1, matrix.n_rows))
    nodes = draw(
        st.permutations(range(matrix.n_rows)).map(
            lambda p: np.array(p[:count], dtype=np.int64)
        )
    )
    return matrix, nodes


@given(case=matrix_and_nodes())
@settings(max_examples=120, deadline=None)
def test_extraction_matches_scipy_fancy_indexing(case):
    matrix, nodes = case
    sub = extract_subgraph(matrix, nodes)
    oracle = scipy_sparse.csr_matrix(
        (matrix.values, matrix.column_indices, matrix.row_pointers),
        shape=matrix.shape,
    )[nodes][:, nodes]
    assert sub.shape == (len(nodes), len(nodes))
    assert np.allclose(sub.to_dense(), oracle.toarray(), atol=1e-12)


@given(case=matrix_and_nodes())
@settings(max_examples=80, deadline=None)
def test_mapping_row_k_is_global_row_nodes_k(case):
    matrix, nodes = case
    sub = extract_subgraph(matrix, nodes)
    dense = matrix.to_dense()
    for local, node in enumerate(nodes):
        assert np.allclose(
            sub.to_dense()[local], dense[node][nodes], atol=1e-12
        )


@given(case=matrix_and_nodes())
@settings(max_examples=80, deadline=None)
def test_self_loops_added_only_where_structurally_missing(case):
    matrix, nodes = case
    sub = extract_subgraph(matrix, nodes, add_self_loops=True)
    # Structural diagonal of the induced subgraph (explicit zeros count).
    ones = matrix.with_values(np.ones_like(matrix.values))
    structure = scipy_sparse.csr_matrix(
        (ones.values, ones.column_indices, ones.row_pointers),
        shape=ones.shape,
    )[nodes][:, nodes]
    has_diag = structure.diagonal() > 0
    plain = extract_subgraph(matrix, nodes)
    expected = plain.to_dense()
    expected[~has_diag, ~has_diag] += 1.0
    assert np.allclose(sub.to_dense(), expected, atol=1e-12)
    # Each inserted loop is one extra stored entry, nothing more.
    assert sub.nnz == plain.nnz + int((~has_diag).sum())


@given(case=matrix_and_nodes())
@settings(max_examples=60, deadline=None)
def test_canonical_layout_and_version(case):
    matrix, nodes = case
    sub = extract_subgraph(matrix.with_version(4), nodes)
    assert sub.version == 4
    # Row-major with sorted columns inside each row.
    for row in range(sub.n_rows):
        cols = sub.column_indices[
            sub.row_pointers[row]:sub.row_pointers[row + 1]
        ]
        assert np.all(np.diff(cols) >= 0)


@given(case=matrix_and_nodes(repeats=False))
@settings(max_examples=80, deadline=None)
def test_arrays_equal_sorted_scipy_extraction_without_repeats(case):
    matrix, nodes = case
    sub = extract_subgraph(matrix, nodes)
    oracle = scipy_sparse.csr_matrix(
        (matrix.values, matrix.column_indices, matrix.row_pointers),
        shape=matrix.shape,
    )[nodes][:, nodes]
    oracle.sort_indices()
    np.testing.assert_array_equal(sub.row_pointers, oracle.indptr)
    np.testing.assert_array_equal(sub.column_indices, oracle.indices)
    np.testing.assert_array_equal(sub.values, oracle.data)


def _strictly_valid(matrix):
    try:
        matrix.validate(strict=True)
    except SparseFormatError:
        return False
    return True


@given(
    case=matrix_and_nodes(),
    canonical=st.booleans(),
    add_self_loops=st.booleans(),
)
@settings(max_examples=120, deadline=None)
def test_extracted_matrices_pass_validation(case, canonical, add_self_loops):
    # The compiled path builds its result without validating it; it must
    # not need validating.
    matrix, nodes = case
    if canonical:  # no repeated entries, sorted rows: strictly valid
        matrix = _first_of_each_entry(matrix).sorted_indices()
        assert _strictly_valid(matrix)
    sub = extract_subgraph(matrix, nodes, add_self_loops=add_self_loops)
    sub.validate()
    if _strictly_valid(matrix):
        sub.validate(strict=True)


@given(case=matrix_and_nodes(), add_self_loops=st.booleans())
@settings(max_examples=60, deadline=None)
def test_missing_routines_fall_back_to_scipy_and_are_counted(
    case, add_self_loops
):
    matrix, nodes = case
    compiled = extract_subgraph(matrix, nodes, add_self_loops=add_self_loops)
    with pytest.MonkeyPatch.context() as patch:
        for name in (
            "_csr_row_index", "_csr_column_index1", "_csr_column_index2",
            "_csr_sort_indices",
        ):
            patch.setattr(extract, name, None)
        with obs.profiled() as session:
            fallback = extract_subgraph(
                matrix, nodes, add_self_loops=add_self_loops
            )
            extract_subgraph(matrix, nodes)
    assert session.registry.counter("sample.extract.scipy_fallbacks").value == 2
    for got, want in (
        (fallback.row_pointers, compiled.row_pointers),
        (fallback.column_indices, compiled.column_indices),
        (fallback.values, compiled.values),
    ):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    assert fallback.version == compiled.version


class TestExtractEdgeCases:
    def test_unversioned_parent_stays_unversioned(self, csr_small):
        square = CSRMatrix.from_dense(csr_small.to_dense())
        assert extract_subgraph(square, np.array([0, 1])).version is None

    def test_full_node_set_in_order_is_identity(self, dense_small):
        matrix = CSRMatrix.from_dense(dense_small)
        sub = extract_subgraph(matrix, np.arange(matrix.n_rows))
        assert np.allclose(sub.to_dense(), dense_small)

    def test_validation(self, dense_small):
        matrix = CSRMatrix.from_dense(dense_small)
        with pytest.raises(ValueError, match="square"):
            extract_subgraph(
                CSRMatrix.from_dense(np.ones((2, 3))), np.array([0])
            )
        with pytest.raises(ValueError, match="empty"):
            extract_subgraph(matrix, np.array([], dtype=np.int64))
        with pytest.raises(ValueError, match="distinct"):
            extract_subgraph(matrix, np.array([1, 1]))
        with pytest.raises(ValueError, match="lie in"):
            extract_subgraph(matrix, np.array([99]))

    def test_gather_features_orders_and_copies(self):
        features = np.arange(12.0).reshape(4, 3)
        nodes = np.array([2, 0])
        gathered = gather_features(features, nodes)
        assert np.array_equal(gathered, features[[2, 0]])
        gathered[0, 0] = -1.0
        assert features[2, 0] == 6.0  # the original is untouched

    def test_gather_features_rejects_non_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            gather_features(np.arange(4.0), np.array([0]))
