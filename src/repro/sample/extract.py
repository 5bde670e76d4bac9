"""Compact relabeled ego-subgraph extraction.

Given the node set a :class:`~repro.sample.sampler.FanoutSampler`
discovered, :func:`extract_subgraph` materializes the *induced*
adjacency over those nodes — semantically identical to SciPy's fancy
indexing ``A[nodes][:, nodes]`` (the oracle the property tests pin it
to) — as a small relabeled :class:`~repro.formats.csr.CSRMatrix`, plus
the local→global node mapping and a gathered feature slice.  The
extracted matrix inherits the parent's epoch :attr:`~CSRMatrix.version`
stamp, so epoch-pinned verification works on subgraphs exactly as it
does on full graphs.

Extraction runs the compiled routines behind scipy's own
``A[nodes][:, nodes]`` and ``sort_indices()`` — ``csr_row_index``,
``csr_column_index1``, ``csr_column_index2`` and ``csr_sort_indices`` —
on the parent's int64 arrays, with no scipy matrix built: ``O(sum of
the selected rows' lengths)`` work plus one zeroed column-offset array
the size of the parent's columns.  The result wraps those fresh arrays
through ``CSRMatrix._derived``: they come from a validated parent, so
they are neither validated nor copied again.  When scipy stops exporting
any of the routines, every call takes the public route instead (the
public constructor, which widens scipy's possibly ``int32`` indices) and
counts ``sample.extract.scipy_fallbacks``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.formats import CSRMatrix

try:  # the routines behind scipy's ``A[rows][:, cols]``; private, so they may move
    from scipy.sparse._sparsetools import (
        csr_column_index1 as _csr_column_index1,
        csr_column_index2 as _csr_column_index2,
        csr_row_index as _csr_row_index,
        csr_sort_indices as _csr_sort_indices,
    )
except ImportError:  # pragma: no cover - depends on the scipy release
    _csr_row_index = _csr_column_index1 = None
    _csr_column_index2 = _csr_sort_indices = None

INDEX_DTYPE = np.int64


@dataclass(frozen=True)
class EgoSubgraph:
    """One sampled, relabeled ego network ready for serving.

    Attributes:
        matrix: Induced adjacency over the sampled nodes, relabeled to
            ``[0, n)`` local ids, version-stamped from the parent graph.
        nodes: Local→global id mapping (``nodes[0]`` is the seed).
        seed: Global id of the seed node.
        hop_counts: Nodes *discovered* per hop (hop 0 is the seed).
        fanouts: The per-hop fanout caps the sample was drawn with.
    """

    matrix: CSRMatrix
    nodes: np.ndarray = field(repr=False)
    seed: int
    hop_counts: "tuple[int, ...]" = ()
    fanouts: "tuple[int, ...]" = ()

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def nnz(self) -> int:
        return self.matrix.nnz

    def to_dict(self) -> dict:
        """Size summary for run records (never the arrays themselves)."""
        return {
            "seed": int(self.seed),
            "n_nodes": int(self.n_nodes),
            "nnz": int(self.nnz),
            "hop_counts": [int(c) for c in self.hop_counts],
            "fanouts": [int(f) for f in self.fanouts],
        }


def _induced(
    matrix: CSRMatrix, nodes: np.ndarray, order: np.ndarray
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """``matrix[nodes][:, nodes]``'s sorted CSR arrays, as scipy computes them.

    ``order`` is ``argsort(nodes)``; ``nodes`` are valid and distinct.
    """
    k, n_cols = len(nodes), matrix.n_cols
    pointers = matrix.row_pointers
    # The selected rows, gathered whole (scipy's ``A[nodes]``).
    rows_pointers = np.zeros(k + 1, dtype=INDEX_DTYPE)
    np.add.accumulate(
        pointers[nodes + 1] - pointers[nodes], out=rows_pointers[1:]
    )
    gathered = int(rows_pointers[-1])
    rows_columns = np.empty(gathered, dtype=INDEX_DTYPE)
    rows_values = np.empty(gathered)
    _csr_row_index(
        k, nodes, pointers, matrix.column_indices, matrix.values,
        rows_columns, rows_values,
    )
    # Their entries in selected columns, relabeled to local ids (``[:, nodes]``).
    column_offsets = np.zeros(n_cols, dtype=INDEX_DTYPE)
    sub_pointers = np.empty(k + 1, dtype=INDEX_DTYPE)
    _csr_column_index1(
        k, nodes, k, n_cols, rows_pointers, rows_columns, column_offsets,
        sub_pointers,
    )
    nnz = int(sub_pointers[-1])
    sub_columns = np.empty(nnz, dtype=INDEX_DTYPE)
    sub_values = np.empty(nnz)
    _csr_column_index2(
        order, column_offsets, gathered, rows_columns, rows_values,
        sub_columns, sub_values,
    )
    _csr_sort_indices(k, sub_pointers, sub_columns, sub_values)
    return sub_pointers, sub_columns, sub_values


def _add_missing_diagonal(
    pointers: np.ndarray, columns: np.ndarray, values: np.ndarray, value: float
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Insert a ``value`` diagonal entry into every row that lacks one.

    Each entry goes where it keeps its row's columns sorted.
    """
    n = len(pointers) - 1
    rows = np.repeat(np.arange(n), np.diff(pointers))
    missing = np.ones(n, dtype=bool)
    missing[rows[columns == rows]] = False
    targets = np.flatnonzero(missing)
    before = np.bincount(rows[columns < rows], minlength=n)
    at = pointers[targets] + before[targets]
    return (
        pointers + np.concatenate(([0], np.cumsum(missing))),
        np.insert(columns, at, targets),
        np.insert(values, at, value),
    )


def extract_subgraph(
    matrix: CSRMatrix,
    nodes: np.ndarray,
    *,
    add_self_loops: bool = False,
    self_loop_value: float = 1.0,
) -> CSRMatrix:
    """The induced adjacency ``matrix[nodes][:, nodes]``, relabeled.

    Args:
        matrix: Square parent adjacency.
        nodes: Distinct global node ids; their order defines the local
            ids of the result.
        add_self_loops: Add a ``self_loop_value`` diagonal entry to every
            local row that lacks one (GCN-style ``A + I`` on the
            subgraph; rows that already carry a diagonal are untouched,
            matching ``scipy`` oracle semantics of adding the identity
            only where missing).
        self_loop_value: Value of inserted diagonal entries.

    The result carries the parent's :attr:`~CSRMatrix.version` stamp.
    Column indices are sorted within each row: the arrays are scipy's
    ``A[nodes][:, nodes]`` after ``sort_indices()``, byte for byte when
    no row repeats a column (repeated entries may come in another
    order, the same operator).
    """
    nodes = np.ascontiguousarray(nodes, dtype=INDEX_DTYPE)
    if matrix.n_rows != matrix.n_cols:
        raise ValueError(f"adjacency must be square, got {matrix.shape}")
    if nodes.ndim != 1:
        raise ValueError(f"nodes must be 1-D, got shape {nodes.shape}")
    if len(nodes) == 0:
        raise ValueError("cannot extract an empty subgraph")
    order = nodes.argsort()
    ordered = nodes[order]
    if ordered[0] < 0 or ordered[-1] >= matrix.n_rows:
        raise ValueError(
            f"node ids must lie in [0, {matrix.n_rows})"
        )
    if np.count_nonzero(ordered[1:] == ordered[:-1]):
        raise ValueError("node ids must be distinct")

    k = len(nodes)
    if None in (
        _csr_row_index, _csr_column_index1, _csr_column_index2,
        _csr_sort_indices,
    ):
        obs.counter("sample.extract.scipy_fallbacks").inc()
        view = matrix.to_scipy()[nodes][:, nodes]
        view.sort_indices()
        arrays = (view.indptr, view.indices, view.data)
        if add_self_loops:
            arrays = _add_missing_diagonal(*arrays, self_loop_value)
        # scipy may hand back int32 indices: the public constructor
        # widens and validates them.
        sub = CSRMatrix(k, k, *arrays, version=matrix.version)
    else:
        arrays = _induced(matrix, nodes, order)
        if add_self_loops:
            arrays = _add_missing_diagonal(*arrays, self_loop_value)
        # Fresh int64/float64 arrays computed from a validated parent:
        # nothing to copy and nothing to validate again.
        sub = CSRMatrix._derived(  # noqa: SLF001 - same package
            k, k, *arrays, version=matrix.version
        )
    obs.counter("sample.extract.subgraphs").inc()
    obs.counter("sample.extract.nnz").inc(sub.nnz)
    return sub


def gather_features(features: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """The sampled nodes' feature rows, in local-id order (a copy)."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError(
            f"features must be 2-D, got shape {features.shape}"
        )
    return features[np.ascontiguousarray(nodes, dtype=INDEX_DTYPE)]
