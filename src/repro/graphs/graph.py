"""Graph container tying an adjacency matrix to node features.

A :class:`Graph` is what the GNN layers in :mod:`repro.gnn` and the
experiment harness consume: a square CSR adjacency matrix, an optional
feature matrix, and a human-readable name used in reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.formats import CSRMatrix, RowStatistics, row_statistics
from repro.formats.csr import INDEX_DTYPE


@dataclass(frozen=True)
class Graph:
    """A named graph with CSR adjacency and optional node features.

    Attributes:
        name: Dataset name used in experiment reports.
        adjacency: Square ``n x n`` CSR adjacency matrix (the paper's *A*).
        features: Optional ``n x f`` dense node-feature matrix (the paper's
            *X*); generated on demand by :meth:`random_features` when the
            dataset registry does not supply one.
    """

    name: str
    adjacency: CSRMatrix
    features: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.adjacency.n_rows != self.adjacency.n_cols:
            raise ValueError(
                f"adjacency must be square, got {self.adjacency.shape}"
            )
        if self.features is not None and len(self.features) != self.n_nodes:
            raise ValueError(
                f"features must have one row per node: expected {self.n_nodes},"
                f" got {len(self.features)}"
            )

    @property
    def n_nodes(self) -> int:
        return self.adjacency.n_rows

    @property
    def n_edges(self) -> int:
        """Number of stored non-zeros (directed edge count)."""
        return self.adjacency.nnz

    @property
    def statistics(self) -> RowStatistics:
        """Degree statistics (Table II columns)."""
        return row_statistics(self.adjacency)

    def random_features(self, dim: int, seed: int = 0) -> np.ndarray:
        """A seeded dense ``n x dim`` feature matrix in [0, 1)."""
        rng = np.random.default_rng(seed)
        return rng.random((self.n_nodes, dim))

    def with_features(self, features: np.ndarray) -> "Graph":
        """A copy of this graph carrying the given feature matrix."""
        return Graph(name=self.name, adjacency=self.adjacency, features=features)

    def normalized_adjacency(self, add_self_loops: bool = True) -> CSRMatrix:
        """GCN-normalized adjacency ``D^-1/2 (A + I) D^-1/2``.

        This is the matrix Kipf & Welling's GCN multiplies against ``XW``;
        the sparsity structure (and hence every scheduling decision) matches
        ``A`` plus the diagonal.  It is built by scipy's compiled ``A + I``
        and ``sum_duplicates``: repeated entries are summed in stored
        order, columns are sorted within each row, and ``D`` counts each
        row's distinct entries.  With ``add_self_loops`` an entry that
        sums to zero is dropped, as scipy's ``A + I`` drops it.
        """
        adj = self.adjacency
        a_hat = sp.csr_matrix(
            (adj.values, adj.column_indices, adj.row_pointers),
            shape=adj.shape,
            copy=not add_self_loops,
        )
        if add_self_loops:
            a_hat = a_hat + sp.identity(self.n_nodes, format="csr")
        a_hat.sum_duplicates()
        counts = np.diff(a_hat.indptr)
        degrees = counts.astype(np.float64)
        inv_sqrt = np.where(degrees > 0, 1.0 / np.sqrt(np.maximum(degrees, 1)), 0.0)
        values = a_hat.data * np.repeat(inv_sqrt, counts) * inv_sqrt[a_hat.indices]
        # scipy's fresh arrays, derived from a validated matrix: no
        # validation pass and no copy beyond widening the indices.
        return CSRMatrix._derived(  # noqa: SLF001 - same package
            adj.n_rows, adj.n_cols, a_hat.indptr.astype(INDEX_DTYPE),
            a_hat.indices.astype(INDEX_DTYPE), values,
        )
