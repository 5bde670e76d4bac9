"""CSC-backed neighbor index over a (possibly live) graph.

Ego-graph sampling expands a frontier hop by hop: for every frontier
node it needs that node's *message sources* — the nodes whose features
flow into its aggregated output.  Under this repo's convention the
aggregation is ``out = A @ X``, so row ``v`` of the adjacency lists
exactly the nodes feeding ``v``; equivalently, ``v``'s message sources
are column ``v`` of the message-flow graph's CSC.  That CSC *is* the
adjacency's CSR arrays reinterpreted — ``col_pointers = A.row_pointers``
and ``row_indices = A.column_indices`` — so :class:`NeighborIndex`
builds its :class:`~repro.formats.csc.CSCMatrix` zero-copy (GraphBolt
stores its sampling graphs the same way: one CSC indexed by the node
being sampled *for*).

For the opposite direction ("which nodes does ``v`` feed?", the push
view) the index falls back to a real :meth:`CSRMatrix.to_csc`
conversion, which costs one ``O(nnz log nnz)`` sort.

Each matrix builds its index once per direction:
:func:`neighbor_index` memoises it on the
:class:`~repro.formats.csr.CSRMatrix` itself, the way
:meth:`~repro.formats.csr.CSRMatrix.to_scipy` memoises its view, so an
epoch's index lives exactly as long as that epoch's snapshot and
finding it hashes nothing.  The index holds only arrays, never its
matrix, so a retired snapshot is freed by reference counting alone.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.formats import CSRMatrix
from repro.formats.csc import CSCMatrix

# Frontier expansion follows message sources (the pull direction used by
# ``A @ X`` aggregation) or message sinks (the push direction).
PULL = "pull"
PUSH = "push"


class NeighborIndex:
    """Column-slice neighbor lookups for fanout sampling.

    Args:
        matrix: The graph adjacency (``A``; rows aggregate columns).
        direction: :data:`PULL` (default) expands toward the nodes a
            frontier node *aggregates from* — built zero-copy from the
            CSR arrays.  :data:`PUSH` expands toward the nodes it
            *feeds*, paying one CSC conversion.
    """

    def __init__(self, matrix: CSRMatrix, direction: str = PULL) -> None:
        if direction not in (PULL, PUSH):
            raise ValueError(
                f"direction must be '{PULL}' or '{PUSH}', got {direction!r}"
            )
        if matrix.n_rows != matrix.n_cols:
            raise ValueError(
                f"adjacency must be square, got {matrix.shape}"
            )
        self.direction = direction
        if direction == PULL:
            # Zero-copy reinterpretation: column v of this CSC is row v
            # of A — the nodes whose features flow into v's aggregation.
            self.csc = CSCMatrix(
                n_rows=matrix.n_cols,
                n_cols=matrix.n_rows,
                col_pointers=matrix.row_pointers,
                row_indices=matrix.column_indices,
                values=matrix.values,
                version=matrix.version,
            )
        else:
            self.csc = matrix.to_csc()
        obs.counter("sample.index.built").inc()

    @property
    def n_nodes(self) -> int:
        return self.csc.n_cols

    @property
    def degrees(self) -> np.ndarray:
        """Per-node neighbor counts in the index's direction."""
        return self.csc.col_lengths

    def neighbors(self, node: int) -> "tuple[np.ndarray, np.ndarray]":
        """``(neighbor ids, edge values)`` of one node (read-only views)."""
        return self.csc.col_slice(node)

    @property
    def nbytes(self) -> int:
        """Bytes pinned beyond the matrix itself (0 for the pull view)."""
        if self.direction == PULL:
            return 0
        return (
            self.csc.col_pointers.nbytes
            + self.csc.row_indices.nbytes
            + self.csc.values.nbytes
        )


def neighbor_index(matrix: CSRMatrix, direction: str = PULL) -> NeighborIndex:
    """``matrix``'s index in ``direction``, built once (memoised on it).

    The memo is checked like :meth:`CSRMatrix.to_scipy`'s view, so a
    rebound array gets a fresh index.
    """
    memo = f"_neighbor_index_{direction}"
    index = matrix._memo(memo)  # noqa: SLF001 - the matrix's own memo
    if index is None:
        index = NeighborIndex(matrix, direction)
        matrix._remember(memo, index, include_values=True)  # noqa: SLF001
    return index
