"""Graph partitioners for sharded multi-process serving.

A partition assigns every *column* (source vertex) of the adjacency
matrix to exactly one shard; the nonzero ``(row, col)`` travels with its
column's owner.  Each shard therefore holds a **local CSR** containing
only the edges whose source it owns, with rows compacted to the shard's
*present rows* (global rows that keep at least one owned nonzero) and
columns relabeled to the shard's owned-vertex range.  Serving a request
then maps onto the paper's merge-path row split, across processes:

* a **complete row** has all of its neighbors on one shard — exactly one
  shard produces its full output row;
* a **boundary (halo) row** has neighbors on two or more shards — each
  owner produces a *partial* row, and the gather pass sums the partials
  (the paper's partial-row accumulation, crossing process boundaries
  instead of thread boundaries).

The **halo map** (:attr:`GraphPartition.halo_rows`) lists the boundary
rows; :class:`PartitionStats` quantifies partition quality (work
balance, edge-cut fraction, halo traffic).

Two strategies are provided:

* :func:`contiguous_block_assignment` — contiguous column blocks split
  at balanced cumulative-nnz boundaries (the merge-path even split
  applied to shard boundaries).  O(nnz), the default for serving.
* :func:`edge_cut_assignment` — greedy affinity placement that walks
  columns in degree order and co-locates columns sharing rows, trading
  partition time for a smaller halo on clustered graphs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.formats.csr import INDEX_DTYPE, VALUE_DTYPE, CSRMatrix

STRATEGIES = ("block", "edge-cut")

# Greedy affinity scoring skips rows wider than this: a hub row touches
# nearly every shard no matter where its columns land, so scoring it per
# column would cost O(degree^2) for no cut improvement.
_EDGE_CUT_HUB_DEGREE = 256


@dataclass(frozen=True)
class ShardPart:
    """One shard's slice of the graph.

    Attributes:
        shard_id: Position of this shard in the partition.
        matrix: Local CSR over (present rows x owned columns); row and
            column ids are *local* (compacted), translated by ``rows``
            and ``cols``.  Carries the parent matrix's ``version`` so
            per-shard segment caches stay epoch-precise.
        rows: Local row -> global row (sorted, unique).  These are the
            rows this shard contributes (partial or complete) output to.
        cols: Local column -> global column (sorted, unique).  These are
            the vertices this shard owns; the router scatters exactly
            these rows of the dense operand to the shard.
    """

    shard_id: int
    matrix: CSRMatrix
    rows: np.ndarray
    cols: np.ndarray

    @property
    def nnz(self) -> int:
        """Edges stored on this shard."""
        return int(self.matrix.nnz)


@dataclass(frozen=True)
class PartitionStats:
    """Quality measures of one :class:`GraphPartition`.

    Attributes:
        n_shards: Shard count.
        strategy: Assignment strategy that produced the partition.
        nnz_per_shard: Edges per shard (the work measure).
        rows_per_shard: Present (output-contributing) rows per shard.
        cols_per_shard: Owned columns per shard.
        balance: ``max(nnz_per_shard) / mean(nnz_per_shard)`` — 1.0 is a
            perfect split; the slowest shard gates the batch, so this is
            the parallel-efficiency ceiling.
        edge_cut: Fraction of edges whose endpoint owners differ
            (``assignment[row] != assignment[col]``; for non-square
            matrices, the fraction of edges landing in halo rows).
        halo_rows: Rows contributed by >= 2 shards (partial rows).
        halo_fraction: ``halo_rows`` over rows with any nonzero.
        distinct_rows: Rows with any nonzero (>= 1 contributing shard).
        gather_rows: Sum of per-shard present rows — output rows
            copied back on the gather pass, counting each halo row once
            per contributing shard.
    """

    n_shards: int
    strategy: str
    nnz_per_shard: "tuple[int, ...]"
    rows_per_shard: "tuple[int, ...]"
    cols_per_shard: "tuple[int, ...]"
    balance: float
    edge_cut: float
    halo_rows: int
    halo_fraction: float
    distinct_rows: int
    gather_rows: int

    def halo_bytes(self, width: int) -> int:
        """Extra gather traffic (bytes) versus a halo-free partition.

        Each boundary row is copied back once per contributing shard;
        a perfect partition would move every nonzero output row exactly
        once.  The surplus copies, times the dense row footprint, price
        the halo exchange for a ``width``-column request.
        """
        extra = max(0, self.gather_rows - self.distinct_rows)
        return extra * int(width) * np.dtype(VALUE_DTYPE).itemsize

    def to_dict(self) -> dict:
        """JSON-ready form for snapshots and run records."""
        return {
            "n_shards": self.n_shards,
            "strategy": self.strategy,
            "nnz_per_shard": list(self.nnz_per_shard),
            "rows_per_shard": list(self.rows_per_shard),
            "cols_per_shard": list(self.cols_per_shard),
            "balance": self.balance,
            "edge_cut": self.edge_cut,
            "halo_rows": self.halo_rows,
            "halo_fraction": self.halo_fraction,
            "distinct_rows": self.distinct_rows,
            "gather_rows": self.gather_rows,
        }


@dataclass(frozen=True)
class GraphPartition:
    """A sharded view of one CSR matrix, ready for scatter/gather.

    Attributes:
        n_rows: Global row count.
        n_cols: Global column count.
        n_shards: Shard count.
        strategy: Assignment strategy label (see :data:`STRATEGIES`).
        assignment: Global column -> owning shard id.
        shards: Per-shard local slices (see :class:`ShardPart`).
        halo_rows: Sorted global row ids contributed by >= 2 shards —
            the boundary rows whose partial outputs the gather pass
            must sum (the paper's partial rows, across processes).
        row_shard_counts: Per global row, the number of contributing
            shards (0 for empty rows, 1 for complete rows, >= 2 for
            halo rows).
        stats: Partition quality measures.
    """

    n_rows: int
    n_cols: int
    n_shards: int
    strategy: str
    assignment: np.ndarray
    shards: "tuple[ShardPart, ...]"
    halo_rows: np.ndarray
    row_shard_counts: np.ndarray
    stats: PartitionStats

    def scatter(self, dense: np.ndarray) -> "list[np.ndarray]":
        """Slice the dense operand into per-shard owned-vertex blocks.

        Returns one contiguous ``(len(part.cols), width)`` array per
        shard: exactly the operand rows the shard's local columns
        reference, in local column order.  Together the slices cover
        ``dense`` once — scatter traffic is ~``n_cols/n_shards`` rows
        per shard, not a full broadcast.
        """
        dense = np.asarray(dense, dtype=VALUE_DTYPE)
        if dense.ndim != 2 or dense.shape[0] != self.n_cols:
            raise ValueError(
                f"operand must be 2-D with {self.n_cols} rows, "
                f"got shape {dense.shape}"
            )
        return [np.ascontiguousarray(dense[part.cols]) for part in self.shards]

    def gather(
        self,
        outputs: "list[np.ndarray | None]",
        width: int,
        out: "np.ndarray | None" = None,
    ) -> np.ndarray:
        """Sum per-shard partial outputs into the global result.

        This is the halo exchange: complete rows are written by their
        single owner; boundary rows accumulate one partial contribution
        per owning shard.  ``outputs[s]`` must be ``None`` exactly when
        shard ``s`` holds no edges.
        """
        if len(outputs) != self.n_shards:
            raise ValueError(
                f"expected {self.n_shards} shard outputs, got {len(outputs)}"
            )
        if out is None:
            out = np.zeros((self.n_rows, int(width)), dtype=VALUE_DTYPE)
        for part, partial in zip(self.shards, outputs):
            if partial is None:
                continue
            if partial.shape != (len(part.rows), int(width)):
                raise ValueError(
                    f"shard {part.shard_id} output has shape "
                    f"{partial.shape}, expected {(len(part.rows), width)}"
                )
            # Present rows are unique per shard, so fancy-index += is a
            # well-defined single accumulation per (shard, row).
            out[part.rows] += partial
        return out

    def spmm(self, dense: np.ndarray) -> np.ndarray:
        """In-process sharded SpMM: scatter -> per-shard SpMM -> gather.

        The single-process reference for the distributed data path; the
        property tests pin it bit-for-bit against the reference oracle on
        integer-valued inputs, and the router must agree with it.
        """
        operands = self.scatter(dense)
        width = int(np.asarray(dense).shape[1])
        outputs: "list[np.ndarray | None]" = [
            part.matrix.multiply_dense(block) if part.nnz else None
            for part, block in zip(self.shards, operands)
        ]
        return self.gather(outputs, width)


def contiguous_block_assignment(
    matrix: CSRMatrix, n_shards: int
) -> np.ndarray:
    """Assign contiguous column blocks balanced by cumulative nnz.

    The column axis is split at the ``k * nnz_total / n_shards``
    boundaries of the per-column nnz prefix sum — the merge-path even
    split applied to shard boundaries.  Empty columns carry a small
    weight so featureless vertices still spread across shards.
    """
    _check_shards(n_shards)
    weights = np.bincount(
        matrix.column_indices, minlength=matrix.n_cols
    ).astype(np.float64)
    # Tiny per-column weight: ties the split to column count when the
    # graph is empty and spreads zero-degree vertices.
    weights += 1.0 / max(1, matrix.n_cols)
    cumulative = np.cumsum(weights)
    total = cumulative[-1] if matrix.n_cols else 0.0
    assignment = np.zeros(matrix.n_cols, dtype=INDEX_DTYPE)
    if matrix.n_cols == 0 or n_shards == 1:
        return assignment
    targets = total * np.arange(1, n_shards) / n_shards
    cuts = np.searchsorted(cumulative, targets, side="left")
    bounds = np.concatenate(([0], cuts, [matrix.n_cols]))
    for shard in range(n_shards):
        assignment[bounds[shard] : bounds[shard + 1]] = shard
    return assignment


def edge_cut_assignment(
    matrix: CSRMatrix,
    n_shards: int,
    *,
    seed: int = 0,
    slack: float = 1.2,
) -> np.ndarray:
    """Greedy affinity assignment minimising the edge cut.

    Columns are visited in descending degree order (random-tiebroken by
    ``seed``); each is placed on the shard already owning the most of
    its row-neighbours' columns, subject to a per-shard load cap of
    ``slack * nnz_total / n_shards``.  Rows wider than a hub threshold
    are skipped during scoring — a hub row spans shards regardless of
    placement, so scoring it buys no cut improvement at quadratic cost.
    """
    _check_shards(n_shards)
    if not 1.0 <= slack:
        raise ValueError(f"slack must be >= 1.0, got {slack}")
    n_cols = matrix.n_cols
    assignment = np.full(n_cols, -1, dtype=INDEX_DTYPE)
    if n_cols == 0:
        return np.zeros(0, dtype=INDEX_DTYPE)
    col_degree = np.bincount(matrix.column_indices, minlength=n_cols)
    # Column -> rows adjacency (CSC-style), built once.
    order = np.argsort(matrix.column_indices, kind="stable")
    rows_by_col = np.repeat(
        np.arange(matrix.n_rows, dtype=INDEX_DTYPE),
        matrix.row_lengths,
    )[order]
    col_ptr = np.concatenate(([0], np.cumsum(col_degree)))
    row_lengths = matrix.row_lengths
    rng = np.random.default_rng(seed)
    visit = np.lexsort((rng.random(n_cols), -col_degree.astype(np.float64)))
    capacity = slack * max(1.0, matrix.nnz) / n_shards
    load = np.zeros(n_shards, dtype=np.float64)
    scores = np.zeros(n_shards, dtype=np.float64)
    for col in visit:
        scores[:] = 0.0
        for row in rows_by_col[col_ptr[col] : col_ptr[col + 1]]:
            if row_lengths[row] > _EDGE_CUT_HUB_DEGREE:
                continue
            neighbours = matrix.column_indices[
                matrix.row_pointers[row] : matrix.row_pointers[row + 1]
            ]
            placed = assignment[neighbours]
            placed = placed[placed >= 0]
            if len(placed):
                scores += np.bincount(placed, minlength=n_shards)
        open_shards = load < capacity
        if not open_shards.any():
            open_shards[:] = True
        masked = np.where(open_shards, scores, -np.inf)
        best = int(np.argmax(masked))
        if masked[best] <= 0.0:
            # No placed neighbours (or all full): balance instead.
            best = int(np.argmin(np.where(open_shards, load, np.inf)))
        assignment[col] = best
        load[best] += col_degree[col] + 1.0 / n_cols
    return assignment


def partition_graph(
    matrix: CSRMatrix,
    n_shards: int,
    *,
    strategy: str = "block",
    seed: int = 0,
) -> GraphPartition:
    """Partition ``matrix`` into ``n_shards`` local CSRs plus halo map.

    Args:
        matrix: Global graph adjacency.
        n_shards: Shard count (>= 1).
        strategy: ``"block"`` (contiguous, nnz-balanced; the default)
            or ``"edge-cut"`` (greedy affinity; see
            :func:`edge_cut_assignment`).
        seed: Tie-breaking seed for the edge-cut strategy.
    """
    if strategy == "block":
        assignment = contiguous_block_assignment(matrix, n_shards)
    elif strategy == "edge-cut":
        assignment = edge_cut_assignment(matrix, n_shards, seed=seed)
    else:
        raise ValueError(
            f"unknown strategy {strategy!r}; expected one of {STRATEGIES}"
        )
    return build_partition(matrix, assignment, n_shards, strategy=strategy)


def build_partition(
    matrix: CSRMatrix,
    assignment: np.ndarray,
    n_shards: int,
    *,
    strategy: str = "custom",
) -> GraphPartition:
    """Materialise per-shard local CSRs and the halo map for a given
    column -> shard assignment.

    Vectorised end to end (argsort/bincount/searchsorted); no Python
    loop touches individual nonzeros.  Raises ``ValueError`` when the
    assignment's shape or shard ids are invalid.
    """
    _check_shards(n_shards)
    assignment = np.ascontiguousarray(assignment, dtype=INDEX_DTYPE)
    if assignment.shape != (matrix.n_cols,):
        raise ValueError(
            f"assignment must have shape ({matrix.n_cols},), "
            f"got {assignment.shape}"
        )
    if matrix.n_cols and (
        assignment.min() < 0 or assignment.max() >= n_shards
    ):
        raise ValueError(
            f"assignment shard ids must lie in [0, {n_shards}), got "
            f"[{assignment.min()}, {assignment.max()}]"
        )
    row_of = np.repeat(
        np.arange(matrix.n_rows, dtype=INDEX_DTYPE), matrix.row_lengths
    )
    owner = (
        assignment[matrix.column_indices]
        if matrix.nnz
        else np.zeros(0, dtype=INDEX_DTYPE)
    )
    # Distinct (row, shard) pairs drive the halo map: a row contributed
    # by >= 2 shards is a boundary row whose partials the gather sums.
    if matrix.nnz:
        pair_keys = np.unique(row_of * n_shards + owner)
        row_shard_counts = np.bincount(
            (pair_keys // n_shards).astype(np.intp), minlength=matrix.n_rows
        )
    else:
        row_shard_counts = np.zeros(matrix.n_rows, dtype=np.intp)
    halo_rows = np.flatnonzero(row_shard_counts >= 2).astype(INDEX_DTYPE)

    nnz_order = np.argsort(owner, kind="stable")
    shard_nnz = np.bincount(owner, minlength=n_shards)
    shard_bounds = np.concatenate(([0], np.cumsum(shard_nnz)))
    col_map = np.full(matrix.n_cols, -1, dtype=INDEX_DTYPE)
    parts = []
    for shard in range(n_shards):
        index = nnz_order[shard_bounds[shard] : shard_bounds[shard + 1]]
        index.sort()  # restore row-major order within the shard
        sub_rows = row_of[index]
        sub_cols = matrix.column_indices[index]
        sub_vals = matrix.values[index]
        present = np.unique(sub_rows)
        local_rows = np.searchsorted(present, sub_rows)
        counts = np.bincount(local_rows, minlength=len(present))
        local_rp = np.concatenate(
            ([0], np.cumsum(counts))
        ).astype(INDEX_DTYPE)
        owned = np.flatnonzero(assignment == shard).astype(INDEX_DTYPE)
        col_map[owned] = np.arange(len(owned), dtype=INDEX_DTYPE)
        local_cols = col_map[sub_cols]
        local = CSRMatrix(
            n_rows=len(present),
            n_cols=len(owned),
            row_pointers=local_rp,
            column_indices=local_cols,
            values=sub_vals,
            version=matrix.version,
        )
        parts.append(
            ShardPart(
                shard_id=shard, matrix=local, rows=present, cols=owned
            )
        )
    stats = _stats(matrix, assignment, parts, row_shard_counts, strategy)
    obs.counter("shard.partition.built").inc()
    obs.histogram("shard.partition.balance").observe(stats.balance)
    obs.histogram("shard.partition.edge_cut").observe(stats.edge_cut)
    return GraphPartition(
        n_rows=matrix.n_rows,
        n_cols=matrix.n_cols,
        n_shards=n_shards,
        strategy=strategy,
        assignment=assignment,
        shards=tuple(parts),
        halo_rows=halo_rows,
        row_shard_counts=row_shard_counts,
        stats=stats,
    )


def _stats(
    matrix: CSRMatrix,
    assignment: np.ndarray,
    parts: "list[ShardPart]",
    row_shard_counts: np.ndarray,
    strategy: str,
) -> PartitionStats:
    nnz_per_shard = tuple(part.nnz for part in parts)
    rows_per_shard = tuple(len(part.rows) for part in parts)
    cols_per_shard = tuple(len(part.cols) for part in parts)
    mean_nnz = matrix.nnz / max(1, len(parts))
    balance = max(nnz_per_shard) / mean_nnz if matrix.nnz else 1.0
    distinct = int(np.count_nonzero(row_shard_counts))
    halo = int(np.count_nonzero(row_shard_counts >= 2))
    if matrix.nnz == 0:
        edge_cut = 0.0
    elif matrix.n_rows == matrix.n_cols:
        row_of = np.repeat(
            np.arange(matrix.n_rows, dtype=INDEX_DTYPE),
            matrix.row_lengths,
        )
        edge_cut = float(
            np.mean(
                assignment[row_of]
                != assignment[matrix.column_indices]
            )
        )
    else:
        row_of = np.repeat(
            np.arange(matrix.n_rows, dtype=INDEX_DTYPE),
            matrix.row_lengths,
        )
        edge_cut = float(np.mean(row_shard_counts[row_of] >= 2))
    return PartitionStats(
        n_shards=len(parts),
        strategy=strategy,
        nnz_per_shard=nnz_per_shard,
        rows_per_shard=rows_per_shard,
        cols_per_shard=cols_per_shard,
        balance=float(balance),
        edge_cut=edge_cut,
        halo_rows=halo,
        halo_fraction=halo / distinct if distinct else 0.0,
        distinct_rows=distinct,
        gather_rows=int(sum(rows_per_shard)),
    )


def _check_shards(n_shards: int) -> None:
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
