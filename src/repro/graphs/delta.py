"""Delta-CSR overlay: versioned live-graph mutation over a frozen base.

Serving needs edges and nodes to change *under traffic*, but every
cache in the stack — merge-path schedules, neighbor indexes — keys
its work on an immutable CSR structure.  The paper's
schedule is a pure function of that structure, which makes
stale-structure execution a silent-wrong-answer bug class, not a crash.

:class:`DeltaCSR` resolves the tension the way LSM trees and RCU do:

* the **base** :class:`~repro.formats.CSRMatrix` stays frozen;
* edge inserts / deletes / value updates accumulate in a small
  **overlay log**, bumping a monotonic :attr:`version` once per applied
  batch (one batch == one graph epoch);
* :meth:`snapshot` materializes an **immutable, epoch-stamped** CSR
  (``matrix.version`` is the epoch, so its fingerprint — and therefore
  every cache key in the stack — is version-precise), touching only the
  *dirty* rows and bulk-copying clean runs;
* once the log exceeds ``compact_threshold`` the snapshot **compacts**:
  the materialized matrix becomes the new base and the log resets.

Snapshots carry their base's fingerprint and the sorted dirty-row set.
A cache keyed on a snapshot's version-precise fingerprint never serves
one epoch's work for another's; nothing needs invalidating when an
epoch retires (:class:`repro.serve.epoch.GraphEpochManager` only waits
for its leases to drain).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro import obs
from repro.formats import CSRMatrix
from repro.formats.csr import INDEX_DTYPE, VALUE_DTYPE

INSERT = "insert"
DELETE = "delete"
UPDATE = "update"
_OPS = (INSERT, DELETE, UPDATE)


@dataclass(frozen=True)
class EdgeUpdate:
    """One edge mutation: insert, delete, or value update.

    Attributes:
        op: ``"insert"`` (edge must not exist), ``"delete"`` or
            ``"update"`` (edge must exist).  Strict existence semantics
            turn client bugs (double-insert, delete-of-missing) into
            errors at apply time instead of silent divergence between
            replicas.
        row: Source row (0-based).
        col: Target column (0-based).
        value: Edge weight for ``insert``/``update`` (ignored by
            ``delete``).
    """

    op: str
    row: int
    col: int
    value: float = 1.0

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ValueError(f"op must be one of {_OPS}, got {self.op!r}")
        if self.row < 0 or self.col < 0:
            raise ValueError(
                f"row/col must be non-negative, got ({self.row}, {self.col})"
            )
        if self.op != DELETE and not np.isfinite(self.value):
            raise ValueError(f"value must be finite, got {self.value}")

    @classmethod
    def insert(cls, row: int, col: int, value: float = 1.0) -> "EdgeUpdate":
        return cls(INSERT, row, col, value)

    @classmethod
    def delete(cls, row: int, col: int) -> "EdgeUpdate":
        return cls(DELETE, row, col)

    @classmethod
    def update(cls, row: int, col: int, value: float) -> "EdgeUpdate":
        return cls(UPDATE, row, col, value)


@dataclass(frozen=True)
class GraphSnapshot:
    """An immutable, epoch-stamped view of a :class:`DeltaCSR`.

    Attributes:
        matrix: Materialized CSR with ``version == epoch``; safe to
            schedule, cache, and execute against indefinitely.
        base: The overlay's base matrix at snapshot time.
        epoch: The delta's monotonic version this snapshot captures.
        dirty_rows: Sorted rows that differ from ``base`` (empty when
            the snapshot *is* the base).
        log_size: Overlay log length remaining after this snapshot
            (0 right after a compaction).
        compacted: Whether taking this snapshot compacted the log
            (``matrix`` became the new base).
    """

    matrix: CSRMatrix
    base: CSRMatrix = field(repr=False)
    epoch: int = 0
    dirty_rows: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=INDEX_DTYPE), repr=False
    )
    log_size: int = 0
    compacted: bool = False

    @property
    def base_fingerprint(self) -> str:
        """Structural fingerprint of the overlay's base."""
        return self.base.fingerprint()

    @property
    def dirty_fraction(self) -> float:
        """Dirty rows over total rows."""
        rows = self.matrix.n_rows
        return len(self.dirty_rows) / rows if rows else 0.0


class UpdatePlanner:
    """Generates valid random edge-update batches for a live graph.

    Single-writer by design: it tracks edge occupancy locally (seeded
    from the base CSR's structure, multi-edges coalesced), so every
    generated batch satisfies :class:`DeltaCSR`'s strict existence
    semantics without peeking at the delta's internals.  Shared by the
    load generator's ``--update-rate`` stream and the chaos matrix's
    update rows.

    Args:
        base: The starting adjacency matrix (occupancy seed).
        delete_fraction: Probability an existing edge is deleted rather
            than value-updated when the planner lands on it.
    """

    def __init__(self, base: CSRMatrix, *, delete_fraction: float = 0.3) -> None:
        if not 0.0 <= delete_fraction <= 1.0:
            raise ValueError(
                f"delete_fraction must be in [0, 1], got {delete_fraction}"
            )
        self.n_rows = base.n_rows
        self.n_cols = base.n_cols
        self.delete_fraction = delete_fraction
        self.occupied: "set[tuple[int, int]]" = set()
        for row in range(base.n_rows):
            cols, _ = base.row_slice(row)
            for col in cols.tolist():
                self.occupied.add((row, int(col)))

    def batch(self, rng: np.random.Generator, size: int) -> "list[EdgeUpdate]":
        """One valid batch of ``size`` updates, mutating the local occupancy."""
        updates: "list[EdgeUpdate]" = []
        for _ in range(size):
            row = int(rng.integers(0, self.n_rows))
            col = int(rng.integers(0, self.n_cols))
            if (row, col) not in self.occupied:
                updates.append(
                    EdgeUpdate.insert(row, col, float(rng.random()) + 0.5)
                )
                self.occupied.add((row, col))
            elif rng.random() < self.delete_fraction:
                updates.append(EdgeUpdate.delete(row, col))
                self.occupied.discard((row, col))
            else:
                updates.append(
                    EdgeUpdate.update(row, col, float(rng.random()) + 0.5)
                )
        return updates


class DeltaCSR:
    """A mutable graph: frozen CSR base + versioned edge-update overlay.

    Thread-safe: :meth:`apply` and :meth:`snapshot` may race freely;
    each applied batch bumps :attr:`version` exactly once, and a
    snapshot always reflects a whole number of batches.

    Args:
        base: The starting adjacency matrix.  Stamped with
            ``version=0`` if it carries no version.
        compact_threshold: Log size at which :meth:`snapshot` folds the
            overlay into a new base.  Larger thresholds rebase less
            often but merge more dirty rows per snapshot.
    """

    def __init__(self, base: CSRMatrix, *, compact_threshold: int = 1024) -> None:
        if compact_threshold < 1:
            raise ValueError(
                f"compact_threshold must be >= 1, got {compact_threshold}"
            )
        self._lock = threading.RLock()
        self._base = base if base.version is not None else base.with_version(0)
        self._version = int(self._base.version)  # type: ignore[arg-type]
        self.compact_threshold = compact_threshold
        # row -> {col: value | None}; None marks a deletion.
        self._overlay: "dict[int, dict[int, float | None]]" = {}
        self._log_size = 0
        self.compactions = 0
        self.total_updates = 0
        self._snapshot_cache: "GraphSnapshot | None" = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Monotonic epoch counter; bumps once per applied batch."""
        with self._lock:
            return self._version

    @property
    def base(self) -> CSRMatrix:
        with self._lock:
            return self._base

    @property
    def log_size(self) -> int:
        """Updates accumulated since the last compaction."""
        with self._lock:
            return self._log_size

    @property
    def n_rows(self) -> int:
        return self._base.n_rows

    @property
    def n_cols(self) -> int:
        return self._base.n_cols

    def compaction_backlog(self) -> float:
        """Log size over threshold (>= 1.0 means the next snapshot compacts)."""
        with self._lock:
            return self._log_size / self.compact_threshold

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def apply(self, updates: "Iterable[EdgeUpdate]") -> int:
        """Apply one batch of edge updates atomically; returns the new epoch.

        The whole batch validates against the *merged* state (base +
        overlay + earlier updates in the same batch) before any of it
        lands, so a bad update never leaves a half-applied epoch.
        """
        batch = list(updates)
        for update in batch:
            if not isinstance(update, EdgeUpdate):
                raise TypeError(f"expected EdgeUpdate, got {type(update).__name__}")
        with self._lock:
            if not batch:
                return self._version
            # Validate against a scratch copy first: all-or-nothing.
            scratch: "dict[int, dict[int, float | None]]" = {}
            for update in batch:
                self._check_bounds(update)
                exists = self._edge_exists(update.row, update.col, scratch)
                if update.op == INSERT and exists:
                    raise ValueError(
                        f"insert of existing edge ({update.row}, {update.col})"
                    )
                if update.op in (DELETE, UPDATE) and not exists:
                    raise ValueError(
                        f"{update.op} of missing edge ({update.row}, {update.col})"
                    )
                scratch.setdefault(update.row, {})[update.col] = (
                    None if update.op == DELETE else float(update.value)
                )
            for row, edits in scratch.items():
                self._overlay.setdefault(row, {}).update(edits)
            self._log_size += len(batch)
            self.total_updates += len(batch)
            self._version += 1
            self._snapshot_cache = None
            obs.counter("graphs.delta.updates").inc(len(batch))
            obs.counter("graphs.delta.batches").inc()
            if obs.enabled():
                obs.gauge("graphs.delta.log_size").set(float(self._log_size))
                obs.gauge("graphs.delta.version").set(float(self._version))
            return self._version

    def insert_edge(self, row: int, col: int, value: float = 1.0) -> int:
        return self.apply([EdgeUpdate.insert(row, col, value)])

    def delete_edge(self, row: int, col: int) -> int:
        return self.apply([EdgeUpdate.delete(row, col)])

    def update_edge(self, row: int, col: int, value: float) -> int:
        return self.apply([EdgeUpdate.update(row, col, value)])

    def _check_bounds(self, update: EdgeUpdate) -> None:
        if update.row >= self._base.n_rows or update.col >= self._base.n_cols:
            raise ValueError(
                f"edge ({update.row}, {update.col}) out of bounds for "
                f"shape {self._base.shape}"
            )

    def _edge_exists(
        self,
        row: int,
        col: int,
        scratch: "dict[int, dict[int, float | None]] | None" = None,
    ) -> bool:
        if scratch is not None:
            pending = scratch.get(row)
            if pending is not None and col in pending:
                return pending[col] is not None
        edits = self._overlay.get(row)
        if edits is not None and col in edits:
            return edits[col] is not None
        cols, _ = self._base.row_slice(row)
        # Base rows need not be sorted; membership is a linear scan over
        # one row's non-zeros (degree-bounded, not nnz-bounded).
        return bool(np.any(cols == col))

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> GraphSnapshot:
        """An immutable, epoch-stamped materialized CSR of current state.

        Repeated calls at the same version return the same (cached)
        snapshot object.  When the log has reached
        ``compact_threshold``, materialization doubles as compaction:
        the snapshot's matrix becomes the new base and the log resets.
        """
        with self._lock:
            cached = self._snapshot_cache
            if cached is not None and cached.epoch == self._version:
                return cached
            compacted = False
            if self._overlay and self._log_size >= self.compact_threshold:
                with obs.span(
                    "graphs.delta.compact",
                    log_size=self._log_size,
                    dirty_rows=len(self._overlay),
                ):
                    self._base = self._materialize_locked()
                self._overlay.clear()
                self._log_size = 0
                self.compactions += 1
                compacted = True
                obs.counter("graphs.delta.compactions").inc()
                if obs.enabled():
                    obs.gauge("graphs.delta.log_size").set(0.0)
            if not self._overlay:
                matrix = self._base
                if matrix.version != self._version:
                    # No pending edits but the epoch advanced (e.g. a
                    # compaction landed on an older version): restamp so
                    # the fingerprint stays version-precise.
                    matrix = matrix.with_version(self._version)
                    self._base = matrix
                dirty = np.empty(0, dtype=INDEX_DTYPE)
            else:
                with obs.span(
                    "graphs.delta.materialize",
                    dirty_rows=len(self._overlay),
                    log_size=self._log_size,
                ):
                    matrix = self._materialize_locked()
                dirty = np.fromiter(
                    sorted(self._overlay), dtype=INDEX_DTYPE,
                    count=len(self._overlay),
                )
            snapshot = GraphSnapshot(
                matrix=matrix,
                base=self._base,
                epoch=self._version,
                dirty_rows=dirty,
                log_size=self._log_size,
                compacted=compacted,
            )
            self._snapshot_cache = snapshot
            obs.counter("graphs.delta.snapshots").inc()
            return snapshot

    def _materialize_locked(self) -> CSRMatrix:
        """Merge the overlay into a fresh CSR stamped with the current epoch.

        Only dirty rows are merged element-wise; runs of clean rows are
        bulk slice copies from the base, so the cost is
        ``O(nnz_copy + sum(degree(dirty)))`` with tiny constants.
        """
        base = self._base
        lengths = np.diff(base.row_pointers)
        lengths = np.ascontiguousarray(lengths, dtype=INDEX_DTYPE)
        dirty = sorted(self._overlay)
        merged_rows: "dict[int, tuple[np.ndarray, np.ndarray]]" = {}
        for row in dirty:
            cols, vals = base.row_slice(row)
            # Generated graphs may hold multi-edges (the same column
            # repeated within a row).  SpMM sums parallel edges, so
            # coalescing a *dirty* row by summation preserves the dense
            # operator exactly; an ``update`` then sets the coalesced
            # weight and a ``delete`` removes every parallel copy.
            entries: "dict[int, float]" = {}
            for col, value in zip(cols.tolist(), vals.tolist()):
                entries[col] = entries.get(col, 0.0) + value
            for col, value in self._overlay[row].items():
                if value is None:
                    entries.pop(col, None)
                else:
                    entries[col] = value
            ordered = sorted(entries)
            merged_rows[row] = (
                np.asarray(ordered, dtype=INDEX_DTYPE),
                np.asarray([entries[c] for c in ordered], dtype=VALUE_DTYPE),
            )
            lengths[row] = len(ordered)
        row_pointers = np.concatenate(
            ([0], np.cumsum(lengths, dtype=INDEX_DTYPE))
        )
        nnz = int(row_pointers[-1])
        column_indices = np.empty(nnz, dtype=INDEX_DTYPE)
        values = np.empty(nnz, dtype=VALUE_DTYPE)
        previous = 0
        for row in [*dirty, base.n_rows]:
            if previous < row:  # clean run [previous, row)
                src_lo = int(base.row_pointers[previous])
                src_hi = int(base.row_pointers[row])
                dst_lo = int(row_pointers[previous])
                dst_hi = dst_lo + (src_hi - src_lo)
                column_indices[dst_lo:dst_hi] = base.column_indices[src_lo:src_hi]
                values[dst_lo:dst_hi] = base.values[src_lo:src_hi]
            if row < base.n_rows:
                cols, vals = merged_rows[row]
                dst_lo = int(row_pointers[row])
                column_indices[dst_lo : dst_lo + len(cols)] = cols
                values[dst_lo : dst_lo + len(cols)] = vals
            previous = row + 1
        # Fresh arrays merged from the validated base and bounds-checked
        # updates: nothing to copy and nothing to validate again.
        return CSRMatrix._derived(  # noqa: SLF001 - same package
            base.n_rows,
            base.n_cols,
            row_pointers,
            column_indices,
            values,
            self._version,
        )
