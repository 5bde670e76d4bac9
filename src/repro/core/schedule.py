"""Per-thread MergePath-SpMM schedules and their statistics.

A :class:`MergePathSchedule` is the artifact Algorithm 1 produces and
Algorithm 2 consumes: for every thread, the merge-path coordinates of its
work range, plus the partial/complete row classification that decides which
output writes must be atomic.

The classification follows Section III-B of the paper:

* a thread's **start row** is *partial* when its start coordinate's
  non-zero index lies strictly inside the row (an earlier thread owns the
  row's first non-zeros);
* a thread's **end row** is *partial* when its end coordinate stops before
  the row's end marker (a later thread owns the rest);
* everything in between is a **complete** row, written without atomics.

Zero-length segments (a boundary that lands exactly on a row's end marker)
produce no write at all; the accounting here — and therefore Figure 5 —
counts write *operations* actually issued.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro import obs
from repro.core.merge_path import (
    merge_path_length,
    merge_path_splits,
    thread_diagonals,
)
from repro.formats import CSRMatrix


@dataclass(frozen=True)
class ThreadAssignment:
    """One thread's work assignment in the paper's variable naming.

    Attributes:
        thread: Thread index.
        start_row: First row touched (the merge-path start x-coordinate).
        end_row: Row in progress at the end coordinate.
        start_nz: Non-zero index where a *partial* start row begins, or 0
            when the start row is complete (the paper's sentinel).
        end_nz: Non-zero index where a *partial* end row stops, or 0 when
            the end row is complete.
        nnz_range: Half-open global non-zero range ``[lo, hi)`` owned by
            this thread.
    """

    thread: int
    start_row: int
    end_row: int
    start_nz: int
    end_nz: int
    nnz_range: tuple[int, int]

    @property
    def n_nonzeros(self) -> int:
        lo, hi = self.nnz_range
        return hi - lo


@dataclass(frozen=True)
class ScheduleStatistics:
    """Aggregate write/work accounting for a schedule.

    These counters drive Figure 5 (atomic vs. regular write distribution)
    and the GPU/multicore timing models.

    Attributes:
        n_threads: Number of threads in the schedule.
        n_rows: Matrix rows.
        nnz: Matrix non-zeros.
        items_per_thread: Merge-path cost bound per thread.
        atomic_writes: Output-row write operations issued atomically.
        regular_writes: Output-row write operations issued without atomics.
        atomic_nnz: Non-zeros accumulated into atomically-written outputs.
        regular_nnz: Non-zeros accumulated into regular outputs.
        split_rows: Distinct rows whose output receives atomic updates.
        single_partial_threads: Threads whose whole assignment is one
            partial row (middle chunks of evil rows).
        max_thread_items: Largest per-thread merge-item count (load bound).
    """

    n_threads: int
    n_rows: int
    nnz: int
    items_per_thread: int
    atomic_writes: int
    regular_writes: int
    atomic_nnz: int
    regular_nnz: int
    split_rows: int
    single_partial_threads: int
    max_thread_items: int

    @property
    def total_writes(self) -> int:
        return self.atomic_writes + self.regular_writes

    @property
    def atomic_write_fraction(self) -> float:
        """Fraction of write operations that are atomic (Figure 5 y-axis)."""
        total = self.total_writes
        return self.atomic_writes / total if total else 0.0

    @property
    def atomic_nnz_fraction(self) -> float:
        """Fraction of non-zeros accumulated through atomic writes."""
        return self.atomic_nnz / self.nnz if self.nnz else 0.0


class MergePathSchedule:
    """A complete merge-path work decomposition of one CSR matrix.

    Construction is fully vectorized; all per-thread classification arrays
    are computed once and shared by the executors and timing models.

    Args:
        matrix: The sparse input matrix (the paper's *A*).
        n_threads: Number of threads to decompose across.
    """

    def __init__(self, matrix: CSRMatrix, n_threads: int) -> None:
        if n_threads < 1:
            raise ValueError(f"n_threads must be >= 1, got {n_threads}")
        with obs.span(
            "core.schedule.build", n_threads=n_threads, nnz=matrix.nnz
        ):
            self.matrix = matrix
            self.n_threads = n_threads
            self.diagonals = thread_diagonals(matrix, n_threads)
            total = merge_path_length(matrix)
            self.items_per_thread = -(-total // n_threads) if total else 0
            coords = merge_path_splits(matrix, self.diagonals)
            # Boundary coordinates: thread t spans coords[t] .. coords[t + 1].
            self.start_rows = coords[:-1, 0]
            self.start_nnzs = coords[:-1, 1]
            self.end_rows = coords[1:, 0]
            self.end_nnzs = coords[1:, 1]
            self._classify()

    # ------------------------------------------------------------------
    # Classification (Section III-B)
    # ------------------------------------------------------------------
    def _classify(self) -> None:
        rp = self.matrix.row_pointers
        n = self.matrix.n_rows
        x0, y0 = self.start_rows, self.start_nnzs
        x1, y1 = self.end_rows, self.end_nnzs

        in_rows0 = x0 < n
        in_rows1 = x1 < n
        # Row start/end offsets, guarded for threads landing past row n-1.
        row0_start = rp[np.minimum(x0, n - 1 if n else 0)] if n else y0
        row0_end = rp[np.minimum(x0 + 1, n)] if n else y0
        row1_start = rp[np.minimum(x1, n - 1 if n else 0)] if n else y1

        started_mid_row = in_rows0 & (y0 > row0_start)
        # Non-empty leading segment of a partial start row.
        start_segment_end = np.minimum(row0_end, y1)
        self.start_partial = started_mid_row & (y0 < start_segment_end)
        self.single_partial = self.start_partial & (x0 == x1)
        multi_start = self.start_partial & (x0 < x1)
        # Non-empty trailing segment of a partial end row.  This also covers
        # a thread that begins a row at its first non-zero but does not
        # reach its end marker.
        end_segment_start = np.maximum(row1_start, y0)
        self.end_partial = (
            in_rows1 & (y1 > end_segment_start) & ~self.single_partial
        )

        # Complete rows: skip the start row whenever an earlier thread owns
        # part of it (even if this thread's remaining segment is empty).
        first_complete = x0 + started_mid_row.astype(np.int64)
        self.complete_counts = np.maximum(0, x1 - first_complete)
        self.first_complete_rows = first_complete

        self.atomic_nnz_per_thread = (
            np.where(self.single_partial, y1 - y0, 0)
            + np.where(multi_start, row0_end - y0, 0)
            + np.where(self.end_partial, y1 - end_segment_start, 0)
        )
        self.atomic_writes_per_thread = (
            self.start_partial.astype(np.int64) + self.end_partial
        )
        if obs.enabled():
            obs.counter("core.schedule.built").inc()
            obs.counter("core.schedule.threads").inc(self.n_threads)
            obs.counter("core.schedule.atomic_writes").inc(
                int(self.atomic_writes_per_thread.sum())
            )
            obs.counter("core.schedule.regular_writes").inc(
                int(self.complete_counts.sum())
            )
            obs.counter("core.schedule.partial_start_rows").inc(
                int(self.start_partial.sum())
            )
            obs.counter("core.schedule.partial_end_rows").inc(
                int(self.end_partial.sum())
            )
            obs.counter("core.schedule.single_partial_threads").inc(
                int(self.single_partial.sum())
            )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def assignment(self, thread: int) -> ThreadAssignment:
        """The paper-style :class:`ThreadAssignment` for one thread."""
        if not 0 <= thread < self.n_threads:
            raise IndexError(
                f"thread {thread} out of range [0, {self.n_threads})"
            )
        start_partial = bool(self.start_partial[thread]) or (
            # The paper's start_nz flags any mid-row start, including one
            # whose remaining segment is empty.
            self.start_rows[thread] < self.matrix.n_rows
            and self.start_nnzs[thread]
            > self.matrix.row_pointers[self.start_rows[thread]]
        )
        end_partial = bool(self.end_partial[thread])
        return ThreadAssignment(
            thread=thread,
            start_row=int(self.start_rows[thread]),
            end_row=int(self.end_rows[thread]),
            start_nz=int(self.start_nnzs[thread]) if start_partial else 0,
            end_nz=int(self.end_nnzs[thread]) if end_partial else 0,
            nnz_range=(int(self.start_nnzs[thread]), int(self.end_nnzs[thread])),
        )

    def assignments(self) -> list[ThreadAssignment]:
        """All per-thread assignments (scalar view; prefer arrays in bulk)."""
        return [self.assignment(t) for t in range(self.n_threads)]

    def atomic_row_targets(self) -> np.ndarray:
        """Row index targeted by every atomic write, one entry per write.

        Used by the GPU model to estimate atomic contention: duplicated
        entries are concurrent writers serializing on the same output row.
        """
        starts = self.start_rows[self.start_partial]
        ends = self.end_rows[self.end_partial]
        return np.concatenate([starts, ends])

    def per_thread_nnz(self) -> np.ndarray:
        """Non-zeros owned by each thread."""
        return self.end_nnzs - self.start_nnzs

    def per_thread_items(self) -> np.ndarray:
        """Merge items (rows + non-zeros) owned by each thread."""
        return np.diff(self.diagonals)

    @cached_property
    def statistics(self) -> ScheduleStatistics:
        """Aggregate :class:`ScheduleStatistics` (cached)."""
        atomic_nnz = int(self.atomic_nnz_per_thread.sum())
        atomic_writes = int(self.atomic_writes_per_thread.sum())
        targets = self.atomic_row_targets()
        return ScheduleStatistics(
            n_threads=self.n_threads,
            n_rows=self.matrix.n_rows,
            nnz=self.matrix.nnz,
            items_per_thread=self.items_per_thread,
            atomic_writes=atomic_writes,
            regular_writes=int(self.complete_counts.sum()),
            atomic_nnz=atomic_nnz,
            regular_nnz=self.matrix.nnz - atomic_nnz,
            split_rows=len(np.unique(targets)),
            single_partial_threads=int(self.single_partial.sum()),
            max_thread_items=int(self.per_thread_items().max(initial=0)),
        )

    def validate(self) -> None:
        """Assert the tiling invariants; raise ``AssertionError`` otherwise.

        Checked invariants (the merge-path load-balance guarantees):

        * thread non-zero ranges tile ``[0, nnz)`` exactly;
        * per-thread merge items never exceed the merge-path cost;
        * every row is either one thread's complete row or receives only
          atomic writes (never both), and all rows are covered.
        """
        assert self.start_nnzs[0] == 0 and self.start_rows[0] == 0
        assert self.end_nnzs[-1] == self.matrix.nnz
        assert self.end_rows[-1] == self.matrix.n_rows
        assert np.array_equal(self.start_nnzs[1:], self.end_nnzs[:-1])
        assert np.array_equal(self.start_rows[1:], self.end_rows[:-1])
        assert self.per_thread_items().max(initial=0) <= self.items_per_thread
        # Row coverage: complete rows and atomic targets partition the rows.
        complete_rows: list[np.ndarray] = []
        for t in range(self.n_threads):
            complete_rows.append(
                np.arange(
                    self.first_complete_rows[t],
                    self.first_complete_rows[t] + self.complete_counts[t],
                )
            )
        complete = np.concatenate(complete_rows) if complete_rows else np.empty(0)
        atomic = np.unique(self.atomic_row_targets())
        assert len(np.unique(complete)) == len(complete), "duplicate complete rows"
        assert not np.intersect1d(complete, atomic).size, (
            "row written both regularly and atomically"
        )
        covered = np.union1d(complete, atomic)
        assert len(covered) == self.matrix.n_rows, (
            f"covered {len(covered)} of {self.matrix.n_rows} rows"
        )
        # Atomic + regular nnz accounting matches the matrix.
        stats = self.statistics
        assert stats.atomic_nnz + stats.regular_nnz == self.matrix.nnz


@obs.instrumented
def build_schedule(matrix: CSRMatrix, n_threads: int) -> MergePathSchedule:
    """Decompose ``matrix`` across ``n_threads`` threads (Algorithm 1)."""
    return MergePathSchedule(matrix, n_threads)


@obs.instrumented
def schedule_for_cost(
    matrix: CSRMatrix,
    cost: int,
    min_threads: int | None = None,
) -> MergePathSchedule:
    """Build a schedule targeting ``cost`` merge items per thread.

    This is the paper's tunable *merge-path cost* knob (Section III-C):
    the thread count is the merge-path length divided by the cost.  When
    the computed count falls below ``min_threads`` (the paper uses a
    1024-thread threshold to keep small graphs parallel), the thread count
    is raised to the threshold instead.
    """
    if cost < 1:
        raise ValueError(f"merge-path cost must be >= 1, got {cost}")
    total = merge_path_length(matrix)
    n_threads = max(1, -(-total // cost))
    if min_threads is not None and n_threads < min_threads:
        n_threads = min_threads
    # More threads than merge items just produces empty threads; cap so the
    # schedule stays well-formed on tiny inputs.
    n_threads = max(1, min(n_threads, total)) if total else 1
    return MergePathSchedule(matrix, n_threads)
