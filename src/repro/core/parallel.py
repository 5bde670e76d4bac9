"""Row-blocked merge-path SpMM on host threads.

The paper's decomposition (Algorithm 1) cuts the merge path — the
``n_rows`` row-end markers merged with the ``nnz`` non-zeros — into ``k``
equal shares, so no thread gets an arbitrarily long row or an
arbitrarily long run of empty rows.  On a CPU host the decomposition
drives scipy's own CSR kernel rather than re-implementing it:
:func:`row_blocks` cuts a matrix at the ``k`` merge-path diagonals
(:func:`~repro.core.merge_path.thread_diagonals`,
:func:`~repro.core.merge_path.merge_path_splits`), and
:func:`execute_row_blocks` runs ``csr_matvecs`` — the call scipy's
``csr @ dense`` makes — on every block at once, on one process-wide
thread pool.  Each block writes straight into its own rows of one output
array that the calling thread allocated.

A cut that falls inside a row no longer than the even share is moved
back to that row's start, so such a row is never split and a block
holds at most twice the even share (or one merge item, when there are
fewer than half as many items as blocks).  A longer row is split: every
block after the first that touches it accumulates its part into a carry
row, and the carries are added after the join — the paper's partial-row
fix-up.  Rows no cut splits are computed exactly as scipy computes
them, so a product without split rows equals scipy's bit for bit.

numpy's OpenBLAS threads keep spinning after a GEMM and take the cores
the blocks need, so a pass that mixes GEMMs with blocked SpMMs holds
OpenBLAS to one thread throughout (:func:`single_blas_thread`).  The
symbol lookup and the pool start on first use, never at import, and a
forked child starts both afresh.
"""

from __future__ import annotations

import ctypes
import glob
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

import numpy as np

from repro import obs
from repro.core.merge_path import (
    merge_path_length,
    merge_path_splits,
    thread_diagonals,
)
from repro.formats import CSRMatrix

try:  # the kernel behind scipy's ``csr @ dense``; private, so it may move
    from scipy.sparse._sparsetools import csr_matvecs as _csr_matvecs
except ImportError:  # pragma: no cover - depends on the scipy release
    _csr_matvecs = None

#: Merge items (rows plus non-zeros) each block needs before one more
#: block pays for its hand-off.  Engine pass p50 of a 32-32-16 GCN, one
#: block -> two, on a 2-vCPU host: Cora (15k items) 0.96-1.16 ->
#: 1.12-1.26 ms, a 5k-node power-law graph (50k) 2.3-4.6 -> 2.1-3.9 ms,
#: Wiki-Vote (108k) 7.4-9.1 -> 4.7-7.2 ms, a 10k-node power-law graph
#: (126k) 4.6-5.9 -> 4.3-4.5 ms.
MIN_BLOCK_ITEMS = 50_000

#: ``(setter, getter)`` thread-count symbols of the OpenBLAS builds numpy
#: wheels bundle: numpy 2.x (``scipy-openblas64``), then numpy 1.x.
_BLAS_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
)


@dataclass(frozen=True)
class RowBlock:
    """The kernel arguments of one block (see :func:`row_blocks`).

    The block processes non-zeros ``start:stop``.  When it begins inside
    a split row, non-zeros ``start:carry_stop`` are that row's and go to
    a carry row; ``carry_stop:stop`` cover output rows ``rows`` through
    the rebased ``row_pointers``.

    Attributes:
        start: First non-zero the block processes.
        stop: One past its last non-zero.
        carry_row: The split row whose later part opens this block, or -1.
        carry_stop: End of that part (``start`` when ``carry_row`` is -1).
        carry_pointers: The carry row's pointers, ``[0, carry_stop - start]``.
        rows: ``(lo, hi)`` output rows the block writes directly.
        row_pointers: ``rows``' pointers, rebased to ``carry_stop``.
        final: ``(lo, hi)`` rows whose value is complete once the block
            finishes: ``rows`` less a trailing row split at ``stop``.
    """

    start: int
    stop: int
    carry_row: int
    carry_stop: int
    carry_pointers: np.ndarray
    rows: "tuple[int, int]"
    row_pointers: np.ndarray
    final: "tuple[int, int]"


@dataclass(frozen=True)
class RowBlocks:
    """A CSR matrix cut into merge-path row blocks.

    Attributes:
        cuts: ``(k + 1, 2)`` merge-path coordinates ``(row, nnz)`` of the
            block boundaries; block ``t`` holds merge items
            ``cuts[t].sum()`` to ``cuts[t + 1].sum()``.
        share: The even share of merge items, ``(n_rows + nnz) / k``.
        split_rows: Rows whose non-zeros span more than one block.
        blocks: Each block's kernel arguments.
    """

    cuts: np.ndarray
    share: float
    split_rows: np.ndarray
    blocks: "tuple[RowBlock, ...]"


def row_blocks(matrix: CSRMatrix, n_blocks: int) -> RowBlocks:
    """Cut ``matrix`` into ``n_blocks`` merge-path row blocks (memoised).

    Blocks are memoised on the matrix per ``n_blocks`` and checked like
    :meth:`~repro.formats.csr.CSRMatrix.to_scipy`'s view, whose index
    dtype their row pointers share.
    """
    if n_blocks < 1:
        raise ValueError(f"n_blocks must be >= 1, got {n_blocks}")
    memo = f"_row_blocks_{n_blocks}"
    blocks = matrix._memo(memo)  # noqa: SLF001 - the matrix's own memo
    if blocks is None:
        blocks = _cut(matrix, n_blocks)
        matrix._remember(memo, blocks, include_values=True)  # noqa: SLF001
    return blocks


def _cut(matrix: CSRMatrix, n_blocks: int) -> RowBlocks:
    pointers = matrix.row_pointers
    n_rows = matrix.n_rows
    share = merge_path_length(matrix) / n_blocks
    cuts = merge_path_splits(matrix, thread_diagonals(matrix, n_blocks))
    rows, nnz = cuts[:, 0], cuts[:, 1]
    row_start = pointers[rows]
    row_end = pointers[np.minimum(rows + 1, n_rows)]
    inside = (nnz > row_start) & (nnz < row_end)
    # Moving a cut back to its row's start grows the next block by less
    # than the row, which is at most a share: no block exceeds two.
    snapped = inside & (row_end - row_start <= share)
    nnz = np.where(snapped, row_start, nnz)
    split = inside & ~snapped
    cuts = np.stack([rows, nnz], axis=1)
    # A row whose every non-zero precedes the cut belongs to the block
    # before it, even though its end marker is merged after the cut.
    first_row = np.where(nnz > pointers[rows], rows + 1, rows)
    index_dtype = matrix.to_scipy().indptr.dtype

    blocks = []
    for t in range(n_blocks):
        start, stop = int(nnz[t]), int(nnz[t + 1])
        carry_row = int(rows[t]) if split[t] else -1
        carry_stop = (
            min(stop, int(pointers[carry_row + 1])) if split[t] else start
        )
        lo = int(first_row[t])
        hi = max(lo, int(first_row[t + 1]))
        final_hi = hi - 1 if split[t + 1] and lo <= rows[t + 1] else hi
        row_pointers = (
            np.clip(pointers[lo : hi + 1], carry_stop, stop) - carry_stop
        ).astype(index_dtype)
        blocks.append(
            RowBlock(
                start=start,
                stop=stop,
                carry_row=carry_row,
                carry_stop=carry_stop,
                carry_pointers=np.array([0, carry_stop - start], index_dtype),
                rows=(lo, hi),
                row_pointers=row_pointers,
                final=(lo, final_hi),
            )
        )
    return RowBlocks(
        cuts=cuts,
        share=share,
        split_rows=np.unique(rows[split]),
        blocks=tuple(blocks),
    )


def usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def block_count(matrix: CSRMatrix) -> int:
    """Blocks a pass over ``matrix`` runs on: ``min(CPUs, items // MIN_BLOCK_ITEMS)``.

    Falls back to one block — and counts
    ``core.parallel.serial_fallbacks`` — when the block kernel or the
    OpenBLAS thread control is missing.
    """
    n_blocks = min(usable_cpus(), merge_path_length(matrix) // MIN_BLOCK_ITEMS)
    if n_blocks <= 1:
        return 1
    if _csr_matvecs is None or _blas_threads() is None:
        obs.counter("core.parallel.serial_fallbacks").inc()
        return 1
    return n_blocks


@obs.instrumented
def execute_row_blocks(
    matrix: CSRMatrix,
    dense: np.ndarray,
    n_blocks: "int | None" = None,
    *,
    epilogue: "Callable[[np.ndarray, int, int], None] | None" = None,
) -> np.ndarray:
    """``matrix @ dense`` with ``n_blocks`` merge-path row blocks at once.

    Args:
        matrix: The sparse operand.
        dense: Dense operand, ``(n_cols, width)``.
        n_blocks: Blocks to run; defaults to :func:`block_count`.  One
            block is a single ``matrix.to_scipy() @ dense`` call.
        epilogue: Called as ``epilogue(product, lo, hi)`` once for every
            output row, when rows ``lo:hi`` are final — on the thread
            that finished them, so it must write only those rows.

    Returns:
        The dense product; without split rows, scipy's answer bit for bit.
    """
    if n_blocks is None:
        n_blocks = block_count(matrix)
    elif n_blocks < 1:
        raise ValueError(f"n_blocks must be >= 1, got {n_blocks}")
    dense = np.ascontiguousarray(dense, dtype=np.float64)
    if dense.ndim != 2 or dense.shape[0] != matrix.n_cols:
        raise ValueError(f"dimension mismatch: {matrix.shape} @ {dense.shape}")
    view = matrix.to_scipy()
    if n_blocks == 1 or _csr_matvecs is None:
        product = view @ dense
        if epilogue is not None:
            epilogue(product, 0, matrix.n_rows)
        return product

    plan = row_blocks(matrix, n_blocks)
    n_cols, width = matrix.n_cols, dense.shape[1]
    # Each block zeroes its own rows: a calloc of the whole product may be
    # served from the heap, and zeroing it here would be serial.
    product = np.empty((matrix.n_rows, width))
    carries = np.zeros((n_blocks, width)) if len(plan.split_rows) else None
    operand = dense.ravel()
    indices, data = view.indices, view.data

    def run(t: int) -> None:
        block = plan.blocks[t]
        if block.carry_row >= 0:
            _csr_matvecs(
                1, n_cols, width, block.carry_pointers,
                indices[block.start : block.carry_stop],
                data[block.start : block.carry_stop],
                operand, carries[t],
            )
        lo, hi = block.rows
        if hi > lo:
            product[lo:hi] = 0.0
            _csr_matvecs(
                hi - lo, n_cols, width, block.row_pointers,
                indices[block.carry_stop : block.stop],
                data[block.carry_stop : block.stop],
                operand, product[lo:hi].ravel(),
            )
        if epilogue is not None and block.final[1] > block.final[0]:
            epilogue(product, *block.final)

    _run_tasks([lambda t=t: run(t) for t in range(n_blocks)])
    if carries is not None:
        for t, block in enumerate(plan.blocks):
            if block.carry_row >= 0:
                product[block.carry_row] += carries[t]
        if epilogue is not None:
            for row in plan.split_rows:
                epilogue(product, int(row), int(row) + 1)
    return product


#: Row ranges start at multiples of this, a multiple of every OpenBLAS
#: GEMM kernel's row unroll: a GEMM split by such ranges tiles its rows as
#: one call does, so every output element is summed in the same order.
ROW_ALIGN = 64


def for_row_ranges(
    n_rows: int, n_ranges: int, fn: Callable[[int, int], None]
) -> None:
    """Run ``fn(lo, hi)`` over ``n_ranges`` even row ranges at once.

    Interior bounds are rounded down to a multiple of :data:`ROW_ALIGN`.
    """
    bounds = [
        n_rows * i // n_ranges // ROW_ALIGN * ROW_ALIGN
        for i in range(n_ranges)
    ] + [n_rows]
    _run_tasks([
        lambda lo=lo, hi=hi: fn(lo, hi)
        for lo, hi in zip(bounds, bounds[1:])
    ])


# ----------------------------------------------------------------------
# The process-wide pool and BLAS cap
# ----------------------------------------------------------------------
_pool: "ThreadPoolExecutor | None" = None
_pool_lock = threading.Lock()


def _run_tasks(tasks: "list[Callable[[], None]]") -> None:
    """Run ``tasks`` at once: the first here, the rest on the pool.

    Returns when every task has finished; re-raises the first error.
    """
    if len(tasks) == 1:
        tasks[0]()
        return
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(
                max_workers=usable_cpus(), thread_name_prefix="repro-rowblock"
            )
        pool = _pool
    futures = [pool.submit(task) for task in tasks[1:]]
    try:
        tasks[0]()
    finally:
        wait(futures)  # no block may still write once the caller returns
    for future in futures:
        future.result()


class _BlasThreads(NamedTuple):
    get: Callable[[], int]
    set: Callable[[int], None]


_UNRESOLVED = object()
_blas_memo: "object | _BlasThreads | None" = _UNRESOLVED
_cap_lock = threading.Lock()
_cap_depth = 0
_cap_saved = 0


def _find_blas_threads() -> "_BlasThreads | None":
    """numpy's bundled OpenBLAS thread-count getter and setter, if any."""
    root = os.path.dirname(np.__file__)
    paths = glob.glob(os.path.join(root, os.pardir, "numpy.libs", "*openblas*"))
    paths += glob.glob(os.path.join(root, ".dylibs", "*openblas*"))
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for setter, getter in _BLAS_SYMBOLS:
            if hasattr(lib, setter) and hasattr(lib, getter):
                set_fn, get_fn = getattr(lib, setter), getattr(lib, getter)
                set_fn.argtypes, set_fn.restype = [ctypes.c_int], None
                get_fn.argtypes, get_fn.restype = [], ctypes.c_int
                return _BlasThreads(get=get_fn, set=set_fn)
    return None


def _blas_threads() -> "_BlasThreads | None":
    global _blas_memo
    if _blas_memo is _UNRESOLVED:
        _blas_memo = _find_blas_threads()
    return _blas_memo  # type: ignore[return-value]


@contextmanager
def single_blas_thread() -> Iterator[None]:
    """Hold numpy's OpenBLAS to one thread for the enclosed block.

    The cap is process-wide: nested and concurrent holders share it, and
    the last to leave restores the count the first one found, on an
    exception too.  A no-op when the thread control was not found.
    """
    global _cap_depth, _cap_saved
    control = _blas_threads()
    if control is None:
        yield
        return
    with _cap_lock:
        if _cap_depth == 0:
            _cap_saved = control.get()
            control.set(1)
        _cap_depth += 1
    try:
        yield
    finally:
        with _cap_lock:
            _cap_depth -= 1
            if _cap_depth == 0:
                control.set(_cap_saved)


def _after_fork_in_child() -> None:
    """Drop the pool and the cap state a forked child inherits.

    The pool's threads do not exist in the child, and a lock another
    thread held at the fork would never be released.  A pass in flight
    in the parent cannot finish in the child, so its cap is undone.
    """
    global _pool, _pool_lock, _cap_lock, _cap_depth
    _pool = None
    _pool_lock = threading.Lock()
    _cap_lock = threading.Lock()
    if _cap_depth and isinstance(_blas_memo, _BlasThreads):
        _blas_memo.set(_cap_saved)
    _cap_depth = 0


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork_in_child)
