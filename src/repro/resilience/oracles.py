"""Invariant oracles and the self-checking executor front end.

Two oracles back every resilience claim:

* :func:`check_schedule` — proves a merge-path schedule covers every
  non-zero exactly once and that its partial-row atomic accounting
  balances (the paper's bit-identical-aggregation precondition).
* :func:`check_output` — cross-checks an executor's output against an
  independent reference (the chunked scatter-add
  :meth:`CSRMatrix.multiply_dense`) within tolerance, and rejects
  non-finite outputs outright.

:func:`verified_spmm` composes them into a self-checking executor with
graceful degradation: it runs MergePath-SpMM, applies both oracles, and
on any detected corruption falls back to the serial reference executor
(:meth:`CSRMatrix.multiply_dense`), recording the detection and recovery
on the obs counters and the active fault plan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.formats import CSRMatrix
from repro.resilience import faults


class OracleError(RuntimeError):
    """An invariant oracle found evidence of corruption."""


class ScheduleOracleError(OracleError):
    """A merge-path schedule violates its coverage/accounting invariants."""


class OutputOracleError(OracleError):
    """An executor's output disagrees with the independent reference."""


def reference_spmm(matrix: CSRMatrix, dense: np.ndarray) -> np.ndarray:
    """Independent reference product for the output oracle.

    The chunked scatter-add :meth:`CSRMatrix.multiply_dense`, which
    shares no code with the serving kernel (scipy's ``csr_matvecs``,
    called by :func:`~repro.core.parallel.execute_row_blocks`), so the
    oracle never compares scipy with itself.  Duplicate indices are
    summed, matching the executors' semantics.
    """
    return matrix.multiply_dense(np.asarray(dense, dtype=np.float64))


def check_schedule(schedule) -> None:
    """Prove a schedule's coverage and atomic accounting; raise on failure.

    Checked invariants:

    * the schedule's non-empty write segments tile ``[0, nnz)`` exactly —
      every non-zero is accumulated exactly once;
    * atomic/regular write and nnz accounting matches the schedule's
      :class:`~repro.core.schedule.ScheduleStatistics` and sums to the
      matrix totals (the partial-row atomic balance);
    * regular (complete-row) writes target distinct rows, disjoint from
      every atomically-updated row;
    * the structural tiling invariants of
      :meth:`MergePathSchedule.validate`.

    Raises:
        ScheduleOracleError: Naming the violated invariant.
    """
    from repro.core.spmm import write_segments

    obs.counter("resilience.oracle.checks", oracle="schedule").inc()
    matrix = schedule.matrix
    segments = write_segments(schedule)

    nz = segments.lengths > 0
    starts = segments.starts[nz]
    lengths = segments.lengths[nz]
    order = np.argsort(starts, kind="stable")
    starts, lengths = starts[order], lengths[order]
    expected = (
        np.concatenate(([0], np.cumsum(lengths)[:-1]))
        if len(lengths)
        else lengths
    )
    if int(lengths.sum()) != matrix.nnz or not np.array_equal(starts, expected):
        faults.detected_externally("schedule-coverage")
        raise ScheduleOracleError(
            "write segments do not tile [0, nnz) exactly once: "
            f"covered {int(lengths.sum())} of {matrix.nnz} non-zeros"
        )

    stats = schedule.statistics
    atomic = segments.atomic
    seg_atomic_writes = int(atomic.sum())
    seg_atomic_nnz = int(segments.lengths[atomic].sum())
    seg_regular_nnz = int(segments.lengths[~atomic].sum())
    if (
        seg_atomic_writes != stats.atomic_writes
        or seg_atomic_nnz != stats.atomic_nnz
        or seg_regular_nnz != stats.regular_nnz
        or stats.atomic_nnz + stats.regular_nnz != matrix.nnz
    ):
        faults.detected_externally("schedule-accounting")
        raise ScheduleOracleError(
            "atomic accounting does not balance: segments say "
            f"({seg_atomic_writes} writes, {seg_atomic_nnz}+{seg_regular_nnz} nnz), "
            f"statistics say ({stats.atomic_writes} writes, "
            f"{stats.atomic_nnz}+{stats.regular_nnz} nnz) for nnz={matrix.nnz}"
        )

    regular_rows = segments.rows[~atomic]
    atomic_rows = np.unique(segments.rows[atomic])
    if len(np.unique(regular_rows)) != len(regular_rows):
        faults.detected_externally("schedule-row-ownership")
        raise ScheduleOracleError("a row is written regularly more than once")
    if np.intersect1d(regular_rows, atomic_rows).size:
        faults.detected_externally("schedule-row-ownership")
        raise ScheduleOracleError(
            "a row is written both regularly and atomically"
        )

    try:
        schedule.validate()
    except AssertionError as exc:
        faults.detected_externally("schedule-tiling")
        raise ScheduleOracleError(f"tiling invariant violated: {exc}") from exc


def check_output(
    matrix: CSRMatrix,
    dense: np.ndarray,
    output: np.ndarray,
    *,
    rtol: float = 1e-9,
    atol: float = 1e-9,
    reference: "np.ndarray | None" = None,
) -> None:
    """Cross-check an SpMM output against the independent reference.

    Args:
        matrix: The sparse input the output claims to be a product of.
        dense: The dense operand.
        output: The executor's result.
        rtol, atol: Agreement tolerances.
        reference: Precomputed reference product (recomputed when
            omitted).

    Raises:
        OutputOracleError: On shape mismatch, non-finite entries, or
            disagreement beyond tolerance.
    """
    obs.counter("resilience.oracle.checks", oracle="output").inc()
    dense = np.asarray(dense, dtype=np.float64)
    expected_shape = (matrix.n_rows, dense.shape[1])
    if output.shape != expected_shape:
        faults.detected_externally("output-shape")
        raise OutputOracleError(
            f"output shape {output.shape} != expected {expected_shape}"
        )
    if output.size and not np.isfinite(output).all():
        faults.detected_externally("output-nonfinite")
        bad = int(np.count_nonzero(~np.isfinite(output)))
        raise OutputOracleError(f"output contains {bad} non-finite entries")
    if reference is None:
        reference = reference_spmm(matrix, dense)
    if not np.allclose(output, reference, rtol=rtol, atol=atol):
        faults.detected_externally("output-mismatch")
        diff = np.abs(output - reference)
        worst = float(np.nanmax(diff)) if diff.size else 0.0
        raise OutputOracleError(
            f"output disagrees with reference (max |diff| = {worst:.3e}, "
            f"rtol={rtol}, atol={atol})"
        )


@dataclass(frozen=True)
class ResilientResult:
    """Outcome of a self-checked SpMM invocation.

    Attributes:
        output: The verified product (merge-path's, or the fallback's).
        result: The merge-path :class:`~repro.core.spmm.SpMMResult` when
            it passed both oracles, else ``None``.
        fallback_used: Whether the serial reference executor produced the
            returned output.
        detected: Description of the detected corruption (``None`` when
            the merge-path result was accepted).
    """

    output: np.ndarray
    result: "object | None"
    fallback_used: bool
    detected: "str | None"


def verified_spmm(
    matrix: CSRMatrix,
    dense: np.ndarray,
    *,
    fallback: bool = True,
    rtol: float = 1e-9,
    atol: float = 1e-9,
    **spmm_kwargs,
) -> ResilientResult:
    """MergePath-SpMM with oracle checking and serial fallback.

    Runs :func:`~repro.core.spmm.merge_path_spmm`, then both oracles.  On
    a detected corruption (or an executor self-check failure) it degrades
    gracefully: the serial reference executor recomputes the product, the
    recovery is counted, and the verified fallback output is returned.

    Args:
        matrix: Sparse input.
        dense: Dense operand.
        fallback: When ``False``, detected corruption re-raises instead
            of degrading.
        rtol, atol: Output oracle tolerances.
        **spmm_kwargs: Forwarded to :func:`merge_path_spmm`
            (``cost``, ``n_threads``, ``executor``, ...).

    Returns:
        A :class:`ResilientResult`.

    Raises:
        OracleError: When corruption is detected and ``fallback`` is off,
            or when even the serial reference output fails verification
            (the input itself is corrupt — nothing to degrade to).
    """
    from repro.core.spmm import merge_path_spmm

    dense = np.asarray(dense, dtype=np.float64)
    detected: "str | None" = None
    try:
        result = merge_path_spmm(matrix, dense, **spmm_kwargs)
        check_schedule(result.schedule)
        check_output(matrix, dense, result.output, rtol=rtol, atol=atol)
        return ResilientResult(
            output=result.output, result=result, fallback_used=False,
            detected=None,
        )
    except (OracleError, faults.ExecutionFaultError) as exc:
        detected = f"{type(exc).__name__}: {exc}"
        obs.counter("resilience.executor.detections").inc()
        if not fallback:
            raise
    # Graceful degradation: serial reference executor, itself verified.
    output = matrix.multiply_dense(dense)
    if output.size and not np.isfinite(output).all():
        obs.counter("resilience.executor.unrecoverable").inc()
        raise OutputOracleError(
            "serial fallback also produced non-finite output — the input "
            f"matrix is corrupt (after: {detected})"
        )
    obs.counter("resilience.executor.fallbacks").inc()
    plan = faults.active_plan()
    if plan is not None:
        plan.note_recovered("fallback")
    return ResilientResult(
        output=output, result=None, fallback_used=True, detected=detected
    )
