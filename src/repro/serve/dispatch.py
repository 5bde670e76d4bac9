"""The thread tier's SpMM: one library kernel behind a verified fallback.

:class:`Dispatcher` runs every batch as scipy's CSR kernel
(``csr_matvecs``, the call ``csr @ dense`` ends in) on the matrix's own
arrays, through the one-block path of
:func:`~repro.core.parallel.execute_row_blocks` — scipy's answer bit for
bit, with no view built per request.  scipy's CSR product is the CPU
analogue of the paper's cuSPARSE baseline and the floor every serving
layer is measured against.  With ``verify`` the output is cross-checked
against the independent reference
(:func:`~repro.resilience.oracles.check_output`); any exception — a
failed check or a crashed kernel — degrades to
:func:`~repro.resilience.oracles.verified_spmm`, so a dispatched batch
always returns a verified product.

Each phase is timed from two clock reads and returned in
:attr:`DispatchResult.stages`; the service adds those seconds to every
batch member's ledger.  Nothing here opens a request-trace stage.

``InferenceService(dispatcher=...)`` is the seam for slow, failing or
corrupting kernels: subclass :class:`Dispatcher` and override
:meth:`Dispatcher.kernel`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core.parallel import execute_row_blocks
from repro.formats import CSRMatrix
from repro.resilience.oracles import check_output, verified_spmm


@dataclass(frozen=True)
class DispatchResult:
    """Outcome of one dispatched SpMM.

    Attributes:
        output: The product (the verified fallback's when
            ``fallback_used``).
        backend: Name of the kernel that ran.
        fallback_used: Whether :func:`verified_spmm` produced the output.
        detected: Oracle/exception description that forced the fallback.
        latency_seconds: Measured wall time, including any fallback.
        stages: Seconds of each phase that ran — ``kernel``, then
            ``verify`` under ``verify=True``, then ``fallback`` when the
            kernel or the check failed — as ``perf_counter`` deltas.
    """

    output: np.ndarray
    backend: str
    fallback_used: bool
    detected: "str | None"
    latency_seconds: float
    stages: "dict[str, float]"


class Dispatcher:
    """Runs one SpMM through :meth:`kernel`, falling back on any failure.

    :meth:`kernel` is one ``execute_row_blocks(matrix, dense, 1)`` call.
    Stateless and safe to call from concurrent serve workers.
    """

    #: Reported as ``ServeResponse.backend``.
    backend = "scipy"

    def kernel(self, matrix: CSRMatrix, dense: np.ndarray) -> np.ndarray:
        """The product ``matrix @ dense`` (override to inject faults)."""
        return execute_row_blocks(matrix, dense, 1)

    def execute(
        self,
        matrix: CSRMatrix,
        dense: np.ndarray,
        *,
        verify: bool = False,
        rtol: float = 1e-9,
        atol: float = 1e-9,
    ) -> DispatchResult:
        """Run one SpMM, returning a verified product on failure.

        Args:
            matrix: Sparse input.
            dense: Dense operand (possibly a column-stacked batch).
            verify: Cross-check the kernel's output against the
                independent reference before accepting it; a mismatch
                degrades to the verified fallback rather than propagate.
        """
        dense = np.asarray(dense, dtype=np.float64)
        detected: "str | None" = None
        stages: "dict[str, float]" = {}
        started = mark = time.perf_counter()
        try:
            output = self.kernel(matrix, dense)
            now = time.perf_counter()
            stages["kernel"], mark = now - mark, now
            if verify:
                check_output(matrix, dense, output, rtol=rtol, atol=atol)
                now = time.perf_counter()
                stages["verify"], mark = now - mark, now
        except Exception as exc:
            # The failed phase keeps the seconds it ran for.
            now = time.perf_counter()
            stages["verify" if "kernel" in stages else "kernel"] = now - mark
            mark = now
            detected = f"{type(exc).__name__}: {exc}"
            obs.counter("serve.dispatch.fallbacks", backend=self.backend).inc()
            output = verified_spmm(matrix, dense, rtol=rtol, atol=atol).output
            now = time.perf_counter()
            stages["fallback"], mark = now - mark, now
        obs.counter("serve.dispatch.requests", backend=self.backend).inc()
        return DispatchResult(
            output=output,
            backend=self.backend,
            fallback_used=detected is not None,
            detected=detected,
            latency_seconds=mark - started,
            stages=stages,
        )
