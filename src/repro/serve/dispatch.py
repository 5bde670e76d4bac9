"""The thread tier's SpMM: one library kernel behind a verified fallback.

:class:`Dispatcher` runs every batch as ``matrix.to_scipy() @ dense`` —
scipy's CSR product, the CPU analogue of the paper's cuSPARSE baseline
and the floor every serving layer is measured against.  The kernel call
is charged to the ``kernel`` request-trace stage.  With ``verify`` the
output is cross-checked against the independent reference
(:func:`~repro.resilience.oracles.check_output`); any exception — a
failed check or a crashed kernel — degrades to
:func:`~repro.resilience.oracles.verified_spmm`, so a dispatched batch
always returns a verified product.

``InferenceService(dispatcher=...)`` is the seam for slow, failing or
corrupting kernels: subclass :class:`Dispatcher` and override
:meth:`Dispatcher.kernel`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.formats import CSRMatrix
from repro.obs import rtrace
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
    """

    output: np.ndarray
    backend: str
    fallback_used: bool
    detected: "str | None"
    latency_seconds: float


class Dispatcher:
    """Runs one SpMM through :meth:`kernel`, falling back on any failure.

    Stateless and safe to call from concurrent serve workers.
    """

    #: Reported as ``ServeResponse.backend``.
    backend = "scipy"

    def kernel(self, matrix: CSRMatrix, dense: np.ndarray) -> np.ndarray:
        """The product ``matrix @ dense`` (override to inject faults)."""
        return matrix.to_scipy() @ dense

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
        started = time.perf_counter()
        try:
            with rtrace.stage("kernel", backend=self.backend):
                output = self.kernel(matrix, dense)
            if verify:
                with rtrace.stage("verify"):
                    check_output(matrix, dense, output, rtol=rtol, atol=atol)
        except Exception as exc:
            detected = f"{type(exc).__name__}: {exc}"
            obs.counter("serve.dispatch.fallbacks", backend=self.backend).inc()
            with rtrace.stage("fallback", backend=self.backend):
                output = verified_spmm(matrix, dense, rtol=rtol, atol=atol).output
        seconds = time.perf_counter() - started
        obs.counter("serve.dispatch.requests", backend=self.backend).inc()
        return DispatchResult(
            output=output,
            backend=self.backend,
            fallback_used=detected is not None,
            detected=detected,
            latency_seconds=seconds,
        )
