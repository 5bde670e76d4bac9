"""Unit tests for the thread tier's dispatcher (one kernel + verified fallback)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import build_schedule, execute_vectorized
from repro.obs import rtrace
from repro.resilience import faults
from repro.serve.dispatch import Dispatcher


class _CrashingDispatcher(Dispatcher):
    def kernel(self, matrix, dense):
        raise RuntimeError("kernel exploded")


class _MergePathDispatcher(Dispatcher):
    """Runs the core merge-path executor, which honors fault plans."""

    def kernel(self, matrix, dense):
        return execute_vectorized(build_schedule(matrix, n_threads=8), dense)[0]


class TestScipyKernel:
    def test_output_is_scipy_bit_for_bit(self, small_power_law, rng):
        dense = rng.random((small_power_law.n_cols, 8))
        result = Dispatcher().execute(small_power_law, dense)
        assert result.backend == "scipy"
        assert not result.fallback_used and result.detected is None
        reference = sp.csr_matrix(
            (
                small_power_law.values,
                small_power_law.column_indices,
                small_power_law.row_pointers,
            ),
            shape=small_power_law.shape,
            copy=True,
        )
        assert np.array_equal(result.output, reference @ dense)

    def test_verify_accepts_a_correct_product(self, small_power_law, rng):
        dense = rng.random((small_power_law.n_cols, 4))
        result = Dispatcher().execute(small_power_law, dense, verify=True)
        assert not result.fallback_used
        assert result.latency_seconds > 0

    def test_kernel_time_lands_in_kernel_stage(self, small_power_law, rng):
        dense = rng.random((small_power_law.n_cols, 4))
        result = Dispatcher().execute(small_power_law, dense)
        assert set(result.stages) == {"kernel"}
        assert 0.0 < result.stages["kernel"] <= result.latency_seconds

    def test_verify_time_lands_in_verify_stage(self, small_power_law, rng):
        dense = rng.random((small_power_law.n_cols, 4))
        result = Dispatcher().execute(small_power_law, dense, verify=True)
        assert set(result.stages) == {"kernel", "verify"}
        assert sum(result.stages.values()) == pytest.approx(
            result.latency_seconds, abs=1e-9
        )

    def test_opens_no_request_trace_stage(self, small_power_law, rng):
        # The service adds the returned seconds to its ledgers itself.
        ctx = rtrace.RequestContext.new(request_id=1, route="test")
        dense = rng.random((small_power_law.n_cols, 4))
        with rtrace.activate(ctx):
            Dispatcher().execute(small_power_law, dense, verify=True)
        assert ctx.ledger.stages() == {}


class TestVerifiedFallback:
    def test_crashing_backend_degrades_to_verified(self, small_power_law, rng):
        dense = rng.random((small_power_law.n_cols, 8))
        result = _CrashingDispatcher().execute(small_power_law, dense)
        assert result.fallback_used
        assert "kernel exploded" in result.detected
        assert np.allclose(
            result.output, small_power_law.multiply_dense(dense)
        )
        # The crashed kernel keeps the seconds it ran; the rest is the
        # fallback's.
        assert set(result.stages) == {"kernel", "fallback"}
        assert sum(result.stages.values()) == pytest.approx(
            result.latency_seconds, abs=1e-9
        )

    def test_fault_injection_still_returns_correct_result(
        self, small_power_law, rng
    ):
        """A FaultPlan corrupting the kernel's output must not escape.

        With ``verify=True`` the output oracle catches the bit flips and
        the dispatcher degrades to the verified fallback, so the caller
        still receives the correct product.
        """
        dense = rng.random((small_power_law.n_cols, 8))
        reference = small_power_law.multiply_dense(dense)
        with faults.inject(bitflip=1.0) as plan:
            result = _MergePathDispatcher().execute(
                small_power_law, dense, verify=True
            )
        assert plan.total_injected > 0
        assert result.fallback_used
        assert result.detected is not None
        assert np.allclose(result.output, reference)
        assert set(result.stages) == {"kernel", "verify", "fallback"}
