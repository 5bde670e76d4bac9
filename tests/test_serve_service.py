"""Unit tests for the batching inference service (queueing, shedding)."""

import threading
import time

import numpy as np
import pytest

from repro.resilience import faults
from repro.serve.dispatch import Dispatcher
from repro.serve.service import InferenceService, ServeConfig


def _service(config=None, dispatcher=None):
    return InferenceService(dispatcher, config)


class _CountingDispatcher(Dispatcher):
    """Counts kernel calls; optionally sleeps in each."""

    def __init__(self, delay=0.0):
        self.delay = delay
        self.calls = []

    def kernel(self, matrix, dense):
        self.calls.append(1)
        if self.delay:
            time.sleep(self.delay)
        return super().kernel(matrix, dense)


def _counting_backend(delay=0.0):
    dispatcher = _CountingDispatcher(delay)
    return dispatcher, dispatcher.calls


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_queue": 0},
            {"max_batch": 0},
            {"max_wait_ms": -1.0},
            {"n_workers": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ServeConfig(**kwargs)


class TestRequestPath:
    def test_infer_matches_reference(self, small_power_law, rng):
        dense = rng.random((small_power_law.n_cols, 8))
        with _service() as service:
            response = service.infer(small_power_law, dense, timeout=10.0)
        assert response.ok
        assert response.backend == "scipy"
        assert response.batch_size >= 1
        assert np.array_equal(
            response.output, small_power_law.to_scipy() @ dense
        )

    def test_many_requests_all_correct(
        self, small_power_law, small_structured, rng
    ):
        graphs = [small_power_law, small_structured]
        requests = [
            (graphs[i % 2], rng.random((graphs[i % 2].n_cols, 4)))
            for i in range(24)
        ]
        with _service() as service:
            futures = [service.submit(m, d) for m, d in requests]
            responses = [f.result(timeout=10.0) for f in futures]
        for (matrix, dense), response in zip(requests, responses):
            assert response.ok
            assert np.allclose(response.output, matrix.multiply_dense(dense))

    def test_rejects_bad_operand_shapes(self, small_power_law):
        with _service() as service:
            with pytest.raises(ValueError, match="2-D"):
                service.submit(
                    small_power_law, np.zeros(small_power_law.n_cols)
                )
            with pytest.raises(ValueError, match="dimension mismatch"):
                service.submit(
                    small_power_law,
                    np.zeros((small_power_law.n_cols + 3, 4)),
                )


class TestBatching:
    def test_same_graph_requests_share_a_batch(self, small_power_law, rng):
        config = ServeConfig(
            max_queue=64, max_batch=4, max_wait_ms=100.0, n_workers=1
        )
        operands = [rng.random((small_power_law.n_cols, 4)) for _ in range(4)]
        with _service(config) as service:
            futures = [
                service.submit(small_power_law, dense) for dense in operands
            ]
            responses = [f.result(timeout=10.0) for f in futures]
        assert all(r.ok for r in responses)
        # All four were queued before the worker's first flush deadline,
        # so at least one flush served multiple requests.
        assert max(r.batch_size for r in responses) >= 2
        # Distinct operands must come back unscrambled after the split.
        for dense, response in zip(operands, responses):
            assert np.allclose(
                response.output, small_power_law.multiply_dense(dense)
            )

    def test_distinct_graphs_never_share_a_batch(
        self, small_power_law, small_structured, rng
    ):
        config = ServeConfig(
            max_queue=64, max_batch=8, max_wait_ms=100.0, n_workers=1
        )
        with _service(config) as service:
            futures = [
                service.submit(
                    matrix, rng.random((matrix.n_cols, 4))
                )
                for matrix in (small_power_law, small_structured) * 3
            ]
            responses = [f.result(timeout=10.0) for f in futures]
        assert all(r.ok for r in responses)
        assert max(r.batch_size for r in responses) <= 3

    def test_distinct_widths_never_share_a_batch(self, small_power_law, rng):
        # Regression: batching must key on the feature width too — mixed
        # widths cannot be column-stacked and split back evenly.
        config = ServeConfig(
            max_queue=64, max_batch=8, max_wait_ms=100.0, n_workers=1
        )
        operands = [
            rng.random((small_power_law.n_cols, width))
            for width in (4, 8, 4, 8)
        ]
        with _service(config) as service:
            futures = [
                service.submit(small_power_law, dense) for dense in operands
            ]
            responses = [f.result(timeout=10.0) for f in futures]
        assert all(r.ok for r in responses)
        # Two requests of each width: a batch can hold at most both
        # same-width requests, never a mixed pair.
        assert max(r.batch_size for r in responses) <= 2
        for dense, response in zip(operands, responses):
            assert response.output.shape[1] == dense.shape[1]
            assert np.allclose(
                response.output, small_power_law.multiply_dense(dense)
            )

    def test_batched_outputs_are_isolated(self, small_power_law, rng):
        # Regression: split outputs must own their data — a view into the
        # shared stacked batch result lets one client's in-place mutation
        # corrupt another client's reply.
        config = ServeConfig(
            max_queue=64, max_batch=4, max_wait_ms=100.0, n_workers=1
        )
        operands = [rng.random((small_power_law.n_cols, 4)) for _ in range(4)]
        with _service(config) as service:
            futures = [
                service.submit(small_power_law, dense) for dense in operands
            ]
            responses = [f.result(timeout=10.0) for f in futures]
        assert max(r.batch_size for r in responses) >= 2
        responses[0].output[:] = 0.0
        for dense, response in zip(operands[1:], responses[1:]):
            assert np.allclose(
                response.output, small_power_law.multiply_dense(dense)
            )

    def test_max_batch_bounds_flush(self, small_power_law, rng):
        config = ServeConfig(
            max_queue=64, max_batch=2, max_wait_ms=200.0, n_workers=1
        )
        with _service(config) as service:
            futures = [
                service.submit(
                    small_power_law, rng.random((small_power_law.n_cols, 4))
                )
                for _ in range(6)
            ]
            responses = [f.result(timeout=10.0) for f in futures]
        assert all(r.ok for r in responses)
        assert max(r.batch_size for r in responses) <= 2


class TestLoadShedding:
    def test_overload_sheds_with_rejected_status(self, small_power_law, rng):
        config = ServeConfig(
            max_queue=1, max_batch=1, max_wait_ms=0.0, n_workers=1
        )
        dense = rng.random((small_power_law.n_cols, 4))
        with _service(config, dispatcher=_CountingDispatcher(0.05)) as service:
            futures = [
                service.submit(small_power_law, dense) for _ in range(16)
            ]
            responses = [f.result(timeout=30.0) for f in futures]
        rejected = [r for r in responses if r.rejected]
        accepted = [r for r in responses if r.ok]
        assert rejected, "burst past the bound must shed"
        assert accepted, "shedding must not starve accepted work"
        for response in rejected:
            assert "queue full" in response.error
            assert response.output is None
        for response in accepted:
            assert np.allclose(
                response.output, small_power_law.multiply_dense(dense)
            )

    def test_rejected_future_resolves_immediately(self, small_power_law, rng):
        config = ServeConfig(
            max_queue=1, max_batch=1, max_wait_ms=0.0, n_workers=1
        )
        dense = rng.random((small_power_law.n_cols, 4))
        with _service(config, dispatcher=_CountingDispatcher(0.2)) as service:
            futures = [
                service.submit(small_power_law, dense) for _ in range(8)
            ]
            shed = [f for f in futures if f.done()]
            # At least one rejection resolved synchronously at submit time.
            assert any(f.result().rejected for f in shed)
            for future in futures:
                future.result(timeout=30.0)


class TestTimeouts:
    def test_slow_batch_times_out_as_error(self, small_power_law, rng):
        config = ServeConfig(
            max_queue=8, max_batch=1, max_wait_ms=0.0, n_workers=1,
            request_timeout=0.05,
        )
        dense = rng.random((small_power_law.n_cols, 4))
        with _service(config, dispatcher=_CountingDispatcher(1.0)) as service:
            response = service.infer(small_power_law, dense, timeout=30.0)
        assert response.status == "error"
        assert "timeout" in response.error


class TestLifecycle:
    def test_submit_before_start_raises(self, small_power_law, rng):
        service = _service()
        with pytest.raises(RuntimeError, match="not started"):
            service.submit(
                small_power_law, rng.random((small_power_law.n_cols, 4))
            )

    def test_submit_after_close_raises(self, small_power_law, rng):
        service = _service().start()
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.submit(
                small_power_law, rng.random((small_power_law.n_cols, 4))
            )

    def test_close_drains_pending_requests(self, small_power_law, rng):
        config = ServeConfig(
            max_queue=64, max_batch=2, max_wait_ms=0.0, n_workers=1
        )
        service = _service(config, dispatcher=_CountingDispatcher(0.01)).start()
        futures = [
            service.submit(
                small_power_law, rng.random((small_power_law.n_cols, 4))
            )
            for _ in range(6)
        ]
        service.close()
        responses = [f.result(timeout=0.0) for f in futures]
        assert all(r.ok for r in responses)
        assert service.queue_depth == 0

    def test_start_is_idempotent(self, small_power_law, rng):
        with _service() as service:
            service.start()
            response = service.infer(
                small_power_law,
                rng.random((small_power_law.n_cols, 4)),
                timeout=10.0,
            )
        assert response.ok

    def test_failed_admission_does_not_allocate_ids(
        self, small_power_law, rng
    ):
        # Regression: ids and the submitted counter used to advance even
        # when submit raised on a closed/unstarted service, so rejected
        # calls skewed admission accounting.
        service = _service()
        dense = rng.random((small_power_law.n_cols, 4))
        for _ in range(3):
            with pytest.raises(RuntimeError, match="not started"):
                service.submit(small_power_law, dense)
        service.start()
        try:
            response = service.submit(small_power_law, dense).result(
                timeout=10.0
            )
        finally:
            service.close()
        assert response.request_id == 0
        with pytest.raises(RuntimeError, match="closed"):
            service.submit(small_power_law, dense)

    def test_close_during_in_flight_batch_completes_it(
        self, small_power_law, rng
    ):
        # close() must drain the batch the worker is already executing —
        # the client still gets its (correct) response, never an abort.
        config = ServeConfig(
            max_queue=8, max_batch=1, max_wait_ms=0.0, n_workers=1
        )
        backend, calls = _counting_backend(delay=0.3)
        service = _service(config, dispatcher=backend).start()
        dense = rng.random((small_power_law.n_cols, 4))
        future = service.submit(small_power_law, dense)
        deadline = time.monotonic() + 5.0
        while not calls and time.monotonic() < deadline:
            time.sleep(0.005)
        assert calls, "batch never started executing"
        closer = threading.Thread(target=service.close)
        closer.start()
        response = future.result(timeout=10.0)
        closer.join(timeout=10.0)
        assert not closer.is_alive()
        assert response.ok
        assert np.allclose(
            response.output, small_power_law.multiply_dense(dense)
        )


class TestDeadlines:
    def test_rejects_nonpositive_deadline(self, small_power_law, rng):
        with _service() as service:
            with pytest.raises(ValueError, match="deadline_ms"):
                service.submit(
                    small_power_law,
                    rng.random((small_power_law.n_cols, 4)),
                    deadline_ms=0,
                )

    def test_generous_deadline_serves_normally(self, small_power_law, rng):
        dense = rng.random((small_power_law.n_cols, 4))
        with _service() as service:
            response = service.submit(
                small_power_law, dense, deadline_ms=30_000.0
            ).result(timeout=10.0)
        assert response.ok
        assert np.allclose(
            response.output, small_power_law.multiply_dense(dense)
        )

    def test_expired_requests_shed_before_execution(
        self, small_power_law, rng
    ):
        config = ServeConfig(
            max_queue=64, max_batch=1, max_wait_ms=0.0, n_workers=1
        )
        backend, calls = _counting_backend(delay=0.1)
        with _service(config, dispatcher=backend) as service:
            # The undeadlined blocker pins the single worker while the
            # tightly-deadlined requests expire in the queue.
            blocker = service.submit(
                small_power_law, rng.random((small_power_law.n_cols, 4))
            )
            futures = [
                service.submit(
                    small_power_law,
                    rng.random((small_power_law.n_cols, 4)),
                    deadline_ms=5.0,
                )
                for _ in range(4)
            ]
            assert blocker.result(timeout=10.0).ok
            responses = [f.result(timeout=10.0) for f in futures]
        shed = [r for r in responses if r.deadline_exceeded]
        assert shed, "queued requests past their deadline must be shed"
        for response in shed:
            assert response.status == "deadline_exceeded"
            assert response.output is None
            assert "deadline" in response.error
        # Shed requests never reached the backend.
        assert len(calls) == 1 + (len(responses) - len(shed))

    def test_deadline_cuts_off_running_batch(self, small_power_law, rng):
        # A batch already executing past every member's deadline resolves
        # as deadline_exceeded, not a generic timeout error.
        config = ServeConfig(
            max_queue=8, max_batch=1, max_wait_ms=0.0, n_workers=1
        )
        dense = rng.random((small_power_law.n_cols, 4))
        with _service(config, dispatcher=_CountingDispatcher(1.0)) as service:
            response = service.submit(
                small_power_law, dense, deadline_ms=60.0
            ).result(timeout=30.0)
        assert response.deadline_exceeded
        assert response.output is None


class TestWorkerCrashes:
    def test_injected_crash_fails_batch_and_restarts(
        self, small_power_law, rng
    ):
        config = ServeConfig(
            max_queue=8, max_batch=1, max_wait_ms=0.0, n_workers=1,
            restart_budget=3,
        )
        dense = rng.random((small_power_law.n_cols, 4))
        with _service(config) as service:
            with faults.inject(seed=0, crash_worker=1.0) as plan:
                response = service.submit(small_power_law, dense).result(
                    timeout=10.0
                )
            assert plan.injected.get("worker-crash") == 1
            assert response.status == "error"
            assert "worker crashed" in response.error
            # The supervisor respawned a worker that serves real traffic.
            after = service.submit(small_power_law, dense).result(timeout=10.0)
            assert after.ok
            assert service._supervisor.restarts == 1

    def test_exhausted_pool_rejects_and_abandons(self, small_power_law, rng):
        config = ServeConfig(
            max_queue=8, max_batch=1, max_wait_ms=0.0, n_workers=1,
            restart_budget=0,
        )
        dense = rng.random((small_power_law.n_cols, 4))
        backend, calls = _counting_backend(delay=0.25)
        with _service(config, dispatcher=backend) as service:
            # While the worker executes the first request, the other two
            # queue up safely; the crash plan then kills the worker on
            # its *second* gather, with the queue demonstrably non-empty.
            futures = [
                service.submit(small_power_law, dense) for _ in range(3)
            ]
            deadline = time.monotonic() + 5.0
            while not calls and time.monotonic() < deadline:
                time.sleep(0.002)
            assert calls, "first batch never started executing"
            with faults.inject(seed=0, crash_worker=1.0):
                responses = [f.result(timeout=10.0) for f in futures]
            # Every future resolved (bounded failure, no hangs): one
            # served, one failed by the crash, one abandoned on exhaustion.
            assert responses[0].ok
            assert "worker crashed" in responses[1].error
            assert "exhausted" in responses[2].error
            # The dead pool now sheds new work at admission.
            rejected = service.submit(small_power_law, dense).result(
                timeout=10.0
            )
            assert rejected.rejected
            assert "exhausted" in rejected.error
            report = service.health()
            assert report.status == "unhealthy"
            assert any(
                c.kind == "worker-pool-exhausted" for c in report.causes
            )
