"""Unit tests for the batching inference service (queueing, shedding)."""

import math
import threading
import time
import types

import numpy as np
import pytest
import scipy.sparse as sp

from repro.formats import csr as csr_module
from repro.graphs import power_law_graph
from repro.resilience import faults
from repro.serve.dispatch import Dispatcher
from repro.serve.service import InferenceService, ServeConfig


def _service(config=None, dispatcher=None):
    return InferenceService(dispatcher, config)


def _reference(matrix, dense):
    """scipy's product over fresh copies: shares nothing with the memo."""
    fresh = sp.csr_matrix(
        (matrix.values, matrix.column_indices, matrix.row_pointers),
        shape=matrix.shape,
        copy=True,
    )
    return fresh @ dense


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
            {"restart_budget": -1},
            {"n_workers": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ServeConfig(**kwargs)

    @pytest.mark.parametrize("timeout", [0, -1.0, math.inf, math.nan])
    def test_rejects_unusable_request_timeout(self, timeout):
        with pytest.raises(ValueError, match="request_timeout"):
            ServeConfig(request_timeout=timeout)


class TestRequestPath:
    def test_infer_matches_reference(self, small_power_law, rng):
        dense = rng.random((small_power_law.n_cols, 8))
        with _service() as service:
            response = service.infer(small_power_law, dense, timeout=10.0)
        assert response.ok
        assert response.backend == "scipy"
        assert response.batch_size >= 1
        assert np.array_equal(
            response.output, _reference(small_power_law, dense)
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

    def test_thread_tier_builds_no_scipy_view(self, monkeypatch, rng):
        # The kernel runs on the matrix's own arrays: neither a plain
        # request nor an ego subgraph builds a scipy view.
        graphs = [
            power_law_graph(n_nodes=200, nnz=1_200, max_degree=40, seed=s)
            for s in (1, 2)
        ]
        expected = []
        built = []
        original = csr_module.sp.csr_matrix

        def counting(*args, **kwargs):
            built.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(csr_module.sp, "csr_matrix", counting)
        with _service() as service:
            for i in range(20):
                matrix = graphs[i % 2]
                dense = rng.random((matrix.n_cols, 4))
                response = service.infer(matrix, dense, timeout=10.0)
                assert response.ok
                expected.append((response.output, matrix, dense))
            features = rng.random((graphs[0].n_cols, 4))
            ego = service.submit_ego(
                3, features, matrix=graphs[0], rng=np.random.default_rng(0)
            )
            assert ego.result(timeout=10.0).ok
        assert built == []
        monkeypatch.undo()
        for output, matrix, dense in expected:
            assert np.array_equal(output, _reference(matrix, dense))
        sub = ego.subgraph.matrix
        assert np.array_equal(
            ego.result().output,
            _reference(sub, features[ego.subgraph.nodes]),
        )

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
    # Each test queues a backlog behind a request held in the kernel,
    # so a batch is exactly the same-key requests queued when the
    # worker frees up.
    def test_same_graph_requests_share_a_batch(
        self, small_power_law, rng, gated_dispatcher
    ):
        config = ServeConfig(max_queue=64, max_batch=4, n_workers=1)
        operands = [rng.random((small_power_law.n_cols, 4)) for _ in range(4)]
        with _service(config, gated_dispatcher) as service:
            responses = gated_dispatcher.backlog(
                service, [(small_power_law, dense) for dense in operands]
            )
        assert all(r.ok for r in responses)
        assert [r.batch_size for r in responses] == [4] * 4
        # Distinct operands must come back unscrambled after the split.
        for dense, response in zip(operands, responses):
            assert np.allclose(
                response.output, small_power_law.multiply_dense(dense)
            )

    def test_distinct_graphs_never_share_a_batch(
        self, small_power_law, small_structured, rng, gated_dispatcher
    ):
        config = ServeConfig(max_queue=64, max_batch=8, n_workers=1)
        requests = [
            (matrix, rng.random((matrix.n_cols, 4)))
            for matrix in (small_power_law, small_structured) * 3
        ]
        with _service(config, gated_dispatcher) as service:
            responses = gated_dispatcher.backlog(service, requests)
        assert all(r.ok for r in responses)
        # Interleaved graphs still split into one batch per graph.
        assert [r.batch_size for r in responses] == [3] * 6
        for (matrix, dense), response in zip(requests, responses):
            assert np.allclose(response.output, matrix.multiply_dense(dense))

    def test_distinct_widths_never_share_a_batch(
        self, small_power_law, rng, gated_dispatcher
    ):
        # Regression: batching must key on the feature width too — mixed
        # widths cannot be column-stacked and split back evenly.
        config = ServeConfig(max_queue=64, max_batch=8, n_workers=1)
        operands = [
            rng.random((small_power_law.n_cols, width))
            for width in (4, 8, 4, 8)
        ]
        with _service(config, gated_dispatcher) as service:
            responses = gated_dispatcher.backlog(
                service, [(small_power_law, dense) for dense in operands]
            )
        assert all(r.ok for r in responses)
        # Two requests of each width: one batch per width, never mixed.
        assert [r.batch_size for r in responses] == [2] * 4
        for dense, response in zip(operands, responses):
            assert response.output.shape[1] == dense.shape[1]
            assert np.allclose(
                response.output, small_power_law.multiply_dense(dense)
            )

    def test_batched_outputs_are_isolated(
        self, small_power_law, rng, gated_dispatcher
    ):
        # Regression: split outputs must own their data — a view into the
        # shared stacked batch result lets one client's in-place mutation
        # corrupt another client's reply.
        config = ServeConfig(max_queue=64, max_batch=4, n_workers=1)
        operands = [rng.random((small_power_law.n_cols, 4)) for _ in range(4)]
        with _service(config, gated_dispatcher) as service:
            responses = gated_dispatcher.backlog(
                service, [(small_power_law, dense) for dense in operands]
            )
        assert [r.batch_size for r in responses] == [4] * 4
        responses[0].output[:] = 0.0
        for dense, response in zip(operands[1:], responses[1:]):
            assert np.allclose(
                response.output, small_power_law.multiply_dense(dense)
            )

    def test_max_batch_bounds_flush(
        self, small_power_law, rng, gated_dispatcher
    ):
        config = ServeConfig(max_queue=64, max_batch=2, n_workers=1)
        requests = [
            (small_power_law, rng.random((small_power_law.n_cols, 4)))
            for _ in range(6)
        ]
        with _service(config, gated_dispatcher) as service:
            responses = gated_dispatcher.backlog(service, requests)
        assert all(r.ok for r in responses)
        assert [r.batch_size for r in responses] == [2] * 6

    def test_batching_key_is_hashed_outside_the_service_lock(
        self, small_power_law, small_structured, rng
    ):
        # A matrix's first full fingerprint hashes all of it.  While one
        # submitter is inside that hash, a request on another matrix
        # must still be admitted and answered.
        held = small_power_law.with_values(small_power_law.values.copy())
        fingerprint = held.fingerprint
        hashing = threading.Event()
        release = threading.Event()

        def slow_fingerprint(*, include_values=False):
            hashing.set()
            release.wait(timeout=30.0)
            return fingerprint(include_values=include_values)

        object.__setattr__(held, "fingerprint", slow_fingerprint)
        held_dense = rng.random((held.n_cols, 4))
        other_dense = rng.random((small_structured.n_cols, 4))
        replies = {}

        def infer(name, matrix, dense):
            replies[name] = service.infer(matrix, dense, timeout=30.0)

        with _service(ServeConfig(n_workers=1)) as service:
            slow = threading.Thread(
                target=infer, args=("held", held, held_dense)
            )
            fast = threading.Thread(
                target=infer, args=("other", small_structured, other_dense)
            )
            try:
                slow.start()
                assert hashing.wait(timeout=10.0)
                fast.start()
                fast.join(timeout=10.0)
                assert not fast.is_alive(), "submit waited on another hash"
                assert "held" not in replies
            finally:
                release.set()
                slow.join(timeout=30.0)
                fast.join(timeout=30.0)
        assert not slow.is_alive() and not fast.is_alive()
        assert replies["other"].ok
        assert np.array_equal(
            replies["other"].output, _reference(small_structured, other_dense)
        )
        assert replies["held"].ok
        assert np.array_equal(
            replies["held"].output, _reference(held, held_dense)
        )

    def test_lone_request_dispatches_with_frozen_clock(
        self, small_power_law, rng, monkeypatch
    ):
        # Regression: batch formation must not wait on a clock.  With the
        # service's clock frozen a request never ages, so a batch held
        # open until a deadline would never dispatch.
        import repro.serve.service as service_module

        frozen = types.SimpleNamespace(
            monotonic=lambda: 1000.0, perf_counter=time.perf_counter
        )
        dense = rng.random((small_power_law.n_cols, 4))
        with _service(ServeConfig(n_workers=1)) as service:
            monkeypatch.setattr(service_module, "time", frozen)
            response = service.submit(small_power_law, dense).result(
                timeout=5.0
            )
        assert response.ok
        assert np.array_equal(
            response.output, _reference(small_power_law, dense)
        )


class TestLoadShedding:
    def test_overload_sheds_with_rejected_status(self, small_power_law, rng):
        config = ServeConfig(
            max_queue=1, max_batch=1, n_workers=1
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
            max_queue=1, max_batch=1, n_workers=1
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
            max_queue=8, max_batch=1, n_workers=1,
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
            max_queue=64, max_batch=2, n_workers=1
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
            max_queue=8, max_batch=1, n_workers=1
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
        # Non-finite deadlines are refused too: NaN slips past a
        # ``<= 0`` check and infinity overflows the timeout clock.
        with _service() as service:
            for deadline_ms in (0, math.inf, math.nan):
                with pytest.raises(ValueError, match="deadline_ms"):
                    service.submit(
                        small_power_law,
                        rng.random((small_power_law.n_cols, 4)),
                        deadline_ms=deadline_ms,
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
            max_queue=64, max_batch=1, n_workers=1
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
            max_queue=8, max_batch=1, n_workers=1
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
            max_queue=8, max_batch=1, n_workers=1,
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
            max_queue=8, max_batch=1, n_workers=1,
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
