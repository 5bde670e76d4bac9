"""End-to-end request tracing through the serving stack.

Covers the PR's acceptance criteria: trace contexts survive the queue
and worker-thread boundary, batched requests keep distinct ids and
non-aliasing ledgers, stage attribution reconciles with end-to-end
latency, the flight recorder stays bounded under overload, and a
deliberately slowed kernel shows up as kernel time rather than queue
time.
"""

import time

import pytest

from repro import obs
from repro.obs.rtrace import FlightRecorder
from repro.obs.slo import SLObjective, SLOTracker
from repro.serve.dispatch import Dispatcher
from repro.serve.service import InferenceService, ServeConfig


def _service(config=None, dispatcher=None, **kwargs):
    return InferenceService(dispatcher, config, **kwargs)


class _CrashingDispatcher(Dispatcher):
    def kernel(self, matrix, dense):
        raise RuntimeError("kernel exploded")


class _DelayedDispatcher(Dispatcher):
    def __init__(self, delay):
        self.delay = delay

    def kernel(self, matrix, dense):
        time.sleep(self.delay)
        return super().kernel(matrix, dense)


class TestTracePropagation:
    def test_response_carries_trace_and_attribution(
        self, small_power_law, rng
    ):
        dense = rng.random((small_power_law.n_cols, 8))
        with _service() as service:
            response = service.infer(small_power_law, dense, timeout=10.0)
        assert response.ok
        assert response.trace_id
        stages = response.attribution["stages"]
        assert "queue" in stages and "kernel" in stages

    def test_stage_sum_reconciles_with_latency(self, small_power_law, rng):
        dense = rng.random((small_power_law.n_cols, 8))
        with _service() as service:
            responses = [
                service.infer(small_power_law, dense, timeout=10.0)
                for _ in range(4)
            ]
        for response in responses:
            total = response.queue_seconds + response.service_seconds
            stage_sum = sum(response.attribution["stages"].values())
            assert stage_sum == pytest.approx(total, abs=1e-9)

    @pytest.mark.parametrize(
        "dispatcher, verify, stage",
        [(None, True, "verify"), (_CrashingDispatcher(), False, "fallback")],
        ids=["verify", "crashing-kernel"],
    )
    def test_ledger_reconciles_with_each_dispatch_stage(
        self, small_power_law, rng, dispatcher, verify, stage
    ):
        with _service(ServeConfig(verify=verify), dispatcher) as service:
            responses = [
                service.infer(
                    small_power_law,
                    rng.random((small_power_law.n_cols, 4)),
                    timeout=10.0,
                )
                for _ in range(3)
            ]
        for response in responses:
            assert response.ok
            stages = response.attribution["stages"]
            assert {"queue", "kernel", stage, "other"} <= set(stages)
            # A batch of one copies nothing out.
            assert "scatter" not in stages
            total = response.queue_seconds + response.service_seconds
            assert sum(stages.values()) == pytest.approx(total, abs=1e-9)

    def test_batched_copy_out_lands_in_scatter(
        self, small_power_law, rng, gated_dispatcher
    ):
        config = ServeConfig(max_batch=8, n_workers=1)
        dense = rng.random((small_power_law.n_cols, 4))
        with _service(config, gated_dispatcher) as service:
            responses = gated_dispatcher.backlog(
                service, [(small_power_law, dense)] * 4
            )
        for response in responses:
            assert response.batch_size == 4
            stages = response.attribution["stages"]
            assert {"queue", "kernel", "scatter", "other"} <= set(stages)
            total = response.queue_seconds + response.service_seconds
            assert sum(stages.values()) == pytest.approx(total, abs=1e-9)

    def test_batch_span_names_members_without_stage_spans(
        self, small_power_law, rng, gated_dispatcher
    ):
        config = ServeConfig(max_batch=8, n_workers=1)
        dense = rng.random((small_power_law.n_cols, 4))
        with obs.profiled() as session:
            with _service(config, gated_dispatcher) as service:
                responses = gated_dispatcher.backlog(
                    service, [(small_power_law, dense)] * 3
                )
        spans = [e for e in session.trace.events if e["ph"] == "X"]
        batches = [
            e["args"]["trace_ids"].split(",")
            for e in spans
            if e["name"] == "serve.service.batch"
        ]
        assert [r.trace_id for r in responses] in batches
        assert not [e for e in spans if e["name"].startswith("rtrace.")]

    def test_batched_requests_keep_distinct_ids_and_ledgers(
        self, small_power_law, rng, gated_dispatcher
    ):
        config = ServeConfig(max_batch=8, n_workers=1)
        dense = rng.random((small_power_law.n_cols, 8))
        with _service(config, gated_dispatcher) as service:
            # Six same-key requests queue behind a held blocker and
            # share one batch once it frees the worker.
            responses = gated_dispatcher.backlog(
                service, [(small_power_law, dense)] * 6
            )
        assert [r.batch_size for r in responses] == [6] * 6
        ids = [r.trace_id for r in responses]
        assert len(set(ids)) == len(ids)
        # Ledgers never alias: per-request queue waits differ even when
        # the batch shares one kernel execution, and mutating one dict
        # cannot touch another's.
        ledgers = [r.attribution for r in responses]
        for i, ledger in enumerate(ledgers):
            ledger["stages"][f"probe_{i}"] = float(i)
        for i, ledger in enumerate(ledgers):
            probes = [k for k in ledger["stages"] if k.startswith("probe_")]
            assert probes == [f"probe_{i}"]

    def test_deadline_shed_attributed_to_queue(self, small_power_law, rng):
        config = ServeConfig(max_batch=1, n_workers=1)
        dispatcher = _DelayedDispatcher(0.05)
        recorder = FlightRecorder()
        with _service(config, dispatcher, flight_recorder=recorder) as service:
            blocker = service.submit(
                small_power_law, rng.random((small_power_law.n_cols, 4))
            )
            shed = [
                service.submit(
                    small_power_law,
                    rng.random((small_power_law.n_cols, 4)),
                    deadline_ms=5.0,
                )
                for _ in range(3)
            ]
            responses = [f.result(timeout=10.0) for f in shed]
            blocker.result(timeout=10.0)
        expired = [r for r in responses if r.deadline_exceeded]
        assert expired
        for response in expired:
            stages = response.attribution["stages"]
            assert stages["queue"] > 0.0
            assert "kernel" not in stages
        # Shed requests land in the failure ring with their ledgers.
        failures = recorder.failures()
        assert any(f["status"] == "deadline_exceeded" for f in failures)

    def test_rejected_requests_recorded_without_trace(
        self, small_power_law, rng
    ):
        config = ServeConfig(
            max_queue=1, max_batch=1, n_workers=1
        )
        dispatcher = _DelayedDispatcher(0.05)
        recorder = FlightRecorder()
        slo = SLOTracker()
        with _service(
            config, dispatcher, flight_recorder=recorder, slo_tracker=slo
        ) as service:
            futures = [
                service.submit(
                    small_power_law,
                    rng.random((small_power_law.n_cols, 4)),
                    route="hot",
                )
                for _ in range(12)
            ]
            responses = [f.result(timeout=10.0) for f in futures]
        rejected = [r for r in responses if r.rejected]
        assert rejected
        recorded = {f["status"] for f in recorder.failures()}
        assert "rejected" in recorded
        # Sheds burn the route's error budget.
        assert slo.route_report("hot")["violations"] >= len(rejected)


class TestSlowBackendAttribution:
    def test_slow_backend_blames_kernel_not_queue(
        self, small_power_law, rng
    ):
        config = ServeConfig(max_batch=1, n_workers=1)
        dispatcher = _DelayedDispatcher(0.04)
        recorder = FlightRecorder(capacity=4)
        with _service(config, dispatcher, flight_recorder=recorder) as service:
            for _ in range(3):  # closed loop: queue wait stays negligible
                response = service.infer(
                    small_power_law,
                    rng.random((small_power_law.n_cols, 4)),
                    timeout=10.0,
                )
                assert response.ok
        slowest = recorder.slowest(1)[0]
        assert slowest["stages"]["kernel"] >= 0.02
        assert slowest["stages"]["kernel"] > slowest["stages"].get(
            "queue", 0.0
        )


class TestFlightRecorderUnderLoad:
    def test_bounded_under_overload(self, small_power_law, rng):
        config = ServeConfig(
            max_queue=4, max_batch=2, n_workers=1
        )
        recorder = FlightRecorder(capacity=4, failed_capacity=4)
        with _service(config, flight_recorder=recorder) as service:
            futures = [
                service.submit(
                    small_power_law, rng.random((small_power_law.n_cols, 4))
                )
                for _ in range(64)
            ]
            for future in futures:
                future.result(timeout=30.0)
        assert recorder.recorded == 64
        assert len(recorder) <= 8


class TestSloWiring:
    def test_routes_fed_per_request(self, small_power_law, rng):
        slo = SLOTracker(
            default_objective=SLObjective(threshold_ms=60_000.0)
        )
        with _service(slo_tracker=slo) as service:
            for route in ("a", "b", "a"):
                service.infer(
                    small_power_law,
                    rng.random((small_power_law.n_cols, 4)),
                    timeout=10.0,
                    route=route,
                )
        assert slo.route_report("a")["samples"] == 2
        assert slo.route_report("b")["samples"] == 1

    def test_health_surfaces_slo_exhaustion(self, small_power_law, rng):
        # A 1e-4 ms threshold every request violates -> budget exhausted
        # -> DEGRADED with the slo cause once enough samples exist.
        slo = SLOTracker(
            default_objective=SLObjective(threshold_ms=1e-4, window=64)
        )
        with _service(slo_tracker=slo) as service:
            for _ in range(20):
                service.infer(
                    small_power_law,
                    rng.random((small_power_law.n_cols, 4)),
                    timeout=10.0,
                )
            report = service.health()
        assert report.status == "degraded"
        assert any(c.kind == "slo-budget-exhausted" for c in report.causes)

    def test_worker_crash_finalizes_traces(self, small_power_law, rng):
        from repro.resilience import faults

        recorder = FlightRecorder()
        config = ServeConfig(
            max_batch=1, n_workers=1, restart_budget=3
        )
        with _service(config, flight_recorder=recorder) as service:
            with faults.inject(seed=0, crash_worker=1.0):
                response = service.submit(
                    small_power_law, rng.random((small_power_law.n_cols, 4))
                ).result(timeout=10.0)
        assert response.status == "error"
        assert response.trace_id
        stages = response.attribution["stages"]
        # Never-executed work reconciles through queue + other.
        assert set(stages) <= {"queue", "other"}
        assert any(
            f["status"] == "error" for f in recorder.failures()
        )
