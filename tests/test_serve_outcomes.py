"""Every terminal outcome of a request, held to one contract.

Each case drives one request (route ``"probe"``) to one outcome on an
epoch-managed service and checks what every outcome owes: its status,
trace id, batch size, a ledger whose stage sum reconciles with
``sample + queue_seconds + service_seconds``, one SLO sample with the
right ``ok``, one flight-recorder entry that matches the response, a
deadline-miss window entry that is true only for a deadline outcome (and
absent for a refusal), and a released epoch lease.
"""

import threading
import time

import numpy as np
import pytest

from repro.graphs import power_law_graph
from repro.obs.rtrace import FlightRecorder
from repro.obs.slo import SLObjective, SLOTracker
from repro.resilience import faults
from repro.serve.dispatch import Dispatcher
from repro.serve.epoch import GraphEpochManager
from repro.serve.procpool import ProcPoolConfig
from repro.serve.service import (
    DEADLINE_EXCEEDED,
    ERROR,
    OK,
    QUARANTINED,
    REJECTED,
    WORKER_CRASHED,
    InferenceService,
    ServeConfig,
)

REFUSALS = (REJECTED, QUARANTINED)


class _HeldDispatcher(Dispatcher):
    """Holds each kernel call until :attr:`release` is set."""

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()

    def kernel(self, matrix, dense):
        self.entered.set()
        assert self.release.wait(timeout=30.0), "kernel never released"
        return super().kernel(matrix, dense)


class _Probe:
    """One scenario's service, graph, SLO tracker and flight recorder."""

    def __init__(self):
        self.graph = power_law_graph(n_nodes=200, nnz=1_200, max_degree=40, seed=1)
        self.manager = GraphEpochManager(self.graph)
        self.slo = SLOTracker(
            default_objective=SLObjective(threshold_ms=600_000.0)
        )
        self.recorder = FlightRecorder(capacity=64, failed_capacity=64)
        self.service = None

    def dense(self, seed=0):
        return np.random.default_rng(seed).random((self.graph.n_cols, 3))

    def start(self, config=None, dispatcher=None, **kwargs):
        self.service = InferenceService(
            dispatcher,
            config,
            slo_tracker=self.slo,
            flight_recorder=self.recorder,
            epoch_manager=self.manager,
            **kwargs,
        )
        return self.service.start()

    def submit(self, route="default", seed=0, **kwargs):
        return self.service.submit(None, self.dense(seed), route=route, **kwargs)


def _held(probe, config):
    """A one-worker service whose worker is parked on a blocker."""
    dispatcher = _HeldDispatcher()
    service = probe.start(config, dispatcher)
    blocker = probe.submit()
    assert dispatcher.entered.wait(timeout=30.0)
    return service, dispatcher, blocker


def _ok_alone(probe):
    with probe.start():
        return probe.submit("probe").result(timeout=30.0), []


def _ok_batched(probe):
    service, dispatcher, blocker = _held(
        probe, ServeConfig(n_workers=1, max_batch=8)
    )
    with service:
        futures = [probe.submit(r) for r in ("default", "probe", "default")]
        dispatcher.release.set()
        responses = [f.result(timeout=30.0) for f in futures]
        others = [blocker.result(timeout=30.0), responses[0], responses[2]]
    return responses[1], others


def _ok_ego(probe):
    with probe.start() as service:
        submission = service.submit_ego(
            3, probe.dense(), rng=np.random.default_rng(5), route="probe"
        )
        return submission.result(timeout=30.0), []


def _request_timeout(probe):
    dispatcher = _HeldDispatcher()
    try:
        with probe.start(
            ServeConfig(n_workers=1, request_timeout=0.05), dispatcher
        ):
            return probe.submit("probe").result(timeout=30.0), []
    finally:
        dispatcher.release.set()


def _shed_in_queue(probe):
    service, dispatcher, blocker = _held(probe, ServeConfig(n_workers=1))
    with service:
        future = probe.submit("probe", deadline_ms=5.0)
        time.sleep(0.05)
        dispatcher.release.set()
        return future.result(timeout=30.0), [blocker.result(timeout=30.0)]


def _cut_off_mid_kernel(probe):
    dispatcher = _HeldDispatcher()
    try:
        with probe.start(ServeConfig(n_workers=1), dispatcher):
            # Long enough that the worker starts the batch before the
            # deadline even on a loaded host.
            return probe.submit("probe", deadline_ms=300.0).result(
                timeout=30.0
            ), []
    finally:
        dispatcher.release.set()


def _rejected(probe):
    service, dispatcher, blocker = _held(
        probe, ServeConfig(n_workers=1, max_queue=1)
    )
    with service:
        queued = probe.submit()
        target = probe.submit("probe").result(timeout=30.0)
        dispatcher.release.set()
        others = [blocker.result(timeout=30.0), queued.result(timeout=30.0)]
    return target, others


def _worker_thread_crash(probe):
    with probe.start(ServeConfig(n_workers=1, max_batch=1)):
        with faults.inject(seed=0, crash_worker=1.0):
            return probe.submit("probe").result(timeout=30.0), []


def _process_service(probe):
    return probe.start(
        ServeConfig(isolation="process", n_workers=1),
        proc_config=ProcPoolConfig(
            n_workers=1,
            heartbeat_interval=0.02,
            heartbeat_timeout=2.0,
            hang_timeout=10.0,
        ),
    )


def _worker_crashed(probe):
    with _process_service(probe):
        with faults.inject(seed=0, crash_proc=1.0):
            return probe.submit("probe").result(timeout=30.0), []


def _quarantined(probe):
    with _process_service(probe):
        with faults.inject(seed=0, crash_proc=1.0):
            others = [probe.submit().result(timeout=30.0) for _ in range(2)]
        return probe.submit("probe").result(timeout=30.0), others


# (scenario, status, batch_size)
CASES = {
    "ok-alone": (_ok_alone, OK, 1),
    "ok-batched": (_ok_batched, OK, 3),
    "ok-ego": (_ok_ego, OK, 1),
    "error-request-timeout": (_request_timeout, ERROR, 1),
    "deadline-shed-in-queue": (_shed_in_queue, DEADLINE_EXCEEDED, 0),
    "deadline-cut-off-mid-kernel": (_cut_off_mid_kernel, DEADLINE_EXCEEDED, 1),
    "rejected": (_rejected, REJECTED, 0),
    "worker-thread-crash": (_worker_thread_crash, ERROR, 1),
    "process-worker-crashed": (_worker_crashed, WORKER_CRASHED, 1),
    "process-quarantined": (_quarantined, QUARANTINED, 0),
}


@pytest.mark.parametrize("case", list(CASES))
def test_every_outcome_keeps_the_contract(case):
    scenario, status, batch_size = CASES[case]
    probe = _Probe()
    response, others = scenario(probe)
    refused = status in REFUSALS

    assert response.status == status, response.error
    assert response.batch_size == batch_size
    assert (response.error is None) == (status == OK)
    assert (response.output is None) == (status != OK)
    if refused:
        assert response.trace_id is None
        assert response.attribution is None
        assert response.epoch is None
        assert response.queue_seconds == response.service_seconds == 0.0
    else:
        assert response.trace_id
        assert response.epoch == probe.manager.stats()["current_epoch"]
        stages = response.attribution["stages"]
        assert {"queue", "other"} <= set(stages)
        assert sum(stages.values()) == pytest.approx(
            response.queue_seconds
            + response.service_seconds
            + stages.get("sample", 0.0),
            abs=1e-9,
        )

    # One SLO sample with the right ok.
    slo = probe.slo.route_report("probe")
    assert slo["samples"] == 1
    assert slo["violations"] == (0 if status == OK else 1)
    if status == OK:
        assert slo["observed_ms"]["p50"] == pytest.approx(
            sum(response.attribution["stages"].values()) * 1e3
        )

    # One flight-recorder entry, matching the response.
    entries = [
        entry
        for entry in probe.recorder.slowest() + probe.recorder.failures()
        if entry["request_id"] == response.request_id
    ]
    assert len(entries) == 1
    entry = entries[0]
    if refused:
        assert entry == {
            "trace_id": None,
            "request_id": response.request_id,
            "route": "probe",
            "status": status,
            "total_seconds": 0.0,
            "stages": {},
            "events": {},
            "error": response.error,
        }
    else:
        assert entry["trace_id"] == response.trace_id
        assert entry["route"] == "probe"
        assert entry["status"] == status
        assert entry["stages"] == response.attribution["stages"]
        assert entry["total_seconds"] == pytest.approx(
            sum(entry["stages"].values())
        )
        if status == OK:
            assert entry["backend"] == response.backend
            assert entry["fallback_used"] == response.fallback_used
            assert entry["batch_size"] == response.batch_size
            assert "error" not in entry
        else:
            assert entry["error"] == response.error

    # The miss window holds one entry per admitted request, true only for
    # a deadline outcome; a refusal takes none.
    admitted = [r for r in [response, *others] if r.trace_id is not None]
    window = probe.service.health().snapshot["deadline"]
    assert window["window"] == len(admitted)
    assert window["misses"] == sum(
        r.status == DEADLINE_EXCEEDED for r in admitted
    )
    assert all(r.status != DEADLINE_EXCEEDED for r in others)

    # Every lease drained, the probe's included.
    assert probe.manager.stats()["leases"] == 0
