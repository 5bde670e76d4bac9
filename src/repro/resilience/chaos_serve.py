"""The *serving* chaos matrix behind ``python -m repro chaos-serve``.

PR 2's chaos matrix (:mod:`repro.resilience.chaos`) stops at the
executor boundary; this one injects faults into a **live**
:class:`~repro.serve.service.InferenceService` under Poisson load and
checks the failure-domain guards end to end:

* **worker-thread crashes** (injected through
  :class:`~repro.resilience.faults.FaultPlan` ``crash_worker``, outside
  the per-batch error handler) must fail the in-flight batch cleanly —
  an ``error`` response, never a hung future — and the supervisor must
  restart the worker so traffic keeps flowing;
* **a corrupting kernel** (one mantissa bit flipped per output, injected
  through ``InferenceService(dispatcher=...)``) must degrade to the
  verified fallback with every accepted output still matching the
  independent reference;
* **corrupted request matrices** (NaN values) must produce a detected
  ``error`` response, never an accepted wrong product;
* **expired deadlines** must be shed with ``deadline_exceeded`` *before*
  execution — a shed request never reaches the kernel;
* a **deliberately slowed kernel** must be localized by the request
  traces (:mod:`repro.obs.rtrace`): the flight recorder's slowest trace
  must attribute the delay to the ``kernel`` stage, not the queue.

Every accepted response in every scenario is cross-checked against
:func:`~repro.resilience.oracles.reference_spmm`; any mismatch or
missed guard is a ``SILENT`` case.  Exit status 0 requires zero silent
cases *and* the demonstrations the guards exist for: at least one
worker restart and one deadline shed.  The run writes a
``BENCH_chaos_serve.json`` run record.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.obs import rtrace
from repro.formats import CSRMatrix
from repro.graphs.generators import power_law_graph
from repro.resilience import corruption, faults
from repro.resilience.chaos import (
    DETECTED,
    RECOVERED,
    SILENT,
    ChaosCase,
)
from repro.resilience.oracles import reference_spmm
from repro.serve.dispatch import Dispatcher
from repro.serve.health import HEALTHY, HealthPolicy
from repro.serve.service import InferenceService, ServeConfig

_DIM = 8
_KIND = "serving"


@dataclass
class ServeChaosReport:
    """Aggregate result of one live-service injection run."""

    seed: int
    cases: "list[ChaosCase]" = field(default_factory=list)
    worker_restarts: int = 0
    deadline_shed: int = 0
    verified_responses: int = 0
    slow_kernel_traces: int = 0

    @property
    def silent(self) -> "list[ChaosCase]":
        return [c for c in self.cases if not c.caught]

    @property
    def coverage(self) -> float:
        if not self.cases:
            return 1.0
        return (len(self.cases) - len(self.silent)) / len(self.cases)

    @property
    def passed(self) -> bool:
        """Zero silent cases *and* every guard demonstrably exercised."""
        return (
            not self.silent
            and self.worker_restarts >= 1
            and self.deadline_shed >= 1
        )

    def to_dict(self) -> dict:
        outcomes: "dict[str, int]" = {}
        for case in self.cases:
            outcomes[case.outcome] = outcomes.get(case.outcome, 0) + 1
        return {
            "seed": self.seed,
            "n_cases": len(self.cases),
            "coverage": self.coverage,
            "passed": self.passed,
            "outcomes": outcomes,
            "demonstrations": {
                "worker_restarts": self.worker_restarts,
                "deadline_shed": self.deadline_shed,
                "verified_responses": self.verified_responses,
                "slow_kernel_traces": self.slow_kernel_traces,
            },
            "cases": [c.to_dict() for c in self.cases],
        }

    def render(self) -> str:
        lines = [
            f"serving chaos matrix (seed={self.seed}): "
            f"{len(self.cases)} cases"
        ]
        width = max(len(c.name) for c in self.cases) if self.cases else 0
        for case in self.cases:
            lines.append(
                f"  {case.name:<{width}}  [{case.expected_layer:<10}] "
                f"-> {case.outcome}"
                + (f"  ({case.detail})" if case.detail and not case.caught else "")
            )
        lines.append(
            f"detection coverage: {self.coverage:.0%} "
            f"({len(self.cases) - len(self.silent)}/{len(self.cases)} caught)"
        )
        lines.append(
            f"demonstrated: {self.worker_restarts} worker restart(s), "
            f"{self.deadline_shed} deadline shed(s), "
            f"{self.verified_responses} responses verified"
        )
        if self.silent:
            lines.append(
                "SILENT failures: " + ", ".join(c.name for c in self.silent)
            )
        return "\n".join(lines)


class _CountingDispatcher(Dispatcher):
    """A dispatcher whose kernel counts its calls and can be slowed."""

    backend = "counting"

    def __init__(self, delay: float = 0.0) -> None:
        self.delay = delay
        self._lock = threading.Lock()
        self.calls = 0

    def kernel(self, matrix, dense):
        with self._lock:
            self.calls += 1
        if self.delay:
            time.sleep(self.delay)
        return super().kernel(matrix, dense)


class _BitFlipDispatcher(Dispatcher):
    """A dispatcher whose kernel flips one mantissa bit of every output."""

    backend = "bitflip"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.flips = 0

    def kernel(self, matrix, dense):
        output = super().kernel(matrix, dense)
        if output.size:
            faults.flip_mantissa_bit(output, int(np.argmax(np.abs(output))))
            with self._lock:
                self.flips += 1
        return output


def _base_matrix(seed: int) -> CSRMatrix:
    return power_law_graph(n_nodes=60, nnz=360, max_degree=16, seed=seed)


def _poisson_submit(
    service: InferenceService,
    matrix: CSRMatrix,
    rng: np.random.Generator,
    count: int,
    rate: float,
    deadline_ms: "float | None" = None,
):
    """Open-loop Poisson arrivals; returns ``(dense, future)`` pairs."""
    inflight = []
    for _ in range(count):
        dense = rng.random((matrix.n_cols, _DIM))
        inflight.append(
            (dense, service.submit(matrix, dense, deadline_ms=deadline_ms))
        )
        time.sleep(rng.exponential(1.0 / rate))
    return inflight


def _check_ok_outputs(
    report: ServeChaosReport,
    matrix: CSRMatrix,
    entries,
    name: str,
) -> "list[str]":
    """Verify every accepted response against the independent reference."""
    problems = []
    for dense, future in entries:
        response = future.result(timeout=30.0)
        if response.ok:
            report.verified_responses += 1
            if not np.allclose(
                response.output, reference_spmm(matrix, dense),
                rtol=1e-9, atol=1e-9,
            ):
                problems.append(
                    f"{name}: accepted output for request "
                    f"{response.request_id} disagrees with the reference"
                )
    return problems


def _wait_for(predicate, timeout: float = 5.0, interval: float = 0.01) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def _run_worker_crash_scenario(
    report: ServeChaosReport, seed: int, rng: np.random.Generator, rate: float
) -> None:
    """An injected worker-thread crash: clean batch failure + restart."""
    matrix = _base_matrix(seed + 1)
    dispatcher = _CountingDispatcher()
    config = ServeConfig(
        max_queue=64, max_batch=1, n_workers=1,
        restart_budget=3,
    )
    problems: "list[str]" = []
    with InferenceService(dispatcher, config) as service:
        with faults.inject(seed=seed, crash_worker=1.0) as plan:
            dense = rng.random((matrix.n_cols, _DIM))
            response = service.submit(matrix, dense).result(timeout=30.0)
        if plan.total_injected == 0:
            report.cases.append(
                ChaosCase(
                    "worker-crash/batch-fails-cleanly", _KIND, "supervisor",
                    SILENT, "fault plan injected nothing",
                )
            )
        elif response.status == "error" and "worker crashed" in (
            response.error or ""
        ):
            report.cases.append(
                ChaosCase(
                    "worker-crash/batch-fails-cleanly", _KIND, "supervisor",
                    DETECTED, response.error,
                )
            )
        else:
            report.cases.append(
                ChaosCase(
                    "worker-crash/batch-fails-cleanly", _KIND, "supervisor",
                    SILENT,
                    f"crashed batch resolved as {response.status!r} "
                    f"({response.error})",
                )
            )

        assert service._supervisor is not None
        restarted = _wait_for(
            lambda: service._supervisor.restarts >= 1
            and service._supervisor.alive_count() >= 1,
            timeout=5.0,
        )
        # The respawned worker must serve real traffic again, and with
        # the crash outside the recency window the service is HEALTHY.
        entries = _poisson_submit(service, matrix, rng, 4, rate)
        problems += _check_ok_outputs(report, matrix, entries, "post-restart")
        served = sum(
            1 for _, f in entries if f.result(timeout=30.0).ok
        )
        time.sleep(0.25)
        health = service.health(HealthPolicy(crash_recent_seconds=0.2))
        if restarted and served == 4 and health.status == HEALTHY:
            report.worker_restarts += service._supervisor.restarts
            report.cases.append(
                ChaosCase(
                    "worker-crash/supervisor-restarts", _KIND, "supervisor",
                    RECOVERED,
                    f"{service._supervisor.restarts} restart(s), "
                    f"{served}/4 served after respawn, health={health.status}",
                )
            )
        else:
            report.cases.append(
                ChaosCase(
                    "worker-crash/supervisor-restarts", _KIND, "supervisor",
                    SILENT,
                    f"restarted={restarted} served={served}/4 "
                    f"health={health.status}",
                )
            )
    if problems:
        report.cases.append(
            ChaosCase(
                "worker-crash/outputs", _KIND, "oracle", SILENT,
                "; ".join(problems),
            )
        )


def _run_executor_fault_scenario(
    report: ServeChaosReport, seed: int, rng: np.random.Generator, rate: float
) -> None:
    """A bit-flipping kernel under live load: verified fallback only."""
    matrix = _base_matrix(seed + 2)
    dispatcher = _BitFlipDispatcher()
    config = ServeConfig(max_queue=64, max_batch=2, n_workers=1, verify=True)
    with InferenceService(dispatcher, config) as service:
        entries = _poisson_submit(service, matrix, rng, 6, rate)
        responses = [f.result(timeout=30.0) for _, f in entries]
    fallbacks = sum(1 for r in responses if r.ok and r.fallback_used)
    mismatches = []
    for (dense, _), response in zip(entries, responses):
        if response.ok:
            report.verified_responses += 1
            if not np.allclose(
                response.output, reference_spmm(matrix, dense),
                rtol=1e-9, atol=1e-9,
            ):
                mismatches.append(response.request_id)
    if dispatcher.flips == 0:
        outcome, detail = SILENT, "the kernel flipped nothing"
    elif mismatches:
        outcome, detail = SILENT, f"wrong outputs accepted: {mismatches}"
    elif fallbacks == 0:
        outcome, detail = (
            SILENT,
            f"{dispatcher.flips} bit flips injected, no fallback engaged",
        )
    else:
        outcome = RECOVERED
        detail = (
            f"{dispatcher.flips} bit flips injected, {fallbacks}/"
            f"{len(responses)} responses degraded to the verified fallback"
        )
    report.cases.append(
        ChaosCase("bitflip/verified-fallback", _KIND, "oracle", outcome, detail)
    )


def _run_corrupt_matrix_scenario(
    report: ServeChaosReport, seed: int, rng: np.random.Generator
) -> None:
    """A NaN-valued request matrix must come back as a detected error."""
    corrupted = corruption.nan_values(_base_matrix(seed + 3), rng)
    matrix = corrupted.as_matrix()
    config = ServeConfig(max_queue=8, max_batch=1, n_workers=1, verify=True)
    with InferenceService(config=config) as service:
        dense = rng.random((matrix.n_cols, _DIM))
        response = service.submit(matrix, dense).result(timeout=30.0)
    if response.ok:
        report.cases.append(
            ChaosCase(
                "corrupt-matrix/nan-values", _KIND, "oracle", SILENT,
                f"NaN-valued matrix served as ok via {response.backend}",
            )
        )
    else:
        report.cases.append(
            ChaosCase(
                "corrupt-matrix/nan-values", _KIND, "oracle", DETECTED,
                f"{response.status}: {response.error}",
            )
        )


def _run_deadline_scenario(
    report: ServeChaosReport, seed: int, rng: np.random.Generator
) -> None:
    """Expired deadlines are shed pre-execution, never reach the kernel."""
    matrix = _base_matrix(seed + 4)
    slow = _CountingDispatcher(delay=0.08)
    config = ServeConfig(max_queue=64, max_batch=1, n_workers=1)
    with InferenceService(slow, config) as service:
        # One undeadlined request pins the single worker ...
        blocker = service.submit(matrix, rng.random((matrix.n_cols, _DIM)))
        # ... while tightly-deadlined requests expire in the queue.
        entries = [
            (dense, service.submit(matrix, dense, deadline_ms=10.0))
            for dense in (rng.random((matrix.n_cols, _DIM)) for _ in range(4))
        ]
        blocker_response = blocker.result(timeout=30.0)
        responses = [f.result(timeout=30.0) for _, f in entries]
    shed = [r for r in responses if r.deadline_exceeded]
    executed = slow.calls
    problems = []
    if not blocker_response.ok:
        problems.append(f"blocker request failed: {blocker_response.error}")
    if not shed:
        problems.append("no request was shed past its deadline")
    if any(r.output is not None for r in shed):
        problems.append("a shed response carried an output")
    # Only the blocker and any requests served before expiry may have
    # reached the kernel; shed requests must not appear in the call count.
    if executed > 1 + (len(responses) - len(shed)):
        problems.append(
            f"kernel executed {executed} call(s) for "
            f"{1 + len(responses) - len(shed)} non-shed request(s)"
        )
    report.deadline_shed += len(shed)
    if problems:
        report.cases.append(
            ChaosCase(
                "expired-deadline/shed-before-execution", _KIND, "deadline",
                SILENT, "; ".join(problems),
            )
        )
    else:
        report.cases.append(
            ChaosCase(
                "expired-deadline/shed-before-execution", _KIND, "deadline",
                DETECTED,
                f"{len(shed)}/4 shed unexecuted "
                f"({executed} kernel call(s) total)",
            )
        )


def _run_slow_kernel_scenario(
    report: ServeChaosReport, seed: int, rng: np.random.Generator
) -> None:
    """A slowed kernel must surface as *kernel*-stage time, not queue.

    Submits closed-loop (one in flight at a time) so queue wait is
    negligible, then checks the flight recorder's slowest retained
    trace: the injected kernel delay must land in the ``kernel`` stage
    of the attribution ledger.  This is the regression the latency
    attribution exists to localize — without per-stage ledgers a slow
    kernel and a saturated queue are indistinguishable in p95.
    """
    matrix = _base_matrix(seed + 5)
    delay = 0.05
    slow = _CountingDispatcher(delay=delay)
    config = ServeConfig(max_queue=16, max_batch=1, n_workers=1)
    recorder = rtrace.FlightRecorder(capacity=8)
    problems: "list[str]" = []
    with InferenceService(
        slow, config, flight_recorder=recorder
    ) as service:
        for _ in range(4):
            dense = rng.random((matrix.n_cols, _DIM))
            response = service.submit(matrix, dense).result(timeout=30.0)
            if response.ok:
                report.verified_responses += 1
                if not np.allclose(
                    response.output, reference_spmm(matrix, dense),
                    rtol=1e-9, atol=1e-9,
                ):
                    problems.append(
                        f"request {response.request_id} output disagrees "
                        "with the reference"
                    )
            else:
                problems.append(
                    f"request {response.request_id} failed: {response.error}"
                )
    slowest = recorder.slowest(1)
    if not slowest:
        problems.append("flight recorder retained no completed trace")
    else:
        stages = slowest[0]["stages"]
        kernel = stages.get("kernel", 0.0)
        queue = stages.get("queue", 0.0)
        report.slow_kernel_traces += sum(
            1
            for trace in recorder.slowest()
            if trace["stages"].get("kernel", 0.0)
            > trace["stages"].get("queue", 0.0)
        )
        if kernel < delay * 0.5:
            problems.append(
                f"slowest trace attributes only {kernel * 1e3:.1f} ms to "
                f"the kernel stage despite a {delay * 1e3:.0f} ms kernel "
                "delay"
            )
        elif kernel <= queue:
            problems.append(
                f"slowest trace blames the queue ({queue * 1e3:.1f} ms) "
                f"over the kernel ({kernel * 1e3:.1f} ms)"
            )
    if problems:
        report.cases.append(
            ChaosCase(
                "slow-kernel/kernel-stage-attribution", _KIND, "rtrace",
                SILENT, "; ".join(problems),
            )
        )
    else:
        stages = slowest[0]["stages"]
        report.cases.append(
            ChaosCase(
                "slow-kernel/kernel-stage-attribution", _KIND, "rtrace",
                DETECTED,
                f"kernel={stages.get('kernel', 0.0) * 1e3:.1f} ms > "
                f"queue={stages.get('queue', 0.0) * 1e3:.1f} ms in the "
                f"slowest of {recorder.recorded} recorded trace(s)",
            )
        )


def run_serve_chaos(seed: int = 0, rate: float = 200.0) -> ServeChaosReport:
    """Run every serving chaos scenario with a deterministic seed."""
    report = ServeChaosReport(seed=seed)
    rng = np.random.default_rng(seed)
    with obs.span("resilience.chaos_serve.run", seed=seed):
        _run_worker_crash_scenario(report, seed, rng, rate)
        _run_executor_fault_scenario(report, seed, rng, rate)
        _run_corrupt_matrix_scenario(report, seed, rng)
        _run_deadline_scenario(report, seed, rng)
        _run_slow_kernel_scenario(report, seed, rng)
    obs.counter("resilience.chaos_serve.runs").inc()
    obs.gauge("resilience.chaos_serve.coverage").set(report.coverage)
    obs.counter("resilience.chaos_serve.silent_cases").inc(len(report.silent))
    return report


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point for ``python -m repro chaos-serve``."""
    parser = argparse.ArgumentParser(
        prog="repro chaos-serve",
        description=(
            "Inject faults into a live serving stack under Poisson load "
            "and verify the failure-domain guards (supervisor, verified "
            "fallback, deadlines, oracles) catch every one."
        ),
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="injection seed (default: 0)"
    )
    parser.add_argument(
        "--rate", type=float, default=200.0,
        help="Poisson arrival rate in requests/second (default: 200)",
    )
    parser.add_argument(
        "--bench-dir",
        default=None,
        help="run-record directory (default: benchmarks/results)",
    )
    parser.add_argument(
        "--json-out",
        default=None,
        help="also write the full report as JSON to this path",
    )
    parser.add_argument(
        "--no-record",
        action="store_true",
        help="skip writing the BENCH_chaos_serve.json run record",
    )
    args = parser.parse_args(argv)

    with obs.profiled() as session:
        report = run_serve_chaos(seed=args.seed, rate=args.rate)
    print(report.render())

    if not args.no_record:
        record = obs.run_record(
            "chaos_serve",
            metrics=session.snapshot(),
            wall_seconds=session.wall_seconds,
            status="ok" if report.passed else "silent-failures",
            extra={"chaos_serve": report.to_dict()},
        )
        path = obs.write_run_record(record, args.bench_dir)
        print(f"run record: {path}")
    if args.json_out:
        from repro.formats.io import atomic_write_text

        atomic_write_text(
            args.json_out,
            json.dumps(report.to_dict(), indent=1) + "\n",
            encoding="utf-8",
        )
        print(f"report: {args.json_out}")
    return 0 if report.passed else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
