"""The chaos matrix behind ``python -m repro chaos``.

One table, :data:`SCENARIOS`, holds every fault the stack claims to
contain.  Each row names its tier, the fault it injects, the workload
it injects the fault into, and the layer expected to contain each case
it reports:

* ``kernel`` — every :data:`~repro.resilience.corruption.CORRUPTIONS`
  class against its declared detection layer (plain validation, strict
  validation, or the output oracle via
  :func:`~repro.resilience.oracles.verified_spmm`); dropped atomics,
  bit-flipped accumulators and a failing unit in both SpMM executors,
  the GPU timing model and the multicore simulator; and every
  :data:`~repro.resilience.corruption.DEGENERATES` graph through the
  verified executor and all baselines;
* ``thread`` — a live :class:`~repro.serve.service.InferenceService`
  under Poisson load: a crashed worker thread (clean batch failure,
  supervisor restart), a bit-flipping kernel (verified fallback), a
  NaN-valued request matrix, expired deadlines (shed before execution)
  and a slowed kernel (blamed on the ``kernel`` trace stage, not the
  queue);
* ``update`` — live edge updates behind a
  :class:`~repro.serve.epoch.GraphEpochManager`: updates racing
  requests mid-batch, retirement dropping exactly the retired epoch's
  cache keys, and epoch-lag / compaction-backlog health;
* ``process`` — ``isolation="process"`` workers SIGKILLed mid-batch,
  busy-looping, SIGSTOPped, ballooning their RSS, killed by a poison
  request, a torn shared-memory segment, and a pool whose restart
  budget is spent.

Every accepted output goes through one oracle,
:func:`~repro.resilience.oracles.reference_spmm`, on the matrix of the
response's admitted epoch, or on the request's matrix when no epoch
manager runs.  A disagreement, a missed guard or a response that never
arrives is a ``SILENT`` case.  Every row draws its inputs from the
run's seed alone, so they do not depend on which rows ran before it.

Exit status 0 requires zero silent cases and every demonstration in
:data:`MINIMUMS` — proof that each guard actually fired — with zero
graph bytes copied per request and no process row whose pool
sent or received a pipe message over 4 KiB (operands and products
travel through shared memory).  The run appends a ``BENCH_chaos.json``
run record.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable

import numpy as np

from repro import obs
from repro.core import ScheduleCache
from repro.formats import CSRMatrix
from repro.formats.validation import validate_csr
from repro.graphs.delta import DeltaCSR, UpdatePlanner
from repro.graphs.generators import power_law_graph
from repro.obs import rtrace
from repro.resilience import corruption, faults, oracles
from repro.resilience.oracles import reference_spmm
from repro.serve.dispatch import Dispatcher
from repro.serve.epoch import GraphEpochManager
from repro.serve.health import DEGRADED, HEALTHY, UNHEALTHY, HealthPolicy
from repro.serve.procpool import (
    QUARANTINED,
    WORKER_CRASHED,
    ProcPoolConfig,
    rss_bytes,
)
from repro.serve.service import InferenceService, ServeConfig

# Case outcomes, from best to worst.
REJECTED = "rejected"      # validation refused the input
DETECTED = "detected"      # a guard or oracle caught the fault
RECOVERED = "recovered"    # caught, then the stack served correctly again
OK = "ok"                  # valid input handled correctly
SILENT = "SILENT"          # the fault got through unchallenged

# Tiers, in table order.
KERNEL, THREAD, UPDATE, PROCESS = "kernel", "thread", "update", "process"
TIERS = (KERNEL, THREAD, UPDATE, PROCESS)

# Largest pipe message a pool may carry: an exec message is ~420 B, so
# anything past this limit means an array travelled the pipe.
_MESSAGE_LIMIT = 4 << 10

#: Demonstrations a passing run must leave at zero: graph bytes copied
#: per request, and process rows whose pool's largest pipe message
#: passed ``_MESSAGE_LIMIT``.
_MUST_BE_ZERO = ("per_request_graph_bytes_copied", "oversized_message_rows")

#: How often each guard must have demonstrably fired in a passing run.
MINIMUMS = {
    "worker_restarts": 1,
    "deadline_shed": 1,
    "slow_kernel_traces": 1,
    "retired_epochs": 1,
    "compactions": 1,
    "distinct_epochs": 2,
    "crash_contained": 1,
    "hang_reaps": 1,
    "heartbeat_reaps": 1,
    "rss_kills": 1,
    "memory_sheds": 1,
    "quarantines": 1,
    "segments_republished": 1,
    "pool_exhaustions": 1,
    "verified_responses": 1,
}

_DIM = 8
_RATE = 200.0          # Poisson request arrivals per second
_UPDATE_RATE = 80.0    # Poisson update batches per second
_MIB = 1 << 20


@dataclass
class ChaosCase:
    """One injected fault (or degenerate input) and its observed outcome."""

    name: str
    tier: str
    expected_layer: str
    outcome: str
    detail: str = ""

    @property
    def caught(self) -> bool:
        """Whether some layer rejected, detected or recovered the fault."""
        return self.outcome != SILENT

    def to_dict(self) -> dict:
        """JSON-ready form for run records."""
        return {
            "name": self.name,
            "tier": self.tier,
            "expected_layer": self.expected_layer,
            "outcome": self.outcome,
            "detail": self.detail,
        }


@dataclass
class ChaosReport:
    """Aggregate result of one run of the chaos table.

    Attributes:
        seed: The run's seed; every row derives its inputs from it.
        cases: Every reported case, in table order.
        demonstrations: How often each guard fired, summed over rows
            (see :data:`MINIMUMS`).
    """

    seed: int
    cases: "list[ChaosCase]" = field(default_factory=list)
    demonstrations: "Counter[str]" = field(default_factory=Counter)

    @property
    def silent(self) -> "list[ChaosCase]":
        """Cases no layer caught."""
        return [c for c in self.cases if not c.caught]

    @property
    def coverage(self) -> float:
        """Fraction of all cases caught (vacuously 1.0 with no cases)."""
        if not self.cases:
            return 1.0
        return (len(self.cases) - len(self.silent)) / len(self.cases)

    @property
    def missing(self) -> "list[str]":
        """Demonstrations below their minimum or above zero where they
        must stay at zero (:data:`_MUST_BE_ZERO`)."""
        missing = [
            f"{key} < {minimum}"
            for key, minimum in MINIMUMS.items()
            if self.demonstrations[key] < minimum
        ]
        for key in _MUST_BE_ZERO:
            if self.demonstrations[key]:
                missing.append(f"{key} > 0")
        return missing

    @property
    def passed(self) -> bool:
        """Zero silent cases and every demonstration at its minimum."""
        return not self.silent and not self.missing

    def _demonstrated(self) -> "dict[str, int]":
        keys = set(MINIMUMS) | set(self.demonstrations) | set(_MUST_BE_ZERO)
        return {key: self.demonstrations[key] for key in sorted(keys)}

    def to_dict(self) -> dict:
        """JSON-ready form for run records and CI assertions."""
        return {
            "seed": self.seed,
            "n_cases": len(self.cases),
            "coverage": self.coverage,
            "passed": self.passed,
            "outcomes": dict(Counter(case.outcome for case in self.cases)),
            "demonstrations": self._demonstrated(),
            "missing": self.missing,
            "cases": [c.to_dict() for c in self.cases],
        }

    def render(self) -> str:
        """Human-readable table for the console."""
        lines = [f"chaos matrix (seed={self.seed}): {len(self.cases)} cases"]
        width = max((len(c.name) for c in self.cases), default=0)
        for case in self.cases:
            lines.append(
                f"  {case.tier:<7} {case.name:<{width}}  "
                f"[{case.expected_layer:<10}] -> {case.outcome}"
                + (
                    f"  ({case.detail})"
                    if case.detail and not case.caught
                    else ""
                )
            )
        lines.append(
            f"detection coverage: {self.coverage:.0%} "
            f"({len(self.cases) - len(self.silent)}/{len(self.cases)} "
            "cases caught)"
        )
        lines.append(
            "demonstrated: "
            + ", ".join(
                f"{key}={value}" for key, value in self._demonstrated().items()
            )
        )
        if self.missing:
            lines.append("MISSING demonstrations: " + ", ".join(self.missing))
        if self.silent:
            lines.append(
                "SILENT failures: " + ", ".join(c.name for c in self.silent)
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class Scenario:
    """One row of the chaos table.

    Attributes:
        tier: Where the fault lands (one of :data:`TIERS`).
        fault: What is injected.
        workload: What the fault is injected into.
        cases: Each case the row reports, mapped to the layer expected
            to contain it.
        run: The scenario.  A one-case row returns its ``(outcome,
            detail)``; a row with more cases reports each through
            :meth:`_Run.case` and returns ``None``.
    """

    tier: str
    fault: str
    workload: str
    cases: "dict[str, str]"
    run: "Callable[[_Run], tuple[str, str] | None]"


class _Run:
    """One row's execution: its seed and rng, and where its cases go."""

    def __init__(self, row: Scenario, seed: int, report: ChaosReport) -> None:
        self.row = row
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.report = report
        self.demos = report.demonstrations
        self.epochs: "dict[int, CSRMatrix]" = {}  # admitted epoch -> matrix
        self.epochs_served: "set[int]" = set()
        # Oracle disagreements and failed follow-up requests: reported
        # together as the row's ``<fault>/outputs`` case.
        self.findings: "list[str]" = []

    def case(self, name: str, outcome: str, detail: str = "") -> None:
        """Report one of the row's declared cases."""
        layer = self.row.cases[name]
        self.report.cases.append(
            ChaosCase(name, self.row.tier, layer, outcome, detail)
        )

    def dense(self, matrix: CSRMatrix) -> np.ndarray:
        """A fresh random operand for ``matrix``."""
        return self.rng.random((matrix.n_cols, _DIM))

    def serve(self, label: str, service, matrix, dense=None):
        """Submit one request, wait for it, and verify an accepted output.

        ``matrix=None`` admits under the service's current epoch; pass
        ``dense`` then.
        """
        if dense is None:
            dense = self.dense(matrix)
        response = service.submit(matrix, dense).result(timeout=30.0)
        self.verify(label, dense, response, matrix)
        return response

    def apply(self, target, batch) -> object:
        """Apply an update batch to a service or epoch manager.

        Records the installed epoch's matrix for the oracle.
        """
        snapshot = target.apply_updates(batch)
        self.epochs[snapshot.epoch] = snapshot.matrix
        self.demos["update_batches"] += 1
        self.demos["updates_applied"] += len(batch)
        return snapshot

    def verify(self, label: str, dense, response, matrix=None) -> None:
        """Check an accepted output against the independent reference.

        The reference is :func:`reference_spmm` on ``matrix``, or, when
        the row runs an epoch manager and passes none, on the matrix of
        the response's admitted epoch.  A disagreement becomes the row's
        ``<fault>/outputs`` SILENT case.
        """
        if response is None or response.output is None:
            return
        if matrix is None:
            matrix = self.epochs.get(response.epoch)
            if matrix is None:
                self.findings.append(
                    f"{label}: admitted under unknown epoch {response.epoch}"
                )
                return
            self.epochs_served.add(response.epoch)
        self.demos["verified_responses"] += 1
        if not np.allclose(
            response.output, reference_spmm(matrix, dense),
            rtol=1e-9, atol=1e-9,
        ):
            self.findings.append(
                f"{label}: accepted output disagrees with the reference"
            )


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def _base_matrix(
    seed: int, n_nodes: int = 60, nnz: int = 360, max_degree: int = 16
) -> CSRMatrix:
    """A small power-law graph with plenty of partial rows."""
    return power_law_graph(
        n_nodes=n_nodes, nnz=nnz, max_degree=max_degree, seed=seed
    )


def _wait_for(predicate, timeout: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return predicate()


def _busy_pids(pool) -> "list[int]":
    with pool._cond:
        return [
            s.proc.pid
            for s in pool._slots.values()
            if s.job is not None and not s.dead and s.proc.is_alive()
        ]


def _live_pids(pool) -> "list[int]":
    with pool._cond:
        return [
            s.proc.pid
            for s in pool._slots.values()
            if not s.dead and s.proc.is_alive()
        ]


class _CountingDispatcher(Dispatcher):
    """A dispatcher whose kernel counts its calls and can be slowed."""

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


def _poisson(run: _Run, service, matrix, count: int, *, current_epoch=False):
    """Open-loop Poisson arrivals; returns ``(dense, future)`` pairs.

    With ``current_epoch`` the requests name no matrix and admit under
    the service's current epoch (``matrix`` only sizes the operands).
    """
    inflight = []
    for _ in range(count):
        dense = run.dense(matrix)
        target = None if current_epoch else matrix
        inflight.append((dense, service.submit(target, dense)))
        time.sleep(run.rng.exponential(1.0 / _RATE))
    return inflight


# ----------------------------------------------------------------------
# Kernel tier
# ----------------------------------------------------------------------
def _corruption_case(make, layer: str, run: _Run) -> "tuple[str, str]":
    """Push one corrupted input through its declared detection layer."""
    corrupted = make(_base_matrix(run.seed), run.rng)
    # Oracle-layer corruptions skip strict validation (which would also
    # reject them) so the matrix exercises the last line of defence.
    strict = layer == corruption.STRICT
    try:
        validate_csr(
            corrupted.row_pointers,
            corrupted.column_indices,
            corrupted.values,
            corrupted.n_rows,
            corrupted.n_cols,
            strict=strict,
        )
    except (ValueError, TypeError) as exc:
        return REJECTED, str(exc)
    if layer in (corruption.VALIDATE, corruption.STRICT):
        return (
            SILENT,
            f"validate_csr(strict={strict}) accepted: {corrupted.description}",
        )
    # Oracle-layer corruption: constructible, so it must be caught at
    # run time.
    try:
        matrix = corrupted.as_matrix()
    except (ValueError, TypeError) as exc:
        return REJECTED, str(exc)
    dense = run.rng.standard_normal((matrix.n_cols, _DIM))
    try:
        result = oracles.verified_spmm(matrix, dense, n_threads=16)
    except oracles.OracleError as exc:
        return DETECTED, str(exc)
    if result.fallback_used:
        return RECOVERED, result.detected or ""
    return SILENT, f"oracles accepted output for: {corrupted.description}"


def _executor_fault_case(
    executor: str, plan_kwargs: dict, run: _Run
) -> "tuple[str, str]":
    """Inject an execution fault into one SpMM executor; expect recovery."""
    matrix = _base_matrix(run.seed, n_nodes=200, nnz=1200, max_degree=60)
    dense = run.rng.standard_normal((matrix.n_cols, _DIM))
    reference = reference_spmm(matrix, dense)
    with faults.inject(seed=run.seed, **plan_kwargs) as plan:
        try:
            result = oracles.verified_spmm(
                matrix, dense, n_threads=37, executor=executor
            )
        except oracles.OracleError as exc:
            return DETECTED, str(exc)
    if plan.total_injected == 0:
        return (
            SILENT, "fault plan injected nothing — the case tested no fault"
        )
    if not result.fallback_used:
        return (
            SILENT, f"{plan.total_injected} faults injected, output accepted"
        )
    if not np.allclose(result.output, reference, rtol=1e-9, atol=1e-9):
        return SILENT, "fallback output disagrees with the reference"
    return RECOVERED, f"{plan.total_injected} injected, fallback verified"


def _gpu_fault_case(run: _Run) -> "tuple[str, str]":
    """A halted warp must trip the GPU timing model's self-check."""
    from repro.gpu.device import quadro_rtx_6000
    from repro.gpu.kernels import mergepath_workload
    from repro.gpu.timing import simulate

    device = quadro_rtx_6000()
    with faults.inject(seed=run.seed, fail_unit=3) as plan:
        workload = mergepath_workload(_base_matrix(run.seed), 16, device)
        try:
            simulate(workload, device)
        except faults.ExecutionFaultError as exc:
            return DETECTED, str(exc)
    if plan.total_injected:
        return SILENT, f"{plan.total_injected} injected, timing accepted"
    return SILENT, "fault plan injected nothing"


def _multicore_fault_case(run: _Run) -> "tuple[str, str]":
    """A halted core must trip the simulator's completion self-check."""
    from repro.multicore.kernels import run_mergepath

    with faults.inject(seed=run.seed, fail_unit=2) as plan:
        try:
            run_mergepath(_base_matrix(run.seed), 8, n_cores=16)
        except faults.ExecutionFaultError as exc:
            return DETECTED, str(exc)
    if plan.total_injected:
        return SILENT, f"{plan.total_injected} injected, simulation accepted"
    return SILENT, "fault plan injected nothing"


def _baseline_runs(matrix: CSRMatrix, dense: np.ndarray) -> dict:
    from repro.baselines import (
        cusparse_like_spmm,
        gnnadvisor_spmm,
        merge_path_serial_spmm,
        row_splitting_spmm,
    )

    return {
        "merge-path-serial": lambda: (
            merge_path_serial_spmm(matrix, dense, 4)[0]
        ),
        "row-splitting": lambda: row_splitting_spmm(matrix, dense, 4)[0],
        "gnnadvisor": lambda: gnnadvisor_spmm(matrix, dense)[0],
        "cusparse-like": lambda: cusparse_like_spmm(matrix, dense)[0],
    }


def _degenerate_case(factory, run: _Run) -> "tuple[str, str]":
    """Every executor and baseline must agree on a valid-but-extreme graph."""
    matrix = factory()
    dense = run.rng.standard_normal((matrix.n_cols, _DIM))
    reference = reference_spmm(matrix, dense)
    failures = []
    for executor in ("vectorized", "reference"):
        try:
            result = oracles.verified_spmm(
                matrix, dense, n_threads=4, executor=executor, fallback=False
            )
            if not np.allclose(result.output, reference, rtol=1e-9, atol=1e-9):
                failures.append(f"{executor}: disagrees with reference")
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            failures.append(f"{executor}: {type(exc).__name__}: {exc}")
    for label, baseline in _baseline_runs(matrix, dense).items():
        try:
            output = baseline()
            if not np.allclose(output, reference, rtol=1e-9, atol=1e-9):
                failures.append(f"{label}: disagrees with reference")
        except Exception as exc:  # noqa: BLE001
            failures.append(f"{label}: {type(exc).__name__}: {exc}")
    if failures:
        return SILENT, "; ".join(failures)
    return OK, ""


# ----------------------------------------------------------------------
# Thread tier: a live in-process service
# ----------------------------------------------------------------------
def _worker_crash(run: _Run) -> None:
    """An injected worker-thread crash: clean batch failure + restart."""
    matrix = _base_matrix(run.seed + 1)
    config = ServeConfig(
        max_queue=64, max_batch=1, n_workers=1, restart_budget=3
    )
    with InferenceService(config=config) as service:
        with faults.inject(seed=run.seed, crash_worker=1.0) as plan:
            response = run.serve("crashed", service, matrix)
        failed_cleanly = response.status == "error" and "worker crashed" in (
            response.error or ""
        )
        if plan.total_injected == 0:
            outcome, detail = SILENT, "fault plan injected nothing"
        elif failed_cleanly:
            outcome, detail = DETECTED, response.error
        else:
            outcome, detail = SILENT, (
                f"crashed batch resolved as {response.status!r} "
                f"({response.error})"
            )
        run.case("worker-crash/batch-fails-cleanly", outcome, detail)

        supervisor = service._supervisor
        restarted = _wait_for(
            lambda: supervisor.restarts >= 1 and supervisor.alive_count() >= 1
        )
        # The respawned worker must serve real traffic again, and with
        # the crash outside the recency window the service is HEALTHY.
        served = 0
        for dense, future in _poisson(run, service, matrix, 4):
            response = future.result(timeout=30.0)
            run.verify("post-restart", dense, response, matrix)
            served += response.ok
        time.sleep(0.25)
        health = service.health(HealthPolicy(crash_recent_seconds=0.2))
        recovered = restarted and served == 4 and health.status == HEALTHY
        if recovered:
            run.demos["worker_restarts"] += supervisor.restarts
        run.case(
            "worker-crash/supervisor-restarts",
            RECOVERED if recovered else SILENT,
            f"restarted={restarted} ({supervisor.restarts} restart(s)), "
            f"{served}/4 served after respawn, health={health.status}",
        )


def _bitflip(run: _Run) -> "tuple[str, str]":
    """A bit-flipping kernel under live load: verified fallback only."""
    matrix = _base_matrix(run.seed + 2)
    dispatcher = _BitFlipDispatcher()
    config = ServeConfig(max_queue=64, max_batch=2, n_workers=1, verify=True)
    with InferenceService(dispatcher, config) as service:
        entries = _poisson(run, service, matrix, 6)
        responses = [f.result(timeout=30.0) for _, f in entries]
    for (dense, _), response in zip(entries, responses):
        run.verify("bitflip", dense, response, matrix)
    fallbacks = sum(1 for r in responses if r.ok and r.fallback_used)
    if dispatcher.flips == 0:
        return SILENT, "the kernel flipped nothing"
    if fallbacks == 0:
        return SILENT, (
            f"{dispatcher.flips} bit flips injected, no fallback engaged"
        )
    return RECOVERED, (
        f"{dispatcher.flips} bit flips injected, {fallbacks}/"
        f"{len(responses)} responses degraded to the verified fallback"
    )


def _nan_request(run: _Run) -> "tuple[str, str]":
    """A NaN-valued request matrix must come back as a detected error."""
    corrupted = corruption.nan_values(_base_matrix(run.seed + 3), run.rng)
    matrix = corrupted.as_matrix()
    config = ServeConfig(max_queue=8, max_batch=1, n_workers=1, verify=True)
    with InferenceService(config=config) as service:
        dense = run.dense(matrix)
        response = service.submit(matrix, dense).result(timeout=30.0)
    if response.ok:
        return SILENT, f"NaN-valued matrix served as ok via {response.backend}"
    return DETECTED, f"{response.status}: {response.error}"


def _expired_deadline(run: _Run) -> "tuple[str, str]":
    """Expired deadlines are shed pre-execution, never reach the kernel."""
    matrix = _base_matrix(run.seed + 4)
    slow = _CountingDispatcher(delay=0.08)
    config = ServeConfig(max_queue=64, max_batch=1, n_workers=1)
    with InferenceService(slow, config) as service:
        # One undeadlined request pins the single worker ...
        blocker_dense = run.dense(matrix)
        blocker = service.submit(matrix, blocker_dense)
        # ... while tightly-deadlined requests expire in the queue.
        futures = [
            service.submit(matrix, run.dense(matrix), deadline_ms=10.0)
            for _ in range(4)
        ]
        blocker_response = blocker.result(timeout=30.0)
        responses = [f.result(timeout=30.0) for f in futures]
    run.verify("blocker", blocker_dense, blocker_response, matrix)
    shed = [r for r in responses if r.deadline_exceeded]
    executed = slow.calls
    run.demos["deadline_shed"] += len(shed)
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
    if problems:
        return SILENT, "; ".join(problems)
    return DETECTED, (
        f"{len(shed)}/4 shed unexecuted ({executed} kernel call(s) total)"
    )


def _slow_kernel(run: _Run) -> "tuple[str, str]":
    """A slowed kernel must surface as *kernel*-stage time, not queue.

    Submits closed-loop (one in flight at a time) so queue wait is
    negligible, then checks the flight recorder's slowest retained
    trace: the injected kernel delay must land in the ``kernel`` stage
    of the attribution ledger.  Without per-stage ledgers a slow kernel
    and a saturated queue are indistinguishable in p95.
    """
    matrix = _base_matrix(run.seed + 5)
    delay = 0.05
    config = ServeConfig(max_queue=16, max_batch=1, n_workers=1)
    recorder = rtrace.FlightRecorder(capacity=8)
    problems: "list[str]" = []
    with InferenceService(
        _CountingDispatcher(delay=delay), config, flight_recorder=recorder
    ) as service:
        for _ in range(4):
            response = run.serve("slow-kernel", service, matrix)
            if not response.ok:
                problems.append(
                    f"request {response.request_id} failed: {response.error}"
                )
    slowest = recorder.slowest(1)
    if not slowest:
        return SILENT, "flight recorder retained no completed trace"
    stages = slowest[0]["stages"]
    kernel = stages.get("kernel", 0.0)
    queue = stages.get("queue", 0.0)
    run.demos["slow_kernel_traces"] += sum(
        1
        for trace in recorder.slowest()
        if trace["stages"].get("kernel", 0.0)
        > trace["stages"].get("queue", 0.0)
    )
    if kernel < delay * 0.5:
        problems.append(
            f"slowest trace attributes only {kernel * 1e3:.1f} ms to the "
            f"kernel stage despite a {delay * 1e3:.0f} ms kernel delay"
        )
    elif kernel <= queue:
        problems.append(
            f"slowest trace blames the queue ({queue * 1e3:.1f} ms) over "
            f"the kernel ({kernel * 1e3:.1f} ms)"
        )
    if problems:
        return SILENT, "; ".join(problems)
    return DETECTED, (
        f"kernel={kernel * 1e3:.1f} ms > queue={queue * 1e3:.1f} ms in the "
        f"slowest of {recorder.recorded} recorded trace(s)"
    )


# ----------------------------------------------------------------------
# Update tier: live edge updates behind an epoch manager
# ----------------------------------------------------------------------
def _update_stream(run: _Run) -> "tuple[str, str]":
    """Poisson requests race a Poisson update stream, mid-batch included.

    The kernel sleeps a few milliseconds per call, so update batches
    land while requests are queued, batched, and mid-execution; leases
    must pin each request to its admitted epoch regardless.
    """
    base = _base_matrix(run.seed)
    manager = GraphEpochManager(DeltaCSR(base, compact_threshold=12))
    config = ServeConfig(max_queue=256, max_batch=4, n_workers=2)
    planner = UpdatePlanner(base)
    problems: "list[str]" = []
    with InferenceService(
        _CountingDispatcher(delay=0.003), config, epoch_manager=manager
    ) as service:
        snapshot = manager.current_snapshot()
        run.epochs[snapshot.epoch] = snapshot.matrix
        stop = threading.Event()

        def updater() -> None:
            urng = np.random.default_rng(run.seed + 101)
            while not stop.is_set():
                batch = planner.batch(urng, int(urng.integers(1, 3)))
                try:
                    run.apply(service, batch)
                except Exception as exc:  # any tear here is a finding
                    problems.append(f"{type(exc).__name__}: {exc}")
                    return
                time.sleep(urng.exponential(1.0 / _UPDATE_RATE))

        thread = threading.Thread(target=updater, name="chaos-updates")
        thread.start()
        try:
            entries = _poisson(run, service, base, 40, current_epoch=True)
            # Let the tail of the batch queue drain under live updates.
            for _, future in entries:
                future.result(timeout=30.0)
        finally:
            stop.set()
            thread.join(timeout=10.0)
        if thread.is_alive():
            problems.append("update stream failed to stop (possible deadlock)")
        for dense, future in entries:
            run.verify("update-stream", dense, future.result(timeout=30.0))
        stats = manager.stats()
        run.demos["retired_epochs"] += stats["retired_epochs"]
        run.demos["compactions"] += stats["compactions"]
    if len(run.epochs_served) < 2:
        problems.append(
            "update stream never served two distinct epochs — the race was "
            "not exercised"
        )
    if problems:
        return SILENT, "; ".join(problems)
    return OK, (
        f"{len(run.epochs) - 1} update batch(es) raced {len(entries)} "
        f"requests across {len(run.epochs_served)} epoch(s)"
    )


def _precise_invalidation(run: _Run) -> "tuple[str, str]":
    """Retirement drops exactly the retired epoch's keys — no global flush.

    Runs against a :class:`ScheduleCache`, a cache keyed on
    version-precise fingerprints that registers with the epoch manager.
    """
    base = _base_matrix(run.seed + 5)
    bystander = _base_matrix(run.seed + 6)
    schedules = ScheduleCache(max_entries=16)
    manager = GraphEpochManager(
        DeltaCSR(base, compact_threshold=3), caches=(schedules,)
    )
    problems: "list[str]" = []

    def retained(matrix: CSRMatrix) -> bool:
        # A hit proves the entry survived; a miss would rebuild it.
        built = schedules.schedule_computations
        schedules.get(matrix, cost=256)
        return schedules.schedule_computations == built

    schedules.get(bystander, cost=256)
    snapshot0 = manager.current_snapshot()
    schedules.get(snapshot0.matrix, cost=256)

    lease = manager.acquire()  # an in-flight request pins epoch 0
    planner = UpdatePlanner(base)
    urng = np.random.default_rng(run.seed + 505)
    snapshot1 = run.apply(manager, planner.batch(urng, 1))
    schedules.get(snapshot1.matrix, cost=256)
    if not retained(snapshot0.matrix):
        problems.append("leased epoch's schedule was dropped while in flight")

    entries = schedules.entries
    lease.release()  # drains the last lease -> epoch 0 retires
    dropped = entries - schedules.entries
    if dropped != 1:
        problems.append(
            f"epoch 0 retirement dropped {dropped} schedule(s), "
            "expected exactly 1"
        )
    if not retained(snapshot1.matrix):
        problems.append("live epoch's schedule was dropped at retirement")
    if not retained(bystander):
        problems.append("bystander schedule was flushed by epoch retirement")

    # Crossing the compaction threshold rebases the delta and retires
    # epoch 1 (no lease holds it): exactly its schedule must drop.
    entries = schedules.entries
    snapshot2 = run.apply(manager, planner.batch(urng, 2))
    if not snapshot2.compacted:
        problems.append(
            "expected the threshold-3 log to compact (log was "
            f"{snapshot2.log_size})"
        )
    dropped += entries - schedules.entries
    if dropped != 2:
        problems.append(
            f"expected 2 precisely invalidated schedules, saw {dropped}"
        )
    if not retained(bystander):
        problems.append(
            "bystander schedule was flushed by compaction retirement"
        )
    stats = manager.stats()
    run.demos["retired_epochs"] += stats["retired_epochs"]
    run.demos["compactions"] += stats["compactions"]
    run.demos["invalidated_keys"] += dropped
    if problems:
        return SILENT, "; ".join(problems)
    return DETECTED, (
        f"{dropped} retired-epoch schedule(s) dropped; bystander and "
        "live-epoch entries retained"
    )


def _lag_and_backlog(run: _Run) -> "tuple[str, str]":
    """Held leases and a filling log surface as DEGRADED, then clear."""
    base = _base_matrix(run.seed + 7)
    manager = GraphEpochManager(DeltaCSR(base, compact_threshold=10))
    config = ServeConfig(max_queue=16, max_batch=1, n_workers=1)
    planner = UpdatePlanner(base)
    urng = np.random.default_rng(run.seed + 606)
    problems: "list[str]" = []
    with InferenceService(config=config, epoch_manager=manager) as service:
        lease = manager.acquire()  # a stuck consumer pins epoch 0
        for _ in range(4):  # default epoch_lag_degraded = 4
            run.apply(service, planner.batch(urng, 1))
        health = service.health()
        causes = sorted(c.kind for c in health.causes)
        if health.status != DEGRADED or "epoch-lag-high" not in causes:
            problems.append(
                f"4-epoch lag reported {health.status} with causes {causes}"
            )
        for _ in range(5):  # log 4 -> 9 = 90% of threshold 10
            run.apply(service, planner.batch(urng, 1))
        causes = sorted(c.kind for c in service.health().causes)
        if "compaction-backlog" not in causes:
            problems.append(
                f"90%-full delta log not reported (causes {causes})"
            )
        lease.release()
        # The next update crosses the threshold: snapshot compacts, the
        # drained lag retires, and health must return to HEALTHY.
        run.apply(service, planner.batch(urng, 1))
        health = service.health()
        if health.status != HEALTHY:
            problems.append(
                f"after lease drain + compaction health is {health.status} "
                f"({[c.kind for c in health.causes]})"
            )
        response = run.serve("post-compaction", service, None, run.dense(base))
        if not response.ok:
            problems.append(
                f"post-compaction request failed: {response.error}"
            )
        stats = manager.stats()
        run.demos["retired_epochs"] += stats["retired_epochs"]
        run.demos["compactions"] += stats["compactions"]
    if problems:
        return SILENT, "; ".join(problems)
    return RECOVERED, (
        "lag and backlog degraded health, then cleared after the lease "
        "drained and compaction landed"
    )


# ----------------------------------------------------------------------
# Process tier: supervised worker subprocesses over shared segments
# ----------------------------------------------------------------------
def _proc_service(**proc_overrides) -> InferenceService:
    """A process-isolated service with fast-reaping pool tunables."""
    settings = dict(
        n_workers=2,
        heartbeat_interval=0.02,
        heartbeat_timeout=0.6,
        hang_timeout=0.8,
        poison_threshold=2,
        restart_budget=16,
        restart_window=60.0,
    )
    settings.update(proc_overrides)
    config = ServeConfig(
        max_queue=64,
        max_batch=1,
        n_workers=2,
        verify=True,
        request_timeout=5.0,
        isolation="process",
    )
    return InferenceService(
        config=config, proc_config=ProcPoolConfig(**settings)
    )


def _absorb_pool(run: _Run, pool) -> None:
    """Credit a pool's restarts, republished segments and pipe use."""
    snapshot = pool.snapshot()
    run.demos["worker_restarts"] += snapshot["supervisor"].get("restarts", 0)
    run.demos["segments_republished"] += snapshot["segments"]["republished"]
    _absorb_zero_copy(run, snapshot["zero_copy"])


def _absorb_zero_copy(run: _Run, zero_copy: dict) -> None:
    """Credit graph bytes copied and flag an oversized pipe message."""
    run.demos["per_request_graph_bytes_copied"] += zero_copy[
        "per_request_graph_bytes_copied"
    ]
    run.demos["oversized_message_rows"] += int(
        zero_copy["max_message_bytes"] > _MESSAGE_LIMIT
    )


def _health_note(service: InferenceService) -> "tuple[bool, str]":
    """Whether the service ended HEALTHY or explained DEGRADED, and how."""
    health = service.health()
    causes = [c.kind for c in health.causes]
    acceptable = health.status == HEALTHY or (
        health.status == DEGRADED and bool(causes)
    )
    return acceptable, f"health={health.status} causes={causes}"


def _sigkill(run: _Run) -> None:
    """External SIGKILL of a busy worker: one batch fails, the rest flow."""
    matrix = _base_matrix(run.seed)
    with _proc_service() as service:
        pool = service._proc_pool
        # Open a kill window: the victim batch sleeps inside the worker
        # before computing, long enough to aim an external SIGKILL.
        with faults.inject(
            seed=run.seed, delay_proc=1.0, delay_proc_seconds=0.6
        ):
            victim = service.submit(matrix, run.dense(matrix))
            aimed = _wait_for(lambda: _busy_pids(pool), timeout=3.0)
        bystander_dense = run.dense(matrix)
        bystander = service.submit(matrix, bystander_dense)
        if aimed:
            for pid in _busy_pids(pool):
                os.kill(pid, signal.SIGKILL)
        victim_response = victim.result(timeout=30.0)
        bystander_response = bystander.result(timeout=30.0)
        run.verify("bystander", bystander_dense, bystander_response, matrix)
        if not aimed:
            outcome, detail = (
                SILENT, "no worker ever went busy — kill window never opened"
            )
        elif victim_response.status == WORKER_CRASHED:
            run.demos["crash_contained"] += 1
            outcome, detail = DETECTED, victim_response.error or ""
        else:
            outcome, detail = SILENT, (
                f"killed batch resolved as {victim_response.status!r} "
                f"({victim_response.error})"
            )
        run.case("sigkill-mid-batch/contained", outcome, detail)

        # The pool must respawn and keep serving.
        respawned = _wait_for(
            lambda: pool.supervisor.restarts >= 1
            and len(_live_pids(pool)) >= pool.config.n_workers
        )
        after = run.serve("after", service, matrix)
        healthy, note = _health_note(service)
        run.case(
            "sigkill-mid-batch/pool-recovers",
            RECOVERED
            if respawned and bystander_response.ok and after.ok and healthy
            else SILENT,
            f"{pool.supervisor.restarts} respawn(s), "
            f"bystander={bystander_response.status} after={after.status}, "
            f"{note}",
        )
        _absorb_pool(run, pool)


def _busy_hang(run: _Run) -> None:
    """A busy-looping worker is SIGKILLed at the batch budget."""
    matrix = _base_matrix(run.seed + 1)
    with _proc_service() as service:
        pool = service._proc_pool
        with faults.inject(seed=run.seed, hang_proc=1.0) as plan:
            started = time.monotonic()
            response = run.serve("hung", service, matrix)
            elapsed = time.monotonic() - started
        hang_kills = pool.kills["hang-timeout"]
        if plan.total_injected == 0:
            outcome, detail = SILENT, "fault plan injected nothing"
        elif response.status == WORKER_CRASHED and hang_kills >= 1:
            run.demos["hang_reaps"] += hang_kills
            outcome, detail = DETECTED, (
                f"SIGKILLed {elapsed:.2f}s into a "
                f"{pool.config.hang_timeout:.1f}s budget: {response.error}"
            )
        else:
            outcome, detail = SILENT, (
                f"status={response.status!r} hang_kills={hang_kills} "
                f"({response.error})"
            )
        run.case("busy-hang/reaped-at-budget", outcome, detail)
        after = run.serve("after", service, matrix)
        healthy, note = _health_note(service)
        run.case(
            "busy-hang/pool-recovers",
            RECOVERED if after.ok and healthy else SILENT,
            f"after={after.status}, {note}",
        )
        _absorb_pool(run, pool)


def _heartbeat_loss(run: _Run) -> None:
    """An idle worker that stops beating (SIGSTOP) is presumed wedged."""
    matrix = _base_matrix(run.seed + 2)
    with _proc_service() as service:
        pool = service._proc_pool
        run.serve("warm", service, matrix)
        pids = _live_pids(pool)
        if pids:
            os.kill(pids[0], signal.SIGSTOP)
        reaped = _wait_for(lambda: pool.kills["heartbeat-miss"] >= 1)
        if reaped:
            run.demos["heartbeat_reaps"] += pool.kills["heartbeat-miss"]
        run.case(
            "heartbeat-loss/reaped",
            DETECTED if reaped else SILENT,
            "idle worker silent past "
            f"{pool.config.heartbeat_timeout:.1f}s; kills={pool.kills}",
        )
        health = service.health(HealthPolicy(heartbeat_kills_degraded=1))
        causes = [c.kind for c in health.causes]
        raised = (
            health.status == DEGRADED and "heartbeat-misses-high" in causes
        )
        run.case(
            "heartbeat-loss/health-cause",
            DETECTED if raised else SILENT,
            f"health={health.status} causes={causes}",
        )
        after = run.serve("after", service, matrix)
        if not after.ok:
            run.findings.append(f"follow-up failed ({after.error})")
        _absorb_pool(run, pool)


def _memory_hog(run: _Run) -> "tuple[str, str]":
    """A worker ballooning its RSS mid-batch is SIGKILLed by the RSS guard.

    The guard must fire before the balloon finishes growing, i.e.
    before the OS OOM-killer would pick a victim at random.
    """
    matrix = _base_matrix(run.seed + 3)
    limit = rss_bytes() + 128 * _MIB
    with _proc_service(
        worker_rss_limit_bytes=limit, hang_timeout=3.0
    ) as service:
        pool = service._proc_pool
        with faults.inject(seed=run.seed, hog_proc=1.0) as plan:
            response = run.serve("hog", service, matrix)
        after = run.serve("after", service, matrix)
        if not after.ok:
            run.findings.append(f"follow-up failed ({after.error})")
        healthy, note = _health_note(service)
        if not healthy:
            run.findings.append(note)
        _absorb_pool(run, pool)
    if plan.total_injected == 0:
        return SILENT, "fault plan injected nothing"
    if response.status == WORKER_CRASHED and pool.kills["rss-limit"] >= 1:
        run.demos["rss_kills"] += pool.kills["rss-limit"]
        return DETECTED, (
            f"hog SIGKILLed past the {limit // _MIB} MiB limit: "
            f"{response.error}"
        )
    return SILENT, (
        f"status={response.status!r} kills={pool.kills} ({response.error})"
    )


def _memory_highwater(run: _Run) -> "tuple[str, str]":
    """Past the pool's admission highwater, new requests are shed."""
    matrix = _base_matrix(run.seed + 3)
    with _proc_service(memory_highwater_bytes=1) as service:
        shed = run.serve("shed", service, matrix)
        health = service.health()
        _absorb_pool(run, service._proc_pool)
    causes = [c.kind for c in health.causes]
    detail = (
        f"{shed.status}: {shed.error}; health={health.status} "
        f"causes={causes}"
    )
    if (
        shed.rejected
        and "memory pressure" in (shed.error or "")
        and health.status == DEGRADED
        and "memory-pressure" in causes
    ):
        run.demos["memory_sheds"] += 1
        return DETECTED, detail
    return SILENT, detail


def _poison_request(run: _Run) -> None:
    """Content that keeps killing workers is quarantined, not retried."""
    matrix = _base_matrix(run.seed + 4)
    with _proc_service() as service:
        pool = service._proc_pool
        poison = run.dense(matrix)
        with faults.inject(seed=run.seed, crash_proc=1.0):
            statuses = [
                run.serve("strike", service, matrix, poison).status
                for _ in range(pool.config.poison_threshold)
            ]
        # Outside the fault plan the content itself is harmless, but its
        # record already crossed the threshold: admission must answer
        # `quarantined` without letting it near a worker.
        third = run.serve("third", service, matrix, poison)
        quarantined = (
            all(s == WORKER_CRASHED for s in statuses)
            and third.status == QUARANTINED
            and pool.quarantine_size() >= 1
        )
        if quarantined:
            run.demos["quarantines"] += pool.quarantine_size()
        run.case(
            "poison-request/quarantined",
            DETECTED if quarantined else SILENT,
            f"strikes={statuses}, then {third.status!r} at admission: "
            f"{third.error}",
        )
        # Different content must still serve while the quarantine holds,
        # and health must explain the degradation.
        other = run.serve("other", service, matrix)
        health = service.health()
        causes = [c.kind for c in health.causes]
        survives = (
            other.ok
            and health.status == DEGRADED
            and "worker-quarantine-active" in causes
        )
        run.case(
            "poison-request/pool-survives",
            RECOVERED if survives else SILENT,
            f"other content {other.status!r}; health={health.status} "
            f"causes={causes}",
        )
        _absorb_pool(run, pool)


def _torn_segment(run: _Run) -> "tuple[str, str]":
    """A corrupted shared segment is detected, republished, recomputed."""
    matrix = _base_matrix(run.seed + 5)
    with _proc_service() as service:
        pool = service._proc_pool
        warm = run.serve("warm", service, matrix)
        # Tear the published pages, then SIGKILL the workers so their
        # respawns must re-attach — and re-verify — the torn segment.
        with pool._seg_lock:
            segments = list(pool._segments.values())
        if segments:
            buffer = segments[0].buffer()
            offset = segments[0].meta.values_offset
            buffer[offset] = buffer[offset] ^ 0xFF
        killed = set(_live_pids(pool))
        for pid in killed:
            os.kill(pid, signal.SIGKILL)
        # Wait for *fresh* respawns — the old pids linger in the slot
        # table until their death paths run, and a request landing on a
        # dying slot would resolve as a plain crash instead of
        # exercising the re-attach checksum.
        _wait_for(
            lambda: len(set(_live_pids(pool)) - killed)
            >= pool.config.n_workers
        )
        retry = run.serve("retry", service, matrix)
        healthy, note = _health_note(service)
        _absorb_pool(run, pool)
    detail = (
        f"warm={warm.status!r} retry={retry.status!r} ({retry.error}), "
        f"republished {pool.republished} segment(s), {note}"
    )
    if segments and warm.ok and retry.ok and pool.republished and healthy:
        return RECOVERED, detail
    return SILENT, detail


def _pool_exhaustion(run: _Run) -> None:
    """A pool with no restart budget left fails, reports and sheds."""
    matrix = _base_matrix(run.seed + 6)
    with _proc_service(restart_budget=0) as service:
        pool = service._proc_pool
        warm = run.serve("warm", service, matrix)
        with faults.inject(
            seed=run.seed, delay_proc=1.0, delay_proc_seconds=0.6
        ):
            victim = service.submit(matrix, run.dense(matrix))
            aimed = _wait_for(lambda: _busy_pids(pool), timeout=3.0)
        if aimed:
            for pid in _busy_pids(pool):
                os.kill(pid, signal.SIGKILL)
        response = victim.result(timeout=30.0)
        exhausted = pool.supervisor.exhausted
        terminal = aimed and response.status == WORKER_CRASHED and exhausted
        if terminal:
            run.demos["pool_exhaustions"] += 1
        run.case(
            "pool-exhaustion/terminal-batch",
            DETECTED if terminal else SILENT,
            f"aimed={aimed} status={response.status!r} "
            f"exhausted={exhausted} ({response.error})",
        )
        health = service.health()
        causes = sorted(c.kind for c in health.causes)
        raised = (
            health.status == UNHEALTHY and "worker-pool-exhausted" in causes
        )
        run.case(
            "pool-exhaustion/health-cause",
            DETECTED if raised else SILENT,
            f"health={health.status} causes={causes}",
        )
        shed = run.serve("shed", service, matrix)
        run.case(
            "pool-exhaustion/admission-sheds",
            DETECTED if shed.rejected and warm.ok else SILENT,
            f"warm={warm.status!r}, subsequent request {shed.status!r} "
            f"({shed.error})",
        )
        _absorb_pool(run, pool)


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------
_EXECUTOR_FAULTS = {
    "dropped-atomic": ("drop_atomic", 1.0),
    "bitflip": ("bitflip", 0.6),
    "failing-unit": ("fail_unit", 5),
}
_PROC_POOL = "2 process workers, max_batch 1"

SCENARIOS: "tuple[Scenario, ...]" = (
    *(
        Scenario(
            KERNEL, f"corrupt CSR arrays: {name}",
            "validate_csr, then verified_spmm on a 60-node graph",
            {name: layer}, partial(_corruption_case, make, layer),
        )
        for name, (make, layer) in corruption.CORRUPTIONS.items()
    ),
    *(
        Scenario(
            KERNEL, f"{switch}={value} in a FaultPlan",
            f"verified_spmm, {executor} executor, 200-node graph",
            {f"{fault}/{executor}": "oracle"},
            partial(_executor_fault_case, executor, {switch: value}),
        )
        for fault, (switch, value) in _EXECUTOR_FAULTS.items()
        for executor in ("vectorized", "reference")
    ),
    Scenario(
        KERNEL, "halted warp (fail_unit=3)",
        "GPU timing model, merge-path workload",
        {"halted-warp/gpu-timing": "self-check"}, _gpu_fault_case,
    ),
    Scenario(
        KERNEL, "halted core (fail_unit=2)",
        "multicore simulator, merge-path on 16 cores",
        {"halted-core/multicore": "self-check"}, _multicore_fault_case,
    ),
    *(
        Scenario(
            KERNEL, f"valid but extreme graph: {name}",
            "both executors and every baseline",
            {name: "valid"}, partial(_degenerate_case, factory),
        )
        for name, factory in corruption.DEGENERATES.items()
    ),
    Scenario(
        THREAD, "worker thread crash (crash_worker=1.0)",
        "1 worker, then Poisson requests",
        {
            "worker-crash/batch-fails-cleanly": "supervisor",
            "worker-crash/supervisor-restarts": "supervisor",
        },
        _worker_crash,
    ),
    Scenario(
        THREAD, "kernel flips one mantissa bit per output",
        "Poisson requests, max_batch 2, verify=True",
        {"bitflip/verified-fallback": "oracle"}, _bitflip,
    ),
    Scenario(
        THREAD, "NaN in the request matrix", "one request, verify=True",
        {"corrupt-matrix/nan-values": "oracle"}, _nan_request,
    ),
    Scenario(
        THREAD, "10 ms deadlines behind an 80 ms kernel",
        "1 worker pinned by a blocker request",
        {"expired-deadline/shed-before-execution": "deadline"},
        _expired_deadline,
    ),
    Scenario(
        THREAD, "50 ms kernel delay", "closed-loop requests, flight recorder",
        {"slow-kernel/kernel-stage-attribution": "rtrace"}, _slow_kernel,
    ),
    Scenario(
        UPDATE, "Poisson update batches mid-batch",
        "40 Poisson requests, 2 workers, compact_threshold 12",
        {"update-stream/epoch-pinned-responses": "oracle"}, _update_stream,
    ),
    Scenario(
        UPDATE, "epoch retirement and compaction",
        "schedule cache with a bystander entry",
        {"retirement/precise-invalidation": "epoch"}, _precise_invalidation,
    ),
    Scenario(
        UPDATE, "held lease and a filling delta log",
        "epoch-managed service, compact_threshold 10",
        {"health/epoch-lag-and-backlog": "health"}, _lag_and_backlog,
    ),
    Scenario(
        PROCESS, "external SIGKILL of a busy worker", _PROC_POOL,
        {
            "sigkill-mid-batch/contained": "procpool",
            "sigkill-mid-batch/pool-recovers": "supervisor",
        },
        _sigkill,
    ),
    Scenario(
        PROCESS, "busy-loop hang (hang_proc=1.0)", _PROC_POOL,
        {
            "busy-hang/reaped-at-budget": "reaper",
            "busy-hang/pool-recovers": "supervisor",
        },
        _busy_hang,
    ),
    Scenario(
        PROCESS, "SIGSTOP of an idle worker", _PROC_POOL,
        {
            "heartbeat-loss/reaped": "reaper",
            "heartbeat-loss/health-cause": "health",
        },
        _heartbeat_loss,
    ),
    Scenario(
        PROCESS, "RSS balloon (hog_proc=1.0)",
        f"{_PROC_POOL}, RSS limit 128 MiB over the parent",
        {"memory-hog/rss-guard-kills": "reaper"}, _memory_hog,
    ),
    Scenario(
        PROCESS, "pool RSS past the admission highwater",
        f"{_PROC_POOL}, 1-byte highwater",
        {"memory-highwater/sheds-at-admission": "admission"},
        _memory_highwater,
    ),
    Scenario(
        PROCESS, "request content that kills workers (crash_proc=1.0)",
        f"{_PROC_POOL}, poison threshold 2",
        {
            "poison-request/quarantined": "quarantine",
            "poison-request/pool-survives": "health",
        },
        _poison_request,
    ),
    Scenario(
        PROCESS, "one flipped byte in a shared CSR segment", _PROC_POOL,
        {"torn-segment/detected-republished": "checksum"}, _torn_segment,
    ),
    Scenario(
        PROCESS, "SIGKILL with the pool's restart budget at 0",
        f"{_PROC_POOL}, restart budget 0",
        {
            "pool-exhaustion/terminal-batch": "supervisor",
            "pool-exhaustion/health-cause": "health",
            "pool-exhaustion/admission-sheds": "admission",
        },
        _pool_exhaustion,
    ),
)


def run_chaos_matrix(
    seed: int = 0, scenarios: "Iterable[Scenario]" = SCENARIOS
) -> ChaosReport:
    """Run every row of the table (or just ``scenarios``) with one seed."""
    report = ChaosReport(seed=seed)
    with obs.span("resilience.chaos.run", seed=seed):
        for row in scenarios:
            run = _Run(row, seed, report)
            result = row.run(run)
            if result is not None:
                (name,) = row.cases
                run.case(name, *result)
            report.demonstrations["distinct_epochs"] += len(run.epochs_served)
            if run.findings:
                prefix = next(iter(row.cases)).split("/")[0]
                report.cases.append(
                    ChaosCase(
                        f"{prefix}/outputs", row.tier, "oracle", SILENT,
                        "; ".join(run.findings),
                    )
                )
    obs.counter("resilience.chaos.runs").inc()
    obs.gauge("resilience.chaos.coverage").set(report.coverage)
    obs.counter("resilience.chaos.silent_cases").inc(len(report.silent))
    return report


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point for ``python -m repro chaos``."""
    parser = argparse.ArgumentParser(
        prog="repro chaos",
        description=(
            "Run the chaos table — every fault on every tier — and report "
            "coverage and the demonstrations each guard owes."
        ),
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="injection seed (default: 0)"
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
        help="skip writing the BENCH_chaos.json run record",
    )
    args = parser.parse_args(argv)

    with obs.profiled() as session:
        report = run_chaos_matrix(seed=args.seed)
    print(report.render())

    if not args.no_record:
        record = obs.run_record(
            "chaos",
            metrics=session.snapshot(),
            wall_seconds=session.wall_seconds,
            status="ok" if report.passed else "failed",
            extra={"chaos": report.to_dict()},
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
