"""The *process-isolation* containment matrix behind ``python -m repro chaos-proc``.

``chaos-serve`` proves the thread-tier guards; this suite attacks the
``isolation="process"`` tier (:mod:`repro.serve.procpool` over
:mod:`repro.shm`) with the failures threads fundamentally cannot
contain, and demands **100% containment**: every scenario must end with
the service ``HEALTHY`` or ``DEGRADED`` with an explanatory cause,
every affected request must resolve to a terminal status, and every
accepted output must match the independent oracle — zero silent wrong
answers:

* **SIGKILL mid-batch** — a worker killed from outside while computing
  must fail exactly its batch with terminal ``worker_crashed``; queued
  requests on other workers still complete, and the supervisor
  respawns the dead worker so traffic keeps flowing;
* **busy-loop hang** — a worker spinning forever (injected
  ``hang_proc``) must be SIGKILLed by the reaper at the batch budget
  (the thread tier could only *abandon* it) and its batch must resolve
  terminally;
* **heartbeat loss** — an *idle* worker that stops beating (SIGSTOP)
  must be presumed wedged, SIGKILLed, and surfaced as the
  ``heartbeat-misses-high`` health cause;
* **memory hog** — a worker ballooning its RSS must be killed by the
  pool's RSS guard *before* the OS OOM-killer picks a victim at
  random; separately, a pool past its admission highwater must shed
  new requests with ``rejected`` and report ``memory-pressure``;
* **poison request** — content that repeatedly kills workers must be
  quarantined after ``poison_threshold`` strikes: answered immediately
  with terminal ``quarantined``, never again allowed near a worker,
  with the ``worker-quarantine-active`` health cause raised while
  different content keeps serving;
* **torn segment** — a corrupted shared CSR segment must be *detected*
  by the attach-time checksums (never computed on), republished from
  the parent's pristine copy, and the retried request must return the
  correct product.

Throughout, the suite asserts the zero-copy invariant: no worker ever
copies graph bytes to serve a request
(``per_request_graph_bytes_copied == 0``).  The run writes a
``BENCH_chaos_proc.json`` run record; exit status 0 requires zero
silent cases and every containment mechanism demonstrably exercised.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.formats import CSRMatrix
from repro.graphs.generators import power_law_graph
from repro.resilience import faults
from repro.resilience.chaos import (
    DETECTED,
    OK,
    RECOVERED,
    SILENT,
    ChaosCase,
)
from repro.resilience.oracles import reference_spmm
from repro.serve.health import DEGRADED, HEALTHY, HealthPolicy
from repro.serve.procpool import (
    QUARANTINED,
    WORKER_CRASHED,
    ProcPoolConfig,
    rss_bytes,
)
from repro.serve.service import REJECTED, InferenceService, ServeConfig

_DIM = 8
_KIND = "process"
_MIB = 1 << 20


@dataclass
class ProcChaosReport:
    """Aggregate result of one process-isolation containment run."""

    seed: int
    cases: "list[ChaosCase]" = field(default_factory=list)
    crash_contained: int = 0
    hang_reaps: int = 0
    heartbeat_reaps: int = 0
    rss_kills: int = 0
    memory_sheds: int = 0
    quarantines: int = 0
    segments_republished: int = 0
    worker_restarts: int = 0
    verified_responses: int = 0
    per_request_graph_bytes_copied: int = 0

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
        """Zero silent cases, every mechanism exercised, zero-copy held."""
        return (
            not self.silent
            and self.crash_contained >= 1
            and self.hang_reaps >= 1
            and self.heartbeat_reaps >= 1
            and self.rss_kills >= 1
            and self.memory_sheds >= 1
            and self.quarantines >= 1
            and self.segments_republished >= 1
            and self.worker_restarts >= 1
            and self.per_request_graph_bytes_copied == 0
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
                "crash_contained": self.crash_contained,
                "hang_reaps": self.hang_reaps,
                "heartbeat_reaps": self.heartbeat_reaps,
                "rss_kills": self.rss_kills,
                "memory_sheds": self.memory_sheds,
                "quarantines": self.quarantines,
                "segments_republished": self.segments_republished,
                "worker_restarts": self.worker_restarts,
                "verified_responses": self.verified_responses,
                "per_request_graph_bytes_copied": (
                    self.per_request_graph_bytes_copied
                ),
            },
            "cases": [c.to_dict() for c in self.cases],
        }

    def render(self) -> str:
        lines = [
            f"process-isolation chaos matrix (seed={self.seed}): "
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
            f"containment coverage: {self.coverage:.0%} "
            f"({len(self.cases) - len(self.silent)}/{len(self.cases)} contained)"
        )
        lines.append(
            f"demonstrated: {self.crash_contained} crash(es) contained, "
            f"{self.hang_reaps} hang reap(s), "
            f"{self.heartbeat_reaps} heartbeat reap(s), "
            f"{self.rss_kills} RSS kill(s), {self.memory_sheds} memory "
            f"shed(s), {self.quarantines} quarantine(s), "
            f"{self.segments_republished} segment republish(es), "
            f"{self.worker_restarts} worker restart(s), "
            f"{self.verified_responses} outputs oracle-verified, "
            f"{self.per_request_graph_bytes_copied} graph bytes copied "
            "per request"
        )
        if self.silent:
            lines.append(
                "SILENT failures: " + ", ".join(c.name for c in self.silent)
            )
        return "\n".join(lines)


def _base_matrix(seed: int) -> CSRMatrix:
    return power_law_graph(n_nodes=60, nnz=360, max_degree=16, seed=seed)


def _proc_config(**overrides) -> ProcPoolConfig:
    """Fast-reaping pool tunables shared by every scenario."""
    settings = dict(
        n_workers=2,
        heartbeat_interval=0.02,
        heartbeat_timeout=0.6,
        hang_timeout=0.8,
        poison_threshold=2,
        restart_budget=16,
        restart_window=60.0,
    )
    settings.update(overrides)
    return ProcPoolConfig(**settings)


def _service(proc_config: ProcPoolConfig, **serve_overrides) -> InferenceService:
    settings = dict(
        max_queue=64,
        max_batch=1,
        max_wait_ms=0.0,
        n_workers=2,
        verify=True,
        request_timeout=5.0,
        isolation="process",
    )
    settings.update(serve_overrides)
    return InferenceService(
        config=ServeConfig(**settings), proc_config=proc_config
    )


def _verify_ok(
    report: ProcChaosReport,
    matrix: CSRMatrix,
    dense: np.ndarray,
    response,
    problems: "list[str]",
    label: str,
) -> None:
    """Every accepted output must match the independent reference — always."""
    if not response.ok:
        return
    report.verified_responses += 1
    if not np.allclose(
        response.output, reference_spmm(matrix, dense), rtol=1e-9, atol=1e-9
    ):
        problems.append(
            f"{label}: accepted output for request {response.request_id} "
            "disagrees with the reference"
        )


def _wait_for(predicate, timeout: float = 5.0, interval: float = 0.005) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
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


def _absorb_pool_stats(report: ProcChaosReport, pool) -> None:
    snapshot = pool.snapshot()
    report.worker_restarts += snapshot["supervisor"].get("restarts", 0)
    report.segments_republished += snapshot["segments"]["republished"]
    report.per_request_graph_bytes_copied = max(
        report.per_request_graph_bytes_copied,
        snapshot["zero_copy"]["per_request_graph_bytes_copied"],
    )


def _healthy_or_degraded(service: InferenceService, problems: "list[str]",
                         label: str) -> str:
    health = service.health()
    if health.status not in (HEALTHY, DEGRADED):
        problems.append(
            f"{label}: scenario ended {health.status} "
            f"({[c.kind for c in health.causes]})"
        )
    elif health.status == DEGRADED and not health.causes:
        problems.append(f"{label}: DEGRADED without an explanatory cause")
    return health.status


def _run_sigkill_scenario(
    report: ProcChaosReport, seed: int, rng: np.random.Generator
) -> None:
    """External SIGKILL of a busy worker: one batch fails, the rest flow."""
    matrix = _base_matrix(seed)
    problems: "list[str]" = []
    with _service(_proc_config()) as service:
        pool = service._proc_pool
        # Open a kill window: the victim batch sleeps inside the worker
        # before computing, long enough to aim an external SIGKILL.
        with faults.inject(seed=seed, delay_proc=1.0, delay_proc_seconds=0.6):
            victim_dense = rng.random((matrix.n_cols, _DIM))
            victim = service.submit(matrix, victim_dense)
            aimed = _wait_for(lambda: _busy_pids(pool), timeout=3.0)
        bystander_dense = rng.random((matrix.n_cols, _DIM))
        bystander = service.submit(matrix, bystander_dense)
        if aimed:
            for pid in _busy_pids(pool):
                os.kill(pid, signal.SIGKILL)
        victim_response = victim.result(timeout=30.0)
        bystander_response = bystander.result(timeout=30.0)
        _verify_ok(report, matrix, bystander_dense, bystander_response,
                   problems, "sigkill-bystander")
        if not aimed:
            report.cases.append(
                ChaosCase(
                    "sigkill-mid-batch/contained", _KIND, "procpool", SILENT,
                    "no worker ever went busy — kill window never opened",
                )
            )
        elif victim_response.status == WORKER_CRASHED:
            report.crash_contained += 1
            report.cases.append(
                ChaosCase(
                    "sigkill-mid-batch/contained", _KIND, "procpool",
                    DETECTED, victim_response.error or "",
                )
            )
        else:
            report.cases.append(
                ChaosCase(
                    "sigkill-mid-batch/contained", _KIND, "procpool", SILENT,
                    f"killed batch resolved as {victim_response.status!r} "
                    f"({victim_response.error})",
                )
            )

        # The pool must respawn and keep serving.
        respawned = _wait_for(
            lambda: pool.supervisor.restarts >= 1
            and len(_live_pids(pool)) >= pool.config.n_workers,
            timeout=5.0,
        )
        after_dense = rng.random((matrix.n_cols, _DIM))
        after = service.submit(matrix, after_dense).result(timeout=30.0)
        _verify_ok(report, matrix, after_dense, after, problems,
                   "sigkill-after")
        status = _healthy_or_degraded(service, problems, "sigkill")
        if respawned and bystander_response.ok and after.ok and not problems:
            report.cases.append(
                ChaosCase(
                    "sigkill-mid-batch/pool-recovers", _KIND, "supervisor",
                    RECOVERED,
                    f"{pool.supervisor.restarts} respawn(s), bystander and "
                    f"follow-up served, health={status}",
                )
            )
        else:
            report.cases.append(
                ChaosCase(
                    "sigkill-mid-batch/pool-recovers", _KIND, "supervisor",
                    SILENT,
                    f"respawned={respawned} "
                    f"bystander={bystander_response.status} "
                    f"after={after.status} health={status}; "
                    + "; ".join(problems),
                )
            )
        _absorb_pool_stats(report, pool)


def _run_hang_scenario(
    report: ProcChaosReport, seed: int, rng: np.random.Generator
) -> None:
    """A busy-looping worker is SIGKILLed at the batch budget."""
    matrix = _base_matrix(seed + 1)
    problems: "list[str]" = []
    with _service(_proc_config()) as service:
        pool = service._proc_pool
        with faults.inject(seed=seed, hang_proc=1.0) as plan:
            dense = rng.random((matrix.n_cols, _DIM))
            started = time.monotonic()
            response = service.submit(matrix, dense).result(timeout=30.0)
            elapsed = time.monotonic() - started
        if plan.total_injected == 0:
            report.cases.append(
                ChaosCase(
                    "busy-hang/reaped-at-budget", _KIND, "reaper", SILENT,
                    "fault plan injected nothing",
                )
            )
        elif (
            response.status == WORKER_CRASHED
            and pool.kills["hang-timeout"] >= 1
        ):
            report.hang_reaps += pool.kills["hang-timeout"]
            report.cases.append(
                ChaosCase(
                    "busy-hang/reaped-at-budget", _KIND, "reaper", DETECTED,
                    f"SIGKILLed {elapsed:.2f}s into a "
                    f"{pool.config.hang_timeout:.1f}s budget: "
                    f"{response.error}",
                )
            )
        else:
            report.cases.append(
                ChaosCase(
                    "busy-hang/reaped-at-budget", _KIND, "reaper", SILENT,
                    f"status={response.status!r} "
                    f"hang_kills={pool.kills['hang-timeout']} "
                    f"({response.error})",
                )
            )
        after_dense = rng.random((matrix.n_cols, _DIM))
        after = service.submit(matrix, after_dense).result(timeout=30.0)
        _verify_ok(report, matrix, after_dense, after, problems, "hang-after")
        status = _healthy_or_degraded(service, problems, "hang")
        if after.ok and not problems:
            report.cases.append(
                ChaosCase(
                    "busy-hang/pool-recovers", _KIND, "supervisor", RECOVERED,
                    f"served after respawn, health={status}",
                )
            )
        else:
            report.cases.append(
                ChaosCase(
                    "busy-hang/pool-recovers", _KIND, "supervisor", SILENT,
                    f"after={after.status} health={status}; "
                    + "; ".join(problems),
                )
            )
        _absorb_pool_stats(report, pool)


def _run_heartbeat_scenario(
    report: ProcChaosReport, seed: int, rng: np.random.Generator
) -> None:
    """An idle worker that stops beating (SIGSTOP) is presumed wedged."""
    matrix = _base_matrix(seed + 2)
    problems: "list[str]" = []
    with _service(_proc_config()) as service:
        pool = service._proc_pool
        warm_dense = rng.random((matrix.n_cols, _DIM))
        warm = service.submit(matrix, warm_dense).result(timeout=30.0)
        _verify_ok(report, matrix, warm_dense, warm, problems, "heartbeat-warm")
        pids = _live_pids(pool)
        if pids:
            os.kill(pids[0], signal.SIGSTOP)
        reaped = _wait_for(
            lambda: pool.kills["heartbeat-miss"] >= 1, timeout=5.0
        )
        if reaped:
            report.heartbeat_reaps += pool.kills["heartbeat-miss"]
            report.cases.append(
                ChaosCase(
                    "heartbeat-loss/reaped", _KIND, "reaper", DETECTED,
                    "idle worker went silent past "
                    f"{pool.config.heartbeat_timeout:.1f}s and was SIGKILLed",
                )
            )
        else:
            report.cases.append(
                ChaosCase(
                    "heartbeat-loss/reaped", _KIND, "reaper", SILENT,
                    "stopped worker was never reaped "
                    f"(kills={pool.kills})",
                )
            )
        health = service.health(HealthPolicy(heartbeat_kills_degraded=1))
        if health.status == DEGRADED and any(
            c.kind == "heartbeat-misses-high" for c in health.causes
        ):
            report.cases.append(
                ChaosCase(
                    "heartbeat-loss/health-cause", _KIND, "health", DETECTED,
                    f"{health.status}: heartbeat-misses-high raised",
                )
            )
        else:
            report.cases.append(
                ChaosCase(
                    "heartbeat-loss/health-cause", _KIND, "health", SILENT,
                    f"health={health.status} "
                    f"causes={[c.kind for c in health.causes]}",
                )
            )
        after_dense = rng.random((matrix.n_cols, _DIM))
        after = service.submit(matrix, after_dense).result(timeout=30.0)
        _verify_ok(report, matrix, after_dense, after, problems,
                   "heartbeat-after")
        if not after.ok:
            problems.append(f"heartbeat: follow-up failed ({after.error})")
        if problems:
            report.cases.append(
                ChaosCase(
                    "heartbeat-loss/outputs", _KIND, "oracle", SILENT,
                    "; ".join(problems),
                )
            )
        _absorb_pool_stats(report, pool)


def _run_memory_scenario(
    report: ProcChaosReport, seed: int, rng: np.random.Generator
) -> None:
    """RSS guard kills a hog; admission sheds past the pool highwater."""
    matrix = _base_matrix(seed + 3)
    problems: "list[str]" = []
    # Phase A: a worker balloons its RSS mid-batch; the reaper's RSS
    # guard must SIGKILL it before the balloon finishes growing.
    limit = rss_bytes() + 128 * _MIB
    with _service(
        _proc_config(worker_rss_limit_bytes=limit, hang_timeout=3.0)
    ) as service:
        pool = service._proc_pool
        with faults.inject(seed=seed, hog_proc=1.0) as plan:
            dense = rng.random((matrix.n_cols, _DIM))
            response = service.submit(matrix, dense).result(timeout=30.0)
        if plan.total_injected == 0:
            report.cases.append(
                ChaosCase(
                    "memory-hog/rss-guard-kills", _KIND, "reaper", SILENT,
                    "fault plan injected nothing",
                )
            )
        elif response.status == WORKER_CRASHED and pool.kills["rss-limit"] >= 1:
            report.rss_kills += pool.kills["rss-limit"]
            report.cases.append(
                ChaosCase(
                    "memory-hog/rss-guard-kills", _KIND, "reaper", DETECTED,
                    f"hog SIGKILLed past the {limit // _MIB} MiB limit: "
                    f"{response.error}",
                )
            )
        else:
            report.cases.append(
                ChaosCase(
                    "memory-hog/rss-guard-kills", _KIND, "reaper", SILENT,
                    f"status={response.status!r} kills={pool.kills} "
                    f"({response.error})",
                )
            )
        after_dense = rng.random((matrix.n_cols, _DIM))
        after = service.submit(matrix, after_dense).result(timeout=30.0)
        _verify_ok(report, matrix, after_dense, after, problems, "hog-after")
        if not after.ok:
            problems.append(f"hog: follow-up failed ({after.error})")
        _healthy_or_degraded(service, problems, "hog")
        _absorb_pool_stats(report, pool)

    # Phase B: with the pool already past its admission highwater, new
    # requests must be shed at admission, never queued for a worker.
    with _service(
        _proc_config(memory_highwater_bytes=1)
    ) as service:
        pool = service._proc_pool
        shed = service.submit(
            matrix, rng.random((matrix.n_cols, _DIM))
        ).result(timeout=30.0)
        health = service.health()
        if (
            shed.status == REJECTED
            and "memory pressure" in (shed.error or "")
            and health.status == DEGRADED
            and any(c.kind == "memory-pressure" for c in health.causes)
        ):
            report.memory_sheds += 1
            report.cases.append(
                ChaosCase(
                    "memory-highwater/sheds-at-admission", _KIND, "admission",
                    DETECTED,
                    f"{shed.status}: {shed.error}; health raised "
                    "memory-pressure",
                )
            )
        else:
            report.cases.append(
                ChaosCase(
                    "memory-highwater/sheds-at-admission", _KIND, "admission",
                    SILENT,
                    f"status={shed.status!r} ({shed.error}) "
                    f"health={health.status} "
                    f"causes={[c.kind for c in health.causes]}",
                )
            )
        _absorb_pool_stats(report, pool)
    if problems:
        report.cases.append(
            ChaosCase(
                "memory/outputs", _KIND, "oracle", SILENT, "; ".join(problems)
            )
        )


def _run_poison_scenario(
    report: ProcChaosReport, seed: int, rng: np.random.Generator
) -> None:
    """Content that keeps killing workers is quarantined, not retried."""
    matrix = _base_matrix(seed + 4)
    problems: "list[str]" = []
    with _service(_proc_config()) as service:
        pool = service._proc_pool
        poison_dense = rng.random((matrix.n_cols, _DIM))
        statuses = []
        with faults.inject(seed=seed, crash_proc=1.0):
            for _ in range(pool.config.poison_threshold):
                statuses.append(
                    service.submit(matrix, poison_dense)
                    .result(timeout=30.0)
                    .status
                )
        # Outside the fault plan the content itself is harmless, but its
        # record already crossed the threshold: admission must answer
        # `quarantined` without letting it near a worker.
        third = service.submit(matrix, poison_dense).result(timeout=30.0)
        if (
            all(s == WORKER_CRASHED for s in statuses)
            and third.status == QUARANTINED
            and pool.quarantine_size() >= 1
        ):
            report.quarantines += pool.quarantine_size()
            report.cases.append(
                ChaosCase(
                    "poison-request/quarantined", _KIND, "quarantine",
                    DETECTED,
                    f"{len(statuses)} worker deaths then terminal "
                    f"{third.status!r} at admission: {third.error}",
                )
            )
        else:
            report.cases.append(
                ChaosCase(
                    "poison-request/quarantined", _KIND, "quarantine", SILENT,
                    f"strike statuses={statuses} third={third.status!r} "
                    f"quarantined={pool.quarantine_size()}",
                )
            )
        # Different content must still serve while the quarantine holds,
        # and health must explain the degradation.
        other_dense = rng.random((matrix.n_cols, _DIM))
        other = service.submit(matrix, other_dense).result(timeout=30.0)
        _verify_ok(report, matrix, other_dense, other, problems,
                   "poison-other")
        health = service.health()
        if (
            other.ok
            and health.status == DEGRADED
            and any(
                c.kind == "worker-quarantine-active" for c in health.causes
            )
            and not problems
        ):
            report.cases.append(
                ChaosCase(
                    "poison-request/pool-survives", _KIND, "health", RECOVERED,
                    "different content served; health="
                    f"{health.status} with worker-quarantine-active",
                )
            )
        else:
            report.cases.append(
                ChaosCase(
                    "poison-request/pool-survives", _KIND, "health", SILENT,
                    f"other={other.status!r} health={health.status} "
                    f"causes={[c.kind for c in health.causes]}; "
                    + "; ".join(problems),
                )
            )
        _absorb_pool_stats(report, pool)


def _run_torn_segment_scenario(
    report: ProcChaosReport, seed: int, rng: np.random.Generator
) -> None:
    """A corrupted shared segment is detected, republished, recomputed."""
    matrix = _base_matrix(seed + 5)
    problems: "list[str]" = []
    with _service(_proc_config()) as service:
        pool = service._proc_pool
        warm_dense = rng.random((matrix.n_cols, _DIM))
        warm = service.submit(matrix, warm_dense).result(timeout=30.0)
        _verify_ok(report, matrix, warm_dense, warm, problems, "torn-warm")
        if not warm.ok:
            problems.append(f"torn: warm-up failed ({warm.error})")
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
            lambda: (
                len(set(_live_pids(pool)) - killed) >= pool.config.n_workers
            ),
            timeout=5.0,
        )
        dense = rng.random((matrix.n_cols, _DIM))
        response = service.submit(matrix, dense).result(timeout=30.0)
        _verify_ok(report, matrix, dense, response, problems, "torn-retry")
        status = _healthy_or_degraded(service, problems, "torn")
        if (
            segments
            and response.ok
            and pool.republished >= 1
            and not problems
        ):
            report.cases.append(
                ChaosCase(
                    "torn-segment/detected-republished", _KIND, "checksum",
                    RECOVERED,
                    "attach checksums caught the tear; republished "
                    f"{pool.republished} segment(s), retried correctly, "
                    f"health={status}",
                )
            )
        else:
            report.cases.append(
                ChaosCase(
                    "torn-segment/detected-republished", _KIND, "checksum",
                    SILENT,
                    f"response={response.status!r} ({response.error}) "
                    f"republished={pool.republished} health={status}; "
                    + "; ".join(problems),
                )
            )
        _absorb_pool_stats(report, pool)


def run_proc_chaos(seed: int = 0) -> ProcChaosReport:
    """Run every process-isolation chaos scenario with a fixed seed."""
    report = ProcChaosReport(seed=seed)
    rng = np.random.default_rng(seed)
    with obs.span("resilience.chaos_proc.run", seed=seed):
        _run_sigkill_scenario(report, seed, rng)
        _run_hang_scenario(report, seed, rng)
        _run_heartbeat_scenario(report, seed, rng)
        _run_memory_scenario(report, seed, rng)
        _run_poison_scenario(report, seed, rng)
        _run_torn_segment_scenario(report, seed, rng)
    obs.counter("resilience.chaos_proc.runs").inc()
    obs.gauge("resilience.chaos_proc.coverage").set(report.coverage)
    obs.counter("resilience.chaos_proc.silent_cases").inc(len(report.silent))
    return report


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point for ``python -m repro chaos-proc``."""
    parser = argparse.ArgumentParser(
        prog="repro chaos-proc",
        description=(
            "Attack the process-isolated serving tier (worker SIGKILLs, "
            "busy-loop hangs, heartbeat loss, memory hogs, poison "
            "requests, torn shared-memory segments) and verify every "
            "failure is contained with a terminal status, an explanatory "
            "health cause, and zero oracle disagreements."
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
        help="skip writing the BENCH_chaos_proc.json run record",
    )
    args = parser.parse_args(argv)

    with obs.profiled() as session:
        report = run_proc_chaos(seed=args.seed)
    print(report.render())

    if not args.no_record:
        record = obs.run_record(
            "chaos_proc",
            metrics=session.snapshot(),
            wall_seconds=session.wall_seconds,
            status="ok" if report.passed else "silent-failures",
            extra={"chaos_proc": report.to_dict()},
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
