"""``repro.serve`` — the batching GNN inference serving layer.

The ROADMAP's request path on top of the one-shot experiment harness:

* :mod:`repro.serve.service` — :class:`InferenceService`: bounded
  admission with explicit load shedding, dynamic micro-batching by graph
  content fingerprint, a supervised multi-worker execution pool,
  per-request deadlines and per-batch timeouts, and a
  ``HEALTHY/DEGRADED/UNHEALTHY`` health surface.
* :mod:`repro.serve.dispatch` — :class:`Dispatcher`: every thread-tier
  batch as one call of scipy's CSR kernel on the matrix's own arrays
  (:func:`~repro.core.parallel.execute_row_blocks` with one block), with
  forced fallback to the verified executor on any kernel or oracle
  failure, and each phase's seconds returned for the request ledgers.
* :mod:`repro.serve.guard` — :class:`WorkerSupervisor`, the worker
  pool's failure-domain guard.
* :mod:`repro.serve.procpool` — :class:`ProcessWorkerPool`: the
  ``isolation="process"`` execution tier — subprocess workers attached
  zero-copy to shared-memory CSR segments (:mod:`repro.shm`), with a
  heartbeat reaper that SIGKILLs hung workers, crash containment to the
  affected batch (terminal ``worker_crashed`` status), poison-request
  quarantine, and RSS-based memory guards.  Workers run the same
  one-block kernel call, writing into their slot's shared-memory block,
  and exit when their parent dies.
* :mod:`repro.serve.epoch` — :class:`GraphEpochManager`: RCU-style
  epoch management for live graph updates (atomic snapshot install,
  read leases pinning in-flight epochs, retirement of superseded
  epochs once their last lease drains).
* :mod:`repro.serve.health` — the pure health-evaluation rules behind
  :meth:`InferenceService.health`.

Ego-graph minibatch serving (``InferenceService.submit_ego``) samples
through :mod:`repro.sample`; see ``docs/SERVING.md``.  Serving latency
and throughput are measured against the scipy floor by
``python3 bench/run.py --workload serve-small|ego-live|serve-process``.

See ``docs/SERVING.md`` for the architecture tour and
``docs/ROBUSTNESS.md`` for the failure-domain model.
"""

from repro.serve.epoch import (
    EpochLease,
    GraphEpochManager,
)
from repro.serve.dispatch import DispatchResult, Dispatcher
from repro.serve.guard import (
    WorkerPoolExhausted,
    WorkerSupervisor,
)
from repro.serve.health import (
    DEGRADED,
    HEALTHY,
    UNHEALTHY,
    HealthCause,
    HealthPolicy,
    HealthReport,
    evaluate_health,
)
from repro.serve.procpool import (
    QUARANTINED,
    WORKER_CRASHED,
    PoolError,
    ProcessWorkerPool,
    ProcPoolConfig,
    ProcResult,
    QuarantinedError,
    WorkerCrashError,
    poison_key,
)
from repro.serve.service import (
    EgoSubmission,
    InferenceService,
    ServeConfig,
    ServeResponse,
)

__all__ = [
    "DEGRADED",
    "DispatchResult",
    "Dispatcher",
    "EgoSubmission",
    "EpochLease",
    "GraphEpochManager",
    "HEALTHY",
    "HealthCause",
    "HealthPolicy",
    "HealthReport",
    "InferenceService",
    "PoolError",
    "ProcPoolConfig",
    "ProcResult",
    "ProcessWorkerPool",
    "QUARANTINED",
    "QuarantinedError",
    "ServeConfig",
    "ServeResponse",
    "UNHEALTHY",
    "WORKER_CRASHED",
    "WorkerCrashError",
    "WorkerPoolExhausted",
    "WorkerSupervisor",
    "evaluate_health",
    "poison_key",
]
