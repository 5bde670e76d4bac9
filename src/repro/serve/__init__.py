"""``repro.serve`` — the batching GNN inference serving layer.

The ROADMAP's request path on top of the one-shot experiment harness:

* :mod:`repro.serve.service` — :class:`InferenceService`: bounded
  admission with explicit load shedding, dynamic micro-batching by graph
  content fingerprint, a supervised multi-worker execution pool,
  per-request deadlines and per-batch timeouts, and a
  ``HEALTHY/DEGRADED/UNHEALTHY`` health surface.
* :mod:`repro.serve.dispatch` — :class:`Dispatcher`: every thread-tier
  batch as scipy's CSR product (``matrix.to_scipy() @ dense``), with
  forced fallback to the verified executor on any kernel or oracle
  failure.
* :mod:`repro.serve.guard` — :class:`WorkerSupervisor`, the worker
  pool's failure-domain guard.
* :mod:`repro.serve.procpool` — :class:`ProcessWorkerPool`: the
  ``isolation="process"`` execution tier — subprocess workers attached
  zero-copy to shared-memory CSR segments (:mod:`repro.shm`), with a
  heartbeat reaper that SIGKILLs hung workers, crash containment to the
  affected batch (terminal ``worker_crashed`` status), poison-request
  quarantine, and RSS-based memory guards.
* :mod:`repro.serve.epoch` — :class:`GraphEpochManager`: RCU-style
  epoch management for live graph updates (atomic snapshot install,
  read leases pinning in-flight epochs, precise cache invalidation of
  exactly the retired epochs' fingerprints).
* :mod:`repro.serve.health` — the pure health-evaluation rules behind
  :meth:`InferenceService.health`.
* :mod:`repro.serve.loadgen` — open/closed-loop synthetic traffic and
  the ``python -m repro serve-bench`` subcommand.

Ego-graph minibatch serving (``InferenceService.submit_ego`` and the
``--workload ego`` loadgen mode) samples through :mod:`repro.sample`;
see ``docs/SERVING.md``.

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
