"""The inference service: bounded queue, micro-batching, load shedding.

:class:`InferenceService` is the request path the ROADMAP's serving story
needs on top of the one-shot experiment harness:

* **Bounded admission.**  ``submit`` enqueues into a bounded queue; when
  it is full the request is *rejected immediately* with a ``503``-style
  :data:`REJECTED` response instead of growing memory without bound.
* **Work-conserving micro-batching.**  A batch is what is queued when a
  worker frees up: the worker pops the oldest request and takes every
  queued request with the same full content fingerprint *and* feature
  width, up to ``max_batch``, then dispatches at once — no worker ever
  idles on a timer while work is queued.  A batch executes as *one*
  SpMM — the dense operands are concatenated column-wise
  (``A @ [X1 | X2 | ...]``), which is exactly how GNN serving amortizes
  aggregation across users of the same graph — then split back per
  request (each reply owns its output; nothing aliases the shared batch
  result).
* **One kernel.**  Each batch runs through a
  :class:`~repro.serve.dispatch.Dispatcher` as scipy's CSR product, and
  any kernel or oracle failure degrades to the verified fallback rather
  than returning a corrupt product.
* **Deadlines.**  ``submit(deadline_ms=...)`` stamps a request with a
  wall-clock budget.  Requests already past their deadline are *shed
  before execution* with a :data:`DEADLINE_EXCEEDED` response, and a
  batch runs under the minimum remaining deadline of its members
  (combined with the per-batch ``request_timeout``) via
  :func:`repro.resilience.runtime.call_with_timeout`.
* **Worker supervision.**  A
  :class:`~repro.serve.guard.WorkerSupervisor` owns the worker pool: a
  worker that dies of an uncaught exception has its in-flight batch
  failed cleanly (never hung) and is respawned up to a restart budget;
  past the budget the pool is *exhausted*, queued work is failed, and
  new submissions are rejected.
* **Health.**  :meth:`InferenceService.health` reports
  ``HEALTHY / DEGRADED / UNHEALTHY`` with machine-readable causes
  (recent crashes, queue saturation, deadline-miss rate); see
  :mod:`repro.serve.health`.

Every stage emits ``repro.obs`` counters and spans (``serve.service.*``).
Each request's latency ledger (:mod:`repro.obs.rtrace`) is built from
clock reads the thread tier already makes: the queue wait at batch
start, the dispatcher's phase seconds, the copy-out of a batched reply,
and the residual as ``other`` — no per-stage context managers.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.formats import CSRMatrix
from repro.obs import rtrace
from repro.obs.slo import SLOTracker
from repro.resilience import faults
from repro.resilience.oracles import check_output
from repro.resilience.runtime import ExperimentTimeoutError, call_with_timeout
from repro.sample import EgoSubgraph, gather_features, sample_ego
from repro.serve.dispatch import Dispatcher
from repro.serve.epoch import EpochLease, GraphEpochManager
from repro.serve.guard import WorkerSupervisor
from repro.serve.health import HealthPolicy, HealthReport, evaluate_health
from repro.serve.procpool import (
    QUARANTINED,
    WORKER_CRASHED,
    PoisonKeys,
    PoolError,
    ProcessWorkerPool,
    ProcPoolConfig,
    QuarantinedError,
    WorkerCrashError,
    poison_key,
)

OK = "ok"
REJECTED = "rejected"
ERROR = "error"
DEADLINE_EXCEEDED = "deadline_exceeded"
# WORKER_CRASHED / QUARANTINED (terminal statuses of the process
# isolation tier) are re-exported from repro.serve.procpool above.

# Sliding window of recent request outcomes backing the health surface's
# deadline-miss rate.
_MISS_WINDOW = 256


@dataclass(frozen=True)
class ServeConfig:
    """Tunables of one :class:`InferenceService`.

    Attributes:
        max_queue: Admission bound; requests beyond it are shed.
        max_batch: Most same-key queued requests one batch takes.
        n_workers: Batch-executing worker threads.
        request_timeout: Per-batch wall-clock budget in seconds
            (``None`` disables; see :mod:`repro.resilience.runtime`).
            Request deadlines tighten this further per batch.
        restart_budget: Worker respawns the supervisor allows (per
            ``restart_window_seconds`` when set, else over the service's
            lifetime) before declaring the pool exhausted.
        restart_window_seconds: Sliding window for the restart budget
            (see :class:`~repro.serve.guard.WorkerSupervisor`); ``None``
            keeps the budget a lifetime total.
        verify: Cross-check every batch output against the independent
            reference before replying (failures degrade to the verified
            fallback inside the dispatcher; with process isolation the
            check runs in the parent, outside the worker's failure
            domain).
        isolation: ``"thread"`` executes batches on this process's
            worker threads through the dispatcher;
            ``"process"`` executes them on supervised worker
            *subprocesses* attached zero-copy to shared-memory graph
            segments (:mod:`repro.serve.procpool`): crashes, hangs and
            memory blowups are contained to the worker and answered
            with terminal statuses instead of taking the service down.
    """

    max_queue: int = 64
    max_batch: int = 8
    n_workers: int = 2
    request_timeout: "float | None" = None
    restart_budget: int = 3
    restart_window_seconds: "float | None" = None
    verify: bool = False
    isolation: str = "thread"

    def __post_init__(self) -> None:
        if self.isolation not in ("thread", "process"):
            raise ValueError(
                "isolation must be 'thread' or 'process', "
                f"got {self.isolation!r}"
            )
        if (
            self.restart_window_seconds is not None
            and self.restart_window_seconds <= 0
        ):
            raise ValueError(
                "restart_window_seconds must be positive or None, "
                f"got {self.restart_window_seconds}"
            )
        if self.max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {self.max_queue}")
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {self.n_workers}")
        if self.restart_budget < 0:
            raise ValueError(
                f"restart_budget must be >= 0, got {self.restart_budget}"
            )


@dataclass(frozen=True)
class ServeResponse:
    """Reply to one inference request.

    Attributes:
        request_id: Monotonic id assigned at submission.
        status: ``"ok"``, ``"rejected"`` (load shed at admission),
            ``"deadline_exceeded"`` (shed or cut off past its deadline),
            or ``"error"`` (batch timeout, worker crash, or unexpected
            executor failure).
        output: The product for this request's operand (``None`` unless
            ``ok``).
        backend: Dispatcher backend that served the batch.
        fallback_used: Whether the verified fallback produced the output.
        batch_size: Number of requests that shared the execution.
        queue_seconds: Admission-to-execution wait.
        service_seconds: Execution-to-reply wall time (includes this
            request's copy-out), so ``queue_seconds + service_seconds``
            is the request's end-to-end latency.
        error: Failure description for non-``ok`` statuses.
        trace_id: Request-trace id (:mod:`repro.obs.rtrace`); ``None``
            only for requests rejected at admission.
        attribution: Per-stage latency ledger
            (``{"stages": {stage: seconds}, "events": {event: count}}``).
            Stage seconds are non-overlapping leaves summing to the
            end-to-end latency.
        epoch: Graph epoch this request admitted under (epoch-managed
            services only; ``None`` otherwise).  An ``ok`` output is
            guaranteed to be the product against exactly this epoch's
            snapshot, regardless of updates applied mid-flight.
    """

    request_id: int
    status: str
    output: "np.ndarray | None" = field(default=None, repr=False)
    backend: "str | None" = None
    fallback_used: bool = False
    batch_size: int = 0
    queue_seconds: float = 0.0
    service_seconds: float = 0.0
    error: "str | None" = None
    trace_id: "str | None" = None
    attribution: "dict | None" = field(default=None, repr=False)
    epoch: "int | None" = None

    @property
    def ok(self) -> bool:
        """Whether the request completed with a verified output."""
        return self.status == OK

    @property
    def rejected(self) -> bool:
        """Whether admission shed the request before execution."""
        return self.status == REJECTED

    @property
    def deadline_exceeded(self) -> bool:
        """Whether the request ran out of deadline budget."""
        return self.status == DEADLINE_EXCEEDED


@dataclass(frozen=True)
class EgoSubmission:
    """Handle on one in-flight ego request (see :meth:`submit_ego`).

    Attributes:
        future: Resolves to the :class:`ServeResponse` for the *subgraph*
            aggregation (its ``output`` rows follow ``subgraph.nodes``).
        subgraph: The sampled, relabeled ego network the request runs on
            — already final at submission time, so callers can verify the
            response against it (and against the epoch it was sampled
            from) without re-sampling.
        epoch: Graph epoch the sample was drawn from (epoch-managed
            services only).
        sample_seconds: Wall time spent sampling + extracting, charged to
            the request's ``sample`` attribution stage.
    """

    future: "Future[ServeResponse]"
    subgraph: EgoSubgraph
    epoch: "int | None" = None
    sample_seconds: float = 0.0

    def result(self, timeout: "float | None" = None) -> ServeResponse:
        """Block for the sampled request's response."""
        return self.future.result(timeout=timeout)


@dataclass
class _Pending:
    request_id: int
    matrix: CSRMatrix
    dense: np.ndarray
    # (full content fingerprint, feature width): only requests that
    # share the matrix values and the dense width may batch together.
    key: "tuple[str, int]"
    enqueued_at: float
    future: "Future[ServeResponse]"
    # Request-trace context carried explicitly across the queue and
    # worker-thread boundary (see repro.obs.rtrace).
    ctx: rtrace.RequestContext = None  # type: ignore[assignment]
    # Absolute monotonic deadline; None = no deadline.
    deadline: "float | None" = None
    # Epoch lease pinning the snapshot this request admitted under
    # (epoch-managed services only); released in _finalize, the single
    # choke point every terminal path passes through.
    lease: "EpochLease | None" = None
    epoch: "int | None" = None
    # Seconds pre-charged to the ledger before admission (the "sample"
    # stage); reconciliation adds it on top of the admission-to-reply
    # latency so the stage sum equals the *full* end-to-end time.
    pre_seconds: float = 0.0


class InferenceService:
    """A multi-worker, micro-batching GNN aggregation service.

    Args:
        dispatcher: Thread-tier kernel runner; a default
            :class:`~repro.serve.dispatch.Dispatcher` when omitted (pass
            a subclass to inject slow, failing or corrupting kernels).
        config: Queueing/batching tunables.
        slo_tracker: Per-route SLO accounting fed every finished request
            (a default :class:`~repro.obs.slo.SLOTracker` when omitted);
            its burn rates feed :meth:`health`.
        flight_recorder: Bounded retention of the slowest/failed request
            traces (a default
            :class:`~repro.obs.rtrace.FlightRecorder` when omitted).
        epoch_manager: Live-graph epoch manager
            (:class:`~repro.serve.epoch.GraphEpochManager`).  When set,
            ``submit(None, dense)`` serves against the current epoch's
            snapshot under an RCU read lease, :meth:`apply_updates`
            installs new epochs atomically, and :meth:`health` reports
            epoch lag and compaction backlog.
        proc_config: Tunables of the
            :class:`~repro.serve.procpool.ProcessWorkerPool` the service
            builds and owns under ``config.isolation="process"``
            (default: ``config.n_workers`` workers; ignored under
            ``"thread"``).

    Use as a context manager (``with InferenceService() as svc``) or call
    :meth:`start`/:meth:`close` explicitly.
    """

    def __init__(
        self,
        dispatcher: "Dispatcher | None" = None,
        config: "ServeConfig | None" = None,
        *,
        slo_tracker: "SLOTracker | None" = None,
        flight_recorder: "rtrace.FlightRecorder | None" = None,
        epoch_manager: "GraphEpochManager | None" = None,
        proc_config: "ProcPoolConfig | None" = None,
    ) -> None:
        self.config = config or ServeConfig()
        self.dispatcher = dispatcher or Dispatcher()
        self.epoch_manager = epoch_manager
        self._proc_pool: "ProcessWorkerPool | None" = None
        self._proc_config = proc_config
        self.slo = slo_tracker if slo_tracker is not None else SLOTracker()
        self.flight_recorder = (
            flight_recorder
            if flight_recorder is not None
            else rtrace.FlightRecorder()
        )
        self._cond = threading.Condition()
        self._queue: "deque[_Pending]" = deque()
        self._closed = False
        self._started = False
        self._ids = itertools.count()
        self._supervisor: "WorkerSupervisor | None" = None
        # Per-worker in-flight batch; each slot is touched only by its
        # owning worker thread (and its crash handler, same thread).
        self._inflight: "dict[int, list[_Pending]]" = {}
        self._miss_lock = threading.Lock()
        self._recent_misses: "deque[bool]" = deque(maxlen=_MISS_WINDOW)
        self._deadline_misses = 0
        # Per-service sequence feeding default ego-sampling rngs, so two
        # unseeded submissions of the same seed node draw distinct (but
        # reproducible-within-a-service) neighborhoods.
        self._ego_seq = itertools.count()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "InferenceService":
        """Spawn the supervised worker pool (idempotent)."""
        with self._cond:
            if self._closed:
                raise RuntimeError("service is closed")
            if self._started:
                return self
            self._started = True
        if self.config.isolation == "process":
            self._proc_pool = ProcessWorkerPool(
                self._proc_config
                or ProcPoolConfig(n_workers=self.config.n_workers)
            )
            # Fork the worker subprocesses before spinning up this
            # process's own thread churn.
            self._proc_pool.start()
        self._supervisor = WorkerSupervisor(
            self._spawn_worker,
            self.config.n_workers,
            restart_budget=self.config.restart_budget,
            restart_window=self.config.restart_window_seconds,
            on_exhausted=self._on_pool_exhausted,
        )
        self._supervisor.start()
        return self

    def close(self) -> None:
        """Stop accepting requests, drain the queue, join the workers."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        if self._supervisor is not None:
            self._supervisor.join()
        # If the pool died mid-drain (budget exhausted), whatever is
        # still queued must fail, never hang.
        self._abandon_queue("service closed with no live workers")
        if self._proc_pool is not None:
            self._proc_pool.close()

    def __enter__(self) -> "InferenceService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def submit(
        self,
        matrix: "CSRMatrix | None",
        dense: np.ndarray,
        *,
        deadline_ms: "float | None" = None,
        route: str = "default",
    ) -> "Future[ServeResponse]":
        """Enqueue one aggregation request ``matrix @ dense``.

        Args:
            matrix: Sparse adjacency operand.  ``None`` on an
                epoch-managed service serves against the **current
                epoch's snapshot**: the request takes a read lease at
                admission and executes against exactly that snapshot
                even if :meth:`apply_updates` installs newer epochs
                while it is queued or batched.
            dense: Dense feature operand.
            deadline_ms: Wall-clock budget for the whole request
                (queueing + execution).  A request still queued past its
                deadline is shed with a :data:`DEADLINE_EXCEEDED`
                response *before* execution, and batch execution is cut
                off at the batch's minimum remaining deadline.
            route: Logical route name grouping this request for SLO
                accounting (e.g. the dataset or tenant it belongs to).

        Returns a future that resolves to a :class:`ServeResponse`.  When
        the bounded queue is full (or the worker pool is exhausted) the
        future resolves *immediately* with a ``rejected`` response —
        explicit load shedding, never unbounded growth.
        """
        lease, matrix = self._resolve_operand(matrix, "submit")
        return self._enqueue(
            matrix, dense, deadline_ms=deadline_ms, route=route, lease=lease
        )

    def submit_ego(
        self,
        seed_node: int,
        features: np.ndarray,
        *,
        matrix: "CSRMatrix | None" = None,
        fanouts: "tuple[int, ...]" = (10, 5),
        add_self_loops: bool = False,
        rng: "np.random.Generator | None" = None,
        deadline_ms: "float | None" = None,
        route: str = "ego",
    ) -> EgoSubmission:
        """Sample an ego network around ``seed_node`` and serve it.

        Samples a k-hop fanout neighborhood (:func:`repro.sample.sampler.
        sample_ego`), extracts the relabeled induced subgraph, gathers
        the sampled nodes' feature rows, and enqueues the *subgraph*
        aggregation.  On an epoch-managed service the sample is drawn
        under a read lease taken **before** sampling, so the subgraph,
        its version stamp, and the eventual output all belong to exactly
        one epoch even if updates land mid-flight.

        Sampling time is charged to the
        ``sample`` attribution stage; for ego requests the attribution's
        stage sum therefore equals ``sample_seconds`` *plus* the
        admission-to-reply latency.

        Args:
            seed_node: Global id of the ego center.
            features: Full-graph feature matrix ``(n_nodes, d)``; the
                subgraph's rows are gathered from it at submission.
            matrix: Graph adjacency; ``None`` uses the epoch manager's
                current snapshot (like :meth:`submit`).
            fanouts: Per-hop neighbor caps (see
                :class:`~repro.sample.sampler.FanoutSampler`).
            add_self_loops: Insert missing diagonal entries into the
                extracted subgraph (GCN-style ``A + I``).
            rng: Sampling randomness; ``None`` draws a fresh deterministic
                stream per submission (seeded by the seed node and a
                service-local sequence number).
            deadline_ms: As for :meth:`submit` (covers queueing +
                execution, not sampling — sampling happens synchronously
                in the caller before admission).
            route: SLO route; defaults to ``"ego"`` so ego traffic gets
                its own error budget.
        """
        lease, matrix = self._resolve_operand(matrix, "submit_ego")
        try:
            features = np.asarray(features, dtype=np.float64)
            if features.ndim != 2 or features.shape[0] != matrix.n_cols:
                raise ValueError(
                    "features must have one row per graph node "
                    f"({matrix.n_cols}), got shape {features.shape}"
                )
            if rng is None:
                with self._cond:
                    sequence = next(self._ego_seq)
                rng = np.random.default_rng((int(seed_node), sequence))
            started = time.perf_counter()
            with obs.span("serve.service.sample", seed=int(seed_node)):
                ego = sample_ego(
                    matrix,
                    int(seed_node),
                    fanouts=tuple(fanouts),
                    rng=rng,
                    add_self_loops=add_self_loops,
                )
                sub_features = gather_features(features, ego.nodes)
            sample_seconds = time.perf_counter() - started
        except Exception:
            if lease is not None:
                lease.release()
            raise
        obs.counter("serve.service.ego_submitted").inc()
        obs.histogram("serve.service.ego_nodes").observe(float(ego.n_nodes))
        obs.histogram("serve.service.ego_nnz").observe(float(ego.nnz))
        future = self._enqueue(
            ego.matrix,
            sub_features,
            deadline_ms=deadline_ms,
            route=route,
            lease=lease,
            pre_stages={"sample": sample_seconds},
        )
        return EgoSubmission(
            future=future,
            subgraph=ego,
            epoch=lease.epoch if lease is not None else None,
            sample_seconds=sample_seconds,
        )

    def _resolve_operand(
        self, matrix: "CSRMatrix | None", caller: str
    ) -> "tuple[EpochLease | None, CSRMatrix]":
        """Resolve ``matrix=None`` to the current epoch's snapshot."""
        if matrix is not None:
            return None, matrix
        if self.epoch_manager is None:
            raise ValueError(
                f"{caller}(matrix=None) requires an epoch-managed service "
                "(pass epoch_manager= to InferenceService)"
            )
        lease = self.epoch_manager.acquire()
        return lease, lease.matrix

    def _enqueue(
        self,
        matrix: CSRMatrix,
        dense: np.ndarray,
        *,
        deadline_ms: "float | None",
        route: str,
        lease: "EpochLease | None",
        pre_stages: "dict[str, float] | None" = None,
    ) -> "Future[ServeResponse]":
        """Validate, admit (or shed), and queue one request."""
        try:
            dense = np.asarray(dense, dtype=np.float64)
            if dense.ndim != 2:
                raise ValueError(
                    f"dense operand must be 2-D, got shape {dense.shape}"
                )
            if dense.shape[0] != matrix.n_cols:
                raise ValueError(
                    f"dimension mismatch: {matrix.shape} @ {dense.shape}"
                )
            if deadline_ms is not None and deadline_ms <= 0:
                raise ValueError(
                    f"deadline_ms must be positive, got {deadline_ms}"
                )
            # (full content fingerprint, feature width).  A matrix's
            # first fingerprint hashes all of it, so the key is taken
            # here, where no other submitter or worker waits on it.
            key = (matrix.fingerprint(include_values=True), dense.shape[1])
        except Exception:
            if lease is not None:
                lease.release()
            raise
        # Process-isolation admission inputs are gathered outside the
        # lock too: the poison key hashes the operands and the memory
        # guard reads /proc.  The poison key is a pass over the whole
        # dense operand, so it is computed only while something is
        # quarantined.
        pkey: "str | None" = None
        memory_pressure = False
        if self._proc_pool is not None:
            if self._proc_pool.quarantine_size():
                pkey = poison_key(key[0], dense)
            memory_pressure = self._proc_pool.memory_pressure()
        future: "Future[ServeResponse]" = Future()
        with self._cond:
            # Admission checks come before any id/metric allocation so
            # the submitted counter only ever counts requests that were
            # actually admitted or explicitly shed.
            if self._closed or not self._started:
                if lease is not None:
                    lease.release()
                raise RuntimeError(
                    "service is closed"
                    if self._closed
                    else "service is not started"
                )
            request_id = next(self._ids)
            obs.counter("serve.service.submitted").inc()
            if pkey is not None and self._proc_pool.is_quarantined(pkey):
                # Poison content never reaches another worker: terminal
                # answer at admission, no execution.
                obs.counter("serve.service.quarantined").inc()
                error = (
                    "request content quarantined after repeatedly "
                    "killing workers"
                )
                if lease is not None:
                    lease.release()
                future.set_result(
                    ServeResponse(
                        request_id=request_id,
                        status=QUARANTINED,
                        error=error,
                    )
                )
                self.slo.observe(route, 0.0, ok=False)
                self.flight_recorder.record(
                    {
                        "trace_id": None,
                        "request_id": request_id,
                        "route": route,
                        "status": QUARANTINED,
                        "total_seconds": 0.0,
                        "stages": {},
                        "events": {},
                        "error": error,
                    }
                )
                return future
            exhausted = (
                self._supervisor is not None and self._supervisor.exhausted
            ) or (
                self._proc_pool is not None
                and self._proc_pool.supervisor.exhausted
            )
            if (
                exhausted
                or memory_pressure
                or len(self._queue) >= self.config.max_queue
            ):
                obs.counter("serve.service.rejected").inc()
                if exhausted:
                    error = "worker pool exhausted (restart budget spent)"
                elif memory_pressure:
                    error = (
                        "memory pressure: pool RSS at or above the "
                        "admission highwater"
                    )
                else:
                    error = (
                        f"queue full ({len(self._queue)} pending, "
                        f"bound {self.config.max_queue})"
                    )
                if lease is not None:
                    # Never admitted: the lease must not pin its epoch.
                    lease.release()
                future.set_result(
                    ServeResponse(
                        request_id=request_id,
                        status=REJECTED,
                        error=error,
                    )
                )
                # A shed request still burns the route's error budget
                # and lands in the failure ring — overload must be
                # visible post hoc, not just in counters.
                self.slo.observe(route, 0.0, ok=False)
                self.flight_recorder.record(
                    {
                        "trace_id": None,
                        "request_id": request_id,
                        "route": route,
                        "status": REJECTED,
                        "total_seconds": 0.0,
                        "stages": {},
                        "events": {},
                        "error": error,
                    }
                )
                return future
            now = time.monotonic()
            ctx = rtrace.RequestContext.new(
                request_id=request_id, route=route
            )
            pre_seconds = 0.0
            for stage, seconds in (pre_stages or {}).items():
                ctx.ledger.add(stage, seconds)
                pre_seconds += max(0.0, seconds)
            pending = _Pending(
                request_id=request_id,
                matrix=matrix,
                dense=dense,
                key=key,
                enqueued_at=now,
                future=future,
                ctx=ctx,
                deadline=(
                    now + deadline_ms / 1000.0
                    if deadline_ms is not None
                    else None
                ),
                lease=lease,
                epoch=lease.epoch if lease is not None else None,
                pre_seconds=pre_seconds,
            )
            self._queue.append(pending)
            obs.counter("serve.service.accepted").inc()
            obs.instant(
                "rtrace.submit",
                category="rtrace",
                trace_id=ctx.trace_id,
                route=route,
            )
            self._cond.notify()
        return future

    def infer(
        self,
        matrix: CSRMatrix,
        dense: np.ndarray,
        timeout: "float | None" = None,
        *,
        deadline_ms: "float | None" = None,
        route: str = "default",
    ) -> ServeResponse:
        """Blocking convenience wrapper around :meth:`submit`."""
        return self.submit(
            matrix, dense, deadline_ms=deadline_ms, route=route
        ).result(timeout=timeout)

    @property
    def queue_depth(self) -> int:
        """Requests admitted but not yet dispatched."""
        with self._cond:
            return len(self._queue)

    # ------------------------------------------------------------------
    # Live-graph updates
    # ------------------------------------------------------------------
    def apply_updates(self, updates) -> "object":
        """Apply one edge-update batch and install the new epoch atomically.

        Returns the installed
        :class:`~repro.graphs.delta.GraphSnapshot`.  In-flight and
        queued requests keep executing against the epoch they admitted
        under (their read leases pin it); requests submitted after this
        returns admit under the new epoch.  Superseded epochs whose
        leases have drained retire before this returns — each
        registered cache drops exactly those epochs' keys.
        """
        if self.epoch_manager is None:
            raise RuntimeError(
                "apply_updates requires an epoch-managed service "
                "(pass epoch_manager= to InferenceService)"
            )
        with obs.span("serve.service.apply_updates"):
            snapshot = self.epoch_manager.apply_updates(updates)
        obs.counter("serve.service.updates_applied").inc()
        return snapshot

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------
    def health(self, policy: "HealthPolicy | None" = None) -> HealthReport:
        """Evaluate the service's failure domains into one health state.

        See :mod:`repro.serve.health` for the severity model.  The
        snapshot embedded in the report carries the raw inputs (queue
        depth, supervisor state, deadline-miss window) for
        dashboards and run records.
        """
        policy = policy or HealthPolicy()
        with self._cond:
            depth = len(self._queue)
            closed = self._closed
            started = self._started
        supervisor_snapshot = None
        if self._supervisor is not None:
            supervisor_snapshot = self._supervisor.snapshot()
            supervisor_snapshot["recent_crashes"] = (
                self._supervisor.recent_crashes(policy.crash_recent_seconds)
            )
        with self._miss_lock:
            window = len(self._recent_misses)
            misses = sum(self._recent_misses)
        snapshot = {
            "closed": closed,
            "started": started,
            "queue_depth": depth,
            "max_queue": self.config.max_queue,
            "supervisor": supervisor_snapshot,
            "deadline": {
                "window": window,
                "misses": misses,
                "total_misses": self._deadline_misses,
            },
            "slo": self.slo.health_snapshot(),
        }
        if self.epoch_manager is not None:
            snapshot["epochs"] = self.epoch_manager.stats()
        if self._proc_pool is not None:
            snapshot["procpool"] = self._proc_pool.snapshot()
        return evaluate_health(snapshot, policy)

    # ------------------------------------------------------------------
    # Worker pool
    # ------------------------------------------------------------------
    def _spawn_worker(self, worker_id: int) -> threading.Thread:
        return threading.Thread(
            target=self._worker_main,
            args=(worker_id,),
            name=f"serve-worker-{worker_id}",
            daemon=True,
        )

    def _worker_main(self, worker_id: int) -> None:
        """Supervision wrapper: fail the in-flight batch, report the crash."""
        try:
            self._worker_loop(worker_id)
        except Exception as exc:  # noqa: BLE001 - supervisor boundary
            batch = self._inflight.pop(worker_id, None)
            if batch:
                now = time.monotonic()
                self._fail_batch(
                    batch,
                    [now - p.enqueued_at for p in batch],
                    now,
                    f"worker crashed: {type(exc).__name__}: {exc}",
                )
            assert self._supervisor is not None
            self._supervisor.note_crash(worker_id, exc)
        else:
            assert self._supervisor is not None
            self._supervisor.note_exit(worker_id)

    def _worker_loop(self, worker_id: int) -> None:
        while True:
            batch = self._gather_batch()
            if batch is None:
                return
            self._inflight[worker_id] = batch
            self._maybe_crash()
            self._execute_batch(batch)
            self._inflight.pop(worker_id, None)
            # Each finished request's released lease still references
            # its snapshot: holding the batch while this worker waits
            # for the next one would keep a retired epoch alive.
            del batch

    @staticmethod
    def _maybe_crash() -> None:
        """Fault hook: an active plan may kill this worker thread."""
        plan = faults.active_plan()
        if plan is not None and plan.should_crash_worker():
            raise faults.ExecutionFaultError("injected worker-thread crash")

    def _gather_batch(self) -> "list[_Pending] | None":
        """Collect one fingerprint-homogeneous batch (or ``None`` to exit).

        Requests already past their deadline are shed with a
        :data:`DEADLINE_EXCEEDED` response the moment they surface,
        before any execution cost is paid.  Otherwise pops the oldest
        queued request as the batch head, takes every queued request
        with the same key (up to ``max_batch``) and returns at once:
        the batch is what is queued when this worker frees up.  Nothing
        here waits on a clock; the only blocking wait is for an empty
        queue, woken by admission or :meth:`close`.
        """
        with self._cond:
            while True:
                while not self._queue:
                    if self._closed:
                        return None
                    self._cond.wait()
                head = self._queue.popleft()
                if (
                    head.deadline is not None
                    and time.monotonic() >= head.deadline
                ):
                    self._shed_expired(head)
                    continue
                break
            batch = [head]
            kept: "deque[_Pending]" = deque()
            while self._queue:
                pending = self._queue.popleft()
                if (
                    pending.key == head.key
                    and len(batch) < self.config.max_batch
                ):
                    batch.append(pending)
                else:
                    kept.append(pending)
            self._queue.extend(kept)
            return batch

    def _shed_expired(self, pending: _Pending, now: "float | None" = None) -> None:
        """Resolve one expired request with ``DEADLINE_EXCEEDED``, unexecuted."""
        now = time.monotonic() if now is None else now
        obs.counter("serve.service.deadline_shed").inc()
        self._record_miss(True)
        waited = now - pending.enqueued_at
        pending.ctx.ledger.add("queue", waited)
        self._finalize(pending, DEADLINE_EXCEEDED)
        pending.future.set_result(
            ServeResponse(
                request_id=pending.request_id,
                status=DEADLINE_EXCEEDED,
                queue_seconds=waited,
                error=(
                    "deadline exceeded before execution "
                    f"(waited {waited * 1e3:.1f} ms)"
                ),
                trace_id=pending.ctx.trace_id,
                attribution=pending.ctx.ledger.to_dict(),
                epoch=pending.epoch,
            )
        )

    def _settle_ledger(
        self, pending: _Pending, now: float
    ) -> "tuple[float, dict]":
        """Reconcile a request's ledger with its end-to-end latency.

        Requests that never reached execution (abandoned queue, worker
        crash before attribution) get their wait charged to ``queue``;
        everything unattributed lands in ``other`` so the stage sum
        always equals the end-to-end total.  Returns
        ``(total_seconds, ledger_dict)``.
        """
        total = max(0.0, now - pending.enqueued_at)
        ledger = pending.ctx.ledger
        if "queue" not in ledger.stages():
            ledger.add("queue", total)
        # pre_seconds (the pre-admission "sample" stage) rides on top of
        # the admission-to-reply total, so the stage sum reconciles with
        # the request's full end-to-end time.
        ledger.add(
            "other", max(0.0, total + pending.pre_seconds - ledger.total())
        )
        return total, ledger.to_dict()

    def _finalize(
        self, pending: _Pending, status: str, **extra
    ) -> None:
        """Feed a finished request into the SLO tracker + flight recorder.

        Every terminal path passes through here, so this is also where
        the request's epoch lease drains — after this, a superseded
        epoch with no other readers retires and its cache keys drop.
        """
        if pending.lease is not None:
            pending.lease.release()
        self.slo.observe(
            pending.ctx.route, pending.ctx.ledger.total(), ok=(status == OK)
        )
        self.flight_recorder.record(
            pending.ctx.summary(status=status, **extra)
        )

    def _record_miss(self, missed: bool) -> None:
        with self._miss_lock:
            self._recent_misses.append(missed)
            if missed:
                self._deadline_misses += 1

    def _batch_timeout(
        self, batch: "list[_Pending]", started: float
    ) -> "float | None":
        """The batch budget: ``request_timeout`` ∧ min remaining deadline."""
        budgets = []
        if self.config.request_timeout is not None:
            budgets.append(self.config.request_timeout)
        for pending in batch:
            if pending.deadline is not None:
                budgets.append(pending.deadline - started)
        return min(budgets) if budgets else None

    def _execute_batch(self, batch: "list[_Pending]") -> None:
        started = time.monotonic()
        # Final deadline sweep: _gather_batch checks only the head, and
        # other members may have expired in the queue.  Nothing expired
        # ever reaches a backend.
        live = []
        for pending in batch:
            if pending.deadline is not None and started >= pending.deadline:
                self._shed_expired(pending, started)
            else:
                live.append(pending)
        if not live:
            return
        batch = live
        matrix = batch[0].matrix
        queue_waits = [started - p.enqueued_at for p in batch]
        contexts = []
        for pending, wait in zip(batch, queue_waits):
            pending.ctx.ledger.add("queue", max(0.0, wait))
            contexts.append(pending.ctx)
        # The batching key includes the feature width, so every member
        # shares one width and the stacked result splits evenly.
        width = batch[0].dense.shape[1]
        stacked = (
            np.hstack([p.dense for p in batch])
            if len(batch) > 1
            else batch[0].dense
        )
        obs.counter("serve.service.batches").inc()
        obs.histogram("serve.service.batch_size").observe(float(len(batch)))
        if self._proc_pool is not None:
            self._execute_batch_proc(
                batch, queue_waits, started, contexts, matrix, stacked, width
            )
            return
        try:
            with obs.span(
                "serve.service.batch",
                batch_size=len(batch),
                nnz=matrix.nnz,
                dim=int(stacked.shape[1]),
                trace_ids=",".join(c.trace_id for c in contexts),
            ):
                result = call_with_timeout(
                    lambda: self.dispatcher.execute(
                        matrix, stacked, verify=self.config.verify
                    ),
                    self._batch_timeout(batch, started),
                )
        except ExperimentTimeoutError as exc:
            self._fail_timed_out_batch(batch, queue_waits, started, exc)
            return
        except Exception as exc:  # dispatcher already absorbed backend faults
            self._fail_batch(
                batch, queue_waits, started, f"{type(exc).__name__}: {exc}"
            )
            return
        # The dispatcher timed its phases; every member waited on all of
        # them, so each ledger gets the full seconds.
        for ctx in contexts:
            for stage, seconds in result.stages.items():
                ctx.ledger.add(stage, seconds)
        self._complete_batch(batch, queue_waits, started, result, width)

    def _execute_batch_proc(
        self,
        batch: "list[_Pending]",
        queue_waits: "list[float]",
        started: float,
        contexts: list,
        matrix: CSRMatrix,
        stacked: np.ndarray,
        width: int,
    ) -> None:
        """Run one batch on the service's :class:`ProcessWorkerPool`.

        The pool's reaper enforces the batch budget by SIGKILLing a
        hung worker — no ``call_with_timeout`` thread-abandonment here —
        and failures map to terminal statuses: crash/hang/RSS kill ->
        :data:`WORKER_CRASHED` (or :data:`DEADLINE_EXCEEDED` for
        members already past their deadline), quarantined content ->
        :data:`QUARANTINED`, transport errors -> :data:`ERROR`.  With
        ``config.verify`` the oracle cross-check runs here in the
        parent, outside the worker's failure domain.
        """
        keys = PoisonKeys(batch[0].key[0], [p.dense for p in batch])

        def run_on_pool():
            with rtrace.activate(*contexts):
                result = self._proc_pool.execute(
                    matrix,
                    stacked,
                    keys=keys,
                    timeout=self._batch_timeout(batch, started),
                )
                if self.config.verify:
                    with rtrace.stage("verify"):
                        check_output(matrix, stacked, result.output)
                return result

        try:
            with obs.span(
                "serve.service.batch",
                batch_size=len(batch),
                nnz=matrix.nnz,
                dim=int(stacked.shape[1]),
                isolation="process",
                trace_ids=",".join(c.trace_id for c in contexts),
            ):
                result = run_on_pool()
        except QuarantinedError as exc:
            obs.counter("serve.service.quarantined").inc(len(batch))
            self._fail_batch(
                batch, queue_waits, started, str(exc), status=QUARANTINED
            )
            return
        except WorkerCrashError as exc:
            self._fail_crashed_batch(batch, queue_waits, started, exc)
            return
        except PoolError as exc:
            self._fail_batch(batch, queue_waits, started, str(exc))
            return
        except Exception as exc:  # noqa: BLE001 - e.g. oracle failure
            self._fail_batch(
                batch, queue_waits, started, f"{type(exc).__name__}: {exc}"
            )
            return
        self._complete_batch(batch, queue_waits, started, result, width)

    def _fail_crashed_batch(
        self,
        batch: "list[_Pending]",
        queue_waits: "list[float]",
        started: float,
        exc: WorkerCrashError,
    ) -> None:
        """Terminal per-member classification after a worker death.

        Members already past their deadline answer
        :data:`DEADLINE_EXCEEDED` (a hung worker reaped at the batch
        budget *is* their deadline firing); everyone else answers the
        terminal :data:`WORKER_CRASHED`.
        """
        now = time.monotonic()
        for pending, wait in zip(batch, queue_waits):
            if pending.deadline is not None and now >= pending.deadline:
                status = DEADLINE_EXCEEDED
                error = f"deadline exceeded during execution: {exc}"
                obs.counter("serve.service.deadline_cutoff").inc()
                self._record_miss(True)
            else:
                status = WORKER_CRASHED
                error = str(exc)
                obs.counter("serve.service.worker_crashed").inc()
                self._record_miss(False)
            total, attribution = self._settle_ledger(pending, now)
            self._finalize(pending, status, error=error)
            pending.future.set_result(
                ServeResponse(
                    request_id=pending.request_id,
                    status=status,
                    batch_size=len(batch),
                    queue_seconds=wait,
                    service_seconds=max(0.0, total - wait),
                    error=error,
                    trace_id=pending.ctx.trace_id,
                    attribution=attribution,
                    epoch=pending.epoch,
                )
            )

    def _complete_batch(
        self,
        batch: "list[_Pending]",
        queue_waits: "list[float]",
        started: float,
        result,
        width: int,
    ) -> None:
        obs.histogram("serve.service.latency_seconds").observe(
            time.monotonic() - started
        )
        for i, (pending, wait) in enumerate(zip(batch, queue_waits)):
            ledger = pending.ctx.ledger
            if len(batch) == 1:
                # The whole result belongs to this request — no copy.
                output = result.output
            else:
                # Copy the slice: a view into the stacked batch result
                # would let one client's mutation corrupt another's reply
                # and pin the full batch array for every response.
                copy_started = time.perf_counter()
                output = result.output[:, i * width : (i + 1) * width].copy()
                ledger.add("scatter", time.perf_counter() - copy_started)
            obs.counter("serve.service.completed").inc()
            self._record_miss(False)
            # Stamp the residual (timeout-pool hand-off, loop overhead)
            # so the ledger's stage sum reconciles exactly with the
            # request's end-to-end latency.
            total = time.monotonic() - pending.enqueued_at
            ledger.add(
                "other",
                max(0.0, total + pending.pre_seconds - ledger.total()),
            )
            self._finalize(
                pending, OK,
                backend=result.backend,
                fallback_used=result.fallback_used,
                batch_size=len(batch),
            )
            pending.future.set_result(
                ServeResponse(
                    request_id=pending.request_id,
                    status=OK,
                    output=output,
                    backend=result.backend,
                    fallback_used=result.fallback_used,
                    batch_size=len(batch),
                    queue_seconds=wait,
                    service_seconds=max(0.0, total - wait),
                    trace_id=pending.ctx.trace_id,
                    attribution=ledger.to_dict(),
                    epoch=pending.epoch,
                )
            )

    def _fail_timed_out_batch(
        self,
        batch: "list[_Pending]",
        queue_waits: "list[float]",
        started: float,
        exc: ExperimentTimeoutError,
    ) -> None:
        """Classify a timed-out batch: deadline members vs. budget members."""
        now = time.monotonic()
        for pending, wait in zip(batch, queue_waits):
            if pending.deadline is not None and now >= pending.deadline:
                status = DEADLINE_EXCEEDED
                error = f"deadline exceeded during execution: {exc}"
                obs.counter("serve.service.deadline_cutoff").inc()
                self._record_miss(True)
            else:
                status = ERROR
                error = f"timeout: {exc}"
                obs.counter("serve.service.errors").inc()
                self._record_miss(False)
            total, attribution = self._settle_ledger(pending, now)
            self._finalize(pending, status, error=error)
            pending.future.set_result(
                ServeResponse(
                    request_id=pending.request_id,
                    status=status,
                    batch_size=len(batch),
                    queue_seconds=wait,
                    service_seconds=max(0.0, total - wait),
                    error=error,
                    trace_id=pending.ctx.trace_id,
                    attribution=attribution,
                    epoch=pending.epoch,
                )
            )

    def _fail_batch(
        self,
        batch: "list[_Pending]",
        queue_waits: "list[float]",
        started: float,
        error: str,
        status: str = ERROR,
    ) -> None:
        now = time.monotonic()
        if status == ERROR:
            obs.counter("serve.service.errors").inc(len(batch))
        for pending, wait in zip(batch, queue_waits):
            self._record_miss(False)
            total, attribution = self._settle_ledger(pending, now)
            self._finalize(pending, status, error=error)
            pending.future.set_result(
                ServeResponse(
                    request_id=pending.request_id,
                    status=status,
                    batch_size=len(batch),
                    queue_seconds=wait,
                    service_seconds=max(0.0, total - wait),
                    error=error,
                    trace_id=pending.ctx.trace_id,
                    attribution=attribution,
                    epoch=pending.epoch,
                )
            )

    def _on_pool_exhausted(self) -> None:
        """Supervisor callback: the restart budget is spent."""
        obs.counter("serve.service.pool_exhausted").inc()
        self._abandon_queue("worker pool exhausted (restart budget spent)")

    def _abandon_queue(self, error: str) -> None:
        """Fail everything still queued; bounded failure, never a hang."""
        with self._cond:
            abandoned = list(self._queue)
            self._queue.clear()
        if not abandoned:
            return
        now = time.monotonic()
        self._fail_batch(
            abandoned, [now - p.enqueued_at for p in abandoned], now, error
        )
