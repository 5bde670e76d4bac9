"""The shard router: scatter -> per-shard SpMM -> halo gather.

:class:`ShardRouter` fronts ``N`` single-shard
:class:`~repro.serve.procpool.ProcessWorkerPool` instances, one per
graph shard.  Each shard's worker subprocesses attach zero-copy to that
shard's *local* CSR published in shared memory; nothing ever ships the
global graph.  A request executes as:

1. **partition** — the graph's partition is resolved from a
   value-fingerprint-keyed LRU (a new epoch means a new fingerprint,
   so live-graph compaction re-partitions automatically);
2. **scatter** — the dense operand is sliced into per-shard
   owned-vertex blocks (``rtrace`` stage ``scatter``);
3. **shard SpMM** — every non-empty shard runs its local
   ``A_s @ X_s`` concurrently on its own pool as scipy's CSR product; a
   crashed shard worker is *re-replayed* on its respawned successor
   (bounded by ``replay_budget``) while the other shards' results
   stand;
4. **halo gather** — per-shard partial outputs are summed into the
   global result (``rtrace`` stage ``halo``): complete rows arrive from
   exactly one shard, boundary rows accumulate one partial per owning
   shard — the paper's partial-row accumulation across processes.

The router implements the same execution protocol as a single
``ProcessWorkerPool`` (``execute`` / ``is_quarantined`` /
``memory_pressure`` / ``supervisor.exhausted`` / ``snapshot``), so
:class:`~repro.serve.service.InferenceService` drives it through the
identical batch path as ``isolation="process"``.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, replace

import numpy as np

from repro import obs
from repro.formats.csr import CSRMatrix
from repro.obs import rtrace
from repro.serve.procpool import (
    PoolError,
    ProcessWorkerPool,
    ProcPoolConfig,
    QuarantinedError,
    WorkerCrashError,
)
from repro.shard.partition import (
    STRATEGIES,
    GraphPartition,
    partition_graph,
)


@dataclass(frozen=True)
class ShardConfig:
    """Tunables of one :class:`ShardRouter`.

    Attributes:
        n_shards: Graph shards (one worker pool each).
        strategy: Partitioning strategy (see
            :data:`repro.shard.partition.STRATEGIES`).
        workers_per_shard: Worker subprocesses per shard pool.
        replay_budget: Re-replays of one shard's sub-batch after its
            worker crashes mid-batch (the respawned worker gets the
            retry); the batch fails with the crash only when the budget
            is spent or the shard's pool is exhausted.
        partition_cache_capacity: Partitions kept per router (per
            distinct graph fingerprint; LRU beyond this — live-graph
            epochs arrive with fresh fingerprints and age old ones out).
        seed: Tie-breaking seed for the edge-cut strategy.
        result_transport: How per-shard partial outputs return to the
            router (``"shm"`` default — boundary-heavy partitions ship
            close to ``n_shards`` full outputs per request, so skipping
            the pickle/pipe round-trip is the difference between halo
            exchange scaling and drowning; ``"pipe"`` for the classic
            transport).
    """

    n_shards: int = 2
    strategy: str = "block"
    workers_per_shard: int = 1
    replay_budget: int = 2
    partition_cache_capacity: int = 4
    seed: int = 0
    result_transport: str = "shm"

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {self.n_shards}")
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {self.strategy!r}; "
                f"expected one of {STRATEGIES}"
            )
        if self.workers_per_shard < 1:
            raise ValueError(
                f"workers_per_shard must be >= 1, "
                f"got {self.workers_per_shard}"
            )
        if self.replay_budget < 0:
            raise ValueError(
                f"replay_budget must be >= 0, got {self.replay_budget}"
            )
        if self.partition_cache_capacity < 1:
            raise ValueError(
                "partition_cache_capacity must be >= 1, "
                f"got {self.partition_cache_capacity}"
            )
        if self.result_transport not in ("pipe", "shm"):
            raise ValueError(
                "result_transport must be 'pipe' or 'shm', "
                f"got {self.result_transport!r}"
            )


@dataclass
class ShardResult:
    """One successful sharded execution (pool-protocol result shape).

    Attributes:
        output: Gathered global result (``n_rows x width``).
        backend: Always ``"shard"``.
        fallback_used: Always ``False`` (protocol compatibility).
        kernel_seconds: Slowest shard's worker-reported kernel time
            (the shards run concurrently, so the max gates the batch).
        ipc_seconds: Parallel-section wall time beyond the slowest
            kernel: pipe transport, scheduling, slower-shard skew.
        scatter_seconds: Operand slicing into per-shard blocks.
        halo_seconds: Halo gather (partial-row summation).
        halo_bytes: Extra gather traffic attributable to boundary rows
            for this request's width (see
            :meth:`~repro.shard.partition.PartitionStats.halo_bytes`).
        copied_bytes: Graph bytes copied per request — always 0; shard
            workers attach to shared segments.
        shards_used: Shards that executed (empty shards are skipped).
        replays: Sub-batch re-replays that recovered crashed shards
            during this execution.
        worker_id: Protocol compatibility (always -1; the per-shard
            worker ids live in the shard pools).
    """

    output: np.ndarray
    backend: str = "shard"
    fallback_used: bool = False
    kernel_seconds: float = 0.0
    ipc_seconds: float = 0.0
    scatter_seconds: float = 0.0
    halo_seconds: float = 0.0
    halo_bytes: int = 0
    copied_bytes: int = 0
    shards_used: int = 0
    replays: int = 0
    worker_id: int = -1


class _SupervisorView:
    """Aggregate supervisor facade over the per-shard pools.

    The service's admission path asks one question —
    ``supervisor.exhausted`` — and a sharded batch needs *every* shard,
    so the router is exhausted as soon as any shard's pool is.
    """

    def __init__(self, router: "ShardRouter") -> None:
        self._router = router

    @property
    def exhausted(self) -> bool:
        """True when any shard's restart budget is spent."""
        return any(
            pool.supervisor.exhausted for pool in self._router.pools
        )


class ShardRouter:
    """Sharded multi-process SpMM executor (see module docstring).

    Args:
        config: Router tunables; a default 2-shard config when omitted.
        proc_config: Template for the per-shard pools (its ``n_workers``
            is overridden by ``config.workers_per_shard``).

    Use as a context manager or call :meth:`start`/:meth:`close`.
    Thread-safe: concurrent :meth:`execute` calls scatter onto the
    shard pools independently.
    """

    def __init__(
        self,
        config: "ShardConfig | None" = None,
        proc_config: "ProcPoolConfig | None" = None,
    ) -> None:
        self.config = config or ShardConfig()
        template = proc_config or ProcPoolConfig()
        self._proc_config = replace(
            template,
            n_workers=self.config.workers_per_shard,
            result_transport=self.config.result_transport,
        )
        self.pools: "list[ProcessWorkerPool]" = []
        self._lock = threading.Lock()
        # Value-fingerprint -> (structural fingerprint, partition); the
        # structural key is what epoch retirement invalidates by.
        self._partitions: (
            "OrderedDict[str, tuple[str, GraphPartition]]"
        ) = OrderedDict()
        self._started = False
        self._closed = False
        self.executed = 0
        self.replays = 0
        self._replay_times: "list[float]" = []
        self._last_stats: "dict | None" = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ShardRouter":
        """Fork the per-shard worker pools (idempotent)."""
        with self._lock:
            if self._closed:
                raise PoolError("router is closed")
            if self._started:
                return self
            self._started = True
        self.pools = [
            ProcessWorkerPool(self._proc_config)
            for _ in range(self.config.n_shards)
        ]
        for pool in self.pools:
            pool.start()
        obs.gauge("shard.router.shards").set(float(self.config.n_shards))
        return self

    def close(self) -> None:
        """Shut down every shard pool and drop cached partitions."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._partitions.clear()
        for pool in self.pools:
            pool.close()

    def __enter__(self) -> "ShardRouter":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Pool protocol (what InferenceService drives)
    # ------------------------------------------------------------------
    @property
    def supervisor(self) -> _SupervisorView:
        """Aggregate exhaustion view over the shard pools."""
        return _SupervisorView(self)

    def is_quarantined(self, key: "str | None") -> bool:
        """Whether any shard pool has quarantined ``key`` as poison."""
        return any(pool.is_quarantined(key) for pool in self.pools)

    def memory_pressure(self) -> bool:
        """Whether any shard pool reports admission-level RSS pressure."""
        return any(pool.memory_pressure() for pool in self.pools)

    # ------------------------------------------------------------------
    # Partition cache
    # ------------------------------------------------------------------
    def partition_for(self, matrix: CSRMatrix) -> GraphPartition:
        """Resolve (or build) the partition for ``matrix``.

        Keyed by the value fingerprint — the same identity the shard
        pools key their shared segments on — so a live-graph epoch with
        new content re-partitions exactly once, and repeated requests
        against one epoch reuse the plan.
        """
        key = matrix.fingerprint(include_values=True)
        with self._lock:
            hit = self._partitions.get(key)
            if hit is not None:
                self._partitions.move_to_end(key)
                obs.counter("shard.router.partition_hits").inc()
                return hit[1]
        partition = partition_graph(
            matrix,
            self.config.n_shards,
            strategy=self.config.strategy,
            seed=self.config.seed,
        )
        structural = matrix.fingerprint()
        with self._lock:
            self._partitions[key] = (structural, partition)
            self._partitions.move_to_end(key)
            while len(self._partitions) > self.config.partition_cache_capacity:
                self._partitions.popitem(last=False)
            self._last_stats = partition.stats.to_dict()
        obs.counter("shard.router.partition_misses").inc()
        return partition

    def invalidate_fingerprint(self, fingerprint: str) -> int:
        """Drop cached partitions for a retired graph fingerprint.

        Epoch-manager cache hook
        (:meth:`repro.serve.epoch.GraphEpochManager.register_cache`):
        called with the retired snapshot's structural fingerprint when
        its last lease drains.  Entries match by either their value key
        or their recorded structural fingerprint; returns the number of
        partitions dropped.
        """
        dropped = 0
        with self._lock:
            for key in [
                k
                for k, (structural, _) in self._partitions.items()
                if k == fingerprint or structural == fingerprint
            ]:
                del self._partitions[key]
                dropped += 1
        if dropped:
            obs.counter("shard.router.partitions_invalidated").inc(dropped)
        return dropped

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(
        self,
        matrix: CSRMatrix,
        stacked: np.ndarray,
        *,
        keys: "tuple[str, ...]" = (),
        timeout: "float | None" = None,
    ) -> ShardResult:
        """Run ``matrix @ stacked`` across the shards (see module doc).

        Args:
            matrix: Global sparse operand; partitioned (cached) and
                served from per-shard shared segments.
            stacked: Column-stacked dense operands of the batch.
            keys: Poison keys of the batch's members; forwarded to
                every shard pool so repeat killers are quarantined.
            timeout: Batch budget in seconds, shared by all shards
                (each shard's reaper enforces it by SIGKILL).

        Raises:
            QuarantinedError: A member's content is quarantined on some
                shard.
            WorkerCrashError: A shard's worker died and the replay
                budget (or the shard pool's restart budget) is spent.
            PoolError: Transport/execution errors, or a router that is
                not started.
        """
        if not self._started or self._closed:
            raise PoolError("shard router is not running")
        for key in keys:
            if self.is_quarantined(key):
                raise QuarantinedError(
                    "request content is quarantined after repeatedly "
                    "killing shard workers"
                )
        started = time.monotonic()
        deadline = started + timeout if timeout is not None else None
        partition = self.partition_for(matrix)
        width = int(stacked.shape[1])

        scatter_started = time.perf_counter()
        with rtrace.stage("scatter"):
            operands = partition.scatter(stacked)
        scatter_seconds = time.perf_counter() - scatter_started

        active = [
            shard
            for shard in range(partition.n_shards)
            if partition.shards[shard].nnz > 0
        ]
        results: "list[object | None]" = [None] * partition.n_shards
        errors: "list[tuple[int, BaseException] | None]" = (
            [None] * partition.n_shards
        )
        replays = [0]
        replay_lock = threading.Lock()

        def run_shard(shard: int) -> None:
            part = partition.shards[shard]
            attempts = 0
            while True:
                remaining = (
                    max(0.001, deadline - time.monotonic())
                    if deadline is not None
                    else None
                )
                try:
                    results[shard] = self.pools[shard].execute(
                        part.matrix,
                        operands[shard],
                        keys=keys,
                        timeout=remaining,
                    )
                    return
                except WorkerCrashError as exc:
                    exhausted = (
                        exc.reason == "exhausted"
                        or self.pools[shard].supervisor.exhausted
                    )
                    if exhausted or attempts >= self.config.replay_budget:
                        errors[shard] = (shard, exc)
                        return
                    attempts += 1
                    with replay_lock:
                        replays[0] += 1
                    obs.counter("shard.router.replays").inc()
                    # The supervisor is already respawning the dead
                    # worker; the retry blocks in _acquire_slot until
                    # the successor is live, then re-runs this shard's
                    # sub-batch — the other shards' results stand.
                except PoolError as exc:  # Quarantined/transport: terminal
                    errors[shard] = (shard, exc)
                    return
                except Exception as exc:  # noqa: BLE001 - report, never hang
                    errors[shard] = (shard, exc)
                    return

        parallel_started = time.perf_counter()
        threads = [
            threading.Thread(
                target=run_shard, args=(shard,), name=f"shard-exec-{shard}"
            )
            for shard in active
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        parallel_seconds = time.perf_counter() - parallel_started

        failure = self._classify_failures(errors)
        if failure is not None:
            for result in results:
                if result is not None:
                    result.release()
            raise failure

        with self._lock:
            self.executed += 1
            self.replays += replays[0]
            if replays[0]:
                self._replay_times.append(time.monotonic())
                del self._replay_times[:-256]

        halo_started = time.perf_counter()
        with rtrace.stage("halo"):
            output = partition.gather(
                [
                    result.output if result is not None else None
                    for result in results
                ],
                width,
            )
        halo_seconds = time.perf_counter() - halo_started
        for result in results:
            if result is not None:
                # Gather summed out of the shm views; hand the warm
                # blocks back to the shard pools for the next request.
                result.release()

        kernel_seconds = max(
            (results[shard].kernel_seconds for shard in active),
            default=0.0,
        )
        ipc_seconds = max(0.0, parallel_seconds - kernel_seconds)
        rtrace.attribute("kernel", kernel_seconds)
        rtrace.attribute("ipc", ipc_seconds)
        halo_bytes = partition.stats.halo_bytes(width)
        obs.counter("shard.router.executed").inc()
        obs.histogram("shard.router.halo_bytes").observe(float(halo_bytes))
        obs.histogram("shard.router.halo_seconds").observe(halo_seconds)
        return ShardResult(
            output=output,
            kernel_seconds=kernel_seconds,
            ipc_seconds=ipc_seconds,
            scatter_seconds=scatter_seconds,
            halo_seconds=halo_seconds,
            halo_bytes=halo_bytes,
            shards_used=len(active),
            replays=replays[0],
        )

    def _classify_failures(
        self,
        errors: "list[tuple[int, BaseException] | None]",
    ) -> "BaseException | None":
        """Pick the batch-level failure from per-shard errors.

        Severity order: quarantine (terminal content verdict) beats
        crash (terminal infrastructure verdict) beats transport error.
        The winning error is re-raised with the shard id prefixed so
        operators can see *which* failure domain broke.
        """
        failures = [entry for entry in errors if entry is not None]
        if not failures:
            return None

        def rank(entry: "tuple[int, BaseException]") -> int:
            _, exc = entry
            if isinstance(exc, QuarantinedError):
                return 0
            if isinstance(exc, WorkerCrashError):
                return 1
            return 2

        failures.sort(key=rank)
        shard, exc = failures[0]
        message = f"shard {shard}: {exc}"
        if isinstance(exc, QuarantinedError):
            raised: BaseException = QuarantinedError(message)
        elif isinstance(exc, WorkerCrashError):
            raised = WorkerCrashError(message, reason=exc.reason)
        elif isinstance(exc, PoolError):
            raised = type(exc)(message)
        else:
            raised = PoolError(message)
        raised.__cause__ = exc
        return raised

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def replays_recent(self, window_seconds: float) -> int:
        """Replayed sub-batches within the trailing window."""
        cutoff = time.monotonic() - window_seconds
        with self._lock:
            return sum(1 for at in self._replay_times if at >= cutoff)

    def snapshot(self) -> dict:
        """Machine-readable router state for health reports and benches.

        Mirrors the pool snapshot protocol (``isolation`` discriminates)
        and adds per-shard pool snapshots plus the most recent
        partition's quality stats.
        """
        with self._lock:
            executed = self.executed
            replays = self.replays
            partitions_cached = len(self._partitions)
            last_stats = self._last_stats
        shard_snapshots = []
        for shard, pool in enumerate(self.pools):
            pool_snapshot = pool.snapshot()
            pool_snapshot["supervisor"]["recent_crashes"] = (
                pool.supervisor.recent_crashes(30.0)
            )
            shard_snapshots.append(
                {"shard_id": shard, **pool_snapshot}
            )
        exhausted_shards = [
            snap["shard_id"]
            for snap in shard_snapshots
            if snap["supervisor"].get("exhausted")
        ]
        return {
            "isolation": "shard",
            "n_shards": self.config.n_shards,
            "strategy": self.config.strategy,
            "executed": executed,
            "replays": replays,
            "replays_recent": self.replays_recent(30.0),
            "partitions_cached": partitions_cached,
            "partition": last_stats,
            "supervisor": {
                "exhausted": bool(exhausted_shards),
                "exhausted_shards": exhausted_shards,
                "restart_budget": self._proc_config.restart_budget,
                "crashes": sum(
                    snap["supervisor"].get("crashes", 0)
                    for snap in shard_snapshots
                ),
                "restarts": sum(
                    snap["supervisor"].get("restarts", 0)
                    for snap in shard_snapshots
                ),
            },
            "quarantine": {
                "active": sum(
                    snap["quarantine"]["active"] for snap in shard_snapshots
                ),
            },
            "memory": {
                "total_rss_bytes": sum(
                    snap["memory"]["total_rss_bytes"]
                    for snap in shard_snapshots
                ),
                "pressure": any(
                    snap["memory"]["pressure"] for snap in shard_snapshots
                ),
            },
            "zero_copy": {
                "per_request_graph_bytes_copied": max(
                    (
                        snap["zero_copy"]["per_request_graph_bytes_copied"]
                        for snap in shard_snapshots
                    ),
                    default=0,
                ),
            },
            "shards": shard_snapshots,
        }
