"""Process-isolated execution workers over shared-memory graph segments.

Every execution tier before this one ran as threads inside a single
Python process, so one hung, crashed, or memory-hogging worker could
stall or kill the whole service — ``call_with_timeout`` can only
*abandon* a stuck thread, never kill it.  :class:`ProcessWorkerPool`
closes that gap: each worker is a real OS subprocess that attaches the
graph zero-copy from a checksummed shared-memory CSR segment
(:mod:`repro.shm`), takes batches over a pipe, and is *supervised from
outside its own failure domain*:

* **Heartbeat liveness.**  Idle workers beat on their pipe every
  ``heartbeat_interval``; a worker that stops beating (wedged
  interpreter, stuck import, swap death) past ``heartbeat_timeout`` is
  SIGKILLed and respawned.  Busy workers are covered by the per-batch
  deadline instead: a batch that outlives its budget gets its worker
  SIGKILLed by the reaper — an actual kill, where the thread tier could
  only abandon.
* **Crash containment.**  A worker dying mid-batch (segfault, OOM kill,
  ``os._exit``) fails exactly that batch's requests with a terminal
  :data:`WORKER_CRASHED` status; the pool respawns the worker under the
  shared :class:`~repro.serve.guard.WorkerSupervisor` restart-budget
  semantics and every other queued request proceeds.
* **Poison-request quarantine.**  A request whose content has killed or
  hung workers ``poison_threshold`` times is quarantined: answered
  immediately with a terminal :data:`QUARANTINED` error and never again
  allowed near a worker, so one poison input cannot crash-loop the pool
  to exhaustion.
* **Memory guards.**  The reaper SIGKILLs any worker whose RSS passes
  ``worker_rss_limit_bytes`` *before* the OS OOM-killer picks a victim
  at random, and :meth:`ProcessWorkerPool.memory_pressure` lets the
  service shed new work at admission once the pool's total RSS passes
  ``memory_highwater_bytes``.
* **Torn-segment detection.**  Workers verify each segment's BLAKE2b
  digests at attach; a corrupted segment is reported (never computed
  on), republished from the parent's pristine copy, and every worker's
  stale attach cache is flushed by respawn.

Nothing but control messages travels the pipe.  Workers attach each
published graph segment once per epoch and hold numpy views into the
shared pages (:class:`~repro.shm.AttachedCSR.copied_bytes` stays 0,
which the chaos matrix asserts).  Each worker slot owns one
shared-memory block, created by the pool and replaced only when a batch
needs more bytes than it holds: the parent copies the batch's dense
operand into it, the worker keeps it mapped across requests and writes
its product beside the operand, and the parent copies the product out
before :meth:`ProcessWorkerPool.execute` returns.  The largest pipe
message is kept as ``snapshot()["zero_copy"]["max_message_bytes"]``;
the result's ``ipc_seconds`` times the two copies and the wake-ups,
which the service charges to each request's ``ipc`` stage
(:mod:`repro.obs.rtrace`).

Wire-up: ``InferenceService(config=ServeConfig(isolation="process"))``
builds and owns one of these pools; the process rows of
``python -m repro chaos`` drive the containment matrix end to end.
See ``docs/ROBUSTNESS.md``.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import threading
import time
from multiprocessing import shared_memory
from multiprocessing.reduction import ForkingPickler
from collections import OrderedDict, deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro import obs
from repro.core.parallel import execute_row_blocks
from repro.formats import CSRMatrix
from repro.resilience import faults
from repro.serve.guard import WorkerSupervisor
from repro.shm import (
    AttachedCSR,
    SegmentChecksumError,
    _no_tracker_register,
    _quiet_close,
    attach_csr,
    publish_csr,
)

# Terminal response statuses owned by the process tier (the service
# re-exports them next to OK/REJECTED/ERROR/DEADLINE_EXCEEDED).
WORKER_CRASHED = "worker_crashed"
QUARANTINED = "quarantined"

# Kill reasons that count as the in-flight request's fault and strike
# its poison key; "segment-flush" and plain shutdown kills do not.
_POISON_REASONS = ("crash", "hang-timeout", "rss-limit")


class PoolError(RuntimeError):
    """Base class for process-pool execution failures.

    ``status`` is the terminal :class:`~repro.serve.service.ServeResponse`
    status the service should answer the affected requests with.
    """

    status = "error"


class WorkerCrashError(PoolError):
    """The batch's worker died (crash, hang reap, or RSS kill)."""

    status = WORKER_CRASHED

    def __init__(self, message: str, reason: str = "crash") -> None:
        super().__init__(message)
        self.reason = reason


class QuarantinedError(PoolError):
    """The request's content is quarantined as poison."""

    status = QUARANTINED


@dataclass(frozen=True)
class ProcPoolConfig:
    """Tunables of one :class:`ProcessWorkerPool`.

    Attributes:
        n_workers: Worker subprocesses.
        heartbeat_interval: Idle-worker beat period (also the reaper's
            scan period), in seconds.
        heartbeat_timeout: An *idle* worker silent this long is presumed
            wedged and SIGKILLed.
        hang_timeout: Default per-batch execution budget; a busy worker
            past it is SIGKILLed (per-call ``timeout`` tightens this).
        poison_threshold: Worker deaths attributable to one request
            content before it is quarantined.
        quarantine_capacity: Most-recent quarantine entries retained
            (bounded so an adversarial key stream cannot grow memory).
        worker_rss_limit_bytes: Per-worker RSS above which the reaper
            SIGKILLs (``None`` disables).
        memory_highwater_bytes: Pool-wide RSS (parent + workers) above
            which :meth:`ProcessWorkerPool.memory_pressure` reports
            pressure so admission can shed (``None`` disables).
        segment_cache_capacity: Published segments kept live in the
            parent (per distinct graph fingerprint; LRU beyond this).
        restart_budget: Worker respawns allowed per ``restart_window``
            seconds (see :class:`~repro.serve.guard.WorkerSupervisor`).
        restart_window: Sliding window for the restart budget; ``None``
            makes the budget a lifetime total.
        start_method: ``multiprocessing`` start method.  ``fork`` keeps
            respawn latency in the low milliseconds; workers run a
            deliberately minimal loop (pipe + numpy/scipy) so inherited
            parent state is never touched.
    """

    n_workers: int = 2
    heartbeat_interval: float = 0.05
    heartbeat_timeout: float = 2.0
    hang_timeout: float = 30.0
    poison_threshold: int = 2
    quarantine_capacity: int = 64
    worker_rss_limit_bytes: "int | None" = None
    memory_highwater_bytes: "int | None" = None
    segment_cache_capacity: int = 4
    restart_budget: int = 8
    restart_window: "float | None" = 60.0
    start_method: str = "fork"

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {self.n_workers}")
        for name in ("heartbeat_interval", "heartbeat_timeout", "hang_timeout"):
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.poison_threshold < 1:
            raise ValueError(
                f"poison_threshold must be >= 1, got {self.poison_threshold}"
            )
        if self.quarantine_capacity < 1:
            raise ValueError(
                f"quarantine_capacity must be >= 1, got {self.quarantine_capacity}"
            )
        if self.segment_cache_capacity < 1:
            raise ValueError(
                "segment_cache_capacity must be >= 1, "
                f"got {self.segment_cache_capacity}"
            )
        if self.restart_budget < 0:
            raise ValueError(
                f"restart_budget must be >= 0, got {self.restart_budget}"
            )
        if self.start_method not in ("fork", "spawn", "forkserver"):
            raise ValueError(
                f"unknown start_method {self.start_method!r}"
            )


@dataclass
class ProcResult:
    """One successful pool execution (mirrors ``DispatchResult`` fields).

    ``output`` is an array the caller owns: :meth:`ProcessWorkerPool.
    execute` copies the product out of the worker's shared-memory block
    before it returns, so no result aliases a block that a later request
    overwrites.
    """

    output: np.ndarray
    backend: str = "procpool"
    fallback_used: bool = False
    kernel_seconds: float = 0.0
    ipc_seconds: float = 0.0
    copied_bytes: int = 0
    worker_id: int = -1


def poison_key(matrix_fingerprint: str, dense: np.ndarray) -> str:
    """Content identity of one request for quarantine accounting.

    Covers the graph (by value fingerprint) *and* the dense operand
    bytes: two requests are "the same poison" only when a worker would
    execute the identical computation.
    """
    digest = hashlib.blake2b(digest_size=16)
    digest.update(matrix_fingerprint.encode())
    dense = np.ascontiguousarray(dense, dtype=np.float64)
    digest.update(repr(dense.shape).encode())
    digest.update(dense.data)
    return digest.hexdigest()


class PoisonKeys:
    """The :func:`poison_key` of each batch member, hashed on first use.

    A key is a pass over the member's whole dense operand, and a healthy
    pool never needs one: keys matter only while the quarantine set is
    non-empty or after a worker dies for a poison reason.  The first
    iteration computes the keys once (the caller's admission check and
    the pool's death handler may race to it); later ones reuse them.
    """

    def __init__(self, matrix_fingerprint: str, operands) -> None:
        self._fingerprint = matrix_fingerprint
        self._operands = tuple(operands)
        self._keys: "tuple[str, ...] | None" = None
        self._lock = threading.Lock()

    def __iter__(self):
        with self._lock:
            if self._keys is None:
                self._keys = tuple(
                    poison_key(self._fingerprint, dense)
                    for dense in self._operands
                )
        return iter(self._keys)


def rss_bytes(pid: "int | None" = None) -> int:
    """Resident set size of ``pid`` (default: this process), in bytes."""
    try:
        with open(f"/proc/{pid or os.getpid()}/statm") as handle:
            fields = handle.read().split()
        return int(fields[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, IndexError, ValueError):  # pragma: no cover - non-proc OS
        return 0


def _unlink_block(block: "shared_memory.SharedMemory | None") -> None:
    """Unlink and unmap a slot block (a live view defers the unmap)."""
    if block is None:
        return
    try:
        block.unlink()
    except FileNotFoundError:  # pragma: no cover - defensive
        pass
    _quiet_close(block)


# ----------------------------------------------------------------------
# Worker subprocess
# ----------------------------------------------------------------------
def _apply_fault(fault: "str | None", delay_seconds: float) -> None:
    """Honor an injected fault marker shipped with the batch."""
    if fault == "crash":
        os._exit(23)
    if fault == "hang":
        while True:  # reaped by the parent's SIGKILL
            time.sleep(0.01)
    if fault == "hog":
        hog = []
        # Bounded balloon: enough to cross any test RSS limit without
        # actually endangering the host; then stall holding it so the
        # reaper (RSS guard or hang timeout) must do the killing.
        for _ in range(24):
            hog.append(np.ones(1 << 21))  # 16 MiB per chunk
            time.sleep(0.002)
        while True:
            time.sleep(0.01)
    if fault == "delay":
        time.sleep(delay_seconds)


def _worker_entry(
    worker_id: int,
    conn,
    heartbeat_interval: float,
    segment_cache_capacity: int,
) -> None:
    """Worker subprocess main loop: beat while idle, compute on demand.

    Deliberately minimal — pipe + numpy/scipy + segment attach, nothing
    else — so a ``fork``-started child never touches inherited parent
    state (locks, sockets, the obs registry).  Metrics collection is
    switched off first thing for the same reason.  Every batch is one
    ``execute_row_blocks(matrix, stacked, 1, out=...)`` call on its
    attached segment's matrix: scipy's CSR kernel reads the index and
    value arrays in the shared pages as they are (no scipy view, no
    ``int32`` index copy) and writes the product straight into the
    slot's block beside the operand.  The block stays mapped until an
    exec message names a new one.

    The worker returns once its parent is gone — ``os.getppid()`` no
    longer the pid it started under, checked at every heartbeat poll —
    so a parent killed without ``close()`` leaves no orphan holding
    whatever the parent shared with it open.
    """
    try:
        obs.disable()
    except Exception:  # pragma: no cover - defensive
        pass
    parent = os.getppid()
    attached: "OrderedDict[str, AttachedCSR]" = OrderedDict()
    block: "shared_memory.SharedMemory | None" = None
    words: "np.ndarray | None" = None  # the block as float64 words
    try:
        while True:
            if os.getppid() != parent:
                return
            if not conn.poll(heartbeat_interval):
                try:
                    conn.send(("beat", rss_bytes()))
                except (BrokenPipeError, OSError):
                    return
                continue
            try:
                message = conn.recv()
            except (EOFError, OSError):
                return
            if message[0] == "stop":
                return
            if message[0] != "exec":  # pragma: no cover - protocol guard
                continue
            _, job_id, meta, staged, fault, delay_seconds = message
            block_name, shape, out_offset = staged
            _apply_fault(fault, delay_seconds)
            try:
                entry = attached.get(meta.name)
                if entry is None:
                    entry = attached[meta.name] = attach_csr(meta, verify=True)
                    while len(attached) > segment_cache_capacity:
                        attached.popitem(last=False)[1].close()
                else:
                    attached.move_to_end(meta.name)
                if block is None or block.name != block_name:
                    # The parent grew the slot's block: map the new one.
                    if block is not None:
                        _quiet_close(block)
                    with _no_tracker_register():
                        block = shared_memory.SharedMemory(
                            name=block_name, create=False
                        )
                    words = np.frombuffer(block.buf, dtype=np.float64)
                stacked = words[: shape[0] * shape[1]].reshape(shape)
                matrix = entry.matrix
                product = words[
                    out_offset : out_offset + matrix.n_rows * shape[1]
                ].reshape(matrix.n_rows, shape[1])
                started = time.perf_counter()
                execute_row_blocks(matrix, stacked, 1, out=product)
                kernel_seconds = time.perf_counter() - started
                conn.send(
                    ("result", job_id, kernel_seconds, entry.copied_bytes)
                )
            except SegmentChecksumError as exc:
                stale = attached.pop(meta.name, None)
                if stale is not None:
                    stale.close()
                conn.send(("error", job_id, "segment_corrupt", str(exc)))
            except Exception as exc:  # noqa: BLE001 - report, stay alive
                conn.send(
                    ("error", job_id, "exec_error", f"{type(exc).__name__}: {exc}")
                )
    finally:
        if block is not None:
            _quiet_close(block)
        for entry in attached.values():
            entry.close()
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass


# ----------------------------------------------------------------------
# Parent-side pool
# ----------------------------------------------------------------------
@dataclass
class _Job:
    job_id: int
    # Poison keys (a tuple or a lazy PoisonKeys); read only on a
    # poison-reason death.
    keys: "Iterable[str]"
    event: threading.Event = field(default_factory=threading.Event)
    # (kernel seconds, graph bytes copied) once the worker has written
    # the product into its slot's block.
    reply: "tuple[float, int] | None" = None
    error: "tuple[str, str] | None" = None  # (kind, message)
    crash_reason: "str | None" = None


class _Slot:
    """Parent-side state of one worker subprocess.

    ``block`` is the slot's shared-memory block and ``words`` the
    parent's float64 view of it; both are swapped under the pool lock.
    ``job`` is held from acquire until the product is copied out.  The
    view comes from ``np.frombuffer``, which holds a buffer export on
    the mapping: unlinking the block while a thread still copies through
    the view then leaves the pages mapped until the view is released
    (an ``np.ndarray(buffer=...)`` view holds no export, and closing
    the block under it would unmap pages the thread is reading).
    """

    def __init__(self, worker_id: int, proc, conn, now: float) -> None:
        self.worker_id = worker_id
        self.proc = proc
        self.conn = conn
        self.block: "shared_memory.SharedMemory | None" = None
        self.words: "np.ndarray | None" = None
        self.job: "_Job | None" = None
        self.busy_deadline: "float | None" = None
        self.last_beat = now
        self.reported_rss = 0
        self.kill_reason: "str | None" = None
        self.dead = False


class _ProcHandle:
    """Adapter giving a worker Process the supervisor's thread interface."""

    def __init__(self, proc, after_start) -> None:
        self._proc = proc
        self._after_start = after_start

    def start(self) -> None:
        self._proc.start()
        self._after_start()

    def is_alive(self) -> bool:
        return self._proc.is_alive()

    def join(self, timeout: "float | None" = None) -> None:
        self._proc.join(timeout)

    def kill(self) -> None:
        self._proc.kill()

    @property
    def pid(self) -> "int | None":
        return self._proc.pid


class ProcessWorkerPool:
    """Supervised pool of subprocess workers over shared CSR segments.

    Args:
        config: Pool tunables; defaults to :class:`ProcPoolConfig`.

    Use :meth:`start`/:meth:`close` (or as a context manager).  All
    public methods are thread-safe: many service worker threads call
    :meth:`execute` concurrently, each blocking until a subprocess
    returns its batch.
    """

    def __init__(self, config: "ProcPoolConfig | None" = None) -> None:
        self.config = config or ProcPoolConfig()
        self._ctx = multiprocessing.get_context(self.config.start_method)
        self._cond = threading.Condition()
        self._slots: "dict[int, _Slot]" = {}
        self._jobs = 0
        self._started = False
        self._closed = False
        # Published segments by graph value-fingerprint (LRU), and the
        # publishes in flight, which a concurrent first use waits on.
        self._segments: "OrderedDict[str, object]" = OrderedDict()
        self._publishing: "dict[str, Future]" = {}
        self._seg_lock = threading.Lock()
        # Poison accounting: strikes per key, plus the bounded
        # quarantine set itself.
        self._strikes: "OrderedDict[str, int]" = OrderedDict()
        self._quarantined: "OrderedDict[str, str]" = OrderedDict()
        # Kill/telemetry counters.
        self.kills = {"hang-timeout": 0, "heartbeat-miss": 0, "rss-limit": 0}
        self._heartbeat_kill_times: "deque[float]" = deque(maxlen=256)
        self.executed = 0
        self.republished = 0
        self.max_request_copied_bytes = 0
        self.max_message_bytes = 0
        self.supervisor = WorkerSupervisor(
            self._spawn_worker,
            self.config.n_workers,
            restart_budget=self.config.restart_budget,
            restart_window=self.config.restart_window,
        )
        self._reaper: "threading.Thread | None" = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ProcessWorkerPool":
        """Fork the worker subprocesses and the reaper (idempotent)."""
        with self._cond:
            if self._closed:
                raise PoolError("pool is closed")
            if self._started:
                return self
            self._started = True
        self.supervisor.start()
        self._reaper = threading.Thread(
            target=self._reaper_loop, name="procpool-reaper", daemon=True
        )
        self._reaper.start()
        obs.counter("serve.procpool.started").inc()
        return self

    def close(self) -> None:
        """Kill workers, unlink segments and slot blocks (idempotent)."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            slots = list(self._slots.values())
            self._cond.notify_all()
        for slot in slots:
            try:
                slot.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        deadline = time.monotonic() + 2.0
        for slot in slots:
            slot.proc.join(max(0.0, deadline - time.monotonic()))
            if slot.proc.is_alive():
                slot.proc.kill()
                slot.proc.join(1.0)
            try:
                slot.conn.close()
            except OSError:
                pass
        if self._reaper is not None:
            self._reaper.join(2.0)
        with self._seg_lock:
            segments = list(self._segments.values())
            self._segments.clear()
        for segment in segments:
            segment.close()
        for slot in slots:
            self._drop_block(slot)

    def __enter__(self) -> "ProcessWorkerPool":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Spawning (via the supervisor)
    # ------------------------------------------------------------------
    def _spawn_worker(self, worker_id: int) -> _ProcHandle:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_worker_entry,
            args=(
                worker_id,
                child_conn,
                self.config.heartbeat_interval,
                self.config.segment_cache_capacity,
            ),
            name=f"procpool-worker-{worker_id}",
            daemon=True,
        )
        slot = _Slot(worker_id, proc, parent_conn, time.monotonic())

        def after_start() -> None:
            # The parent's copy of the child end must close or the
            # receiver would never see EOF when the worker dies.
            child_conn.close()
            with self._cond:
                self._slots[worker_id] = slot
                self._cond.notify_all()
            threading.Thread(
                target=self._receiver_loop,
                args=(slot,),
                name=f"procpool-recv-{worker_id}",
                daemon=True,
            ).start()

        return _ProcHandle(proc, after_start)

    # ------------------------------------------------------------------
    # Receiver + reaper threads
    # ------------------------------------------------------------------
    def _receiver_loop(self, slot: _Slot) -> None:
        """Drain one worker's pipe until it dies; then run the death path."""
        while True:
            try:
                payload = slot.conn.recv_bytes()
            except (EOFError, OSError):
                break
            self._note_message(len(payload))
            message = ForkingPickler.loads(payload)
            kind = message[0]
            if kind == "beat":
                with self._cond:
                    slot.last_beat = time.monotonic()
                    slot.reported_rss = message[1]
                continue
            if kind == "result":
                _, job_id, kernel_seconds, copied = message
                with self._cond:
                    job = slot.job
                    if job is None or job.job_id != job_id:
                        continue  # reply for a job already failed over
                    # The slot stays held until execute() has copied the
                    # product out of its block.
                    job.reply = (kernel_seconds, copied)
                    slot.busy_deadline = None
                    slot.last_beat = time.monotonic()
                    self.executed += 1
                    self.max_request_copied_bytes = max(
                        self.max_request_copied_bytes, copied
                    )
                job.event.set()
                obs.counter("serve.procpool.batches").inc()
                continue
            if kind == "error":
                _, job_id, err_kind, err_message = message
                with self._cond:
                    job = slot.job
                    if job is None or job.job_id != job_id:
                        continue
                    job.error = (err_kind, err_message)
                    slot.job = None
                    slot.busy_deadline = None
                    slot.last_beat = time.monotonic()
                    self._cond.notify_all()
                job.event.set()
                obs.counter(
                    "serve.procpool.worker_errors", kind=err_kind
                ).inc()
        self._handle_worker_death(slot)

    def _handle_worker_death(self, slot: _Slot) -> None:
        """EOF on a worker pipe: contain, account, respawn."""
        with self._cond:
            if slot.dead:
                return
            slot.dead = True
            closed = self._closed
            self._slots.pop(slot.worker_id, None)
            job = slot.job
            slot.job = None
            if job is not None and job.reply is not None:
                job = None  # its product was written before the death
            reason = slot.kill_reason or "crash"
            self._cond.notify_all()
        # EOF means the worker has exited, so nothing writes the block.
        self._drop_block(slot)
        slot.proc.join(1.0)
        try:
            slot.conn.close()
        except OSError:
            pass
        if closed:
            if job is not None:  # pragma: no cover - shutdown race
                job.crash_reason = reason
                job.event.set()
            return
        obs.counter("serve.procpool.worker_deaths", reason=reason).inc()
        if job is not None:
            job.crash_reason = reason
            if reason in _POISON_REASONS:
                self._strike(job.keys)
            job.event.set()
        plan = faults.active_plan()
        fault_kind = {
            "crash": "proc-crash",
            "hang-timeout": "proc-hang",
            "heartbeat-miss": "proc-hang",
            "rss-limit": "proc-hog",
        }.get(reason)
        if plan is not None and fault_kind is not None:
            plan.note_detected(fault_kind)
        respawned = self.supervisor.note_crash(
            slot.worker_id,
            WorkerCrashError(f"worker died ({reason})", reason=reason),
        )
        if respawned and plan is not None and fault_kind is not None:
            plan.note_recovered(fault_kind)
        with self._cond:
            self._cond.notify_all()

    def _reaper_loop(self) -> None:
        """SIGKILL workers that hang, go silent, or balloon their RSS."""
        interval = self.config.heartbeat_interval
        while True:
            time.sleep(interval)
            with self._cond:
                if self._closed:
                    return
                slots = list(self._slots.values())
            now = time.monotonic()
            for slot in slots:
                if slot.dead or not slot.proc.is_alive():
                    continue
                reason = None
                limit = self.config.worker_rss_limit_bytes
                if limit is not None:
                    rss = rss_bytes(slot.proc.pid)
                    if rss > limit:
                        reason = "rss-limit"
                if reason is None and slot.busy_deadline is not None:
                    if now >= slot.busy_deadline:
                        reason = "hang-timeout"
                elif reason is None and slot.job is None:
                    if now - slot.last_beat > self.config.heartbeat_timeout:
                        reason = "heartbeat-miss"
                if reason is None:
                    continue
                with self._cond:
                    if slot.dead or slot.kill_reason is not None:
                        continue
                    # Revalidate under the lock: the unlocked scan above
                    # races job hand-off, and an idle-silence verdict
                    # must not kill a worker that just went busy (its
                    # batch would be blamed on a heartbeat miss).
                    if reason == "heartbeat-miss" and slot.job is not None:
                        continue
                    if reason == "hang-timeout" and (
                        slot.busy_deadline is None
                        or now < slot.busy_deadline
                    ):
                        continue
                    slot.kill_reason = reason
                    self.kills[reason] += 1
                    if reason == "heartbeat-miss":
                        self._heartbeat_kill_times.append(now)
                obs.counter("serve.procpool.reaped", reason=reason).inc()
                # SIGKILL; the receiver thread sees EOF and runs the
                # death path (fail job, strike poison, respawn).
                slot.proc.kill()

    # ------------------------------------------------------------------
    # Segments
    # ------------------------------------------------------------------
    def segment_for(self, matrix: CSRMatrix):
        """Published segment for ``matrix`` (publish-once, LRU-bounded).

        The cache keys on the *value* fingerprint (which folds in the
        epoch version), so ``apply_updates`` installing a new epoch
        republished automatically on first use.  Each segment is
        published once: a concurrent first use waits for the publish
        already in flight (and raises its error).
        """
        fingerprint = matrix.fingerprint(include_values=True)
        with self._seg_lock:
            segment = self._segments.get(fingerprint)
            if segment is not None:
                self._segments.move_to_end(fingerprint)
                return segment
            publishing = self._publishing.get(fingerprint)
            owner = publishing is None
            if owner:
                publishing = self._publishing[fingerprint] = Future()
        if not owner:
            return publishing.result()
        # Publish outside the lock (O(nnz) copy), then install.
        try:
            fresh = publish_csr(matrix)
        except BaseException as exc:
            with self._seg_lock:
                del self._publishing[fingerprint]
            publishing.set_exception(exc)
            raise
        evicted = []
        with self._seg_lock:
            del self._publishing[fingerprint]
            self._segments[fingerprint] = fresh
            while len(self._segments) > self.config.segment_cache_capacity:
                evicted.append(self._segments.popitem(last=False)[1])
        publishing.set_result(fresh)
        for stale in evicted:
            stale.close()
        return fresh

    def _republish_after_corruption(self, matrix: CSRMatrix, bad_name: str) -> None:
        """Replace a corrupted segment and flush every worker's caches.

        Workers cache attaches per segment *name*; a republish gets a
        fresh name, but a worker that attached before the corruption
        would keep computing on the torn pages.  Killing the workers is
        the only way to guarantee no stale mapping survives — they
        respawn in milliseconds with cold caches.
        """
        fingerprint = matrix.fingerprint(include_values=True)
        with self._seg_lock:
            current = self._segments.get(fingerprint)
            already_replaced = current is not None and current.name != bad_name
            if not already_replaced:
                self._segments.pop(fingerprint, None)
        if already_replaced:
            return
        if current is not None:
            current.close()
        self.republished += 1
        obs.counter("serve.procpool.segments_republished").inc()
        plan = faults.active_plan()
        if plan is not None:
            plan.note_detected("segment-corrupt")
            plan.note_recovered("segment-corrupt")
        with self._cond:
            victims = [s for s in self._slots.values() if not s.dead]
            for slot in victims:
                if slot.kill_reason is None:
                    slot.kill_reason = "segment-flush"
        for slot in victims:
            if slot.proc.is_alive():
                slot.proc.kill()

    # ------------------------------------------------------------------
    # Quarantine
    # ------------------------------------------------------------------
    def _strike(self, keys: "Iterable[str]") -> None:
        # Materialize (hash, for lazy keys) before taking the pool lock.
        keys = tuple(keys)
        quarantined_now = False
        with self._cond:
            for key in keys:
                strikes = self._strikes.get(key, 0) + 1
                self._strikes[key] = strikes
                self._strikes.move_to_end(key)
                while len(self._strikes) > 4 * self.config.quarantine_capacity:
                    self._strikes.popitem(last=False)
                if (
                    strikes >= self.config.poison_threshold
                    and key not in self._quarantined
                ):
                    self._quarantined[key] = (
                        f"{strikes} worker deaths attributed to this request"
                    )
                    while len(self._quarantined) > self.config.quarantine_capacity:
                        self._quarantined.popitem(last=False)
                    quarantined_now = True
        if quarantined_now:
            obs.counter("serve.procpool.quarantined").inc()
            plan = faults.active_plan()
            if plan is not None:
                plan.note_detected("poison-request")
                plan.note_recovered("poison-request")

    def is_quarantined(self, key: "str | None") -> bool:
        """Whether ``key`` is a quarantined poison-request key."""
        if key is None:
            return False
        with self._cond:
            return key in self._quarantined

    def quarantine_size(self) -> int:
        """Number of keys currently quarantined."""
        with self._cond:
            return len(self._quarantined)

    # ------------------------------------------------------------------
    # Memory pressure
    # ------------------------------------------------------------------
    def total_rss_bytes(self) -> int:
        """Parent + live-worker resident set, in bytes."""
        total = rss_bytes()
        with self._cond:
            pids = [
                s.proc.pid
                for s in self._slots.values()
                if not s.dead and s.proc.is_alive()
            ]
        for pid in pids:
            total += rss_bytes(pid)
        return total

    def memory_pressure(self) -> bool:
        """Whether admission should shed on pool-wide memory pressure."""
        highwater = self.config.memory_highwater_bytes
        if highwater is None:
            return False
        pressured = self.total_rss_bytes() >= highwater
        if pressured:
            obs.counter("serve.procpool.memory_pressure").inc()
        return pressured

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _acquire_slot(self, job: _Job, deadline: "float | None") -> _Slot:
        with self._cond:
            while True:
                if self._closed:
                    raise PoolError("pool is closed")
                if self.supervisor.exhausted:
                    raise WorkerCrashError(
                        "worker pool exhausted (restart budget spent)",
                        reason="exhausted",
                    )
                for slot in self._slots.values():
                    # A slot marked for death (reaper or segment flush)
                    # may still look alive for a few ms; handing it a
                    # job would fail that job for nothing.
                    if slot.dead or slot.job is not None:
                        continue
                    if slot.kill_reason is not None:
                        continue
                    if not slot.proc.is_alive():
                        continue
                    slot.job = job
                    return slot
                if deadline is not None and time.monotonic() >= deadline:
                    raise PoolError(
                        "no idle process worker within the batch budget"
                    )
                self._cond.wait(timeout=self.config.heartbeat_interval)

    def _stage(
        self, slot: _Slot, stacked: np.ndarray, n_words: int
    ) -> "tuple[str, np.ndarray] | None":
        """Copy ``stacked`` into ``slot``'s block, growing it if needed.

        A block smaller than ``n_words`` float64 words is replaced by one
        of exactly that size, and the old one is unlinked; the worker
        maps the new name on its next batch.  Returns the block's name
        and the parent's view of it, or ``None`` when the slot's worker
        died (or the pool closed) meanwhile.
        """
        with self._cond:
            block, words = slot.block, slot.words
        if words is None or words.size < n_words:
            block = shared_memory.SharedMemory(create=True, size=n_words * 8)
            with self._cond:
                live = not (slot.dead or self._closed)
                if live:
                    stale, slot.block = slot.block, block
                    words = slot.words = np.frombuffer(
                        block.buf, dtype=np.float64, count=n_words
                    )
                _unlink_block(stale if live else block)
            if not live:
                return None
        words[: stacked.size].reshape(stacked.shape)[...] = stacked
        return block.name, words

    def _drop_block(self, slot: _Slot) -> None:
        """Unlink ``slot``'s block (a view still held keeps it mapped).

        Unlinked under the lock, so a racing caller that finds the block
        gone (``close()`` against the death path) returns only after the
        name has left ``/dev/shm``.
        """
        with self._cond:
            block, slot.block, slot.words = slot.block, None, None
            _unlink_block(block)

    def _note_message(self, nbytes: int) -> None:
        if nbytes > self.max_message_bytes:
            with self._cond:
                self.max_message_bytes = max(self.max_message_bytes, nbytes)

    def execute(
        self,
        matrix: CSRMatrix,
        stacked: np.ndarray,
        *,
        keys: "Iterable[str]" = (),
        timeout: "float | None" = None,
    ) -> ProcResult:
        """Run ``matrix @ stacked`` on a worker subprocess.

        Args:
            matrix: Sparse operand; published to (or reused from) the
                shared-segment cache — never serialized per request.
            stacked: Column-stacked dense operands of the batch (2-D);
                copied into the acquired slot's shared-memory block,
                never onto the pipe.
            keys: Poison keys of the batch's members (see
                :func:`poison_key`; a lazy :class:`PoisonKeys` is read
                only when needed); worker deaths strike them and a
                quarantined key fails fast with
                :class:`QuarantinedError`.
            timeout: Batch budget in seconds.  Unlike the thread tier's
                ``call_with_timeout`` — which can only abandon — the
                budget here is enforced by the reaper SIGKILLing the
                worker, so a hung batch *terminates*.

        Raises:
            QuarantinedError: A member's content is quarantined.
            WorkerCrashError: The worker died mid-batch (killed, hung
                past budget, RSS guard) or the pool is exhausted.
            PoolError: Transport/execution errors (terminal ``error``).

        The product is copied out of the slot's block into an array the
        caller owns before the slot is released.  The result carries the
        worker-reported kernel time as ``kernel_seconds`` and the rest
        of the call's wall time (staging the operand, copying the
        product into and out of the block, pipe wake-ups) as
        ``ipc_seconds``.
        """
        if self.quarantine_size() and any(map(self.is_quarantined, keys)):
            raise QuarantinedError(
                "request content is quarantined after repeatedly "
                "killing workers"
            )
        started = time.monotonic()
        deadline = started + timeout if timeout is not None else None
        budget = min(
            timeout if timeout is not None else self.config.hang_timeout,
            self.config.hang_timeout,
        )
        segment = self.segment_for(matrix)
        out_shape = (matrix.n_rows, int(stacked.shape[1]))
        out_offset = (stacked.size + 7) & ~7  # 64-byte aligned product
        out_end = out_offset + out_shape[0] * out_shape[1]
        attempts = 0
        while True:
            attempts += 1
            with self._cond:
                self._jobs += 1
                job = _Job(job_id=self._jobs, keys=keys)
            slot = self._acquire_slot(job, deadline)
            plan = faults.active_plan()
            fault = plan.proc_fault() if plan is not None else None
            delay_seconds = (
                plan.delay_proc_seconds if plan is not None else 0.0
            )
            staged = self._stage(slot, stacked, max(1, out_end))
            if staged is not None:
                block_name, words = staged
                payload = ForkingPickler.dumps(
                    ("exec", job.job_id, segment.meta,
                     (block_name, stacked.shape, out_offset),
                     fault, delay_seconds)
                )
                self._note_message(len(payload))
                with self._cond:
                    slot.busy_deadline = time.monotonic() + budget
                try:
                    slot.conn.send_bytes(payload)
                except (BrokenPipeError, OSError):
                    staged = None
            if staged is None:
                # Worker died between acquire and send; its death path
                # respawns it — just try another slot.
                with self._cond:
                    if slot.job is job:
                        slot.job = None
                        slot.busy_deadline = None
                if deadline is not None and time.monotonic() >= deadline:
                    raise WorkerCrashError(
                        "worker died before accepting the batch"
                    ) from None
                continue
            # The reaper guarantees termination (SIGKILL past budget),
            # so this wait always ends; the slack covers reap + EOF
            # delivery.
            job.event.wait(budget + 10.0 * self.config.heartbeat_interval + 5.0)
            if job.reply is not None:
                kernel_seconds, copied = job.reply
                output = words[out_offset:out_end].reshape(out_shape).copy()
                with self._cond:
                    if slot.job is job:
                        slot.job = None
                        self._cond.notify_all()
                ipc_seconds = max(
                    0.0, time.monotonic() - started - kernel_seconds
                )
                obs.histogram("serve.procpool.ipc_seconds").observe(ipc_seconds)
                return ProcResult(
                    output=output,
                    kernel_seconds=kernel_seconds,
                    ipc_seconds=ipc_seconds,
                    copied_bytes=copied,
                    worker_id=slot.worker_id,
                )
            if job.error is not None:
                kind, message = job.error
                if kind == "segment_corrupt":
                    self._republish_after_corruption(matrix, segment.meta.name)
                    if attempts <= 2:
                        segment = self.segment_for(matrix)
                        continue
                    raise PoolError(
                        f"segment corrupt after republish: {message}"
                    )
                raise PoolError(f"worker execution error: {message}")
            if job.crash_reason is None:  # pragma: no cover - reaper failed
                # The worker still holds the slot and may yet write its
                # block: it must die before the slot is handed out again.
                with self._cond:
                    slot.kill_reason = slot.kill_reason or "hang-timeout"
                slot.proc.kill()
            reason = job.crash_reason or "hang-timeout"
            if reason == "segment-flush" and attempts <= 2:
                # The worker was killed to flush stale attach caches
                # after a corrupt segment — not this request's fault;
                # re-resolve the segment and run it elsewhere.
                segment = self.segment_for(matrix)
                continue
            raise WorkerCrashError(
                f"worker crashed mid-batch ({reason})", reason=reason
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def heartbeat_kills_recent(self, window_seconds: float) -> int:
        """Workers SIGKILLed for missed heartbeats in the window."""
        cutoff = time.monotonic() - window_seconds
        with self._cond:
            return sum(1 for at in self._heartbeat_kill_times if at >= cutoff)

    def snapshot(self) -> dict:
        """Machine-readable pool state for health reports and benches."""
        supervisor = self.supervisor.snapshot()
        with self._cond:
            kills = dict(self.kills)
            quarantine = {
                "active": len(self._quarantined),
                "threshold": self.config.poison_threshold,
                "strikes": sum(self._strikes.values()),
            }
            executed = self.executed
            max_copied = self.max_request_copied_bytes
            max_message = self.max_message_bytes
            idle = sum(
                1
                for s in self._slots.values()
                if s.job is None and not s.dead
            )
        with self._seg_lock:
            segments = {
                "active": len(self._segments),
                "republished": self.republished,
            }
        highwater = self.config.memory_highwater_bytes
        total_rss = self.total_rss_bytes()
        return {
            "supervisor": supervisor,
            "idle_workers": idle,
            "executed": executed,
            "kills": kills,
            "heartbeat_kills_recent": self.heartbeat_kills_recent(30.0),
            "quarantine": quarantine,
            "segments": segments,
            "memory": {
                "total_rss_bytes": total_rss,
                "highwater_bytes": highwater,
                "worker_limit_bytes": self.config.worker_rss_limit_bytes,
                "pressure": (
                    highwater is not None and total_rss >= highwater
                ),
            },
            "zero_copy": {
                "per_request_graph_bytes_copied": max_copied,
                "max_message_bytes": max_message,
            },
        }
