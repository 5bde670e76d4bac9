"""Request-scoped tracing: per-request latency attribution ledgers.

The span layer (:mod:`repro.obs.trace`) answers "where does *the
process* spend time"; it cannot answer "where did *this request* spend
time", because a serving request crosses thread and queue boundaries —
admission on the client thread, a wait in the batch queue, execution on
a worker thread, the kernel, possibly a worker subprocess.

A :class:`RequestContext` (trace id + per-stage timing :class:`Ledger`)
is created at admission and carried *by value* through the queue
alongside the request's operands.  Whoever times a stage adds its
seconds to the ledger directly, from two clock reads, so the stage
taxonomy forms non-overlapping leaves whose sum reconciles with
end-to-end latency:

``sample`` → ``queue`` → ``kernel`` → ``verify`` / ``fallback`` →
``ipc`` → ``scatter``, plus ``other`` for the residual the service
stamps when the request ends.

A batch executes once for many requests, and a shared stage is charged
at full wall value to each member's own ledger — the per-request view of
shared wall time, which is what tail latency attribution needs.

:func:`activate` records, per thread, which requests the thread is
working for; it attributes nothing.  A tracer outside the program reads
:func:`active_contexts` to link the spans it records on a thread to the
requests behind them (the process tier activates its batch around the
pool call for this).

:class:`FlightRecorder` retains a bounded set of the slowest completed
and most recent failed request summaries for post-hoc dumps (the
serving layer owns one per service; :meth:`FlightRecorder.slowest` and
:meth:`FlightRecorder.failures` read it).
"""

from __future__ import annotations

import heapq
import itertools
import os
import threading
from collections import deque
from contextlib import contextmanager
from typing import Iterator

from repro.obs import metrics as _metrics

# Stage names the serving stack emits, in pipeline order.  Not enforced —
# any stage name is accepted — but documented here as the canonical
# taxonomy reports and tests rely on.
STAGES = (
    "sample",       # ego-graph sampling + extraction (pre-admission)
    "queue",        # admission -> batch execution start
    "kernel",       # the SpMM itself
    "verify",       # output-oracle cross-check
    "fallback",     # verified_spmm recovery path
    "ipc",          # process-pool transport: shm copies, pipe wake-ups
    "scatter",      # per-request copy-out
    "other",        # residual stamped when the request ends
)

_trace_counter = itertools.count(1)


def new_trace_id() -> str:
    """A process-unique trace id (pid-prefixed monotonic counter)."""
    return f"{os.getpid():x}-{next(_trace_counter):08x}"


class Ledger:
    """Thread-safe per-request accumulator of stage seconds and events.

    Each request owns exactly one ledger; ledgers are never shared
    between requests (batched requests each keep their own — shared
    stages are attributed to every member's ledger separately).
    """

    __slots__ = ("_lock", "_stages", "_events")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._stages: "dict[str, float]" = {}
        self._events: "dict[str, int]" = {}

    def add(self, stage: str, seconds: float) -> None:
        """Accumulate ``seconds`` of attributed time into ``stage``."""
        if seconds < 0.0:
            seconds = 0.0
        with self._lock:
            self._stages[stage] = self._stages.get(stage, 0.0) + seconds

    def count(self, event: str, n: int = 1) -> None:
        """Bump a countable event."""
        with self._lock:
            self._events[event] = self._events.get(event, 0) + n

    def total(self) -> float:
        """Summed attributed seconds across every stage."""
        with self._lock:
            return sum(self._stages.values())

    def stages(self) -> "dict[str, float]":
        with self._lock:
            return dict(self._stages)

    def events(self) -> "dict[str, int]":
        with self._lock:
            return dict(self._events)

    def to_dict(self) -> dict:
        """``{"stages": {...seconds}, "events": {...counts}}``."""
        with self._lock:
            return {
                "stages": dict(self._stages),
                "events": dict(self._events),
            }


class RequestContext:
    """One request's identity and timing ledger, carried across threads.

    Attributes:
        trace_id: Process-unique id stamped on every emitted span.
        request_id: The service's monotonic request id (-1 outside a
            service).
        route: Logical route/workload name for SLO grouping.
        ledger: The request's attribution :class:`Ledger`.
    """

    __slots__ = ("trace_id", "request_id", "route", "ledger")

    def __init__(
        self,
        trace_id: str,
        request_id: int = -1,
        route: str = "default",
    ) -> None:
        self.trace_id = trace_id
        self.request_id = request_id
        self.route = route
        self.ledger = Ledger()

    @classmethod
    def new(
        cls, request_id: int = -1, route: str = "default"
    ) -> "RequestContext":
        return cls(new_trace_id(), request_id=request_id, route=route)

    def summary(self, status: str = "ok", **extra) -> dict:
        """Machine-readable dump for flight-recorder retention."""
        doc = self.ledger.to_dict()
        return {
            "trace_id": self.trace_id,
            "request_id": self.request_id,
            "route": self.route,
            "status": status,
            "total_seconds": sum(doc["stages"].values()),
            "stages": doc["stages"],
            "events": doc["events"],
            **extra,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RequestContext(trace_id={self.trace_id!r}, "
            f"request_id={self.request_id}, route={self.route!r})"
        )


# ----------------------------------------------------------------------
# Activation: which requests this thread works for
# ----------------------------------------------------------------------
_state = threading.local()


def active_contexts() -> "tuple[RequestContext, ...]":
    """Contexts activated on *this* thread (empty when none)."""
    return getattr(_state, "contexts", ())


@contextmanager
def activate(*contexts: "RequestContext | None") -> Iterator[None]:
    """Mark this thread as working for ``contexts`` for the scope.

    ``None`` entries are ignored; with no live context the block is a
    plain passthrough.  Activation *replaces* any previous set for the
    scope (a worker acting for a batch acts for exactly that batch) and
    restores it on exit.
    """
    live = tuple(c for c in contexts if c is not None)
    if not live:
        yield
        return
    previous = getattr(_state, "contexts", ())
    _state.contexts = live
    try:
        yield
    finally:
        _state.contexts = previous


# ----------------------------------------------------------------------
# Flight recorder: bounded retention of interesting request traces
# ----------------------------------------------------------------------
class FlightRecorder:
    """Bounded retention of the slowest and the most recent failed traces.

    Args:
        capacity: Slowest *completed* summaries retained (a min-heap on
            ``total_seconds``: a new completion evicts the fastest
            retained entry once full, so memory stays flat under any
            load).
        failed_capacity: Most recent non-``ok`` summaries retained
            (FIFO ring).

    ``record`` accepts any dict with ``status`` and ``total_seconds``
    keys — normally :meth:`RequestContext.summary` output.  Thread-safe.
    """

    def __init__(self, capacity: int = 32, failed_capacity: int = 32) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if failed_capacity < 1:
            raise ValueError(
                f"failed_capacity must be >= 1, got {failed_capacity}"
            )
        self.capacity = capacity
        self.failed_capacity = failed_capacity
        self._lock = threading.Lock()
        self._seq = itertools.count()
        # Min-heap of (total_seconds, seq, summary); root = fastest kept.
        self._slowest: "list[tuple[float, int, dict]]" = []
        self._failed: "deque[dict]" = deque(maxlen=failed_capacity)
        self._recorded = 0

    def record(self, summary: dict) -> None:
        """Retain one request summary (slow-path or failure buffer)."""
        total = float(summary.get("total_seconds", 0.0))
        with self._lock:
            self._recorded += 1
            if summary.get("status") == "ok":
                entry = (total, next(self._seq), summary)
                if len(self._slowest) < self.capacity:
                    heapq.heappush(self._slowest, entry)
                elif total > self._slowest[0][0]:
                    heapq.heapreplace(self._slowest, entry)
            else:
                self._failed.append(summary)
        _metrics.counter("obs.rtrace.recorded").inc()

    def slowest(self, n: "int | None" = None) -> "list[dict]":
        """Retained completed summaries, slowest first."""
        with self._lock:
            ranked = sorted(self._slowest, key=lambda e: -e[0])
        summaries = [entry[2] for entry in ranked]
        return summaries if n is None else summaries[:n]

    def failures(self) -> "list[dict]":
        """Retained failed summaries, oldest first."""
        with self._lock:
            return list(self._failed)

    @property
    def recorded(self) -> int:
        """Total summaries ever offered (retained or not)."""
        with self._lock:
            return self._recorded

    def __len__(self) -> int:
        with self._lock:
            return len(self._slowest) + len(self._failed)
