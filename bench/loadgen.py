"""Load generation and per-request outcome records.

Two load shapes drive the program under test:

* an **open loop** sends on a precomputed schedule whether or not earlier
  requests finished, from one sender thread; latency runs from the
  *scheduled* send time, so a stall also charges the requests queued
  behind it, and the sender's own lateness is recorded as lag;
* a **closed loop** runs a fixed number of callers that each wait for a
  reply before sending again; latency runs from the actual send, and lag
  is the caller's own time between a reply and its next request.

Completions are timestamped by future callbacks in whatever thread
resolves the future.  A request that fails in any way — rejected, timed
out, errored, or answered with an output that disagrees with the scipy
reference — counts as failed and as infinite latency.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
from dataclasses import dataclass, field

import numpy as np

OK = "ok"
MISMATCH = "mismatch"
TIMEOUT = "timeout"

#: Output tolerance against the scipy reference (same as the program's
#: own serving oracle).
RTOL = 1e-9
ATOL = 1e-9


@dataclass(slots=True)
class Record:
    """Outcome of one request (or one offline pass).

    Attributes:
        rid: The benchmark's request number within its phase.
        phase: Index of that phase (set when the phase is assembled).
        due: Latency origin: the scheduled send time (open loop) or the
            actual send time (closed loop), ``time.perf_counter`` seconds.
        lag: How late the request was sent (see the module docstring).
        done: Completion time; ``inf`` until completed.
        status: ``"ok"``, the service's failure status, ``"mismatch"`` or
            ``"timeout"``; ``"pending"`` until completed.
        rows: Output rows the request produces.
        flops: Useful floating-point operations of its sparse products
            (``2 * nnz * width`` each).
        kernel_bytes: Bytes its kernel call must move, computed from the
            operand and output array sizes.
        batch_size: Requests that shared its execution (0 outside a
            service).
        backend: Executor that served it, as the service reports it.
        fallback: Whether the service's verified fallback produced it.
        stages: Attributed seconds per stage (the service's ledger).
        events: Counted events of the ledger (cache hits, compiles).
        epoch: Graph epoch the request was admitted under.
        service_id: The service's own request id.
        error: Failure description.
    """

    rid: int
    due: float
    phase: int = 0
    lag: float = 0.0
    done: float = math.inf
    status: str = "pending"
    rows: int = 0
    flops: float = 0.0
    kernel_bytes: float = 0.0
    batch_size: int = 0
    backend: "str | None" = None
    fallback: bool = False
    stages: dict = field(default_factory=dict)
    events: dict = field(default_factory=dict)
    epoch: "int | None" = None
    service_id: "int | None" = None
    error: "str | None" = None

    @property
    def ok(self) -> bool:
        return self.status == OK

    @property
    def key(self) -> int:
        """Run-wide request id (see :func:`request_key`)."""
        return request_key(self.phase, self.rid)

    @property
    def latency(self) -> float:
        """Seconds from ``due`` to completion; ``inf`` unless ok."""
        return self.done - self.due if self.ok else math.inf

    def absorb(self, response, done: float) -> None:
        """Copy one ``ServeResponse``'s outcome into this record."""
        self.done = done
        self.status = response.status
        self.batch_size = getattr(response, "batch_size", 0)
        self.backend = getattr(response, "backend", None)
        self.fallback = bool(getattr(response, "fallback_used", False))
        attribution = getattr(response, "attribution", None) or {}
        self.stages = dict(attribution.get("stages", {}))
        self.events = dict(attribution.get("events", {}))
        self.epoch = getattr(response, "epoch", None)
        self.service_id = getattr(response, "request_id", None)
        self.error = getattr(response, "error", None)

    def fail(self, status: str, error: str, done: float = math.inf) -> None:
        self.status = status
        self.error = error
        self.done = done


def request_key(phase: int, rid: int) -> int:
    """Run-wide id of request ``rid`` of phase ``phase``."""
    return phase * 1_000_000 + rid


def verify(record: Record, output: np.ndarray, reference: np.ndarray) -> bool:
    """Check an ok output against scipy; a disagreement fails the request."""
    if output.shape == reference.shape and np.allclose(
        output, reference, rtol=RTOL, atol=ATOL
    ):
        return True
    record.fail(MISMATCH, "output disagrees with the scipy reference", record.done)
    return False


@dataclass
class Phase:
    """One timed interval of load and its outcomes.

    Attributes:
        index: Phase number (selects the phase's input streams).
        records: One record per request sent.
        started: First scheduled send (``perf_counter`` seconds).
        ended: Last completion.
        update_seconds: Wall time of each live-graph update applied
            during the phase.
        update_failures: Update batches the program refused.
        elapsed: Seconds under load; ``ended - started`` unless merged
            from several phases.
    """

    index: int
    records: "list[Record]"
    started: float
    ended: float
    update_seconds: "list[float]" = field(default_factory=list)
    update_failures: int = 0
    elapsed: float = math.nan

    def __post_init__(self) -> None:
        if math.isnan(self.elapsed):  # a single phase, not a merge
            self.elapsed = self.ended - self.started
            for record in self.records:
                record.phase = self.index

    @classmethod
    def merge(cls, phases: "list[Phase]") -> "Phase":
        """Consecutive phases measured as one (their gaps excluded)."""
        return cls(
            phases[0].index,
            [r for p in phases for r in p.records],
            phases[0].started,
            phases[-1].ended,
            [s for p in phases for s in p.update_seconds],
            sum(p.update_failures for p in phases),
            sum(p.elapsed for p in phases),
        )

    @property
    def attempted(self) -> int:
        """Requests sent plus update batches attempted."""
        return len(self.records) + len(self.update_seconds) + self.update_failures

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if not r.ok) + self.update_failures

    @property
    def mismatches(self) -> int:
        return sum(1 for r in self.records if r.status == MISMATCH)

    def ok_records(self) -> "list[Record]":
        return [r for r in self.records if r.ok]

    def latencies(self) -> "list[float]":
        return [r.latency for r in self.records]

    def rows_per_second(self) -> float:
        rows = sum(r.rows for r in self.records if r.ok)
        return rows / self.elapsed if self.elapsed > 0 else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; exact for infinite samples, nan when empty."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def arrival_offsets(rng: np.random.Generator, rate: float, seconds: float) -> np.ndarray:
    """Poisson arrival offsets in ``[0, seconds)`` with exactly ``rate * seconds`` sends.

    A Poisson process conditioned on its count: exponential gaps scaled so
    the run always offers the same number of requests.
    """
    count = max(1, int(round(rate * seconds)))
    times = np.cumsum(rng.exponential(1.0, count + 1))
    return times[:-1] * (seconds / times[-1])


class Inflight:
    """Counts requests sent but not yet completed."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._pending = 0

    def add(self) -> None:
        with self._cond:
            self._pending += 1

    def finish(self) -> None:
        with self._cond:
            self._pending -= 1
            if self._pending <= 0:
                self._cond.notify_all()

    def wait(self, timeout: float) -> bool:
        """Block until every request completed; False on timeout."""
        with self._cond:
            return self._cond.wait_for(lambda: self._pending <= 0, timeout)


def open_loop(start: float, offsets: np.ndarray, prepare, send) -> None:
    """Send request ``i`` at ``start + offsets[i]``.

    ``prepare(i)`` builds the request's payload before its send time;
    ``send(i, due, payload)`` sends it.
    """
    for i, offset in enumerate(offsets):
        payload = prepare(i)
        due = start + float(offset)
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        send(i, due, payload)


def closed_loop(
    clients: int, seconds: float, prepare, call
) -> "tuple[float, list[Record]]":
    """Run ``clients`` callers for ``seconds``.

    Each caller repeatedly builds a payload with ``prepare(client, rid)``
    and then calls ``call(client, record, payload)``, which sends one
    request, waits for it, and fills in the record.  One caller runs on
    the calling thread; more run on their own threads.  Returns
    ``(start time, records)``.
    """
    start = time.perf_counter()
    stop = start + seconds
    ids = itertools.count()
    records: "list[Record]" = []
    errors: "list[BaseException]" = []

    def caller(client: int) -> None:
        ready = time.perf_counter()
        try:
            while ready < stop:
                rid = next(ids)
                payload = prepare(client, rid)
                sent = time.perf_counter()
                record = Record(rid=rid, due=sent, lag=sent - ready)
                records.append(record)
                call(client, record, payload)
                ready = time.perf_counter()
        except BaseException as exc:  # re-raised on the calling thread
            errors.append(exc)

    if clients == 1:
        caller(0)
    else:
        threads = [
            threading.Thread(target=caller, args=(c,), name=f"bench-client-{c}")
            for c in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    records.sort(key=lambda r: r.rid)
    return start, records
