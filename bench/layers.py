"""Per-layer spans recorded from outside the program.

:func:`installed` wraps a fixed list of public entry points — one or more
per layer — and restores the originals on exit.  A wrapped call records a
:class:`Span`: name, start, end, the span that was open on the same
thread when it began (its parent), the benchmark request the calling
thread was working for, and the service request ids of any request
contexts the program activated on that thread (how worker-side spans are
linked to the batch they executed).  Spans stay in memory; the benchmark
writes them out as a Chrome trace when the run ends.

A target that no longer exists — a module, class or function deleted by a
later change — is reported as ``"absent"`` and skipped, never raised.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

from bench.loadgen import percentile

#: ``(span name, module, attribute path)`` of every wrapped entry point.
WRAP_TARGETS: "tuple[tuple[str, str, str], ...]" = (
    ("gnn.infer", "repro.gnn.inference", "InferenceEngine.infer"),
    ("core.schedule", "repro.core.schedule", "MergePathSchedule.__init__"),
    ("engine.compile", "repro.engine.kernels", "compile_engine_plan"),
    ("engine.execute", "repro.engine.kernels", "EnginePlan.execute"),
    ("serve.submit", "repro.serve.service", "InferenceService.submit"),
    ("serve.submit_ego", "repro.serve.service", "InferenceService.submit_ego"),
    ("serve.dispatch", "repro.serve.dispatch", "AdaptiveDispatcher.execute"),
    ("procpool.execute", "repro.serve.procpool", "ProcessWorkerPool.execute"),
    ("shm.segment_for", "repro.serve.procpool", "ProcessWorkerPool.segment_for"),
    ("sample.walk", "repro.sample.sampler", "FanoutSampler.sample"),
    ("sample.extract", "repro.sample.sampler", "extract_subgraph"),
    ("sample.class_tier", "repro.sample.classtier", "ClassTier.execute"),
    ("epoch.apply", "repro.serve.epoch", "GraphEpochManager.apply_updates"),
    ("delta.snapshot", "repro.graphs.delta", "DeltaCSR.snapshot"),
)


@dataclass(frozen=True, slots=True)
class Span:
    """One recorded call of a wrapped entry point.

    Attributes:
        sid: Span id, increasing in start order.
        name: Span name (``layer.operation``).
        start: ``time.perf_counter`` seconds at entry.
        end: Seconds at exit.
        parent: Id of the span open on this thread at entry, if any.
        thread: ``threading.get_ident()`` of the calling thread.
        request: Benchmark request the calling thread was sending.
        service_ids: Service request ids active on the thread.
    """

    sid: int
    name: str
    start: float
    end: float
    parent: "int | None"
    thread: int
    request: "int | None"
    service_ids: "tuple[int, ...]"

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _active_service_ids() -> "tuple[int, ...]":
    rtrace = sys.modules.get("repro.obs.rtrace")
    active = getattr(rtrace, "active_contexts", None)
    if active is None:
        return ()
    return tuple(getattr(ctx, "request_id", -1) for ctx in active())


class SpanRecorder:
    """Thread-safe in-memory span store."""

    def __init__(self) -> None:
        self.spans: "list[Span]" = []
        self.thread_names: "dict[int, str]" = {}
        self._ids = itertools.count(1)
        self._local = threading.local()

    @contextmanager
    def request(self, rid: int):
        """Attribute this thread's spans to benchmark request ``rid``."""
        previous = getattr(self._local, "request", None)
        self._local.request = rid
        try:
            yield
        finally:
            self._local.request = previous

    def wrap(self, name: str, fn):
        """``fn`` recording one span per call."""
        local = self._local
        spans = self.spans
        ids = self._ids
        names = self.thread_names

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                thread = threading.get_ident()
                if thread not in names:
                    names[thread] = threading.current_thread().name
                spans.append(
                    Span(
                        sid, name, start, end, parent, thread,
                        getattr(local, "request", None),
                        _active_service_ids(),
                    )
                )

        return traced


def _resolve(module_name: str, attr_path: str):
    """``(owner, attribute, original)`` for one target; raises when absent."""
    owner = importlib.import_module(module_name)
    *parents, attr = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    original = vars(owner).get(attr)
    if not inspect.isfunction(original):
        raise AttributeError(f"{module_name}.{attr_path} is not a function")
    return owner, attr, original


@contextmanager
def installed(recorder: SpanRecorder, targets=WRAP_TARGETS):
    """Wrap every present target for the scope; yields ``{span: status}``.

    Status is ``"wrapped"`` or ``"absent"``.  Originals are restored on
    exit, in reverse order.
    """
    status: "dict[str, str]" = {}
    patched = []
    try:
        for name, module_name, attr_path in targets:
            try:
                owner, attr, original = _resolve(module_name, attr_path)
            except (ImportError, AttributeError):
                status[name] = "absent"
                continue
            setattr(owner, attr, recorder.wrap(name, original))
            patched.append((owner, attr, original))
            status[name] = "wrapped"
        yield status
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


def self_seconds(spans: "list[Span]") -> "dict[int, float]":
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    result = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for lo, hi in sorted(children.get(span.sid, ())):
            lo, hi = max(lo, reach), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[span.sid] = span.seconds - covered
    return result


def self_time_table(spans: "list[Span]") -> "list[dict]":
    """Per span name: calls, total and self milliseconds, self p50.

    Sorted by total self time, largest first.
    """
    own = self_seconds(spans)
    groups: "dict[str, list[Span]]" = defaultdict(list)
    for span in spans:
        groups[span.name].append(span)
    rows = []
    for name, members in groups.items():
        selfs = [own[s.sid] for s in members]
        rows.append(
            {
                "span": name,
                "calls": len(members),
                "total_ms": sum(s.seconds for s in members) * 1e3,
                "self_ms": sum(selfs) * 1e3,
                "self_ms_p50": percentile(selfs, 50) * 1e3,
            }
        )
    rows.sort(key=lambda row: -row["self_ms"])
    return rows


def request_of(spans: "list[Span]", service_to_request: "dict[int, int]") -> "dict[int, list[int]]":
    """Benchmark request ids per span id.

    A span belongs to the request its thread was sending, else to the
    requests of the service contexts active on its thread, else to its
    parent's requests.
    """
    by_sid: "dict[int, list[int]]" = {}
    for span in sorted(spans, key=lambda s: s.sid):
        if span.request is not None:
            owners = [span.request]
        else:
            owners = [
                service_to_request[i]
                for i in span.service_ids
                if i in service_to_request
            ]
            if not owners and span.parent is not None:
                owners = by_sid.get(span.parent, [])
        by_sid[span.sid] = owners
    return by_sid


def chrome_trace(
    spans: "list[Span]",
    thread_names: "dict[int, str]",
    requests: "list[tuple[int, float, float, str]]",
    service_to_request: "dict[int, int]",
    origin: float,
    pid: int,
) -> dict:
    """A Chrome/Perfetto trace of the spans and the requests they served.

    ``requests`` holds ``(request id, due, done, status)``; each becomes an
    async ``request`` span, and every layer span carries the request ids
    it worked for in ``args.requests``.
    """
    owners = request_of(spans, service_to_request)
    tids = {thread: i + 1 for i, thread in enumerate(sorted(thread_names))}
    events = [
        {"ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
         "args": {"name": thread_names[thread]}}
        for thread, tid in tids.items()
    ]
    for span in spans:
        events.append(
            {
                "ph": "X",
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "pid": pid,
                "tid": tids.get(span.thread, 0),
                "ts": (span.start - origin) * 1e6,
                "dur": span.seconds * 1e6,
                "args": {
                    "span": span.sid,
                    "parent": span.parent,
                    "requests": owners[span.sid],
                },
            }
        )
    for rid, due, done, status in requests:
        if done == float("inf"):
            continue
        common = {"name": "request", "cat": "request", "id": rid, "pid": pid, "tid": 0}
        events.append({**common, "ph": "b", "ts": (due - origin) * 1e6,
                       "args": {"status": status}})
        events.append({**common, "ph": "e", "ts": (done - origin) * 1e6})
    return {"traceEvents": events, "displayTimeUnit": "ms"}
