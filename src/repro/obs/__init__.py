"""``repro.obs`` — the unified instrumentation layer.

Counters, gauges, histograms and timers (:mod:`repro.obs.metrics`),
Chrome-trace spans (:mod:`repro.obs.trace`), profiled runs and the
``@instrumented`` decorator (:mod:`repro.obs.profiler`), text/JSON
summaries (:mod:`repro.obs.report`) and ``BENCH_*.json`` run records
(:mod:`repro.obs.export`).

The layer is **off by default and free when off**: every accessor
resolves against a process-global "active" registry/recorder, and with
none installed the accessors return shared no-op objects while
``@instrumented`` wrappers call straight through.  Turn collection on
for a scope with::

    from repro import obs

    with obs.profiled(trace_path="trace.json") as session:
        merge_path_spmm(matrix, dense)
    print(session.summary())

or for a whole process with ``obs.enable()`` / ``obs.disable()``.
Hot loops guard their accounting with ``if obs.enabled():`` so the
uninstrumented path costs a single global load.

See ``docs/OBSERVABILITY.md`` for the full tour.
"""

from repro.obs import rtrace, slo
from repro.obs.export import (
    diff_snapshots,
    latest_record,
    read_records,
    records_dir,
    run_record,
    write_run_record,
)
from repro.obs.rtrace import FlightRecorder, RequestContext
from repro.obs.slo import SLObjective, SLOTracker
from repro.obs.metrics import (
    NULL_METRIC,
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    Timer,
    counter,
    disable,
    enable,
    enabled,
    gauge,
    get_registry,
    histogram,
    set_registry,
    timer,
)
from repro.obs.profiler import (
    ProfileSession,
    collecting,
    instrumented,
    profiled,
)
from repro.obs.report import kernel_breakdowns, render_json, render_text
from repro.obs.trace import (
    TraceRecorder,
    get_recorder,
    instant,
    set_recorder,
    span,
)

__all__ = [
    # metrics
    "Counter", "Gauge", "Histogram", "Timer", "MetricRegistry",
    "NULL_METRIC", "counter", "gauge", "histogram", "timer",
    "enable", "disable", "enabled", "get_registry", "set_registry",
    # trace
    "TraceRecorder", "span", "instant", "get_recorder", "set_recorder",
    # profiler
    "profiled", "ProfileSession", "instrumented", "collecting",
    # report
    "render_text", "render_json", "kernel_breakdowns",
    # export
    "run_record", "write_run_record", "read_records", "latest_record",
    "records_dir", "diff_snapshots",
    # request tracing + SLOs
    "rtrace", "slo", "RequestContext", "FlightRecorder",
    "SLObjective", "SLOTracker",
]
