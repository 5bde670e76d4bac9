"""What the benchmark measures: metric declarations and workload parameters.

``BENCHMARK.json`` at the repository root declares the gated metrics (name,
unit, direction, bound) and the workload names.  This module loads it and
adds what that file has no room for: each workload's traffic parameters
and fixed tail percentile, and the end-to-end metrics that only exist on
some workloads (reported in every run's result file and compared by
``compare.py``, but not gated because a gated metric must exist on every
workload).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: Result-file schema written by ``run.py`` and read by ``compare.py``.
RESULT_SCHEMA = "bench.run/1"


@dataclass(frozen=True)
class Metric:
    """One reported metric.

    Attributes:
        name: Metric name as printed and stored.
        unit: Unit label.
        better: ``"lower"`` or ``"higher"``.
        bound: Allowed worsening before a change counts as a regression;
            a share of the baseline median, or an absolute amount when
            ``absolute`` is set.  ``None`` for per-layer metrics.
        absolute: Whether ``bound`` is absolute rather than relative.
    """

    name: str
    unit: str
    better: str
    bound: "float | None" = None
    absolute: bool = False


@dataclass(frozen=True)
class WorkloadParams:
    """Traffic shape of one workload (see README.md for the reasons).

    Attributes:
        loop: ``"open"`` (scheduled arrivals) or ``"closed"`` (callers
            that wait for each reply).
        rate_rps: Offered request rate of an open loop.
        clients: Concurrent callers of a closed loop.
        tail_percentile: The percentile ``latency_tail_ms`` and
            ``floor_ratio_tail`` report: the highest that keeps at least
            ten samples beyond it and repeats best across seeds.
        setups: Cold set-ups per run; ``setup_s`` is their median.
    """

    loop: str
    rate_rps: "float | None" = None
    clients: "int | None" = None
    tail_percentile: float = 90.0
    setups: int = 5


WORKLOAD_PARAMS: "dict[str, WorkloadParams]" = {
    "gcn-offline": WorkloadParams(loop="closed", clients=1, tail_percentile=75.0),
    "serve-small": WorkloadParams(loop="open", rate_rps=150.0, tail_percentile=75.0),
    "ego-live": WorkloadParams(loop="open", rate_rps=100.0, tail_percentile=90.0),
    "serve-process": WorkloadParams(loop="closed", clients=2, tail_percentile=75.0),
}

#: End-to-end metrics reported and compared but not gated: the tail (its
#: spread across seeds on a shared host exceeds the largest bound
#: ``BENCHMARK.json`` allows), the error rate (0 on a healthy run) and the
#: update latency (``ego-live`` only).
EXTRA_END_TO_END: "tuple[Metric, ...]" = (
    Metric("latency_tail_ms", "ms", "lower", 0.24),
    Metric("floor_ratio_tail", "x", "lower", 0.24),
    Metric("error_rate", "fraction", "lower", 0.001, absolute=True),
    Metric("update_p50_ms", "ms", "lower", 0.10),
)


def load_benchmark(path: Path = BENCHMARK_JSON) -> dict:
    """The parsed ``BENCHMARK.json``."""
    with open(path) as handle:
        return json.load(handle)


def end_to_end_metrics(doc: "dict | None" = None) -> "tuple[Metric, ...]":
    """Gated end-to-end metrics, in declaration order."""
    doc = doc if doc is not None else load_benchmark()
    return tuple(
        Metric(m["name"], m["unit"], m["better"], float(m["bound"]))
        for m in doc["end_to_end"]
    )


def per_layer_metrics(doc: "dict | None" = None) -> "tuple[Metric, ...]":
    """Per-layer metrics reported by traced runs, in declaration order."""
    doc = doc if doc is not None else load_benchmark()
    return tuple(
        Metric(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]
    )


def workload_names(doc: "dict | None" = None) -> "tuple[str, ...]":
    """Declared workload names, in declaration order."""
    doc = doc if doc is not None else load_benchmark()
    return tuple(w["name"] for w in doc["workloads"])
