"""Exported run records: append-only ``BENCH_<name>.json`` trajectories.

Each ``BENCH_<name>.json`` holds the *history* of an experiment — every
recorded run, oldest first — written next to the regenerated tables in
``benchmarks/results/`` (override with ``$REPRO_BENCH_DIR`` or the
``directory=`` argument).  The file is a self-describing trajectory::

    {
      "schema": "repro.obs.runs/2",
      "name": "serve",
      "runs": [ <run record>, <run record>, ... ]   # oldest first
    }

where each run record keeps the per-run schema::

    {
      "schema": "repro.obs.run/1",
      "name": "fig5",
      "timestamp": 1754500000.0,        # unix seconds
      "iso_time": "2026-08-06T12:00:00",
      "wall_seconds": 5.1,
      "status": "ok" | "error",
      "error": null | "ValueError: ...",
      "metrics": [...],                  # MetricRegistry.snapshot() form
      "kernel_cycles": {kernel: {component: cycles}},
    }

:func:`write_run_record` **appends**: a new run never overwrites the
trajectory.  Legacy single-run files are migrated in place — a
``repro.obs.run/1`` document found on disk becomes the first entry of
the new trajectory.  Trajectories are bounded at :data:`MAX_RUNS`
entries (oldest dropped) and written atomically.

``python -m repro obs-report`` renders the most recent runs; the
harness uses the last recorded ``wall_seconds`` for its time estimates.
"""

from __future__ import annotations

import json
import os
import time
from datetime import datetime
from pathlib import Path

SCHEMA = "repro.obs.run/1"
TRAJECTORY_SCHEMA = "repro.obs.runs/2"
RECORD_PREFIX = "BENCH_"
# Per-trajectory retention bound, keeping the JSON files reviewable.
MAX_RUNS = 200
_ENV_DIR = "REPRO_BENCH_DIR"
_DEFAULT_DIR = Path("benchmarks") / "results"


def records_dir(directory: "Path | str | None" = None) -> Path:
    """Resolve the run-record directory (arg > ``$REPRO_BENCH_DIR`` > default)."""
    if directory is not None:
        return Path(directory)
    env = os.environ.get(_ENV_DIR)
    return Path(env) if env else _DEFAULT_DIR


def diff_snapshots(before: list[dict], after: list[dict]) -> list[dict]:
    """Per-run metric deltas between two registry snapshots.

    Counters and histogram/timer aggregates subtract; gauges (last-write
    semantics) keep their ``after`` value.  Metrics absent from
    ``before`` pass through unchanged, and metrics whose delta is zero
    are dropped, so the result is "what this run contributed".
    """
    def key(entry: dict) -> tuple:
        return (entry["name"], tuple(sorted(entry.get("labels", {}).items())))

    prior = {key(e): e for e in before}
    deltas: list[dict] = []
    for entry in after:
        old = prior.get(key(entry))
        if old is None:
            deltas.append(entry)
            continue
        kind = entry.get("kind")
        if kind == "counter":
            value = entry["value"] - old["value"]
            if value:
                deltas.append({**entry, "value": value})
        elif kind in ("histogram", "timer"):
            count = entry["count"] - old["count"]
            if count:
                total = entry["total"] - old["total"]
                deltas.append(
                    {
                        **entry,
                        "count": count,
                        "total": total,
                        "mean": total / count,
                        # min/max/percentiles are not decomposable over a
                        # window; keep the cumulative values.
                    }
                )
        else:
            deltas.append(entry)
    return deltas


def run_record(
    name: str,
    metrics: "list[dict] | None" = None,
    wall_seconds: "float | None" = None,
    status: str = "ok",
    error: "str | None" = None,
    extra: "dict | None" = None,
) -> dict:
    """Assemble a schema-conforming run record dict."""
    from repro.obs.report import kernel_breakdowns

    now = time.time()
    record = {
        "schema": SCHEMA,
        "name": name,
        "timestamp": now,
        "iso_time": datetime.fromtimestamp(now).isoformat(timespec="seconds"),
        "wall_seconds": wall_seconds,
        "status": status,
        "error": error,
        "metrics": metrics or [],
        "kernel_cycles": kernel_breakdowns(metrics or []),
    }
    if extra:
        record.update(extra)
    return record


def _load_trajectory(path: Path) -> list[dict]:
    """Parse one ``BENCH_*.json`` file into its run list (oldest first).

    Understands both the trajectory form (``repro.obs.runs/2``) and the
    legacy single-run form (``repro.obs.run/1``), which is migrated by
    wrapping it as a one-entry history.  Unparseable files yield ``[]``.
    """
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return []
    if not isinstance(doc, dict):
        return []
    if doc.get("schema") == TRAJECTORY_SCHEMA:
        runs = doc.get("runs")
        if not isinstance(runs, list):
            return []
        return [
            run
            for run in runs
            if isinstance(run, dict) and run.get("schema") == SCHEMA
        ]
    if doc.get("schema") == SCHEMA:
        # Legacy single-run file from before trajectories existed.
        return [doc]
    return []


def write_run_record(
    record: dict,
    directory: "Path | str | None" = None,
    max_runs: int = MAX_RUNS,
) -> Path:
    """Append ``record`` to ``<dir>/BENCH_<name>.json``; return the path.

    The trajectory on disk (including a legacy single-run file, which is
    migrated in place) is preserved; histories longer than ``max_runs``
    drop their oldest entries.  The write is atomic (tmp + ``os.replace``)
    so a crash mid-write never corrupts the history.
    """
    if max_runs < 1:
        raise ValueError(f"max_runs must be >= 1, got {max_runs}")
    directory = records_dir(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{RECORD_PREFIX}{record['name']}.json"
    runs = _load_trajectory(path) if path.exists() else []
    runs.append(record)
    runs = runs[-max_runs:]
    doc = {
        "schema": TRAJECTORY_SCHEMA,
        "name": record["name"],
        "runs": runs,
    }
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(doc, indent=1) + "\n")
    os.replace(tmp, path)
    return path


def read_records(directory: "Path | str | None" = None) -> list[dict]:
    """All parseable run records in the directory, oldest first.

    Flattens trajectories: every run of every experiment appears as its
    own record, so pre-trajectory consumers keep working unchanged.
    """
    directory = records_dir(directory)
    if not directory.is_dir():
        return []
    records = []
    for path in sorted(directory.glob(f"{RECORD_PREFIX}*.json")):
        records.extend(_load_trajectory(path))
    records.sort(key=lambda r: r.get("timestamp") or 0.0)
    return records


def latest_record(
    name: "str | None" = None, directory: "Path | str | None" = None
) -> "dict | None":
    """Most recent run record, optionally restricted to one experiment."""
    records = read_records(directory)
    if name is not None:
        records = [r for r in records if r.get("name") == name]
    return records[-1] if records else None
