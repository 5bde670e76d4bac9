#!/usr/bin/env python
"""Perf-regression gate over ``BENCH_*.json`` run trajectories.

``repro.obs.export`` keeps every experiment's run history as an
append-only trajectory (``repro.obs.runs/2``).  This tool closes the
loop: it extracts scalar performance metrics from the **latest** run of
each named trajectory and compares them against a **baseline built from
the run history** (the median of the previous runs' values, which is
robust to a single noisy run in the history).

Known trajectory and its metrics: ``serve`` (``python -m repro
serve-bench``): steady-state ``latency_ms.p95`` (lower is better) and
``throughput_rps`` (higher is better).

A metric regresses when it is worse than the baseline by more than the
noise tolerance (default 50%, generous on purpose: CI machines are
shared and the gate must catch order-of-magnitude regressions — a
deliberately slowed kernel, a batcher that stopped batching —
without flaking on scheduler jitter).  Trajectories with fewer than
``--min-history`` previous runs *pass with a notice*: the gate needs
history before it can judge, and the first CI run on a fresh branch
must not fail.

Exit status: 0 when every judged metric is within tolerance (or history
is insufficient), 1 when any metric regressed, 2 on usage errors (an
unknown trajectory name, a missing required record).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from statistics import median

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs.export import read_trajectory  # noqa: E402

# Direction of goodness per metric kind.
HIGHER = "higher"
LOWER = "lower"


def serve_metrics(record: dict) -> "dict[str, tuple[float, str]]":
    """``{metric: (value, direction)}`` from one serve-bench record.

    The serve trajectory interleaves workloads (``full`` and ``ego``
    share ``BENCH_serve.json``), so non-default workloads get their own
    metric namespace — an ego run must never shift the full-workload
    baseline or be judged against it.  Records predating the workload
    knob count as ``full``.
    """
    serve = record.get("serve") or {}
    steady = serve.get("steady") or {}
    workload = (serve.get("config") or {}).get("workload") or "full"
    suffix = "" if workload == "full" else f"[{workload}]"
    metrics: "dict[str, tuple[float, str]]" = {}
    p95 = (steady.get("latency_ms") or {}).get("p95")
    if p95:
        metrics[f"steady.latency_ms.p95{suffix}"] = (float(p95), LOWER)
    rps = steady.get("throughput_rps")
    if rps:
        metrics[f"steady.throughput_rps{suffix}"] = (float(rps), HIGHER)
    return metrics


EXTRACTORS = {
    "serve": serve_metrics,
}


def judge(
    name: str,
    runs: "list[dict]",
    tolerance: float,
    min_history: int,
) -> "tuple[list[str], list[str]]":
    """Compare the latest run of one trajectory against its history.

    Returns ``(regressions, notices)`` message lists.  Only ``ok`` runs
    form the baseline — a crashed run's numbers are not a baseline.
    """
    extractor = EXTRACTORS[name]
    ok_runs = [r for r in runs if r.get("status") == "ok"]
    if not ok_runs:
        return [], [f"{name}: no successful runs recorded yet; skipping"]
    latest = ok_runs[-1]
    history = ok_runs[:-1]
    if len(history) < min_history:
        return [], [
            f"{name}: only {len(history)} previous ok run(s) "
            f"(need {min_history}); passing without judgement"
        ]
    latest_metrics = extractor(latest)
    if not latest_metrics:
        return [], [f"{name}: latest run carries no judgeable metrics"]
    regressions: "list[str]" = []
    notices: "list[str]" = []
    for metric, (value, direction) in sorted(latest_metrics.items()):
        baseline_values = [
            extractor(run)[metric][0]
            for run in history
            if metric in extractor(run)
        ]
        if len(baseline_values) < min_history:
            notices.append(
                f"{name}/{metric}: metric too new "
                f"({len(baseline_values)} baseline run(s)); skipping"
            )
            continue
        baseline = median(baseline_values)
        if baseline <= 0:
            continue
        if direction == HIGHER:
            # value must not fall below baseline * (1 - tolerance)
            ratio = value / baseline
            regressed = ratio < 1.0 - tolerance
            verdict = f"{ratio:.2f}x baseline (floor {1.0 - tolerance:.2f}x)"
        else:
            ratio = value / baseline
            regressed = ratio > 1.0 + tolerance
            verdict = f"{ratio:.2f}x baseline (ceiling {1.0 + tolerance:.2f}x)"
        line = (
            f"{name}/{metric}: {value:.4g} vs baseline {baseline:.4g} "
            f"over {len(baseline_values)} run(s) — {verdict}"
        )
        if regressed:
            regressions.append("REGRESSION " + line)
        else:
            notices.append("ok         " + line)
    return regressions, notices


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        description=(
            "Compare the latest serve-bench run against "
            "its recorded trajectory with noise-tolerant thresholds."
        )
    )
    parser.add_argument(
        "--name",
        action="append",
        choices=sorted(EXTRACTORS),
        help="trajectory to judge (repeatable; default: all known ones "
        "that exist on disk)",
    )
    parser.add_argument(
        "--bench-dir",
        default=None,
        help="run-record directory (default: benchmarks/results or "
        "$REPRO_BENCH_DIR)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.5,
        help="allowed fractional degradation vs baseline (default 0.5)",
    )
    parser.add_argument(
        "--min-history",
        type=int,
        default=2,
        help="previous ok runs required before judging (default 2)",
    )
    parser.add_argument(
        "--require",
        action="store_true",
        help="fail (exit 2) when a requested trajectory has no record",
    )
    args = parser.parse_args(argv)
    if args.tolerance <= 0:
        parser.error(f"--tolerance must be positive, got {args.tolerance}")
    if args.min_history < 1:
        parser.error(f"--min-history must be >= 1, got {args.min_history}")

    names = args.name or sorted(EXTRACTORS)
    all_regressions: "list[str]" = []
    judged = 0
    for name in names:
        runs = read_trajectory(name, args.bench_dir)
        if not runs:
            message = f"{name}: no trajectory on disk"
            if args.require:
                print(message, file=sys.stderr)
                return 2
            print(message + "; skipping")
            continue
        judged += 1
        regressions, notices = judge(
            name, runs, args.tolerance, args.min_history
        )
        for line in notices:
            print(line)
        for line in regressions:
            print(line)
        all_regressions.extend(regressions)
    if all_regressions:
        print(
            f"\nregression gate: {len(all_regressions)} metric(s) regressed",
            file=sys.stderr,
        )
        return 1
    print(f"regression gate: clean ({judged} trajectory(ies) judged)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
