"""Run-everything entry point: ``python -m repro.experiments.harness``.

Runs any subset of the paper's experiments by name and prints (optionally
saves) their tables.  The benchmarks under ``benchmarks/`` wrap the same
harnesses with pytest-benchmark and shape assertions; this module is the
interactive/CI-free way to regenerate results.

With ``--profile`` (or ``--trace-out``) the whole batch runs inside an
:func:`repro.obs.profiled` session: every experiment gets a wall-clock
span, a metric summary is printed at the end, and one ``BENCH_<name>.json``
run record per experiment is exported (see :mod:`repro.obs.export`) so the
next ``--list`` can show *measured* runtimes instead of the static
estimates.
"""

from __future__ import annotations

import argparse
import sys
import time
import traceback
from pathlib import Path
from typing import Callable

from repro import obs
from repro.experiments import (
    end_to_end_gnn,
    engine_balance,
    fig1_power_law,
    fig2_motivation,
    fig3_example,
    fig4_speedup,
    fig5_write_ops,
    fig6_cost_sweep,
    fig7_dimension_scaling,
    fig8_online_overhead,
    fig9_multicore_scaling,
    table1_config,
    table2_datasets,
)
from repro.experiments.reporting import ExperimentResult

EXPERIMENTS: dict[str, Callable[[], ExperimentResult]] = {
    "fig1": fig1_power_law.run,
    "fig2": fig2_motivation.run,
    "fig3": fig3_example.run,
    "table1": table1_config.run,
    "table2": table2_datasets.run,
    "fig4": fig4_speedup.run,
    "fig5": fig5_write_ops.run,
    "fig6": fig6_cost_sweep.run,
    "fig7": fig7_dimension_scaling.run,
    "fig8": fig8_online_overhead.run,
    "fig9": fig9_multicore_scaling.run,
    "e2e": end_to_end_gnn.run,
    "engines": engine_balance.run,
}

# Rough single-run wall-clock on a 2-core box — the *fallback* when no
# measured run record exists (see approx_seconds).
APPROX_SECONDS = {
    "fig1": 2, "fig2": 5, "fig3": 1, "table1": 1, "table2": 8, "fig4": 15,
    "fig5": 5, "fig6": 10, "fig7": 15, "fig8": 50, "fig9": 200, "e2e": 5,
    "engines": 3,
}


def approx_seconds(name: str, bench_dir: "Path | None" = None) -> float:
    """Expected wall-clock for one experiment, in seconds.

    Prefers the last *measured* run (the ``wall_seconds`` of the newest
    exported ``BENCH_<name>.json`` record), so the estimate tracks the
    machine and the code instead of drifting; falls back to the static
    :data:`APPROX_SECONDS` table when no record exists.
    """
    record = obs.latest_record(name=name, directory=bench_dir)
    if record is not None:
        measured = record.get("wall_seconds")
        if isinstance(measured, (int, float)) and measured >= 0:
            return float(measured)
    return float(APPROX_SECONDS.get(name, 0))


def _failure_result(
    name: str,
    exc: BaseException,
    partial_metrics: "list | None" = None,
) -> ExperimentResult:
    """Placeholder result recording a captured experiment failure.

    Keeps the full traceback and whatever metrics the experiment emitted
    before dying, so a failed batch entry is debuggable from its record
    alone.
    """
    summary = f"{type(exc).__name__}: {exc}"
    tail = traceback.format_exception(type(exc), exc, exc.__traceback__)
    return ExperimentResult(
        title=f"{name} (FAILED)",
        headers=["error"],
        rows=[(summary,)],
        notes=["".join(tail[-2:]).rstrip()],
        error=summary,
        traceback="".join(tail),
        partial_metrics=list(partial_metrics or []),
    )


def run_experiments(
    names: list[str],
    output_dir: "Path | None" = None,
    on_error: str = "raise",
    bench_dir: "Path | None" = None,
    timeout: "float | None" = None,
    retries: int = 0,
    checkpoint_path: "Path | str | None" = None,
    resume: bool = False,
) -> dict[str, ExperimentResult]:
    """Run the named experiments; optionally persist tables to a directory.

    Each experiment runs inside an ``experiment.<name>`` trace span and a
    ``time.experiment`` timer (both no-ops unless an
    :func:`repro.obs.profiled` session is active).  When metric collection
    is on, a ``BENCH_<name>.json`` run record holding the experiment's
    metric *delta* is exported after each experiment.

    Args:
        names: Keys of :data:`EXPERIMENTS` (e.g. ``["fig4", "fig5"]``).
        output_dir: When given, each table is written to
            ``<output_dir>/<name>.txt``.
        on_error: ``"raise"`` propagates the first experiment failure
            (library default); ``"record"`` captures it as a failed
            :class:`ExperimentResult` — full traceback and the metrics it
            emitted before dying included — and continues with the rest
            of the batch.
        bench_dir: Override directory for exported run records (default:
            ``$REPRO_BENCH_DIR`` or ``benchmarks/results``).
        timeout: Per-experiment wall-clock budget in seconds; an
            experiment that exceeds it fails with
            :class:`~repro.resilience.runtime.ExperimentTimeoutError`
            (and is retried/recorded like any other failure).
        retries: Extra attempts per failing experiment, with exponential
            backoff between attempts.
        checkpoint_path: When given, a
            :class:`~repro.resilience.checkpoint.BatchCheckpoint` at this
            path is updated (atomically) after every experiment.
        resume: Load ``checkpoint_path`` and skip experiments it already
            holds, rehydrating their stored results.

    Returns:
        Name -> result mapping, in execution order.  Failed experiments
        (``on_error="record"``) appear with ``result.error`` set.
    """
    if on_error not in ("raise", "record"):
        raise ValueError(f"on_error must be 'raise' or 'record', got {on_error!r}")
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        known = ", ".join(EXPERIMENTS)
        raise KeyError(f"unknown experiment(s) {unknown}; known: {known}")

    checkpoint = None
    if checkpoint_path is not None:
        from repro.resilience.checkpoint import BatchCheckpoint

        checkpoint = BatchCheckpoint.open(checkpoint_path, names, resume=resume)
    elif resume:
        raise ValueError("resume=True requires checkpoint_path")

    results: dict[str, ExperimentResult] = {}
    registry = obs.get_registry()
    for name in names:
        if checkpoint is not None:
            stored = checkpoint.result_for(name)
            if stored is not None:
                stored.notes.append("resumed from checkpoint")
                results[name] = stored
                continue
        before = registry.snapshot() if registry is not None else []
        started = time.perf_counter()
        error: "BaseException | None" = None

        def run_once(name: str = name) -> ExperimentResult:
            with obs.span(f"experiment.{name}", category="experiment"):
                return EXPERIMENTS[name]()

        attempt = run_once
        if timeout is not None or retries:
            from repro.resilience import runtime

            if timeout is not None:
                attempt = lambda fn=attempt: runtime.call_with_timeout(
                    fn, timeout
                )
            if retries:
                attempt = lambda fn=attempt: runtime.retry_with_backoff(
                    fn, attempts=retries + 1
                )
        try:
            result = attempt()
        except Exception as exc:
            if on_error == "raise":
                raise
            error = exc
            partial = (
                obs.diff_snapshots(before, registry.snapshot())
                if registry is not None
                else []
            )
            result = _failure_result(name, exc, partial_metrics=partial)
        elapsed = time.perf_counter() - started
        obs.timer("time.experiment", experiment=name).observe(elapsed)
        if error is None:
            result.notes.append(f"regenerated in {elapsed:.1f}s")
        results[name] = result
        if checkpoint is not None and error is None:
            # Failures are not checkpointed: a resumed batch re-runs them.
            checkpoint.record(name, result)
        if registry is not None:
            record = obs.run_record(
                name,
                metrics=obs.diff_snapshots(before, registry.snapshot()),
                wall_seconds=elapsed,
                status="ok" if error is None else "error",
                error=None if error is None else f"{type(error).__name__}: {error}",
            )
            obs.write_run_record(record, directory=bench_dir)
        if output_dir is not None:
            output_dir.mkdir(parents=True, exist_ok=True)
            (output_dir / f"{name}.txt").write_text(result.format() + "\n")
    return results


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        default=[],
        help=f"which to run (default: all). Choices: {', '.join(EXPERIMENTS)}",
    )
    parser.add_argument(
        "--list", action="store_true", help="list experiments and exit"
    )
    parser.add_argument(
        "--output-dir", type=Path, default=None,
        help="also write each table to <dir>/<name>.txt",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="collect metrics; print a summary and export BENCH_*.json "
             "run records",
    )
    parser.add_argument(
        "--trace-out", type=Path, default=None,
        help="write a Chrome trace (chrome://tracing JSON) of the run "
             "here; implies --profile",
    )
    parser.add_argument(
        "--bench-dir", type=Path, default=None,
        help="directory for exported run records "
             "(default: $REPRO_BENCH_DIR or benchmarks/results)",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-experiment wall-clock budget; an experiment exceeding "
             "it is recorded as failed and the batch continues",
    )
    parser.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="retry each failing experiment up to N times with "
             "exponential backoff",
    )
    parser.add_argument(
        "--checkpoint", type=Path, default=None, metavar="PATH",
        help="batch checkpoint file, updated atomically after every "
             "completed experiment "
             "(default with --resume: <bench-dir>/harness_checkpoint.json)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="load the checkpoint and run only the experiments it does "
             "not already hold",
    )
    args = parser.parse_args(argv)
    unknown = [name for name in args.experiments if name not in EXPERIMENTS]
    if unknown:
        parser.error(
            f"unknown command or experiment {', '.join(unknown)}; choose "
            f"obs-report, chaos or experiments {', '.join(EXPERIMENTS)}"
        )
    if args.list:
        for name in EXPERIMENTS:
            print(f"{name:8s} ~{approx_seconds(name, args.bench_dir):.0f}s")
        return 0
    names = args.experiments or list(EXPERIMENTS)
    profile = args.profile or args.trace_out is not None

    checkpoint_path = args.checkpoint
    if checkpoint_path is None and args.resume:
        checkpoint_path = (
            obs.records_dir(args.bench_dir) / "harness_checkpoint.json"
        )
    run_kwargs = dict(
        output_dir=args.output_dir,
        on_error="record",
        bench_dir=args.bench_dir,
        timeout=args.timeout,
        retries=args.retries,
        checkpoint_path=checkpoint_path,
        resume=args.resume,
    )
    if profile:
        with obs.profiled(trace_path=args.trace_out) as session:
            results = run_experiments(names, **run_kwargs)
    else:
        results = run_experiments(names, **run_kwargs)
    for result in results.values():
        print()
        result.show()
    if profile:
        print()
        print(obs.render_text(session.snapshot(), title="profile summary"))
        if args.trace_out is not None:
            print(f"\ntrace written to {args.trace_out}")
    failed = [name for name, result in results.items() if result.failed]
    if failed:
        print(
            f"\n{len(failed)} experiment(s) failed: {', '.join(failed)}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
