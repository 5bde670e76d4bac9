"""Command-line entry point: ``python -m repro [command | experiment ...]``.

Subcommands:

* ``obs-report`` — pretty-print the most recent exported run record
  (metric summary and kernel cycle breakdowns); see
  :mod:`repro.obs.report`.
* ``chaos`` — run the fault-injection matrix and report detection
  coverage (exit 1 on any silent failure); see
  :mod:`repro.resilience.chaos` and ``docs/ROBUSTNESS.md``.
* ``chaos-serve`` — inject faults (worker-thread crashes, bit-flipping
  kernels, corrupted request matrices, expired deadlines, a slowed
  kernel) into a live serving stack under Poisson load and verify the
  failure-domain guards catch every one; see
  :mod:`repro.resilience.chaos_serve`.
* ``chaos-proc`` — attack the process-isolated execution tier (worker
  SIGKILLs mid-batch, busy-loop hangs, heartbeat loss, memory hogs,
  poison requests, torn shared-memory segments) and verify every
  failure is contained with a terminal status, an explanatory health
  cause, and zero oracle disagreements; see
  :mod:`repro.resilience.chaos_proc`.
* ``chaos-update`` — race live graph updates against the serving stack,
  verifying every response against a reference pinned to its admitted
  epoch and that caches invalidate exactly the retired epochs' keys; see
  :mod:`repro.resilience.chaos_update`.
* ``serve-bench`` — drive synthetic Zipf/Poisson traffic through the
  serving layer and record throughput, latency percentiles, per-stage
  latency attribution, SLO attainment and load-shedding statistics; see
  :mod:`repro.serve.loadgen` and ``docs/SERVING.md``.
* ``slo-report`` — render per-route SLO attainment (observed
  percentiles vs. objectives, error-budget burn) from the latest
  ``serve-bench`` run record; see :mod:`repro.obs.slo`.
* ``shard-bench`` — measure N-shard multi-process SpMM (scatter ->
  per-shard SpMM -> halo gather) against the single-process kernel,
  record rows/s, speedup, halo bytes and partition imbalance in
  ``BENCH_shard.json``; see :mod:`repro.shard.bench` and
  ``docs/SHARDING.md``.
* ``chaos-shard`` — kill shard workers mid-batch and exhaust shard
  restart budgets, verifying failures stay contained to the victim
  shard (sub-batch re-replay, per-shard health causes, correct
  answers throughout); see :mod:`repro.resilience.chaos_shard`.
* anything else delegates to :mod:`repro.experiments.harness`; run with
  ``--list`` to see the available experiments and their (measured or
  estimated) runtimes, and with ``--profile``/``--trace-out`` to collect
  metrics and Chrome traces.
"""

import sys


def main(argv: "list[str] | None" = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "obs-report":
        from repro.obs.report import main as report_main

        return report_main(argv[1:])
    if argv and argv[0] == "chaos":
        from repro.resilience.chaos import main as chaos_main

        return chaos_main(argv[1:])
    if argv and argv[0] == "chaos-serve":
        from repro.resilience.chaos_serve import main as chaos_serve_main

        return chaos_serve_main(argv[1:])
    if argv and argv[0] == "chaos-proc":
        from repro.resilience.chaos_proc import main as chaos_proc_main

        return chaos_proc_main(argv[1:])
    if argv and argv[0] == "chaos-update":
        from repro.resilience.chaos_update import main as chaos_update_main

        return chaos_update_main(argv[1:])
    if argv and argv[0] == "serve-bench":
        from repro.serve.loadgen import main as serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "slo-report":
        from repro.obs.slo import main as slo_main

        return slo_main(argv[1:])
    if argv and argv[0] == "shard-bench":
        from repro.shard.bench import main as shard_main

        return shard_main(argv[1:])
    if argv and argv[0] == "chaos-shard":
        from repro.resilience.chaos_shard import main as chaos_shard_main

        return chaos_shard_main(argv[1:])
    from repro.experiments.harness import main as harness_main

    return harness_main(argv)


if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # Downstream closed the pipe (e.g. ``| head``); exit quietly the
        # way POSIX tools do instead of dumping a traceback.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    sys.exit(code)
