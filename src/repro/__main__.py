"""Command-line entry point: ``python -m repro [command | experiment ...]``.

Subcommands:

* ``obs-report`` — pretty-print the most recent exported run record
  (metric summary and kernel cycle breakdowns); see
  :mod:`repro.obs.report`.
* ``chaos`` — run the chaos table: corrupted inputs and execution
  faults in the kernels, then faults injected into live services on the
  thread, live-update and process tiers.  Exit 1 on any silent
  failure or missing demonstration; see :mod:`repro.resilience.chaos`
  and ``docs/ROBUSTNESS.md``.
* anything else delegates to :mod:`repro.experiments.harness`; run with
  ``--list`` to see the available experiments and their (measured or
  estimated) runtimes, and with ``--profile``/``--trace-out`` to collect
  metrics and Chrome traces.  A name that is neither a subcommand nor
  an experiment is a usage error (exit 2).

Serving latency and throughput are measured against the scipy floor by
``python3 bench/run.py --workload serve-small|ego-live|serve-process``
(see ``bench/README.md``).
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
