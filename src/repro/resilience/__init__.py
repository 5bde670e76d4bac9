"""``repro.resilience`` — fault injection, oracles, and graceful degradation.

The safety net the reproduction's correctness claims rest on:

* :mod:`repro.resilience.corruption` — adversarial input generators
  (CSR invariant violations, NaN/Inf values, truncated arrays, duplicate
  and unsorted indices) plus valid-but-degenerate graphs;
* :mod:`repro.resilience.faults` — seedable execution-fault injection
  (dropped atomics, bit-flipped accumulators, halted warps/cores) hooked
  into the executors, the GPU timing model and the multicore simulator;
* :mod:`repro.resilience.oracles` — the schedule-coverage and output
  cross-check oracles, and :func:`verified_spmm`, the self-checking
  executor with automatic fallback to the serial reference;
* :mod:`repro.resilience.runtime` — wall-clock timeouts and bounded
  exponential-backoff retries for the harness;
* :mod:`repro.resilience.checkpoint` — JSON checkpoint/resume for
  experiment batches;
* :mod:`repro.resilience.chaos` — the chaos matrix behind
  ``python -m repro chaos``: one table of faults across the kernel,
  thread, update, process and shard tiers, every accepted output checked
  against the reference, reporting coverage and what each guard
  demonstrated.

Submodules are imported lazily so that hot paths (the executors consult
:func:`faults.active_plan` on every run) pull in only the fault-hook
module, never the whole layer.  See ``docs/ROBUSTNESS.md``.
"""

from __future__ import annotations

import importlib

_EXPORTS = {
    # faults
    "FaultPlan": "repro.resilience.faults",
    "ExecutionFaultError": "repro.resilience.faults",
    "inject": "repro.resilience.faults",
    "active_plan": "repro.resilience.faults",
    # corruption
    "CORRUPTIONS": "repro.resilience.corruption",
    "DEGENERATES": "repro.resilience.corruption",
    "CorruptedArrays": "repro.resilience.corruption",
    # oracles
    "OracleError": "repro.resilience.oracles",
    "ScheduleOracleError": "repro.resilience.oracles",
    "OutputOracleError": "repro.resilience.oracles",
    "ResilientResult": "repro.resilience.oracles",
    "check_schedule": "repro.resilience.oracles",
    "check_output": "repro.resilience.oracles",
    "reference_spmm": "repro.resilience.oracles",
    "verified_spmm": "repro.resilience.oracles",
    # runtime
    "ExperimentTimeoutError": "repro.resilience.runtime",
    "call_with_timeout": "repro.resilience.runtime",
    "retry_with_backoff": "repro.resilience.runtime",
    # checkpoint
    "BatchCheckpoint": "repro.resilience.checkpoint",
    "CheckpointError": "repro.resilience.checkpoint",
    # chaos
    "ChaosReport": "repro.resilience.chaos",
    "run_chaos_matrix": "repro.resilience.chaos",
}

__all__ = sorted(_EXPORTS) + [
    "chaos", "checkpoint", "corruption", "faults", "oracles", "runtime",
]


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(module_name)
    value = getattr(module, name)
    globals()[name] = value  # cache for subsequent lookups
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
