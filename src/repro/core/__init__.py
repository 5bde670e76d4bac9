"""MergePath-SpMM: the paper's core contribution.

This package implements:

* **Algorithm 1** — the merge-path decomposition (2-D diagonal binary
  search over the CSR row-pointer array) in :mod:`repro.core.merge_path`.
* **Algorithm 2** — the parallel MergePath-SpMM kernel with explicit
  partial/complete row tracking in :mod:`repro.core.spmm`, plus the
  per-thread schedule representation in :mod:`repro.core.schedule`.
* **Section III-C** — the SIMD thread-mapping policy and merge-path cost
  selection in :mod:`repro.core.thread_mapping` and
  :mod:`repro.core.cost_tuning`.
* **Section III-D** — online/offline schedule reuse in
  :mod:`repro.core.scheduler`.
* The same decomposition on host threads — scipy's CSR kernel run on
  merge-path row blocks — in :mod:`repro.core.parallel`.
"""

from repro.core.merge_path import (
    MergeCoordinate,
    merge_path_length,
    merge_path_search,
    merge_path_splits,
)
from repro.core.schedule import (
    MergePathSchedule,
    ScheduleStatistics,
    ThreadAssignment,
    build_schedule,
    schedule_for_cost,
)
from repro.core.spmm import (
    SpMMResult,
    WriteKind,
    execute_reference,
    execute_vectorized,
    merge_path_spmm,
)
from repro.core.thread_mapping import (
    SIMD_LANES,
    ThreadMapping,
    default_merge_path_cost,
    determine_thread_count,
    map_threads_to_simd,
)
from repro.core.scheduler import ScheduleCache, SchedulingMode
from repro.core.cost_tuning import CostSweep, tune_merge_path_cost
from repro.core.parallel import RowBlocks, execute_row_blocks, row_blocks
from repro.core.analysis import (
    LoadBalanceSummary,
    compare_strategies,
    summarize_merge_path,
    work_histogram,
)

__all__ = [
    "CostSweep",
    "LoadBalanceSummary",
    "MergeCoordinate",
    "MergePathSchedule",
    "RowBlocks",
    "SIMD_LANES",
    "ScheduleCache",
    "ScheduleStatistics",
    "SchedulingMode",
    "SpMMResult",
    "ThreadAssignment",
    "ThreadMapping",
    "WriteKind",
    "build_schedule",
    "compare_strategies",
    "default_merge_path_cost",
    "determine_thread_count",
    "execute_reference",
    "execute_row_blocks",
    "execute_vectorized",
    "map_threads_to_simd",
    "merge_path_length",
    "merge_path_search",
    "merge_path_spmm",
    "merge_path_splits",
    "row_blocks",
    "schedule_for_cost",
    "summarize_merge_path",
    "tune_merge_path_cost",
    "work_histogram",
]
