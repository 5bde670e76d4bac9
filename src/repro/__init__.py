"""MergePath-SpMM: parallel sparse matrix-matrix multiplication for GNNs.

A full reproduction of "MergePath-SpMM: Parallel Sparse Matrix-Matrix
Algorithm for Graph Neural Network Acceleration" (ISPASS 2023): the
load-balanced SpMM algorithm itself, the baselines it is compared against,
a GPU timing model standing in for the paper's Quadro RTX 6000, a
Graphite-style 1000-core multicore simulator, the GNN models the kernels
serve, and per-figure experiment harnesses.

Quickstart::

    import numpy as np
    from repro import merge_path_spmm, power_law_graph

    adjacency = power_law_graph(n_nodes=10_000, nnz=80_000, max_degree=900)
    features = np.random.default_rng(0).random((10_000, 16))
    result = merge_path_spmm(adjacency, features)
    print(result.schedule.statistics)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record.
"""

from repro.core import (
    MergePathSchedule,
    SchedulingMode,
    SpMMResult,
    build_schedule,
    merge_path_spmm,
    schedule_for_cost,
    tune_merge_path_cost,
)
from repro.formats import COOMatrix, CSCMatrix, CSRMatrix, row_statistics
from repro.graphs import (
    DATASETS,
    Graph,
    load_dataset,
    power_law_graph,
    regular_graph,
)

__version__ = "1.0.0"

__all__ = [
    "COOMatrix",
    "CSCMatrix",
    "CSRMatrix",
    "DATASETS",
    "Graph",
    "MergePathSchedule",
    "SchedulingMode",
    "SpMMResult",
    "__version__",
    "build_schedule",
    "load_dataset",
    "merge_path_spmm",
    "power_law_graph",
    "regular_graph",
    "row_statistics",
    "schedule_for_cost",
    "tune_merge_path_cost",
]
