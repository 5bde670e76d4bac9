"""GNN inference driver with online/offline scheduling (Section III-D).

:class:`InferenceEngine` runs a 2-layer (or deeper) GCN on a graph while
accounting for MergePath-SpMM scheduling: in *offline* mode the schedule
is computed once per graph and reused across the model's layers and across
inferences; in *online* mode every inference recomputes it.  The engine
reports both wall-clock scheduling time and the modeled GPU scheduling
overhead — the quantity Figure 8 plots.

Each layer runs the cheaper of ``(A·X)·W`` and ``A·(X·W)`` by FLOP count
(:func:`choose_ordering`) on the normalized adjacency's merge-path row
blocks (:mod:`repro.core.parallel`): the GEMM split by rows, the SpMM by
blocks, and the activation applied to each block's rows as they become
final, all on one thread pool with numpy's OpenBLAS held to one thread
for the pass.  A graph too small to split runs one scipy call per layer.
The modeled kernel cycles of a layer are computed once per schedule and
width, so offline passes reuse them.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from repro.core.parallel import (
    block_count,
    execute_row_blocks,
    for_row_ranges,
    single_blas_thread,
)
from repro.core.schedule import MergePathSchedule
from repro.core.scheduler import ScheduleCache, SchedulingMode
from repro.core.thread_mapping import default_merge_path_cost
from repro.formats import CSRMatrix
from repro.obs import rtrace
from repro.gpu.device import GPUDevice, quadro_rtx_6000
from repro.gpu.kernels import mergepath_workload
from repro.gpu.timing import scheduling_time, simulate
from repro.gnn.layers import GCNLayer
from repro.gnn.models import GCN
from repro.graphs import Graph

TRANSFORM_FIRST = "transform-first"  # A @ (X W): SpMM at width f_out
AGGREGATE_FIRST = "aggregate-first"  # (A X) @ W: SpMM at width f_in


@dataclass(frozen=True)
class LayerPlan:
    """The chosen ordering for one GCN layer on one graph.

    Attributes:
        ordering: :data:`TRANSFORM_FIRST` or :data:`AGGREGATE_FIRST`.
        spmm_width: Dense width the layer's SpMM runs at.
    """

    ordering: str
    spmm_width: int


def choose_ordering(
    n_rows: int, nnz: int, f_in: int, f_out: int
) -> LayerPlan:
    """FLOP-count the two orderings of ``act(A X W)`` and pick the cheaper.

    Both orderings share the ``2·n·f_in·f_out`` dense multiply; they
    differ only in the SpMM width (``2·nnz·width`` FLOPs), so the choice
    reduces to ``min(f_in, f_out)``.  Ties go to transform-first, the
    ordering the paper's accelerators use.
    """
    dense_flops = 2.0 * n_rows * f_in * f_out
    transform_first = dense_flops + 2.0 * nnz * f_out
    aggregate_first = dense_flops + 2.0 * nnz * f_in
    if transform_first <= aggregate_first:
        return LayerPlan(ordering=TRANSFORM_FIRST, spmm_width=f_out)
    return LayerPlan(ordering=AGGREGATE_FIRST, spmm_width=f_in)


@dataclass(frozen=True)
class InferenceReport:
    """Timing summary of one GNN inference.

    Attributes:
        output: Final-layer embeddings.
        kernel_invocations: SpMM kernel calls performed (one per layer).
        schedule_computations: Schedules built (0 when fully cached).
        modeled_kernel_cycles: Summed modeled GPU cycles of the SpMM calls.
        modeled_schedule_cycles: Modeled GPU cycles spent scheduling.
        wallclock_schedule_seconds: Actual schedule-construction time.
        row_blocks: Merge-path row blocks each layer ran on
            (:func:`~repro.core.parallel.block_count`).
    """

    output: np.ndarray
    kernel_invocations: int
    schedule_computations: int
    modeled_kernel_cycles: float
    modeled_schedule_cycles: float
    wallclock_schedule_seconds: float
    row_blocks: int

    @property
    def scheduling_overhead(self) -> float:
        """Modeled scheduling share of total modeled time (Figure 8)."""
        total = self.modeled_kernel_cycles + self.modeled_schedule_cycles
        return self.modeled_schedule_cycles / total if total else 0.0


class InferenceEngine:
    """Runs GCN inference with MergePath-SpMM scheduling accounting.

    Args:
        mode: ``SchedulingMode.OFFLINE`` reuses schedules across
            inferences (the paper's default, matching GNNAdvisor's
            pre-processed partitions); ``ONLINE`` recomputes per inference.
        device: GPU model used for the timing estimates.
        fused: Accepted for compatibility; every layer already shares
            one adjacency view, so it selects nothing.
    """

    def __init__(
        self,
        mode: SchedulingMode = SchedulingMode.OFFLINE,
        device: GPUDevice | None = None,
        fused: bool = True,
    ) -> None:
        self.cache = ScheduleCache(mode=mode)
        self.device = device or quadro_rtx_6000()
        # (graph, normalized adjacency, modeled cycles) of the last graph
        # served; the cycles map an SpMM width to ``(schedule, cycles)``.
        # Graph and schedule are matched with ``is``: an ``id()`` key
        # would hand a new object allocated at a collected one's address
        # the stale entry.
        self._entry: "tuple[Graph, CSRMatrix, dict] | None" = None

    def infer(self, model: GCN, graph: Graph, features: np.ndarray | None = None,
              *, ctx: "rtrace.RequestContext | None" = None
              ) -> InferenceReport:
        """Run one inference, accounting schedules per Section III-D.

        Args:
            ctx: Optional request-trace context
                (:mod:`repro.obs.rtrace`); when passed, per-layer kernel
                execution is attributed to its ledger.
        """
        with rtrace.activate(ctx):
            return self._infer(model, graph, features)

    def _adjacency(self, graph: Graph) -> "tuple[CSRMatrix, dict]":
        """The graph's normalized adjacency and its modeled-cycle memo."""
        entry = self._entry
        if entry is None or entry[0] is not graph:
            entry = self._entry = (graph, graph.normalized_adjacency(), {})
        return entry[1], entry[2]

    def _infer(self, model: GCN, graph: Graph,
               features: np.ndarray | None) -> InferenceReport:
        adjacency, modeled = self._adjacency(graph)
        if features is None:
            if graph.features is None:
                raise ValueError("graph carries no features; pass them explicitly")
            features = graph.features
        hidden = np.asarray(features, dtype=np.float64)

        if self.cache.mode is SchedulingMode.ONLINE:
            self.cache.clear()

        kernel_cycles = 0.0
        schedule_cycles = 0.0
        computations_before = self.cache.schedule_computations
        wall_before = self.cache.total_scheduling_seconds
        layer_plans = [
            choose_ordering(
                adjacency.n_rows,
                adjacency.nnz,
                layer.in_features,
                layer.out_features,
            )
            for layer in model.layers
        ]
        # One cost per graph (sized for the widest SpMM any layer runs)
        # so a single schedule serves the whole pass.
        graph_cost = default_merge_path_cost(
            max(plan.spmm_width for plan in layer_plans)
        )
        n_blocks = block_count(adjacency)
        with single_blas_thread() if n_blocks > 1 else nullcontext():
            for layer, layer_plan in zip(model.layers, layer_plans):
                built_before = self.cache.schedule_computations
                schedule: MergePathSchedule = self.cache.get(
                    adjacency, graph_cost
                )
                if self.cache.schedule_computations > built_before:
                    schedule_cycles += scheduling_time(
                        schedule.n_threads,
                        adjacency.n_rows + adjacency.nnz,
                        self.device,
                    )
                with rtrace.stage("kernel", layer=layer_plan.ordering):
                    hidden = _run_layer(
                        adjacency, hidden, layer, layer_plan.ordering, n_blocks
                    )
                width = layer_plan.spmm_width
                cached = modeled.get(width)
                if cached is None or cached[0] is not schedule:
                    cached = modeled[width] = (schedule, simulate(
                        mergepath_workload(
                            adjacency, width, self.device, schedule=schedule
                        ),
                        self.device,
                    ).cycles)
                kernel_cycles += cached[1]

        return InferenceReport(
            output=hidden,
            kernel_invocations=model.n_layers,
            schedule_computations=(
                self.cache.schedule_computations - computations_before
            ),
            modeled_kernel_cycles=kernel_cycles,
            modeled_schedule_cycles=schedule_cycles,
            wallclock_schedule_seconds=(
                self.cache.total_scheduling_seconds - wall_before
            ),
            row_blocks=n_blocks,
        )


def _run_layer(adjacency: CSRMatrix, hidden: np.ndarray, layer: GCNLayer,
               ordering: str, n_blocks: int) -> np.ndarray:
    """``act(A X W)`` in ``ordering`` on ``n_blocks`` row blocks.

    This thread allocates every array; the blocks write their rows in
    place, so a pass holds no per-block temporaries.
    """
    weight = layer.weight
    activate = layer._activation  # noqa: SLF001 - same package
    if ordering == TRANSFORM_FIRST:
        transformed = np.empty((hidden.shape[0], weight.shape[1]))

        def transform(lo: int, hi: int) -> None:
            np.matmul(hidden[lo:hi], weight, out=transformed[lo:hi])

        def finish(product: np.ndarray, lo: int, hi: int) -> None:
            rows = product[lo:hi]
            activate(rows, out=rows)

        for_row_ranges(hidden.shape[0], n_blocks, transform)
        return execute_row_blocks(
            adjacency, transformed, n_blocks, epilogue=finish
        )

    aggregated = execute_row_blocks(adjacency, hidden, n_blocks)
    output = np.empty((adjacency.n_rows, weight.shape[1]))

    def transform_rows(lo: int, hi: int) -> None:
        rows = output[lo:hi]
        activate(np.matmul(aggregated[lo:hi], weight, out=rows), out=rows)

    for_row_ranges(adjacency.n_rows, n_blocks, transform_rows)
    return output
