"""Modeled GPU cost of GCN inferences under online or offline scheduling.

A MergePath-SpMM schedule depends only on the adjacency (Section III-D):
offline it is built once per graph, online once per inference, and
either way one schedule serves all of an inference's kernel invocations.
:func:`model_gcn_inferences` charges both on the GPU timing model; the
scheduling share of the total is what Figure 8 plots.  It runs no
inference: the measured pass is :class:`repro.gnn.InferenceEngine`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.schedule import schedule_for_cost
from repro.core.scheduler import SchedulingMode
from repro.core.thread_mapping import MIN_THREADS, default_merge_path_cost
from repro.gnn.inference import choose_ordering
from repro.gnn.models import GCN
from repro.gpu.device import quadro_rtx_6000
from repro.gpu.kernels import mergepath_workload
from repro.gpu.timing import scheduling_time, simulate
from repro.graphs import Graph


@dataclass(frozen=True)
class ModeledInference:
    """Modeled GPU cycles of one GCN inference.

    Attributes:
        kernel_invocations: SpMM kernel calls (one per layer).
        schedule_computations: Schedules built for this inference (0 or 1).
        modeled_kernel_cycles: Summed modeled cycles of the SpMM calls.
        modeled_schedule_cycles: Modeled cycles spent scheduling.
    """

    kernel_invocations: int
    schedule_computations: int
    modeled_kernel_cycles: float
    modeled_schedule_cycles: float

    @property
    def scheduling_overhead(self) -> float:
        """Modeled scheduling share of total modeled time (Figure 8)."""
        total = self.modeled_kernel_cycles + self.modeled_schedule_cycles
        return self.modeled_schedule_cycles / total if total else 0.0


def model_gcn_inferences(
    model: GCN,
    graph: Graph,
    inferences: int = 1,
    *,
    mode: SchedulingMode = SchedulingMode.OFFLINE,
) -> "list[ModeledInference]":
    """One :class:`ModeledInference` per pass of ``model`` on ``graph``, in order.

    Each layer's SpMM runs on the normalized adjacency at the width
    :func:`~repro.gnn.inference.choose_ordering` picks, and one schedule,
    sized for the widest, serves every layer of a pass.  ``OFFLINE`` mode
    builds it for the first of the ``inferences`` passes only (the
    paper's default, like GNNAdvisor's pre-processed partitions);
    ``ONLINE`` builds one per pass.  Kernels are simulated once per
    schedule and width on the paper's Quadro RTX 6000.
    """
    if inferences < 1:
        raise ValueError(f"inferences must be >= 1, got {inferences}")
    device = quadro_rtx_6000()
    adjacency = graph.normalized_adjacency()
    n, nnz = adjacency.n_rows, adjacency.nnz
    widths = [
        choose_ordering(n, nnz, layer.in_features, layer.out_features).spmm_width
        for layer in model.layers
    ]
    cost = default_merge_path_cost(max(widths))
    reports = []
    for index in range(inferences):
        built = index == 0 or mode is SchedulingMode.ONLINE
        schedule_cycles = 0.0
        if built:
            schedule = schedule_for_cost(adjacency, cost, min_threads=MIN_THREADS)
            schedule_cycles = scheduling_time(schedule.n_threads, n + nnz, device)
            cycles = {
                width: simulate(
                    mergepath_workload(adjacency, width, device, schedule=schedule),
                    device,
                ).cycles
                for width in set(widths)
            }
        kernel_cycles = 0.0
        for width in widths:
            kernel_cycles += cycles[width]
        reports.append(
            ModeledInference(len(widths), int(built), kernel_cycles, schedule_cycles)
        )
    return reports
