"""Figure 8: online scheduling overhead in a 2-layer GCN setting.

In the online setting the MergePath-SpMM schedule is recomputed once per
inference and reused by the model's two SpMM kernel invocations.  The
overhead is the modeled scheduling time as a fraction of total modeled
time (schedule + two kernels) per input graph.
"""

from __future__ import annotations

from repro.core.scheduler import SchedulingMode
from repro.experiments.reporting import ExperimentResult, geometric_mean
from repro.gnn import GCN
from repro.gpu import model_gcn_inferences
from repro.graphs import load_dataset, power_law_dataset_names

DIM = 16


def run(names=None, seed: int = 2023) -> ExperimentResult:
    """Per-graph online scheduling overheads for a 2-layer GCN."""
    if names is None:
        names = power_law_dataset_names()
    rows = []
    overheads = []
    for name in names:
        graph = load_dataset(name, seed=seed)
        model = GCN.random([DIM, DIM, DIM], seed=seed)
        (report,) = model_gcn_inferences(
            model, graph, mode=SchedulingMode.ONLINE
        )
        assert report.schedule_computations == 1, "online = 1 schedule/inference"
        assert report.kernel_invocations == 2
        overheads.append(report.scheduling_overhead)
        rows.append(
            (
                name,
                report.modeled_schedule_cycles,
                report.modeled_kernel_cycles,
                100.0 * report.scheduling_overhead,
            )
        )
    notes = [
        f"geomean overhead {100 * geometric_mean(overheads):.1f}% "
        "(paper: ~2%, max ~10% on Cora, <1% on com-Amazon)",
    ]
    return ExperimentResult(
        title="Figure 8: online scheduling overhead (2-layer GCN, dim 16)",
        headers=["graph", "sched_cycles", "kernel_cycles", "overhead_%"],
        rows=rows,
        notes=notes,
    )


def main() -> None:
    run().show()


if __name__ == "__main__":
    main()
