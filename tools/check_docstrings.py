#!/usr/bin/env python
"""Lint: every public symbol in ``src/repro`` must carry a docstring.

Walks the package with ``ast`` and flags public modules, classes,
functions, and methods (names not starting with ``_``) whose body does
not begin with a docstring.  The API reference (``docs/API.md``) is
written against these docstrings, so a silent gap here is a silent gap
in the documentation.

Deliberately out of scope:

* private names (leading underscore) — internal contracts live in
  comments where they matter;
* ``__init__``/dunder methods — documented on their class;
* test files, examples, and tools — linted by review, not machine;
* ``@property`` setters and ``@overload`` stubs — the getter or the
  implementation carries the docstring.

``ALLOWLIST`` grandfathers pre-existing gaps (module-relative path,
qualified name).  Shrink it; never grow it without a reason in the
adjacent comment.

Exit status 0 when clean; 1 with a listing otherwise.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE_ROOT = REPO_ROOT / "src" / "repro"

# (path relative to repo root, qualified name) — grandfathered gaps.
# Each entry is a docstring the codebase still owes; remove entries as
# the docstrings land.
ALLOWLIST: "set[tuple[str, str]]" = {
    ("src/repro/__main__.py", "main"),
    ("src/repro/baselines/merge_path_serial.py", "SerialMergePathSchedule.build"),
    ("src/repro/baselines/merge_path_serial.py", "SerialMergePathSchedule.matrix"),
    ("src/repro/baselines/merge_path_serial.py", "SerialMergePathSchedule.n_threads"),
    ("src/repro/baselines/neighbor_groups.py", "NeighborGroupSchedule.n_groups"),
    ("src/repro/baselines/neighbor_groups.py", "NeighborGroupSchedule.group_lengths"),
    ("src/repro/core/schedule.py", "ThreadAssignment.n_nonzeros"),
    ("src/repro/core/schedule.py", "ScheduleStatistics.total_writes"),
    ("src/repro/core/spmm.py", "WriteSegments.n_segments"),
    ("src/repro/experiments/end_to_end_gnn.py", "main"),
    ("src/repro/experiments/engine_balance.py", "main"),
    ("src/repro/experiments/fig1_power_law.py", "main"),
    ("src/repro/experiments/fig2_motivation.py", "main"),
    ("src/repro/experiments/fig3_example.py", "main"),
    ("src/repro/experiments/fig4_speedup.py", "main"),
    ("src/repro/experiments/fig5_write_ops.py", "main"),
    ("src/repro/experiments/fig6_cost_sweep.py", "main"),
    ("src/repro/experiments/fig7_dimension_scaling.py", "main"),
    ("src/repro/experiments/fig8_online_overhead.py", "main"),
    ("src/repro/experiments/fig9_multicore_scaling.py", "main"),
    ("src/repro/experiments/harness.py", "main"),
    ("src/repro/experiments/reporting.py", "ExperimentResult.format"),
    ("src/repro/experiments/reporting.py", "ExperimentResult.show"),
    ("src/repro/experiments/table1_config.py", "main"),
    ("src/repro/experiments/table2_datasets.py", "main"),
    ("src/repro/formats/coo.py", "COOMatrix.shape"),
    ("src/repro/formats/coo.py", "COOMatrix.nnz"),
    ("src/repro/formats/csc.py", "CSCMatrix.shape"),
    ("src/repro/formats/csc.py", "CSCMatrix.nnz"),
    ("src/repro/formats/csr.py", "CSRMatrix.shape"),
    ("src/repro/gnn/layers.py", "GCNLayer.in_features"),
    ("src/repro/gnn/layers.py", "GCNLayer.out_features"),
    ("src/repro/gnn/models.py", "GCN.n_layers"),
    ("src/repro/gnn/training.py", "TrainableGCN.n_layers"),
    ("src/repro/gpu/device.py", "GPUDevice.cycles_to_seconds"),
    ("src/repro/gpu/device.py", "GPUDevice.cycles_to_microseconds"),
    ("src/repro/gpu/workload.py", "GPUWorkload.n_warps"),
    ("src/repro/gpu/workload.py", "GPUWorkload.total_issue_cycles"),
    ("src/repro/gpu/workload.py", "GPUWorkload.total_mem_bytes"),
    ("src/repro/gpu/workload.py", "GPUWorkload.total_atomic_ops"),
    ("src/repro/graphs/datasets.py", "DatasetSpec.is_power_law"),
    ("src/repro/graphs/delta.py", "EdgeUpdate.insert"),
    ("src/repro/graphs/delta.py", "EdgeUpdate.delete"),
    ("src/repro/graphs/delta.py", "EdgeUpdate.update"),
    ("src/repro/graphs/delta.py", "DeltaCSR.base"),
    ("src/repro/graphs/delta.py", "DeltaCSR.n_rows"),
    ("src/repro/graphs/delta.py", "DeltaCSR.n_cols"),
    ("src/repro/graphs/delta.py", "DeltaCSR.insert_edge"),
    ("src/repro/graphs/delta.py", "DeltaCSR.delete_edge"),
    ("src/repro/graphs/delta.py", "DeltaCSR.update_edge"),
    ("src/repro/graphs/graph.py", "Graph.n_nodes"),
    ("src/repro/multicore/cache.py", "CacheStats.accesses"),
    ("src/repro/multicore/cache.py", "CacheStats.hit_rate"),
    ("src/repro/multicore/config.py", "CacheConfig.n_lines"),
    ("src/repro/multicore/config.py", "CacheConfig.n_sets"),
    ("src/repro/multicore/config.py", "MachineConfig.mesh_width"),
    ("src/repro/multicore/config.py", "MachineConfig.mesh_height"),
    ("src/repro/multicore/config.py", "MachineConfig.dram_latency_cycles"),
    ("src/repro/multicore/config.py", "MachineConfig.dram_bytes_per_cycle"),
    ("src/repro/multicore/config.py", "MachineConfig.total_l2_bytes"),
    ("src/repro/multicore/config.py", "MachineConfig.cycles_to_seconds"),
    ("src/repro/multicore/dram.py", "DramModel.reset"),
    ("src/repro/multicore/trace.py", "AddressMap.ints_per_line"),
    ("src/repro/multicore/trace.py", "AddressMap.lines_per_dense_row"),
    ("src/repro/multicore/trace.py", "AddressMap.rp_base"),
    ("src/repro/multicore/trace.py", "AddressMap.cp_base"),
    ("src/repro/multicore/trace.py", "AddressMap.val_base"),
    ("src/repro/multicore/trace.py", "AddressMap.xw_base"),
    ("src/repro/multicore/trace.py", "AddressMap.out_base"),
    ("src/repro/multicore/trace.py", "AddressMap.total_lines"),
    ("src/repro/multicore/trace.py", "AddressMap.rp_line"),
    ("src/repro/multicore/trace.py", "AddressMap.cp_line"),
    ("src/repro/multicore/trace.py", "AddressMap.val_line"),
    ("src/repro/multicore/trace.py", "AddressMap.xw_first_line"),
    ("src/repro/multicore/trace.py", "AddressMap.out_first_line"),
    ("src/repro/multicore/trace.py", "ThreadTrace.n_accesses"),
    ("src/repro/obs/metrics.py", "Counter.value"),
    ("src/repro/obs/metrics.py", "Counter.snapshot"),
    ("src/repro/obs/metrics.py", "Gauge.set"),
    ("src/repro/obs/metrics.py", "Gauge.add"),
    ("src/repro/obs/metrics.py", "Gauge.value"),
    ("src/repro/obs/metrics.py", "Gauge.snapshot"),
    ("src/repro/obs/metrics.py", "Histogram.observe"),
    ("src/repro/obs/metrics.py", "Histogram.count"),
    ("src/repro/obs/metrics.py", "Histogram.total"),
    ("src/repro/obs/metrics.py", "Histogram.mean"),
    ("src/repro/obs/metrics.py", "Histogram.snapshot"),
    ("src/repro/obs/metrics.py", "MetricRegistry.counter"),
    ("src/repro/obs/metrics.py", "MetricRegistry.gauge"),
    ("src/repro/obs/metrics.py", "MetricRegistry.histogram"),
    ("src/repro/obs/metrics.py", "MetricRegistry.timer"),
    ("src/repro/obs/metrics.py", "MetricRegistry.reset"),
    ("src/repro/obs/rtrace.py", "Ledger.stages"),
    ("src/repro/obs/rtrace.py", "Ledger.events"),
    ("src/repro/obs/rtrace.py", "RequestContext.new"),
    ("src/repro/obs/rtrace.py", "FlightRecorder.to_dict"),
    ("src/repro/obs/slo.py", "SLObjective.to_dict"),
    ("src/repro/obs/slo.py", "SLOTracker.routes"),
    ("src/repro/obs/trace.py", "TraceRecorder.events"),
    ("src/repro/obs/trace.py", "TraceRecorder.n_spans"),
    ("src/repro/resilience/chaos.py", "ChaosCase.caught"),
    ("src/repro/resilience/chaos.py", "ChaosCase.to_dict"),
    ("src/repro/resilience/chaos.py", "ChaosReport.adversarial"),
    ("src/repro/resilience/chaos.py", "ChaosReport.silent"),
    ("src/repro/resilience/chaos.py", "ChaosReport.passed"),
    ("src/repro/resilience/chaos.py", "ChaosReport.to_dict"),
    ("src/repro/resilience/chaos.py", "ChaosReport.render"),
    ("src/repro/resilience/chaos_proc.py", "ProcChaosReport.silent"),
    ("src/repro/resilience/chaos_proc.py", "ProcChaosReport.coverage"),
    ("src/repro/resilience/chaos_proc.py", "ProcChaosReport.to_dict"),
    ("src/repro/resilience/chaos_proc.py", "ProcChaosReport.render"),
    ("src/repro/resilience/chaos_serve.py", "ServeChaosReport.silent"),
    ("src/repro/resilience/chaos_serve.py", "ServeChaosReport.coverage"),
    ("src/repro/resilience/chaos_serve.py", "ServeChaosReport.to_dict"),
    ("src/repro/resilience/chaos_serve.py", "ServeChaosReport.render"),
    ("src/repro/resilience/chaos_update.py", "UpdateChaosReport.silent"),
    ("src/repro/resilience/chaos_update.py", "UpdateChaosReport.coverage"),
    ("src/repro/resilience/chaos_update.py", "UpdateChaosReport.to_dict"),
    ("src/repro/resilience/chaos_update.py", "UpdateChaosReport.render"),
    ("src/repro/resilience/checkpoint.py", "BatchCheckpoint.done"),
    ("src/repro/resilience/corruption.py", "negative_column_index"),
    ("src/repro/resilience/corruption.py", "out_of_range_column_index"),
    ("src/repro/resilience/corruption.py", "decreasing_row_pointers"),
    ("src/repro/resilience/corruption.py", "bad_first_pointer"),
    ("src/repro/resilience/corruption.py", "bad_last_pointer"),
    ("src/repro/resilience/corruption.py", "nan_values"),
    ("src/repro/resilience/corruption.py", "inf_values"),
    ("src/repro/resilience/faults.py", "FaultPlan.total_injected"),
    ("src/repro/sample/extract.py", "EgoSubgraph.n_nodes"),
    ("src/repro/sample/extract.py", "EgoSubgraph.nnz"),
    ("src/repro/sample/index.py", "NeighborIndex.n_nodes"),
    ("src/repro/sample/index.py", "NeighborIndexCache.clear"),
}

_DECORATOR_SKIP = {"overload"}


def _decorator_names(node: ast.AST) -> "set[str]":
    names = set()
    for decorator in getattr(node, "decorator_list", []):
        target = decorator
        if isinstance(target, ast.Call):
            target = target.func
        if isinstance(target, ast.Attribute):
            names.add(target.attr)
        elif isinstance(target, ast.Name):
            names.add(target.id)
    return names


def _is_property_setter(node: ast.AST) -> bool:
    for decorator in getattr(node, "decorator_list", []):
        if (
            isinstance(decorator, ast.Attribute)
            and decorator.attr in ("setter", "deleter")
        ):
            return True
    return False


def _missing_in(
    parent: ast.AST, prefix: str, rel: str
) -> "list[tuple[str, str, int]]":
    missing = []
    for node in ast.iter_child_nodes(parent):
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            name = node.name
            if name.startswith("_"):
                continue
            if _decorator_names(node) & _DECORATOR_SKIP:
                continue
            if _is_property_setter(node):
                continue
            qualified = f"{prefix}{name}"
            if ast.get_docstring(node) is None:
                missing.append((rel, qualified, node.lineno))
            if isinstance(node, ast.ClassDef):
                missing.extend(
                    _missing_in(node, f"{qualified}.", rel)
                )
    return missing


def check_file(path: Path) -> "list[tuple[str, str, int]]":
    """(path, qualified name, line) for each undocumented public symbol."""
    rel = str(path.relative_to(REPO_ROOT))
    tree = ast.parse(path.read_text(), filename=rel)
    missing = []
    if ast.get_docstring(tree) is None:
        missing.append((rel, "<module>", 1))
    missing.extend(_missing_in(tree, "", rel))
    return missing


def main(argv: "list[str] | None" = None) -> int:
    del argv
    gaps: "list[tuple[str, str, int]]" = []
    checked = 0
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        gaps.extend(check_file(path))
        checked += 1
    missing = [g for g in gaps if (g[0], g[1]) not in ALLOWLIST]
    stale = ALLOWLIST - {(rel, name) for rel, name, _ in gaps}
    failed = False
    if missing:
        for rel, name, lineno in missing:
            print(f"{rel}:{lineno}: missing docstring on {name}")
        print(f"{len(missing)} undocumented public symbol(s)")
        failed = True
    if stale:
        for rel, name in sorted(stale):
            print(f"stale allowlist entry: ({rel!r}, {name!r}) — drop it")
        failed = True
    if failed:
        return 1
    allowed = f" ({len(ALLOWLIST)} allowlisted)" if ALLOWLIST else ""
    print(f"docstring lint: {checked} files clean{allowed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
