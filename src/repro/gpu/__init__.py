"""GPU execution model.

The paper's GPU results come from CUDA kernels profiled on an NVIDIA
Quadro RTX 6000.  This package substitutes a *timing model* driven by the
real schedules the algorithms produce (DESIGN.md §1): every workload is
described by per-warp instruction-issue, memory-traffic and atomic-update
counts derived exactly from the schedule, and
:func:`repro.gpu.timing.simulate` turns those counts into modeled kernel
cycles using throughput, latency-hiding, atomic-contention and
load-imbalance terms.

Modules:

* :mod:`repro.gpu.device` — hardware description + model constants.
* :mod:`repro.gpu.workload` — the per-warp workload abstraction.
* :mod:`repro.gpu.timing` — the timing model proper.
* :mod:`repro.gpu.kernels` — workload builders for MergePath-SpMM and all
  baselines, plus the top-level ``kernel_time`` entry point.
* :mod:`repro.gpu.overhead` — modeled cycles of GCN inferences under
  online or offline scheduling (Figure 8).
"""

from repro.gpu.device import GPUDevice, ModelParams, a100_like, quadro_rtx_6000
from repro.gpu.workload import GPUWorkload
from repro.gpu.timing import KernelTiming, simulate, scheduling_time
from repro.gpu.report import breakdown_table, compare_kernels, comparison_table
from repro.gpu.kernels import (
    KERNELS,
    kernel_time,
    mergepath_workload,
    gnnadvisor_workload,
    row_splitting_workload,
    merge_path_serial_workload,
    cusparse_workload,
)
from repro.gpu.overhead import ModeledInference, model_gcn_inferences

__all__ = [
    "GPUDevice",
    "GPUWorkload",
    "KERNELS",
    "KernelTiming",
    "ModelParams",
    "ModeledInference",
    "a100_like",
    "breakdown_table",
    "compare_kernels",
    "comparison_table",
    "cusparse_workload",
    "gnnadvisor_workload",
    "kernel_time",
    "merge_path_serial_workload",
    "mergepath_workload",
    "model_gcn_inferences",
    "quadro_rtx_6000",
    "row_splitting_workload",
    "scheduling_time",
    "simulate",
]
