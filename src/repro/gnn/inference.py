"""GNN inference engine: a GCN pass on merge-path row blocks.

:class:`InferenceEngine` runs a 2-layer (or deeper) GCN on a graph.
Each layer runs the cheaper of ``(A·X)·W`` and ``A·(X·W)`` by FLOP count
(:func:`choose_ordering`) on the normalized adjacency's merge-path row
blocks (:mod:`repro.core.parallel`): the GEMM split by rows, the SpMM by
blocks, and the activation applied to each block's rows as they become
final, all on one thread pool with numpy's OpenBLAS held to one thread
for the pass.  A graph too small to split runs one scipy call per layer.

The engine does measured work only: the GPU model's accounting of the
same passes (Section III-D, Figure 8) is
:func:`repro.gpu.overhead.model_gcn_inferences`.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from repro.core.parallel import (
    block_count,
    execute_row_blocks,
    for_row_ranges,
    single_blas_thread,
)
from repro.formats import CSRMatrix
from repro.obs.rtrace import RequestContext
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
    """The result of one GNN inference.

    Attributes:
        output: Final-layer embeddings.
        row_blocks: Merge-path row blocks each layer ran on
            (:func:`~repro.core.parallel.block_count`).
    """

    output: np.ndarray
    row_blocks: int


class InferenceEngine:
    """Runs GCN inference passes on the normalized adjacency's row blocks.

    Args:
        fused: Accepted for compatibility; every layer already shares
            one adjacency view, so it selects nothing.
    """

    def __init__(self, *, fused: bool = True) -> None:
        # (graph, normalized adjacency) of the last graph served.  The
        # graph is matched with ``is``: an ``id()`` key would hand a new
        # graph allocated at a collected one's address the stale entry.
        self._entry: "tuple[Graph, CSRMatrix] | None" = None

    def infer(self, model: GCN, graph: Graph, features: np.ndarray | None = None,
              *, ctx: "RequestContext | None" = None
              ) -> InferenceReport:
        """Run one inference pass.

        Args:
            ctx: Optional request-trace context
                (:mod:`repro.obs.rtrace`); when passed, each layer's
                seconds are added to its ledger's ``kernel`` stage.
        """
        adjacency = self._adjacency(graph)
        if features is None:
            if graph.features is None:
                raise ValueError("graph carries no features; pass them explicitly")
            features = graph.features
        hidden = np.asarray(features, dtype=np.float64)
        n_blocks = block_count(adjacency)
        with single_blas_thread() if n_blocks > 1 else nullcontext():
            for layer in model.layers:
                ordering = choose_ordering(
                    adjacency.n_rows,
                    adjacency.nnz,
                    layer.in_features,
                    layer.out_features,
                ).ordering
                started = time.perf_counter()
                hidden = _run_layer(adjacency, hidden, layer, ordering, n_blocks)
                if ctx is not None:
                    ctx.ledger.add("kernel", time.perf_counter() - started)
        return InferenceReport(output=hidden, row_blocks=n_blocks)

    def _adjacency(self, graph: Graph) -> CSRMatrix:
        """The graph's normalized adjacency, built once per graph."""
        entry = self._entry
        if entry is None or entry[0] is not graph:
            entry = self._entry = (graph, graph.normalized_adjacency())
        return entry[1]


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
