"""``python -m repro shard-bench`` — sharded vs. single-process rows/s.

Times the same SpMM two ways on a synthetic power-law dataset:

* **single-process** — ``matrix.multiply_dense`` in this process, the
  unsharded reference baseline (shard workers themselves run scipy's
  CSR product on their compacted local matrices);
* **sharded** — an ``N``-shard :class:`~repro.shard.router.ShardRouter`
  (scatter -> concurrent per-shard SpMM on worker subprocesses -> halo
  gather).

Every sharded output is cross-checked against the single-process
result; any row outside tolerance counts as an **oracle disagreement**
and fails the run.  The record (``BENCH_shard.json``) carries both
throughputs, the speedup, the partition quality stats (balance,
edge-cut, halo rows) and the per-request halo traffic in bytes — the
numbers ``docs/SHARDING.md`` explains how to read.

Acceptance (full run): zero disagreements *and* the N-shard router at
or above 2x the single-process rows/s on the 1.2M-nnz dataset.
``--quick`` keeps the small dataset and gates only on correctness (CI
smoke boxes make no throughput promises).

Usage::

    python -m repro shard-bench                  # pl-large, 4 shards
    python -m repro shard-bench --quick          # CI smoke
    python -m repro shard-bench --shards 8 --strategy edge-cut
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro import obs
from repro.graphs.generators import power_law_graph
from repro.obs.export import run_record, write_run_record
from repro.shard.partition import STRATEGIES
from repro.shard.router import ShardConfig, ShardRouter

# (name, n_nodes, nnz, max_degree) — quick uses the small dataset, the
# full run uses the 1.2M-nnz acceptance target.
QUICK_DATASET = ("pl-small", 2_000, 16_000, 400)
FULL_DATASET = ("pl-large", 100_000, 1_200_000, 5_000)

# The full-run acceptance threshold: N shards must at least double the
# single-process throughput.
TARGET_SPEEDUP = 2.0

_RTOL = 1e-9
_ATOL = 1e-9


def _measure(thunk, repeats: int) -> "tuple[float, np.ndarray]":
    """Best-of-``repeats`` seconds and the (last) output."""
    thunk()  # warmup: partitions, segments, page-ins
    best = float("inf")
    output = None
    for _ in range(repeats):
        start = time.perf_counter()
        output = thunk()
        best = min(best, time.perf_counter() - start)
    return best, output


@obs.instrumented
def run_shard_bench(
    *,
    quick: bool = False,
    n_shards: int = 4,
    strategy: str = "block",
    dim: int = 32,
    repeats: int = 3,
    seed: int = 2023,
    bench_dir: "str | None" = None,
    out=sys.stdout,
) -> int:
    """Measure sharded vs. single-process SpMM and record the result.

    Returns the process exit code: 0 when the oracle check finds zero
    disagreements (and, on full runs, the speedup clears
    :data:`TARGET_SPEEDUP`), 1 otherwise.
    """
    name, n_nodes, nnz, max_degree = QUICK_DATASET if quick else FULL_DATASET
    repeats = max(1, 1 if quick else repeats)
    rng = np.random.default_rng(seed)
    with obs.profiled() as session:
        matrix = power_law_graph(n_nodes, nnz, max_degree, seed=seed)
        dense = rng.standard_normal((matrix.n_cols, dim))

        single_seconds, expected = _measure(
            lambda: matrix.multiply_dense(dense), repeats
        )

        config = ShardConfig(n_shards=n_shards, strategy=strategy, seed=seed)
        with ShardRouter(config) as router:
            shard_seconds, result = _measure(
                lambda: router.execute(matrix, dense), repeats
            )
            partition = router.partition_for(matrix)
            snapshot = router.snapshot()

        row_ok = np.isclose(
            result.output, expected, rtol=_RTOL, atol=_ATOL
        ).all(axis=1)
        disagreements = int(np.count_nonzero(~row_ok))

    single_rows_per_s = matrix.n_rows / single_seconds
    shard_rows_per_s = matrix.n_rows / shard_seconds
    speedup = (
        shard_rows_per_s / single_rows_per_s if single_rows_per_s else 0.0
    )
    stats = partition.stats
    halo_bytes = stats.halo_bytes(dim)
    imbalance = stats.balance
    passed = disagreements == 0 and (quick or speedup >= TARGET_SPEEDUP)
    status = "ok" if passed else "failed"

    shard_doc = {
        "dataset": name,
        "n_rows": matrix.n_rows,
        "nnz": matrix.nnz,
        "dim": dim,
        "n_shards": n_shards,
        "strategy": strategy,
        "single_process": {
            "seconds": single_seconds,
            "rows_per_s": single_rows_per_s,
        },
        "sharded": {
            "seconds": shard_seconds,
            "rows_per_s": shard_rows_per_s,
            "kernel_seconds": result.kernel_seconds,
            "ipc_seconds": result.ipc_seconds,
            "scatter_seconds": result.scatter_seconds,
            "halo_seconds": result.halo_seconds,
            "shards_used": result.shards_used,
            "replays": snapshot["replays"],
        },
        "speedup": speedup,
        "target_speedup": None if quick else TARGET_SPEEDUP,
        "halo": {
            "halo_rows": stats.halo_rows,
            "halo_fraction": stats.halo_fraction,
            "bytes_per_request": halo_bytes,
            "gather_rows": stats.gather_rows,
            "distinct_rows": stats.distinct_rows,
        },
        "partition": stats.to_dict(),
        "imbalance": imbalance,
        "oracle": {
            "disagreements": disagreements,
            "checked_rows": matrix.n_rows,
        },
        "zero_copy": snapshot["zero_copy"],
    }

    print(
        f"{name:10s} single-process {single_seconds * 1e3:9.2f} ms  "
        f"{single_rows_per_s:12.0f} rows/s",
        file=out,
    )
    print(
        f"{name:10s} {n_shards}-shard[{strategy}] "
        f"{shard_seconds * 1e3:9.2f} ms  "
        f"{shard_rows_per_s:12.0f} rows/s  {speedup:5.2f}x  "
        f"halo {stats.halo_rows} rows / {halo_bytes} B  "
        f"imbalance {imbalance:.3f}  "
        f"disagreements {disagreements}",
        file=out,
    )

    record = run_record(
        "shard",
        metrics=session.snapshot(),
        wall_seconds=session.wall_seconds,
        status=status,
        extra={
            "quick": quick,
            "seed": seed,
            "repeats": repeats,
            "shard": shard_doc,
        },
    )
    path = write_run_record(record, bench_dir)
    print(f"recorded {path}", file=out)
    if not passed:
        reason = (
            f"{disagreements} oracle disagreement(s)"
            if disagreements
            else f"speedup {speedup:.2f}x below the "
            f"{TARGET_SPEEDUP:.1f}x target"
        )
        print(f"FAILED: {reason}", file=out)
    return 0 if passed else 1


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point for ``python -m repro shard-bench``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro shard-bench",
        description="Measure sharded vs. single-process SpMM rows/s and "
        "record BENCH_shard.json.",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small dataset, one repeat, no speedup gate (CI smoke)",
    )
    parser.add_argument(
        "--shards", type=int, default=4, help="shard count (default 4)"
    )
    parser.add_argument(
        "--strategy",
        choices=STRATEGIES,
        default="block",
        help="partitioning strategy",
    )
    parser.add_argument("--dim", type=int, default=32, help="dense width")
    parser.add_argument(
        "--repeats", type=int, default=3, help="timing repeats (best-of)"
    )
    parser.add_argument("--seed", type=int, default=2023)
    parser.add_argument(
        "--bench-dir",
        default=None,
        help="run-record directory (default: benchmarks/results or "
        "$REPRO_BENCH_DIR)",
    )
    args = parser.parse_args(argv)
    return run_shard_bench(
        quick=args.quick,
        n_shards=args.shards,
        strategy=args.strategy,
        dim=args.dim,
        repeats=args.repeats,
        seed=args.seed,
        bench_dir=args.bench_dir,
    )


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    sys.exit(main())
