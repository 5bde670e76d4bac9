"""Tests for the shard router: scatter -> shard pools -> halo gather."""

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.formats import CSRMatrix
from repro.graphs.generators import power_law_graph
from repro.resilience import faults
from repro.serve.procpool import (
    PoolError,
    ProcPoolConfig,
    WorkerCrashError,
)
from repro.shard import ShardConfig, ShardRouter


def _matrix(seed: int = 0) -> CSRMatrix:
    return power_law_graph(n_nodes=60, nnz=360, max_degree=16, seed=seed)


def _proc_config(**overrides) -> ProcPoolConfig:
    settings = dict(
        heartbeat_interval=0.02,
        heartbeat_timeout=0.6,
        hang_timeout=5.0,
        restart_budget=8,
        restart_window=60.0,
    )
    settings.update(overrides)
    return ProcPoolConfig(**settings)


def _wait_for(predicate, timeout=5.0, interval=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def _busy_pids(pool):
    with pool._cond:
        return [
            slot.proc.pid
            for slot in pool._slots.values()
            if slot.job is not None
            and not slot.dead
            and slot.proc.is_alive()
        ]


class TestShardConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_shards": 0},
            {"strategy": "metis"},
            {"workers_per_shard": 0},
            {"replay_budget": -1},
            {"partition_cache_capacity": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ShardConfig(**kwargs)


class TestExecution:
    def test_matches_reference_product(self):
        matrix = _matrix()
        dense = np.random.default_rng(0).random((matrix.n_cols, 6))
        with ShardRouter(
            ShardConfig(n_shards=3), proc_config=_proc_config()
        ) as router:
            result = router.execute(matrix, dense)
        assert np.allclose(
            result.output, matrix.multiply_dense(dense), atol=1e-9
        )
        assert result.backend == "shard"
        assert result.shards_used == 3
        assert result.copied_bytes == 0

    def test_repeated_executes_agree(self):
        matrix = _matrix(seed=2)
        dense = np.random.default_rng(2).random((matrix.n_cols, 4))
        expected = matrix.multiply_dense(dense)
        config = ShardConfig(n_shards=2)
        with ShardRouter(config, proc_config=_proc_config()) as router:
            for _ in range(3):
                result = router.execute(matrix, dense)
                assert np.allclose(result.output, expected, atol=1e-9)

    def test_execute_before_start_raises(self):
        router = ShardRouter(ShardConfig(n_shards=2))
        with pytest.raises(PoolError, match="not running"):
            router.execute(_matrix(), np.ones((60, 2)))

    def test_timing_fields_are_populated(self):
        matrix = _matrix()
        dense = np.ones((matrix.n_cols, 3))
        with ShardRouter(
            ShardConfig(n_shards=2), proc_config=_proc_config()
        ) as router:
            result = router.execute(matrix, dense)
        assert result.kernel_seconds >= 0.0
        assert result.scatter_seconds >= 0.0
        assert result.halo_seconds >= 0.0
        assert result.halo_bytes >= 0


class TestPartitionCache:
    def test_cache_hit_on_repeat_and_miss_on_new_epoch(self):
        matrix = _matrix()
        dense = np.ones((matrix.n_cols, 2))
        with ShardRouter(
            ShardConfig(n_shards=2), proc_config=_proc_config()
        ) as router:
            first = router.partition_for(matrix)
            assert router.partition_for(matrix) is first
            assert router.snapshot()["partitions_cached"] == 1
            # A new epoch (fresh values fingerprint) re-partitions.
            bumped = CSRMatrix(
                n_rows=matrix.n_rows,
                n_cols=matrix.n_cols,
                row_pointers=matrix.row_pointers,
                column_indices=matrix.column_indices,
                values=matrix.values * 2.0,
                version=(matrix.version or 0) + 1,
            )
            second = router.partition_for(bumped)
            assert second is not first
            assert router.snapshot()["partitions_cached"] == 2
            router.execute(matrix, dense)

    def test_invalidate_fingerprint_drops_by_structural_key(self):
        matrix = _matrix()
        with ShardRouter(
            ShardConfig(n_shards=2), proc_config=_proc_config()
        ) as router:
            router.partition_for(matrix)
            assert router.invalidate_fingerprint("no-such") == 0
            assert router.invalidate_fingerprint(matrix.fingerprint()) == 1
            assert router.snapshot()["partitions_cached"] == 0

    def test_lru_evicts_oldest_partition(self):
        config = ShardConfig(n_shards=2, partition_cache_capacity=2)
        with ShardRouter(config, proc_config=_proc_config()) as router:
            for seed in range(3):
                router.partition_for(_matrix(seed=seed))
            assert router.snapshot()["partitions_cached"] == 2


class TestSnapshot:
    def test_snapshot_shape(self):
        matrix = _matrix()
        with ShardRouter(
            ShardConfig(n_shards=2), proc_config=_proc_config()
        ) as router:
            router.execute(matrix, np.ones((matrix.n_cols, 2)))
            snapshot = router.snapshot()
        assert snapshot["isolation"] == "shard"
        assert snapshot["n_shards"] == 2
        assert snapshot["executed"] == 1
        assert snapshot["supervisor"]["exhausted"] is False
        assert snapshot["supervisor"]["exhausted_shards"] == []
        assert len(snapshot["shards"]) == 2
        assert snapshot["partition"]["n_shards"] == 2
        assert (
            snapshot["zero_copy"]["per_request_graph_bytes_copied"] == 0
        )

    def test_pool_protocol_surface(self):
        with ShardRouter(
            ShardConfig(n_shards=2), proc_config=_proc_config()
        ) as router:
            assert router.is_quarantined("anything") is False
            assert router.memory_pressure() is False
            assert router.supervisor.exhausted is False


class TestReplay:
    def test_killed_shard_worker_is_replayed(self):
        matrix = _matrix()
        dense = np.random.default_rng(1).random((matrix.n_cols, 4))
        expected = matrix.multiply_dense(dense)
        config = ShardConfig(n_shards=2, replay_budget=2)
        with ShardRouter(config, proc_config=_proc_config()) as router:
            outcome = {}

            def submit():
                with faults.inject(
                    seed=0, delay_proc=1.0, delay_proc_seconds=0.4
                ):
                    outcome["result"] = router.execute(
                        matrix, dense, timeout=30.0
                    )

            thread = threading.Thread(target=submit)
            thread.start()
            assert _wait_for(lambda: _busy_pids(router.pools[0]))
            victim = _busy_pids(router.pools[0])[0]
            time.sleep(0.1)
            os.kill(victim, signal.SIGKILL)
            thread.join(timeout=30.0)
            assert not thread.is_alive()
            result = outcome["result"]
            assert result.replays >= 1
            assert np.allclose(result.output, expected, atol=1e-9)
            assert router.snapshot()["replays"] >= 1
            assert router.replays_recent(30.0) >= 1

    def test_exhausted_shard_fails_the_batch_with_shard_id(self):
        matrix = _matrix()
        dense = np.random.default_rng(3).random((matrix.n_cols, 3))
        config = ShardConfig(n_shards=2, replay_budget=2)
        with ShardRouter(
            config, proc_config=_proc_config(restart_budget=0)
        ) as router:
            outcome = {}

            def submit():
                try:
                    with faults.inject(
                        seed=0, delay_proc=1.0, delay_proc_seconds=0.4
                    ):
                        router.execute(matrix, dense, timeout=30.0)
                except Exception as exc:  # noqa: BLE001
                    outcome["error"] = exc

            thread = threading.Thread(target=submit)
            thread.start()
            assert _wait_for(lambda: _busy_pids(router.pools[0]))
            victim = _busy_pids(router.pools[0])[0]
            time.sleep(0.1)
            os.kill(victim, signal.SIGKILL)
            thread.join(timeout=30.0)
            assert not thread.is_alive()
            error = outcome["error"]
            assert isinstance(error, WorkerCrashError)
            assert "shard 0" in str(error)
            assert router.snapshot()["supervisor"]["exhausted_shards"] == [
                0
            ]
            assert router.supervisor.exhausted


class TestSlotBlocks:
    def test_close_unlinks_every_shard_pools_blocks(self):
        matrix = _matrix()
        dense = np.ones((matrix.n_cols, 3))
        with ShardRouter(
            ShardConfig(n_shards=2), proc_config=_proc_config()
        ) as router:
            router.execute(matrix, dense)
            names = [
                slot.block.name
                for pool in router.pools
                for slot in list(pool._slots.values())
                if slot.block is not None
            ]
            assert len(names) == 2
            assert all(os.path.exists(f"/dev/shm/{name}") for name in names)
        assert not [n for n in names if os.path.exists(f"/dev/shm/{n}")]
