"""Service-level tests for sharded isolation (``isolation="shard"``).

Covers the full serving surface of the shard tier: config validation,
correct responses with scatter/halo latency attribution, the health
report's per-shard snapshot and the pure-function shard health causes,
and epoch-managed live graphs re-partitioning across updates.
"""

import numpy as np
import pytest

from repro.formats import CSRMatrix
from repro.graphs.delta import DeltaCSR, UpdatePlanner
from repro.graphs.generators import power_law_graph
from repro.serve import GraphEpochManager, InferenceService, ServeConfig
from repro.serve.health import (
    DEGRADED,
    HEALTHY,
    UNHEALTHY,
    HealthPolicy,
    evaluate_health,
)
from repro.serve.procpool import ProcPoolConfig
from repro.shard import ShardConfig


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


def _service(**kwargs) -> InferenceService:
    config = ServeConfig(
        max_queue=32,
        max_batch=2,
        max_wait_ms=1.0,
        n_workers=1,
        verify=True,
        request_timeout=10.0,
        isolation="shard",
        num_shards=kwargs.pop("num_shards", 2),
    )
    kwargs.setdefault("proc_config", _proc_config())
    return InferenceService(config=config, **kwargs)


class TestServeConfig:
    def test_shard_isolation_accepted(self):
        config = ServeConfig(isolation="shard", num_shards=3)
        assert config.num_shards == 3

    def test_invalid_num_shards_rejected(self):
        with pytest.raises(ValueError, match="num_shards"):
            ServeConfig(isolation="shard", num_shards=0)

    def test_invalid_isolation_rejected(self):
        with pytest.raises(ValueError, match="isolation"):
            ServeConfig(isolation="cluster")


class TestShardedServing:
    def test_serves_and_attributes_all_stages(self):
        matrix = _matrix()
        dense = np.random.default_rng(0).random((matrix.n_cols, 4))
        with _service() as service:
            response = service.submit(matrix, dense).result(timeout=30.0)
            assert response.ok, response.error
            np.testing.assert_allclose(
                response.output,
                matrix.multiply_dense(dense),
                rtol=1e-9,
                atol=1e-9,
            )
            stages = response.attribution["stages"]
            for stage in ("scatter", "halo", "kernel", "ipc"):
                assert stage in stages, f"missing stage {stage!r}"

    def test_custom_shard_config_is_honoured(self):
        matrix = _matrix(seed=1)
        dense = np.ones((matrix.n_cols, 2))
        shard_config = ShardConfig(n_shards=3, strategy="edge-cut")
        with _service(shard_config=shard_config) as service:
            response = service.submit(matrix, dense).result(timeout=30.0)
            assert response.ok, response.error
            shards = service.health().snapshot["shards"]
            assert shards["n_shards"] == 3
            assert shards["strategy"] == "edge-cut"

    def test_health_reports_shard_snapshot(self):
        matrix = _matrix(seed=2)
        dense = np.ones((matrix.n_cols, 2))
        with _service() as service:
            service.submit(matrix, dense).result(timeout=30.0)
            health = service.health()
            assert health.status == HEALTHY
            shards = health.snapshot["shards"]
            assert shards["isolation"] == "shard"
            assert shards["executed"] >= 1
            assert len(shards["shards"]) == 2
            assert (
                shards["zero_copy"]["per_request_graph_bytes_copied"]
                == 0
            )


class TestEpochManagedSharding:
    def test_updates_re_partition_and_stay_correct(self):
        base = _matrix(seed=3)
        manager = GraphEpochManager(DeltaCSR(base, compact_threshold=64))
        rng = np.random.default_rng(3)
        dense = rng.random((base.n_cols, 4))
        planner = UpdatePlanner(base)
        with _service(epoch_manager=manager) as service:
            router = service._proc_pool
            first = service.submit(None, dense).result(timeout=30.0)
            assert first.ok, first.error
            assert first.epoch == 0
            service.apply_updates(planner.batch(rng, size=1))
            second = service.submit(None, dense).result(timeout=30.0)
            assert second.ok, second.error
            assert second.epoch == 1
            current = manager.current_snapshot().matrix
            np.testing.assert_allclose(
                second.output,
                current.multiply_dense(dense),
                rtol=1e-9,
                atol=1e-9,
            )
            # Epoch 1 got its own partition plan; retired epoch 0's
            # partition was dropped.
            assert router.snapshot()["partitions_cached"] == 1


def _shard_snapshot(**overrides) -> dict:
    """A healthy sharded-service snapshot for evaluate_health tests."""
    snapshot = {
        "started": True,
        "closed": False,
        "queue_depth": 0,
        "max_queue": 32,
        "shards": {
            "isolation": "shard",
            "n_shards": 2,
            "executed": 5,
            "replays": 0,
            "replays_recent": 0,
            "partition": {"balance": 1.1},
            "supervisor": {
                "exhausted": False,
                "exhausted_shards": [],
                "restart_budget": 8,
            },
            "quarantine": {"active": 0},
            "memory": {"total_rss_bytes": 0, "pressure": False},
            "shards": [
                {
                    "shard_id": 0,
                    "supervisor": {
                        "exhausted": False,
                        "recent_crashes": 0,
                    },
                },
                {
                    "shard_id": 1,
                    "supervisor": {
                        "exhausted": False,
                        "recent_crashes": 0,
                    },
                },
            ],
        },
    }
    shards = snapshot["shards"]
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(shards.get(key), dict):
            shards[key].update(value)
        else:
            shards[key] = value
    return snapshot


class TestShardHealthCauses:
    def test_healthy_sharded_snapshot(self):
        report = evaluate_health(_shard_snapshot())
        assert report.status == HEALTHY
        assert report.causes == ()

    def test_exhausted_shard_is_unhealthy(self):
        report = evaluate_health(
            _shard_snapshot(
                supervisor={
                    "exhausted": True,
                    "exhausted_shards": [1],
                    "restart_budget": 8,
                }
            )
        )
        assert report.status == UNHEALTHY
        causes = {cause.kind for cause in report.causes}
        assert "shard-pool-exhausted" in causes

    def test_recent_shard_crash_degrades(self):
        snapshot = _shard_snapshot()
        snapshot["shards"]["shards"][0]["supervisor"][
            "recent_crashes"
        ] = 2
        report = evaluate_health(snapshot)
        assert report.status == DEGRADED
        causes = {cause.kind for cause in report.causes}
        assert "shard-worker-crash-recent" in causes

    def test_high_replays_degrade(self):
        report = evaluate_health(_shard_snapshot(replays_recent=3))
        assert report.status == DEGRADED
        causes = {cause.kind for cause in report.causes}
        assert "shard-replays-high" in causes

    def test_imbalance_degrades_at_policy_threshold(self):
        report = evaluate_health(
            _shard_snapshot(partition={"balance": 2.5})
        )
        assert report.status == DEGRADED
        causes = {cause.kind for cause in report.causes}
        assert "shard-imbalance-high" in causes
        relaxed = evaluate_health(
            _shard_snapshot(partition={"balance": 2.5}),
            HealthPolicy(shard_imbalance_degraded=3.0),
        )
        assert relaxed.status == HEALTHY

    def test_policy_threshold_validation(self):
        with pytest.raises(ValueError, match="shard_imbalance"):
            HealthPolicy(shard_imbalance_degraded=1.0)
        with pytest.raises(ValueError, match="shard_replays"):
            HealthPolicy(shard_replays_degraded=0)
