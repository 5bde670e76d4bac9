"""Unit tests for the pure health rules and the service health surface."""

import pytest

from repro.serve.health import (
    DEGRADED,
    HEALTHY,
    UNHEALTHY,
    HealthPolicy,
    evaluate_health,
)


def _snapshot(**overrides) -> dict:
    base = {
        "closed": False,
        "started": True,
        "queue_depth": 0,
        "max_queue": 64,
        "supervisor": {
            "n_workers": 2,
            "alive": 2,
            "restarts": 0,
            "restart_budget": 3,
            "crashes": 0,
            "exhausted": False,
            "recent_crashes": 0,
        },
        "deadline": {"misses": 0, "window": 0},
    }
    base.update(overrides)
    return base


class TestPolicyValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"queue_saturation": 0.0},
            {"queue_saturation": 1.5},
            {"deadline_miss_rate": 0.0},
            {"min_miss_window": 0},
            {"crash_recent_seconds": -1.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            HealthPolicy(**kwargs)


class TestEvaluateHealth:
    def test_clean_snapshot_is_healthy(self):
        report = evaluate_health(_snapshot())
        assert report.status == HEALTHY
        assert report.healthy
        assert report.causes == ()

    def test_closed_service_is_unhealthy(self):
        report = evaluate_health(_snapshot(closed=True))
        assert report.status == UNHEALTHY
        assert report.causes[0].kind == "service-closed"

    def test_not_started_is_unhealthy(self):
        report = evaluate_health(_snapshot(started=False))
        assert report.status == UNHEALTHY
        assert report.causes[0].kind == "service-not-started"

    def test_exhausted_pool_is_unhealthy(self):
        snap = _snapshot()
        snap["supervisor"].update(exhausted=True, crashes=4, alive=0)
        report = evaluate_health(snap)
        assert report.status == UNHEALTHY
        assert any(c.kind == "worker-pool-exhausted" for c in report.causes)

    def test_dead_pool_without_exhaustion_is_unhealthy(self):
        snap = _snapshot()
        snap["supervisor"].update(alive=0)
        report = evaluate_health(snap)
        assert report.status == UNHEALTHY
        assert any(c.kind == "no-live-workers" for c in report.causes)

    def test_recent_crash_degrades(self):
        snap = _snapshot()
        snap["supervisor"].update(crashes=1, restarts=1, recent_crashes=1)
        report = evaluate_health(snap)
        assert report.status == DEGRADED
        assert report.causes[0].kind == "worker-crash-recent"

    def test_saturated_queue_degrades(self):
        report = evaluate_health(_snapshot(queue_depth=52, max_queue=64))
        assert report.status == DEGRADED
        assert report.causes[0].kind == "queue-saturated"

    def test_queue_below_threshold_is_healthy(self):
        report = evaluate_health(_snapshot(queue_depth=50, max_queue=64))
        assert report.status == HEALTHY

    def test_deadline_misses_degrade_past_min_window(self):
        policy = HealthPolicy(deadline_miss_rate=0.25, min_miss_window=8)
        report = evaluate_health(
            _snapshot(deadline={"misses": 3, "window": 10}), policy
        )
        assert report.status == DEGRADED
        assert report.causes[0].kind == "deadline-misses"
        # Same rate but too few samples: not judged yet.
        report = evaluate_health(
            _snapshot(deadline={"misses": 2, "window": 6}), policy
        )
        assert report.status == HEALTHY

    def test_unhealthy_dominates_degraded(self):
        snap = _snapshot(closed=True, queue_depth=64)
        report = evaluate_health(snap)
        assert report.status == UNHEALTHY
        kinds = {c.kind for c in report.causes}
        assert "service-closed" in kinds
        assert "queue-saturated" in kinds

    def test_missing_keys_mean_feature_not_in_play(self):
        report = evaluate_health({})
        assert report.status == HEALTHY

    def test_report_serialization_and_render(self):
        report = evaluate_health(_snapshot(closed=True))
        payload = report.to_dict()
        assert payload["status"] == UNHEALTHY
        assert payload["causes"][0]["kind"] == "service-closed"
        assert "service-closed" in report.render()
        assert evaluate_health(_snapshot()).render() == "health: healthy"


class TestServiceHealthSurface:
    def test_live_service_reports_healthy(self, small_power_law, rng):
        from tests.test_serve_service import _service

        with _service() as service:
            dense = rng.random((small_power_law.n_cols, 4))
            assert service.submit(small_power_law, dense).result(10.0).ok
            report = service.health()
            assert report.status == HEALTHY
            assert report.snapshot["supervisor"]["alive"] >= 1
        # After close the same surface reports unhealthy.
        report = service.health()
        assert report.status == UNHEALTHY
        assert any(c.kind == "service-closed" for c in report.causes)

    def test_unstarted_service_reports_unhealthy(self):
        from tests.test_serve_service import _service

        service = _service()
        report = service.health()
        assert report.status == UNHEALTHY
        assert any(c.kind == "service-not-started" for c in report.causes)
