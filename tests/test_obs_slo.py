"""Unit tests for the SLO layer (objectives, burn rates, health rules)."""

import pytest

from repro import obs
from repro.obs.slo import SLObjective, SLOTracker
from repro.serve.health import DEGRADED, HealthPolicy, evaluate_health


class TestObjective:
    def test_defaults(self):
        objective = SLObjective()
        assert objective.route == "default"
        assert objective.effective_threshold_ms == 250.0

    def test_threshold_precedence(self):
        assert SLObjective(threshold_ms=100.0).effective_threshold_ms == 100.0
        assert (
            SLObjective(p95_ms=None, p99_ms=300.0).effective_threshold_ms
            == 300.0
        )
        assert (
            SLObjective(p95_ms=None, p99_ms=None).effective_threshold_ms
            is None
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"p95_ms": 0.0},
            {"threshold_ms": -1.0},
            {"success_rate": 0.0},
            {"success_rate": 1.0},
            {"window": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SLObjective(**kwargs)


class TestTracker:
    def test_burn_rate_math(self):
        # 10 samples, success floor 0.9 -> 1 violation allowed; 5
        # violations burn at 5x and exhaust the budget.
        tracker = SLOTracker(
            default_objective=SLObjective(
                threshold_ms=100.0, success_rate=0.9, window=64
            )
        )
        for _ in range(5):
            tracker.observe("r", 0.01)  # 10 ms, fine
        for _ in range(5):
            tracker.observe("r", 0.5)  # 500 ms, violates
        report = tracker.route_report("r")
        assert report["violations"] == 5
        assert report["budget"]["burn_rate"] == pytest.approx(5.0)
        assert report["budget"]["exhausted"]

    def test_failures_always_violate(self):
        tracker = SLOTracker()
        tracker.observe("r", 0.0, ok=False)
        assert tracker.route_report("r")["violations"] == 1

    def test_percentiles_over_ok_only(self):
        tracker = SLOTracker(
            default_objective=SLObjective(p95_ms=1000.0, window=64)
        )
        for latency in (0.010, 0.020, 0.030):
            tracker.observe("r", latency)
        tracker.observe("r", 99.0, ok=False)  # failed: excluded from p50
        observed = tracker.route_report("r")["observed_ms"]
        assert observed["p50"] == pytest.approx(20.0)

    def test_route_template_and_explicit(self):
        explicit = SLObjective(route="gold", threshold_ms=10.0)
        tracker = SLOTracker(
            objectives=[explicit],
            default_objective=SLObjective(p95_ms=500.0),
        )
        assert tracker.objective_for("gold").effective_threshold_ms == 10.0
        templated = tracker.objective_for("other")
        assert templated.route == "other"
        assert templated.effective_threshold_ms == 500.0

    def test_window_bounds_samples(self):
        tracker = SLOTracker(
            default_objective=SLObjective(threshold_ms=100.0, window=4)
        )
        for _ in range(10):
            tracker.observe("r", 1.0)  # all violate
        report = tracker.route_report("r")
        assert report["samples"] == 4
        assert report["total_observed"] == 10

    def test_report_and_health_snapshot(self):
        tracker = SLOTracker(
            default_objective=SLObjective(threshold_ms=100.0, window=16)
        )
        tracker.observe("a", 0.01)
        tracker.observe("b", 1.0)
        report = tracker.report()
        assert set(report["routes"]) == {"a", "b"}
        assert report["worst_burn_rate"] > 0
        snapshot = tracker.health_snapshot()
        assert snapshot["routes"]["b"]["exhausted"]
        assert snapshot["routes"]["a"]["samples"] == 1

    def test_violation_counter_emitted(self):
        registry = obs.MetricRegistry()
        obs.set_registry(registry)
        try:
            tracker = SLOTracker(
                default_objective=SLObjective(threshold_ms=1.0)
            )
            tracker.observe("r", 5.0)
        finally:
            obs.set_registry(None)
        names = {e["name"] for e in registry.snapshot()}
        assert "obs.slo.violations" in names


class TestHealthIntegration:
    def _snapshot(self, routes):
        return {"closed": False, "started": True, "slo": {"routes": routes}}

    def test_exhausted_budget_degrades(self):
        report = evaluate_health(
            self._snapshot(
                {"r": {"samples": 32, "burn_rate": 4.0, "exhausted": True}}
            )
        )
        assert report.status == DEGRADED
        assert any(c.kind == "slo-budget-exhausted" for c in report.causes)

    def test_high_burn_degrades(self):
        report = evaluate_health(
            self._snapshot(
                {"r": {"samples": 32, "burn_rate": 1.5, "exhausted": False}}
            )
        )
        assert any(c.kind == "slo-burn-high" for c in report.causes)

    def test_few_samples_not_judged(self):
        report = evaluate_health(
            self._snapshot(
                {"r": {"samples": 3, "burn_rate": 99.0, "exhausted": True}}
            )
        )
        assert report.healthy

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            HealthPolicy(slo_burn_degraded=0.0)
        with pytest.raises(ValueError):
            HealthPolicy(slo_min_samples=0)
