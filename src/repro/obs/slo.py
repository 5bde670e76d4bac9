"""Service-level objectives: per-route percentiles, burn rates, budgets.

An :class:`SLObjective` declares what a route owes its callers —
percentile latency targets, a per-request latency threshold, and a
success-rate floor.  An :class:`SLOTracker` folds every finished request
into bounded per-route windows and reports, per route:

* observed p50/p95/p99 (over *successful* requests) vs. the declared
  targets;
* **error-budget accounting** over the window: a request *violates* its
  SLO when it fails (rejected / errored / deadline-exceeded) or runs
  past the per-request ``threshold_ms``; the budget is the violation
  fraction the ``success_rate`` floor allows, and the **burn rate** is
  the observed violation rate over the allowed rate (1.0 = burning
  exactly at budget, >1 = on track to exhaust it);
* whether the window's budget is already **exhausted**.

The tracker is wired into the serving stack: every
:class:`~repro.serve.service.InferenceService` owns one, feeds it every
response (including sheds and errors), exposes it through
:meth:`health() <repro.serve.service.InferenceService.health>` — budget
exhaustion surfaces as a ``DEGRADED`` cause.  :meth:`SLOTracker.report`
is the machine-readable per-route view.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, replace

from repro.obs import metrics as _metrics

# Percentile targets an objective may declare, with their report keys.
_PERCENTILES = (("p50", 50.0), ("p95", 95.0), ("p99", 99.0))


@dataclass(frozen=True)
class SLObjective:
    """Declared objectives for one route.

    Attributes:
        route: Route name (``"default"`` objects apply as a template to
            routes without their own declaration).
        p50_ms / p95_ms / p99_ms: Percentile latency targets in
            milliseconds (``None`` = undeclared, reported but unjudged).
        threshold_ms: Per-request latency bound used for error-budget
            accounting; defaults to ``p95_ms`` (then ``p99_ms``) when
            omitted.  ``None`` with no percentile targets means only
            failures burn budget.
        success_rate: Fraction of requests that must meet the SLO; the
            error budget is ``1 - success_rate`` of the window.
        window: Bounded per-route sample window (requests).
    """

    route: str = "default"
    p50_ms: "float | None" = None
    p95_ms: "float | None" = 250.0
    p99_ms: "float | None" = None
    threshold_ms: "float | None" = None
    success_rate: float = 0.99
    window: int = 512

    def __post_init__(self) -> None:
        for name in ("p50_ms", "p95_ms", "p99_ms", "threshold_ms"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if not 0.0 < self.success_rate < 1.0:
            raise ValueError(
                f"success_rate must be in (0, 1), got {self.success_rate}"
            )
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")

    @property
    def effective_threshold_ms(self) -> "float | None":
        """The per-request latency bound budget accounting judges."""
        if self.threshold_ms is not None:
            return self.threshold_ms
        if self.p95_ms is not None:
            return self.p95_ms
        return self.p99_ms

    def to_dict(self) -> dict:
        return {
            "route": self.route,
            "p50_ms": self.p50_ms,
            "p95_ms": self.p95_ms,
            "p99_ms": self.p99_ms,
            "threshold_ms": self.effective_threshold_ms,
            "success_rate": self.success_rate,
            "window": self.window,
        }


class _RouteState:
    __slots__ = ("objective", "samples", "total", "total_violations")

    def __init__(self, objective: SLObjective) -> None:
        self.objective = objective
        # (latency_seconds, ok, violated) triples, bounded by the window.
        self.samples: "deque[tuple[float, bool, bool]]" = deque(
            maxlen=objective.window
        )
        self.total = 0
        self.total_violations = 0


class SLOTracker:
    """Per-route SLO accounting over bounded sample windows.

    Args:
        objectives: Explicit per-route objectives.
        default_objective: Template applied (with the route name
            substituted) to routes that have no explicit objective.

    Thread-safe: the serving workers call :meth:`observe` concurrently.
    """

    def __init__(
        self,
        objectives: "tuple[SLObjective, ...] | list[SLObjective]" = (),
        default_objective: "SLObjective | None" = None,
    ) -> None:
        self.default_objective = default_objective or SLObjective()
        self._lock = threading.Lock()
        self._routes: "dict[str, _RouteState]" = {}
        for objective in objectives:
            self._routes[objective.route] = _RouteState(objective)

    def objective_for(self, route: str) -> SLObjective:
        """The objective judging ``route`` (explicit or templated)."""
        with self._lock:
            state = self._routes.get(route)
        if state is not None:
            return state.objective
        return replace(self.default_objective, route=route)

    def observe(self, route: str, latency_seconds: float, ok: bool = True) -> None:
        """Fold one finished request into its route's window.

        Failed requests (``ok=False``) always burn budget; successful
        ones burn it when they run past the objective's threshold.
        """
        with self._lock:
            state = self._routes.get(route)
            if state is None:
                state = self._routes[route] = _RouteState(
                    replace(self.default_objective, route=route)
                )
            threshold = state.objective.effective_threshold_ms
            violated = (not ok) or (
                threshold is not None and latency_seconds * 1e3 > threshold
            )
            state.samples.append((latency_seconds, ok, violated))
            state.total += 1
            state.total_violations += violated
        if violated:
            _metrics.counter("obs.slo.violations", route=route).inc()

    def _route_report_locked(self, route: str, state: _RouteState) -> dict:
        objective = state.objective
        samples = list(state.samples)
        ok_latencies_ms = sorted(
            lat * 1e3 for lat, ok, _ in samples if ok
        )
        observed: "dict[str, float | None]" = {}
        targets_met: "dict[str, bool | None]" = {}
        for key, q in _PERCENTILES:
            if ok_latencies_ms:
                # Nearest-rank percentile over the sorted window.
                rank = min(
                    len(ok_latencies_ms) - 1,
                    max(0, int(round(q / 100.0 * len(ok_latencies_ms))) - 1),
                )
                observed[key] = ok_latencies_ms[rank]
            else:
                observed[key] = None
            target = getattr(objective, f"{key}_ms")
            if target is None or observed[key] is None:
                targets_met[key] = None
            else:
                targets_met[key] = observed[key] <= target
        window_n = len(samples)
        violations = sum(1 for _, _, v in samples if v)
        allowed = (1.0 - objective.success_rate) * window_n
        burn_rate = (
            (violations / window_n) / (1.0 - objective.success_rate)
            if window_n
            else 0.0
        )
        return {
            "route": route,
            "objective": objective.to_dict(),
            "samples": window_n,
            "total_observed": state.total,
            "observed_ms": observed,
            "targets_met": targets_met,
            "violations": violations,
            "budget": {
                "allowed": allowed,
                "spent": violations,
                "remaining": allowed - violations,
                "burn_rate": burn_rate,
                "exhausted": violations > allowed,
            },
        }

    def route_report(self, route: str) -> dict:
        """Full SLO report for one route."""
        with self._lock:
            state = self._routes.get(route)
            if state is None:
                state = _RouteState(replace(self.default_objective, route=route))
            return self._route_report_locked(route, state)

    def report(self) -> dict:
        """Machine-readable report across every observed route."""
        with self._lock:
            routes = {
                route: self._route_report_locked(route, state)
                for route, state in sorted(self._routes.items())
            }
        burn_rates = [r["budget"]["burn_rate"] for r in routes.values()]
        worst = max(burn_rates) if burn_rates else 0.0
        _metrics.gauge("obs.slo.worst_burn_rate").set(float(worst))
        return {
            "routes": routes,
            "worst_burn_rate": worst,
            "any_exhausted": any(
                r["budget"]["exhausted"] for r in routes.values()
            ),
        }

    def health_snapshot(self) -> dict:
        """Compact per-route state for :func:`repro.serve.health.evaluate_health`."""
        report = self.report()
        return {
            "routes": {
                route: {
                    "samples": r["samples"],
                    "burn_rate": r["budget"]["burn_rate"],
                    "exhausted": r["budget"]["exhausted"],
                }
                for route, r in report["routes"].items()
            }
        }
