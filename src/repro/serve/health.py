"""Service health states: ``HEALTHY`` / ``DEGRADED`` / ``UNHEALTHY``.

:func:`evaluate_health` is a *pure* function from a service snapshot
(queue depth, supervisor state, deadline-miss window) to
a :class:`HealthReport` with machine-readable :class:`HealthCause`
entries, so the rules are unit-testable without threads.  The service
itself exposes it as :meth:`InferenceService.health
<repro.serve.service.InferenceService.health>`.

Severity model:

* **UNHEALTHY** — the service cannot do real work: it is closed, the
  worker pool is dead or its restart budget is exhausted.
* **DEGRADED** — serving, but impaired: recent worker
  crashes/restarts, queue near saturation, a
  deadline-miss rate above threshold, a route burning (or having
  exhausted) its SLO error budget (``slo-burn-high`` /
  ``slo-budget-exhausted``; see :mod:`repro.obs.slo`), — on
  epoch-managed services — in-flight leases pinning old graph epochs
  (``epoch-lag-high``) or the delta log nearing forced compaction
  (``compaction-backlog``; see :mod:`repro.serve.epoch`), or — with
  process isolation — quarantined poison requests
  (``worker-quarantine-active``), workers reaped for missed heartbeats
  (``heartbeat-misses-high``), or pool RSS past the admission highwater
  (``memory-pressure``; see :mod:`repro.serve.procpool`).
* **HEALTHY** — none of the above.

Each evaluation sets the ``serve.health.severity`` gauge
(0 = healthy, 1 = degraded, 2 = unhealthy) and bumps
``serve.health.checks``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs

HEALTHY = "healthy"
DEGRADED = "degraded"
UNHEALTHY = "unhealthy"

_SEVERITY = {HEALTHY: 0, DEGRADED: 1, UNHEALTHY: 2}


@dataclass(frozen=True)
class HealthPolicy:
    """Thresholds that turn raw service state into health causes.

    Attributes:
        queue_saturation: Queue-depth fraction of ``max_queue`` at which
            the service is considered saturated.
        deadline_miss_rate: Fraction of recent requests shed or timed
            out past their deadline that degrades the service.
        min_miss_window: Minimum recent-request sample before the miss
            rate is judged at all (a single early miss is not a trend).
        crash_recent_seconds: A worker crash within this trailing window
            degrades the service; older crashes are history, not state,
            so a supervised service can *recover* to ``HEALTHY``.
        slo_burn_degraded: SLO error-budget burn rate (1.0 = burning
            exactly at budget) at or above which a route degrades the
            service; exhaustion of a route's budget always degrades.
        slo_min_samples: Minimum per-route SLO sample count before burn
            rate is judged (a single slow warm-up request is not a
            trend).
        epoch_lag_degraded: Live-graph epoch lag (current epoch minus
            the oldest epoch still pinned by in-flight leases) at or
            above which the service degrades — old snapshots and their
            cache entries are being held alive.
        compaction_backlog_degraded: Delta-log fill fraction
            (``log_size / compact_threshold``) at or above which the
            service degrades: sustained update pressure is about to
            force a compaction (a full rebase) on the serving path.
        heartbeat_kills_degraded: Process-isolation pools only: recent
            heartbeat-miss SIGKILLs (workers reaped for going silent
            while idle) at or above which the service degrades with
            ``heartbeat-misses-high``.
    """

    queue_saturation: float = 0.8
    deadline_miss_rate: float = 0.1
    min_miss_window: int = 8
    crash_recent_seconds: float = 30.0
    slo_burn_degraded: float = 1.0
    slo_min_samples: int = 16
    epoch_lag_degraded: int = 4
    compaction_backlog_degraded: float = 0.9
    heartbeat_kills_degraded: int = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.queue_saturation <= 1.0:
            raise ValueError(
                f"queue_saturation must be in (0, 1], got {self.queue_saturation}"
            )
        if not 0.0 < self.deadline_miss_rate <= 1.0:
            raise ValueError(
                "deadline_miss_rate must be in (0, 1], "
                f"got {self.deadline_miss_rate}"
            )
        if self.min_miss_window < 1:
            raise ValueError(
                f"min_miss_window must be >= 1, got {self.min_miss_window}"
            )
        if self.crash_recent_seconds < 0:
            raise ValueError(
                "crash_recent_seconds must be >= 0, "
                f"got {self.crash_recent_seconds}"
            )
        if self.slo_burn_degraded <= 0:
            raise ValueError(
                f"slo_burn_degraded must be positive, got "
                f"{self.slo_burn_degraded}"
            )
        if self.slo_min_samples < 1:
            raise ValueError(
                f"slo_min_samples must be >= 1, got {self.slo_min_samples}"
            )
        if self.epoch_lag_degraded < 1:
            raise ValueError(
                f"epoch_lag_degraded must be >= 1, got {self.epoch_lag_degraded}"
            )
        if self.compaction_backlog_degraded <= 0:
            raise ValueError(
                "compaction_backlog_degraded must be positive, "
                f"got {self.compaction_backlog_degraded}"
            )
        if self.heartbeat_kills_degraded < 1:
            raise ValueError(
                "heartbeat_kills_degraded must be >= 1, "
                f"got {self.heartbeat_kills_degraded}"
            )


@dataclass(frozen=True)
class HealthCause:
    """One machine-readable reason the service is not fully healthy.

    Attributes:
        kind: Stable cause identifier (``worker-crash-recent``,
            ``queue-saturated``, ...).
        severity: The state this cause implies on its own
            (``degraded`` or ``unhealthy``).
        detail: Human-readable explanation.
    """

    kind: str
    severity: str
    detail: str = ""

    def to_dict(self) -> dict:
        """JSON-ready form for run records."""
        return {
            "kind": self.kind,
            "severity": self.severity,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class HealthReport:
    """Aggregate health verdict plus its contributing causes."""

    status: str
    causes: "tuple[HealthCause, ...]" = ()
    snapshot: dict = field(default_factory=dict, repr=False)

    @property
    def healthy(self) -> bool:
        """Whether no cause degraded the service."""
        return self.status == HEALTHY

    def to_dict(self) -> dict:
        """JSON-ready form for dashboards and run records."""
        return {
            "status": self.status,
            "causes": [cause.to_dict() for cause in self.causes],
            "snapshot": self.snapshot,
        }

    def render(self) -> str:
        """One-line human-readable verdict with its causes."""
        if not self.causes:
            return f"health: {self.status}"
        reasons = "; ".join(
            f"{c.kind} ({c.detail})" if c.detail else c.kind
            for c in self.causes
        )
        return f"health: {self.status} — {reasons}"


def evaluate_health(
    snapshot: dict, policy: "HealthPolicy | None" = None
) -> HealthReport:
    """Turn one service snapshot into a :class:`HealthReport`.

    Args:
        snapshot: Service state with keys ``closed``, ``started``,
            ``queue_depth``, ``max_queue``, ``supervisor`` (a
            :meth:`WorkerSupervisor.snapshot
            <repro.serve.guard.WorkerSupervisor.snapshot>` dict plus
            ``recent_crashes``) and ``deadline`` (``misses``/``window``
            recent counts).
            Missing keys are treated as "feature not in play".
        policy: Thresholds; defaults to :class:`HealthPolicy`.
    """
    policy = policy or HealthPolicy()
    causes: "list[HealthCause]" = []

    if snapshot.get("closed"):
        causes.append(
            HealthCause("service-closed", UNHEALTHY, "service is closed")
        )
    elif not snapshot.get("started", True):
        causes.append(
            HealthCause("service-not-started", UNHEALTHY, "start() not called")
        )

    supervisor = snapshot.get("supervisor") or {}
    if supervisor:
        if supervisor.get("exhausted"):
            causes.append(
                HealthCause(
                    "worker-pool-exhausted",
                    UNHEALTHY,
                    f"restart budget {supervisor.get('restart_budget')} spent "
                    f"after {supervisor.get('crashes')} crashes",
                )
            )
        elif supervisor.get("alive", 1) == 0 and not snapshot.get("closed"):
            causes.append(
                HealthCause(
                    "no-live-workers", UNHEALTHY, "every worker thread is dead"
                )
            )
        recent = supervisor.get("recent_crashes", 0)
        if recent and not supervisor.get("exhausted"):
            causes.append(
                HealthCause(
                    "worker-crash-recent",
                    DEGRADED,
                    f"{recent} crash(es) in the last "
                    f"{policy.crash_recent_seconds:g}s "
                    f"({supervisor.get('restarts', 0)} restart(s) total)",
                )
            )

    max_queue = snapshot.get("max_queue", 0)
    depth = snapshot.get("queue_depth", 0)
    if max_queue and depth >= policy.queue_saturation * max_queue:
        causes.append(
            HealthCause(
                "queue-saturated",
                DEGRADED,
                f"queue depth {depth}/{max_queue} at or past "
                f"{policy.queue_saturation:.0%} saturation",
            )
        )

    deadline = snapshot.get("deadline") or {}
    window = deadline.get("window", 0)
    misses = deadline.get("misses", 0)
    if window >= policy.min_miss_window:
        rate = misses / window
        if rate >= policy.deadline_miss_rate:
            causes.append(
                HealthCause(
                    "deadline-misses",
                    DEGRADED,
                    f"{misses}/{window} recent requests missed their "
                    f"deadline ({rate:.0%})",
                )
            )

    slo = snapshot.get("slo") or {}
    for route, state in sorted((slo.get("routes") or {}).items()):
        if state.get("samples", 0) < policy.slo_min_samples:
            continue
        burn = state.get("burn_rate", 0.0)
        if state.get("exhausted"):
            causes.append(
                HealthCause(
                    "slo-budget-exhausted",
                    DEGRADED,
                    f"route {route!r} spent its error budget "
                    f"(burn {burn:.2f}x over {state.get('samples')} samples)",
                )
            )
        elif burn >= policy.slo_burn_degraded:
            causes.append(
                HealthCause(
                    "slo-burn-high",
                    DEGRADED,
                    f"route {route!r} burning error budget at {burn:.2f}x "
                    f"over {state.get('samples')} samples",
                )
            )

    epochs = snapshot.get("epochs") or {}
    if epochs:
        lag = epochs.get("epoch_lag", 0)
        if lag >= policy.epoch_lag_degraded:
            causes.append(
                HealthCause(
                    "epoch-lag-high",
                    DEGRADED,
                    f"oldest leased epoch trails the current one by {lag} "
                    f"(>= {policy.epoch_lag_degraded}); "
                    f"{epochs.get('leases', 0)} lease(s) outstanding",
                )
            )
        backlog = epochs.get("compaction_backlog", 0.0)
        if backlog >= policy.compaction_backlog_degraded:
            causes.append(
                HealthCause(
                    "compaction-backlog",
                    DEGRADED,
                    f"delta log at {epochs.get('log_size', 0)}/"
                    f"{epochs.get('compact_threshold', 0)} "
                    f"({backlog:.0%} of the compaction threshold)",
                )
            )

    procpool = snapshot.get("procpool") or {}
    if procpool:
        pool_supervisor = procpool.get("supervisor") or {}
        if pool_supervisor.get("exhausted"):
            causes.append(
                HealthCause(
                    "worker-pool-exhausted",
                    UNHEALTHY,
                    "process worker pool spent its restart budget "
                    f"({pool_supervisor.get('restart_budget')}) after "
                    f"{pool_supervisor.get('crashes')} worker deaths",
                )
            )
        quarantine = procpool.get("quarantine") or {}
        if quarantine.get("active", 0) > 0:
            causes.append(
                HealthCause(
                    "worker-quarantine-active",
                    DEGRADED,
                    f"{quarantine['active']} poison request(s) quarantined "
                    f"(threshold {quarantine.get('threshold')} worker "
                    "deaths each)",
                )
            )
        heartbeat_kills = procpool.get("heartbeat_kills_recent", 0)
        if heartbeat_kills >= policy.heartbeat_kills_degraded:
            causes.append(
                HealthCause(
                    "heartbeat-misses-high",
                    DEGRADED,
                    f"{heartbeat_kills} worker(s) recently SIGKILLed for "
                    "missed heartbeats",
                )
            )
        memory = procpool.get("memory") or {}
        if memory.get("pressure"):
            causes.append(
                HealthCause(
                    "memory-pressure",
                    DEGRADED,
                    f"pool RSS {memory.get('total_rss_bytes', 0)} at or "
                    f"above the {memory.get('highwater_bytes')} admission "
                    "highwater; shedding new work",
                )
            )

    if any(cause.severity == UNHEALTHY for cause in causes):
        status = UNHEALTHY
    elif causes:
        status = DEGRADED
    else:
        status = HEALTHY

    obs.counter("serve.health.checks").inc()
    obs.gauge("serve.health.severity").set(float(_SEVERITY[status]))
    report = HealthReport(status=status, causes=tuple(causes), snapshot=snapshot)
    return report
