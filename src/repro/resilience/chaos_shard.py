"""The *shard-tier* containment matrix behind ``python -m repro chaos-shard``.

``chaos-proc`` proves one pool's containment; this suite attacks the
sharded execution tier (:mod:`repro.shard.router` over per-shard
:mod:`repro.serve.procpool` pools) and demands that every failure stays
**contained to the victim shard**:

* **shard-kill replay** — a shard worker SIGKILLed mid-batch must cost
  exactly one sub-batch replay on that shard's respawned worker: the
  request still returns the correct gathered product, the router
  reports ``replays >= 1``, and *only* the victim shard's supervisor
  records a restart — the other shards never notice;
* **shard exhaustion** — when one shard's restart budget is spent, the
  batch resolves terminally (``worker_crashed``), service health goes
  ``UNHEALTHY`` with ``shard-pool-exhausted`` naming the dead shard,
  admission sheds subsequent requests, and the surviving shards'
  supervisors show zero restarts;
* **epoch re-partition** — a compacted (new-fingerprint) graph must be
  re-partitioned rather than served from the stale plan: both epochs'
  outputs verify against the independent oracle, and invalidating the retired
  fingerprint drops exactly the retired partition.

Throughout, every accepted output is verified against the independent
reference (:func:`~repro.resilience.oracles.reference_spmm`), and the zero-copy invariant must hold (no worker ever copies
graph bytes to serve a request).  The run writes a
``BENCH_chaos_shard.json`` run record; exit status 0 requires zero
silent cases and every containment mechanism demonstrably exercised.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.graphs.generators import power_law_graph
from repro.resilience import faults
from repro.resilience.chaos import DETECTED, RECOVERED, SILENT, ChaosCase
from repro.resilience.oracles import reference_spmm
from repro.serve.health import UNHEALTHY
from repro.serve.procpool import WORKER_CRASHED, ProcPoolConfig
from repro.serve.service import REJECTED, InferenceService, ServeConfig
from repro.shard.router import ShardConfig, ShardRouter

_DIM = 8
_KIND = "shard"


@dataclass
class ShardChaosReport:
    """Aggregate result of one shard-tier containment run."""

    seed: int
    cases: "list[ChaosCase]" = field(default_factory=list)
    replays: int = 0
    contained_kills: int = 0
    shard_exhaustions: int = 0
    repartitions: int = 0
    verified_responses: int = 0
    per_request_graph_bytes_copied: int = 0

    @property
    def silent(self) -> "list[ChaosCase]":
        """Cases the shard tier failed to detect or recover."""
        return [c for c in self.cases if not c.caught]

    @property
    def coverage(self) -> float:
        """Fraction of cases caught (detected or recovered)."""
        if not self.cases:
            return 1.0
        return (len(self.cases) - len(self.silent)) / len(self.cases)

    @property
    def passed(self) -> bool:
        """Zero silent cases, every mechanism exercised, zero-copy held."""
        return (
            not self.silent
            and self.replays >= 1
            and self.contained_kills >= 1
            and self.shard_exhaustions >= 1
            and self.repartitions >= 1
            and self.verified_responses >= 1
            and self.per_request_graph_bytes_copied == 0
        )

    def to_dict(self) -> dict:
        """JSON-ready form for run records and CI assertions."""
        outcomes: "dict[str, int]" = {}
        for case in self.cases:
            outcomes[case.outcome] = outcomes.get(case.outcome, 0) + 1
        return {
            "seed": self.seed,
            "n_cases": len(self.cases),
            "coverage": self.coverage,
            "passed": self.passed,
            "outcomes": outcomes,
            "demonstrations": {
                "replays": self.replays,
                "contained_kills": self.contained_kills,
                "shard_exhaustions": self.shard_exhaustions,
                "repartitions": self.repartitions,
                "verified_responses": self.verified_responses,
                "per_request_graph_bytes_copied": (
                    self.per_request_graph_bytes_copied
                ),
            },
            "cases": [c.to_dict() for c in self.cases],
        }

    def render(self) -> str:
        """Human-readable chaos matrix for the console."""
        lines = [
            f"shard-tier chaos matrix (seed={self.seed}): "
            f"{len(self.cases)} cases"
        ]
        width = max(len(c.name) for c in self.cases) if self.cases else 0
        for case in self.cases:
            lines.append(
                f"  {case.name:<{width}}  [{case.expected_layer:<10}] "
                f"-> {case.outcome}"
                + (f"  ({case.detail})" if case.detail and not case.caught else "")
            )
        lines.append(
            f"containment coverage: {self.coverage:.0%} "
            f"({len(self.cases) - len(self.silent)}/{len(self.cases)} contained)"
        )
        lines.append(
            f"demonstrated: {self.replays} sub-batch replay(s), "
            f"{self.contained_kills} kill(s) contained to the victim shard, "
            f"{self.shard_exhaustions} shard exhaustion(s) surfaced, "
            f"{self.repartitions} re-partition(s) on new epochs, "
            f"{self.verified_responses} outputs oracle-verified, "
            f"{self.per_request_graph_bytes_copied} graph bytes copied "
            "per request"
        )
        if self.silent:
            lines.append(
                "SILENT failures: " + ", ".join(c.name for c in self.silent)
            )
        return "\n".join(lines)


def _base_matrix(seed: int):
    return power_law_graph(n_nodes=120, nnz=720, max_degree=24, seed=seed)


def _proc_template(**overrides) -> ProcPoolConfig:
    """Fast-reaping per-shard pool template shared by every scenario."""
    settings = dict(
        heartbeat_interval=0.02,
        heartbeat_timeout=0.6,
        hang_timeout=5.0,
        restart_budget=16,
        restart_window=60.0,
    )
    settings.update(overrides)
    return ProcPoolConfig(**settings)


def _wait_for(predicate, timeout: float = 5.0, interval: float = 0.005) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def _busy_pids(pool) -> "list[int]":
    with pool._cond:
        return [
            s.proc.pid
            for s in pool._slots.values()
            if s.job is not None and not s.dead and s.proc.is_alive()
        ]


def _absorb_router_stats(report: ShardChaosReport, router: ShardRouter) -> None:
    snapshot = router.snapshot()
    report.per_request_graph_bytes_copied = max(
        report.per_request_graph_bytes_copied,
        snapshot["zero_copy"]["per_request_graph_bytes_copied"],
    )


def _verify(
    report: ShardChaosReport, matrix, dense, output, problems, label
) -> None:
    """Every accepted output must match the independent reference — always."""
    if output is None:
        return
    report.verified_responses += 1
    if not np.allclose(
        output, reference_spmm(matrix, dense), rtol=1e-9, atol=1e-9
    ):
        problems.append(f"{label}: accepted output disagrees with the oracle")


def _run_shard_kill_scenario(
    report: ShardChaosReport, seed: int, rng: np.random.Generator
) -> None:
    """SIGKILL a busy shard worker mid-batch: replay, contained restart."""
    matrix = _base_matrix(seed)
    problems: "list[str]" = []
    config = ShardConfig(n_shards=2, replay_budget=2)
    with ShardRouter(config, proc_config=_proc_template()) as router:
        dense = rng.random((matrix.n_cols, _DIM))
        warm = router.execute(matrix, dense)
        _verify(report, matrix, dense, warm.output, problems, "kill-warm")

        # Open a kill window: every shard's sub-batch sleeps inside its
        # worker before computing, long enough to aim a SIGKILL at the
        # victim shard's busy worker.
        holder: "dict[str, object]" = {}
        import threading

        def submit() -> None:
            try:
                holder["result"] = router.execute(matrix, dense)
            except Exception as exc:  # noqa: BLE001 - recorded below
                holder["error"] = exc

        with faults.inject(seed=seed, delay_proc=1.0, delay_proc_seconds=0.5):
            thread = threading.Thread(target=submit, name="chaos-shard-submit")
            thread.start()
            aimed = _wait_for(
                lambda: _busy_pids(router.pools[0]), timeout=3.0
            )
            if aimed:
                time.sleep(0.1)  # let the victim settle into its delay
                for pid in _busy_pids(router.pools[0]):
                    os.kill(pid, signal.SIGKILL)
            thread.join(timeout=30.0)

        result = holder.get("result")
        output = getattr(result, "output", None)
        _verify(report, matrix, dense, output, problems, "kill-victim")
        snapshot = router.snapshot()
        victim_restarts = snapshot["shards"][0]["supervisor"]["restarts"]
        bystander_restarts = snapshot["shards"][1]["supervisor"]["restarts"]
        if not aimed:
            report.cases.append(
                ChaosCase(
                    "shard-kill/replayed", _KIND, "router", SILENT,
                    "shard 0 never went busy — kill window never opened",
                )
            )
        elif (
            result is not None
            and snapshot["replays"] >= 1
            and not problems
        ):
            report.replays += snapshot["replays"]
            report.cases.append(
                ChaosCase(
                    "shard-kill/replayed", _KIND, "router", DETECTED,
                    f"{snapshot['replays']} sub-batch replay(s) on the "
                    "respawned worker; gathered output verified",
                )
            )
        else:
            report.cases.append(
                ChaosCase(
                    "shard-kill/replayed", _KIND, "router", SILENT,
                    f"error={holder.get('error')} "
                    f"replays={snapshot['replays']}; " + "; ".join(problems),
                )
            )
        if aimed and victim_restarts >= 1 and bystander_restarts == 0:
            report.contained_kills += 1
            report.cases.append(
                ChaosCase(
                    "shard-kill/contained-to-victim", _KIND, "supervisor",
                    RECOVERED,
                    f"shard 0 restarted {victim_restarts}x, shard 1 "
                    "untouched",
                )
            )
        else:
            report.cases.append(
                ChaosCase(
                    "shard-kill/contained-to-victim", _KIND, "supervisor",
                    SILENT,
                    f"aimed={aimed} victim_restarts={victim_restarts} "
                    f"bystander_restarts={bystander_restarts}",
                )
            )
        _absorb_router_stats(report, router)


def _run_exhaustion_scenario(
    report: ShardChaosReport, seed: int, rng: np.random.Generator
) -> None:
    """A shard with a spent restart budget fails its batches terminally."""
    matrix = _base_matrix(seed + 1)
    problems: "list[str]" = []
    service = InferenceService(
        config=ServeConfig(
            max_queue=16,
            max_batch=1,
            max_wait_ms=0.0,
            n_workers=1,
            verify=False,
            request_timeout=10.0,
            isolation="shard",
            num_shards=2,
        ),
        proc_config=_proc_template(restart_budget=0),
    )
    with service:
        router = service._proc_pool
        warm_dense = rng.random((matrix.n_cols, _DIM))
        warm = service.submit(matrix, warm_dense).result(timeout=30.0)
        if warm.ok:
            _verify(report, matrix, warm_dense, warm.output, problems,
                    "exhaust-warm")
        else:
            problems.append(f"exhaust: warm-up failed ({warm.error})")

        import threading

        victim_dense = rng.random((matrix.n_cols, _DIM))
        with faults.inject(seed=seed, delay_proc=1.0, delay_proc_seconds=0.5):
            victim = service.submit(matrix, victim_dense)
            aimed = _wait_for(
                lambda: _busy_pids(router.pools[0]), timeout=3.0
            )
            if aimed:
                time.sleep(0.1)
                for pid in _busy_pids(router.pools[0]):
                    os.kill(pid, signal.SIGKILL)
        response = victim.result(timeout=30.0)

        snapshot = router.snapshot()
        exhausted_shards = snapshot["supervisor"]["exhausted_shards"]
        health = service.health()
        causes = {c.kind for c in health.causes}
        if (
            aimed
            and response.status == WORKER_CRASHED
            and exhausted_shards == [0]
        ):
            report.shard_exhaustions += 1
            report.cases.append(
                ChaosCase(
                    "shard-exhaustion/terminal-batch", _KIND, "supervisor",
                    DETECTED,
                    f"restart budget spent on shard 0: {response.error}",
                )
            )
        else:
            report.cases.append(
                ChaosCase(
                    "shard-exhaustion/terminal-batch", _KIND, "supervisor",
                    SILENT,
                    f"aimed={aimed} status={response.status!r} "
                    f"exhausted={exhausted_shards} ({response.error})",
                )
            )
        if health.status == UNHEALTHY and "shard-pool-exhausted" in causes:
            report.cases.append(
                ChaosCase(
                    "shard-exhaustion/health-cause", _KIND, "health",
                    DETECTED,
                    f"{health.status}: shard-pool-exhausted raised for "
                    f"shard(s) {exhausted_shards}",
                )
            )
        else:
            report.cases.append(
                ChaosCase(
                    "shard-exhaustion/health-cause", _KIND, "health", SILENT,
                    f"health={health.status} causes={sorted(causes)}",
                )
            )
        shed = service.submit(
            matrix, rng.random((matrix.n_cols, _DIM))
        ).result(timeout=30.0)
        bystander_restarts = snapshot["shards"][1]["supervisor"]["restarts"]
        if shed.status == REJECTED and bystander_restarts == 0 and not problems:
            report.cases.append(
                ChaosCase(
                    "shard-exhaustion/admission-sheds", _KIND, "admission",
                    DETECTED,
                    f"subsequent request {shed.status!r}; shard 1 untouched",
                )
            )
        else:
            report.cases.append(
                ChaosCase(
                    "shard-exhaustion/admission-sheds", _KIND, "admission",
                    SILENT,
                    f"status={shed.status!r} ({shed.error}) "
                    f"bystander_restarts={bystander_restarts}; "
                    + "; ".join(problems),
                )
            )
        _absorb_router_stats(report, router)


def _run_repartition_scenario(
    report: ShardChaosReport, seed: int, rng: np.random.Generator
) -> None:
    """A new graph epoch re-partitions; the retired plan invalidates."""
    matrix = _base_matrix(seed + 2)
    problems: "list[str]" = []
    with ShardRouter(
        ShardConfig(n_shards=2), proc_config=_proc_template()
    ) as router:
        dense = rng.random((matrix.n_cols, _DIM))
        first = router.execute(matrix, dense)
        _verify(report, matrix, dense, first.output, problems, "epoch-v0")

        # Compaction: same structure budget, different content — a new
        # value fingerprint that must not be served from the old plan.
        compacted = power_law_graph(
            n_nodes=120, nnz=720, max_degree=24, seed=seed + 99
        ).with_version((matrix.version or 0) + 1)
        second = router.execute(compacted, dense)
        _verify(report, matrix := compacted, dense, second.output, problems,
                "epoch-v1")

        cached = router.snapshot()["partitions_cached"]
        dropped = router.invalidate_fingerprint(
            _base_matrix(seed + 2).fingerprint()
        )
        if cached == 2 and dropped == 1 and not problems:
            report.repartitions += 1
            report.cases.append(
                ChaosCase(
                    "epoch-compaction/re-partitions", _KIND, "router",
                    RECOVERED,
                    "both epochs partitioned and verified; retiring the "
                    "old fingerprint dropped exactly its partition",
                )
            )
        else:
            report.cases.append(
                ChaosCase(
                    "epoch-compaction/re-partitions", _KIND, "router", SILENT,
                    f"cached={cached} dropped={dropped}; "
                    + "; ".join(problems),
                )
            )
        _absorb_router_stats(report, router)


def run_shard_chaos(seed: int = 0) -> ShardChaosReport:
    """Run every shard-tier chaos scenario with a fixed seed."""
    report = ShardChaosReport(seed=seed)
    rng = np.random.default_rng(seed)
    with obs.span("resilience.chaos_shard.run", seed=seed):
        _run_shard_kill_scenario(report, seed, rng)
        _run_exhaustion_scenario(report, seed, rng)
        _run_repartition_scenario(report, seed, rng)
    obs.counter("resilience.chaos_shard.runs").inc()
    obs.gauge("resilience.chaos_shard.coverage").set(report.coverage)
    obs.counter("resilience.chaos_shard.silent_cases").inc(len(report.silent))
    return report


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point for ``python -m repro chaos-shard``."""
    parser = argparse.ArgumentParser(
        prog="repro chaos-shard",
        description=(
            "Attack the sharded execution tier (shard-worker SIGKILLs "
            "mid-batch, spent restart budgets, epoch compactions) and "
            "verify every failure stays contained to the victim shard "
            "with correct answers throughout."
        ),
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="injection seed (default: 0)"
    )
    parser.add_argument(
        "--bench-dir",
        default=None,
        help="run-record directory (default: benchmarks/results)",
    )
    parser.add_argument(
        "--json-out",
        default=None,
        help="also write the full report as JSON to this path",
    )
    parser.add_argument(
        "--no-record",
        action="store_true",
        help="skip writing the BENCH_chaos_shard.json run record",
    )
    args = parser.parse_args(argv)

    with obs.profiled() as session:
        report = run_shard_chaos(seed=args.seed)
    print(report.render())

    if not args.no_record:
        record = obs.run_record(
            "chaos_shard",
            metrics=session.snapshot(),
            wall_seconds=session.wall_seconds,
            status="ok" if report.passed else "silent-failures",
            extra={"chaos_shard": report.to_dict()},
        )
        path = obs.write_run_record(record, args.bench_dir)
        print(f"run record: {path}")
    if args.json_out:
        from repro.formats.io import atomic_write_text

        atomic_write_text(
            args.json_out,
            json.dumps(report.to_dict(), indent=1) + "\n",
            encoding="utf-8",
        )
        print(f"report: {args.json_out}")
    return 0 if report.passed else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
