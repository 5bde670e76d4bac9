"""The *live-update* chaos matrix behind ``python -m repro chaos-update``.

:mod:`repro.resilience.chaos_serve` injects faults into a static-graph
service; this matrix attacks the **mutation path** added for live
graphs: a :class:`~repro.graphs.delta.DeltaCSR` behind a
:class:`~repro.serve.epoch.GraphEpochManager`, with every cache in the
stack keyed on version-precise fingerprints.  The stack's one
consistency rule — *a request executes against the epoch it admitted
under, end to end* — is exactly the kind of invariant that only breaks
under races, so every scenario here runs updates concurrently with the
thing they can tear:

* **updates mid-batch**: a Poisson request stream races a Poisson
  update stream; every accepted response is cross-checked against the
  independent reference pinned to the *response's admitted epoch* (not the
  current graph).  One mismatch is a silent failure.
* **precise invalidation**: after an epoch retires, the neighbor-index
  cache must retain every live-epoch entry and drop exactly the retired
  epoch's keys — asserted via cache stats, never a global flush.
* **epoch-lag / compaction-backlog health**: held leases and a filling
  delta log must surface as ``DEGRADED`` health causes and clear once
  the lease drains and compaction lands.

Exit status 0 requires zero silent cases *and* the demonstrations the
machinery exists for: at least two distinct epochs served, one epoch
retirement and one compaction.  The run writes a
``BENCH_chaos_update.json`` run record.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.formats import CSRMatrix
from repro.graphs.delta import DeltaCSR, UpdatePlanner
from repro.graphs.generators import power_law_graph
from repro.resilience.chaos import (
    DETECTED,
    OK,
    RECOVERED,
    SILENT,
    ChaosCase,
)
from repro.resilience.oracles import reference_spmm
from repro.sample.index import NeighborIndexCache
from repro.serve.dispatch import Dispatcher
from repro.serve.epoch import GraphEpochManager
from repro.serve.health import DEGRADED, HEALTHY
from repro.serve.service import InferenceService, ServeConfig

_DIM = 8
_KIND = "live-update"


@dataclass
class UpdateChaosReport:
    """Aggregate result of one update-race injection run."""

    seed: int
    cases: "list[ChaosCase]" = field(default_factory=list)
    epochs_served: "set[int]" = field(default_factory=set)
    retired_epochs: int = 0
    compactions: int = 0
    invalidated_keys: int = 0
    verified_responses: int = 0
    update_batches: int = 0
    updates_applied: int = 0

    @property
    def silent(self) -> "list[ChaosCase]":
        return [c for c in self.cases if not c.caught]

    @property
    def coverage(self) -> float:
        if not self.cases:
            return 1.0
        return (len(self.cases) - len(self.silent)) / len(self.cases)

    @property
    def passed(self) -> bool:
        """Zero silent cases *and* the live-update machinery exercised."""
        return (
            not self.silent
            and len(self.epochs_served) >= 2
            and self.retired_epochs >= 1
            and self.compactions >= 1
            and self.verified_responses >= 1
        )

    def to_dict(self) -> dict:
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
                "epochs_served": sorted(self.epochs_served),
                "distinct_epochs": len(self.epochs_served),
                "retired_epochs": self.retired_epochs,
                "compactions": self.compactions,
                "invalidated_keys": self.invalidated_keys,
                "verified_responses": self.verified_responses,
                "update_batches": self.update_batches,
                "updates_applied": self.updates_applied,
            },
            "cases": [c.to_dict() for c in self.cases],
        }

    def render(self) -> str:
        lines = [
            f"live-update chaos matrix (seed={self.seed}): "
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
            f"detection coverage: {self.coverage:.0%} "
            f"({len(self.cases) - len(self.silent)}/{len(self.cases)} caught)"
        )
        lines.append(
            f"demonstrated: {len(self.epochs_served)} distinct epoch(s) "
            f"served, {self.retired_epochs} retirement(s), "
            f"{self.compactions} compaction(s), "
            f"{self.invalidated_keys} key(s) precisely "
            f"invalidated, {self.verified_responses} responses verified "
            f"against their admitted epoch"
        )
        if self.silent:
            lines.append(
                "SILENT failures: " + ", ".join(c.name for c in self.silent)
            )
        return "\n".join(lines)


class _SlowDispatcher(Dispatcher):
    """A dispatcher whose kernel sleeps so updates land mid-batch."""

    def __init__(self, delay: float) -> None:
        self.delay = delay

    def kernel(self, matrix, dense):
        time.sleep(self.delay)
        return super().kernel(matrix, dense)


def _base_matrix(seed: int) -> CSRMatrix:
    return power_law_graph(n_nodes=60, nnz=360, max_degree=16, seed=seed)


def _verify_epoch_pinned(
    report: UpdateChaosReport,
    oracle: "dict[int, CSRMatrix]",
    entries,
    name: str,
) -> "list[str]":
    """Check every accepted response against its *admitted epoch's* oracle."""
    problems = []
    for dense, future in entries:
        response = future.result(timeout=30.0)
        if not response.ok:
            continue
        if response.epoch is None:
            problems.append(
                f"{name}: accepted response {response.request_id} carries "
                "no admitted epoch"
            )
            continue
        pinned = oracle.get(response.epoch)
        if pinned is None:
            problems.append(
                f"{name}: response {response.request_id} admitted under "
                f"unknown epoch {response.epoch}"
            )
            continue
        report.verified_responses += 1
        report.epochs_served.add(response.epoch)
        if not np.allclose(
            response.output, reference_spmm(pinned, dense),
            rtol=1e-9, atol=1e-9,
        ):
            problems.append(
                f"{name}: response {response.request_id} disagrees with "
                f"its admitted epoch {response.epoch}'s reference"
            )
    return problems


def _run_update_stream_scenario(
    report: UpdateChaosReport,
    seed: int,
    rng: np.random.Generator,
    rate: float,
    update_rate: float,
) -> None:
    """Poisson requests race a Poisson update stream, mid-batch included.

    The kernel sleeps a few milliseconds per call, so update batches
    land while requests are queued, batched, and mid-execution; leases
    must pin each request to its admitted epoch regardless.
    """
    base = _base_matrix(seed)
    manager = GraphEpochManager(DeltaCSR(base, compact_threshold=12))
    dispatcher = _SlowDispatcher(delay=0.003)
    config = ServeConfig(max_queue=256, max_batch=4, max_wait_ms=1.0, n_workers=2)
    oracle: "dict[int, CSRMatrix]" = {}
    planner = UpdatePlanner(base)
    problems: "list[str]" = []
    with InferenceService(dispatcher, config, epoch_manager=manager) as service:
        snapshot = manager.current_snapshot()
        oracle[snapshot.epoch] = snapshot.matrix
        stop = threading.Event()
        update_errors: "list[str]" = []

        def updater() -> None:
            urng = np.random.default_rng(seed + 101)
            while not stop.is_set():
                batch = planner.batch(urng, int(urng.integers(1, 3)))
                try:
                    snap = service.apply_updates(batch)
                except Exception as exc:  # any tear here is a finding
                    update_errors.append(f"{type(exc).__name__}: {exc}")
                    return
                oracle[snap.epoch] = snap.matrix
                report.update_batches += 1
                report.updates_applied += len(batch)
                time.sleep(urng.exponential(1.0 / update_rate))

        thread = threading.Thread(target=updater, name="chaos-updater")
        thread.start()
        entries = []
        try:
            for _ in range(40):
                dense = rng.random((base.n_cols, _DIM))
                entries.append((dense, service.submit(None, dense)))
                time.sleep(rng.exponential(1.0 / rate))
            # Let the tail of the batch queue drain under live updates.
            for _, future in entries:
                future.result(timeout=30.0)
        finally:
            stop.set()
            thread.join(timeout=10.0)
        if thread.is_alive():
            problems.append("update stream failed to stop (possible deadlock)")
        problems += update_errors
        problems += _verify_epoch_pinned(
            report, oracle, entries, "update-stream"
        )
        stats = manager.stats()
        report.retired_epochs += stats["retired_epochs"]
        report.compactions += stats["compactions"]
        if len({r.epoch for _, f in entries if (r := f.result(30.0)).ok}) < 2:
            problems.append(
                "update stream never served two distinct epochs — the race "
                "was not exercised"
            )
    if problems:
        report.cases.append(
            ChaosCase(
                "update-stream/epoch-pinned-responses", _KIND, "oracle",
                SILENT, "; ".join(problems),
            )
        )
    else:
        report.cases.append(
            ChaosCase(
                "update-stream/epoch-pinned-responses", _KIND, "oracle", OK,
                f"{report.update_batches} update batch(es) raced "
                f"{len(entries)} requests across "
                f"{len(report.epochs_served)} epoch(s); every accepted "
                "response matched its admitted epoch's reference",
            )
        )


def _run_precise_invalidation_scenario(
    report: UpdateChaosReport, seed: int, rng: np.random.Generator
) -> None:
    """Retirement drops exactly the retired epoch's keys — no global flush.

    Runs against the neighbor-index cache, the cache ego serving
    registers with the epoch manager.
    """
    base = _base_matrix(seed + 5)
    bystander = _base_matrix(seed + 6)
    indexes = NeighborIndexCache(capacity=16)
    manager = GraphEpochManager(
        DeltaCSR(base, compact_threshold=3), caches=(indexes,)
    )
    problems: "list[str]" = []

    def retained(matrix: CSRMatrix) -> bool:
        # A hit proves the entry survived; a miss would rebuild it.
        hits = indexes.hits
        indexes.get(matrix)
        return indexes.hits == hits + 1

    indexes.get(bystander)
    snapshot0 = manager.current_snapshot()
    indexes.get(snapshot0.matrix)

    lease = manager.acquire()  # an in-flight request pins epoch 0
    planner = UpdatePlanner(base)
    urng = np.random.default_rng(seed + 505)
    snapshot1 = manager.apply_updates(planner.batch(urng, 1))
    report.update_batches += 1
    report.updates_applied += 1
    indexes.get(snapshot1.matrix)
    if not retained(snapshot0.matrix):
        problems.append("leased epoch's index was dropped while in flight")

    lease.release()  # drains the last lease -> epoch 0 retires
    if indexes.invalidations != 1:
        problems.append(
            f"epoch 0 retirement dropped {indexes.invalidations} "
            "index(es), expected exactly 1"
        )
    if not retained(snapshot1.matrix):
        problems.append("live epoch's index was dropped at retirement")
    if not retained(bystander):
        problems.append("bystander index was flushed by epoch retirement")

    # Crossing the compaction threshold rebases the delta and retires
    # epoch 1 (no lease holds it): exactly its index must drop.
    snapshot2 = manager.apply_updates(planner.batch(urng, 2))
    report.update_batches += 1
    report.updates_applied += 2
    if not snapshot2.compacted:
        problems.append(
            f"expected the threshold-3 log to compact (log was "
            f"{snapshot2.log_size})"
        )
    dropped = indexes.invalidations
    if dropped != 2:
        problems.append(
            f"expected 2 precisely invalidated indexes, stats report "
            f"{dropped}"
        )
    if not retained(bystander):
        problems.append("bystander index was flushed by compaction retirement")
    manager_stats = manager.stats()
    report.retired_epochs += manager_stats["retired_epochs"]
    report.compactions += manager_stats["compactions"]
    report.invalidated_keys += dropped
    if problems:
        report.cases.append(
            ChaosCase(
                "retirement/precise-invalidation", _KIND, "epoch", SILENT,
                "; ".join(problems),
            )
        )
    else:
        report.cases.append(
            ChaosCase(
                "retirement/precise-invalidation", _KIND, "epoch", DETECTED,
                f"{dropped} retired-epoch index(es) dropped; bystander and "
                "live-epoch entries retained",
            )
        )


def _run_health_scenario(
    report: UpdateChaosReport, seed: int, rng: np.random.Generator
) -> None:
    """Held leases and a filling log surface as DEGRADED, then clear."""
    base = _base_matrix(seed + 7)
    manager = GraphEpochManager(DeltaCSR(base, compact_threshold=10))
    config = ServeConfig(max_queue=16, max_batch=1, max_wait_ms=0.0, n_workers=1)
    planner = UpdatePlanner(base)
    problems: "list[str]" = []
    with InferenceService(config=config, epoch_manager=manager) as service:
        lease = manager.acquire()  # a stuck consumer pins epoch 0
        urng = np.random.default_rng(seed + 606)
        for _ in range(4):  # default epoch_lag_degraded = 4
            service.apply_updates(planner.batch(urng, 1))
            report.update_batches += 1
            report.updates_applied += 1
        health = service.health()
        causes = {c.kind for c in health.causes}
        if health.status != DEGRADED or "epoch-lag-high" not in causes:
            problems.append(
                f"4-epoch lag reported {health.status} with causes "
                f"{sorted(causes)}"
            )
        for _ in range(5):  # log 4 -> 9 = 90% of threshold 10
            service.apply_updates(planner.batch(urng, 1))
            report.update_batches += 1
            report.updates_applied += 1
        health = service.health()
        causes = {c.kind for c in health.causes}
        if "compaction-backlog" not in causes:
            problems.append(
                f"90%-full delta log not reported (causes {sorted(causes)})"
            )
        lease.release()
        # The next update crosses the threshold: snapshot compacts, the
        # drained lag retires, and health must return to HEALTHY.
        service.apply_updates(planner.batch(urng, 1))
        report.update_batches += 1
        report.updates_applied += 1
        health = service.health()
        if health.status != HEALTHY:
            problems.append(
                f"after lease drain + compaction health is {health.status} "
                f"({[c.kind for c in health.causes]})"
            )
        dense = rng.random((base.n_cols, _DIM))
        snap = manager.current_snapshot()
        response = service.submit(None, dense).result(timeout=30.0)
        if not response.ok or not np.allclose(
            response.output, reference_spmm(snap.matrix, dense),
            rtol=1e-9, atol=1e-9,
        ):
            problems.append("post-compaction response wrong or failed")
        else:
            report.verified_responses += 1
            report.epochs_served.add(response.epoch)
        manager_stats = manager.stats()
        report.retired_epochs += manager_stats["retired_epochs"]
        report.compactions += manager_stats["compactions"]
    if problems:
        report.cases.append(
            ChaosCase(
                "health/epoch-lag-and-backlog", _KIND, "health", SILENT,
                "; ".join(problems),
            )
        )
    else:
        report.cases.append(
            ChaosCase(
                "health/epoch-lag-and-backlog", _KIND, "health", RECOVERED,
                "lag and backlog degraded health, then cleared after the "
                "lease drained and compaction landed",
            )
        )


def run_update_chaos(
    seed: int = 0, rate: float = 200.0, update_rate: float = 80.0
) -> UpdateChaosReport:
    """Run every update-race chaos scenario with a deterministic seed."""
    report = UpdateChaosReport(seed=seed)
    rng = np.random.default_rng(seed)
    with obs.span("resilience.chaos_update.run", seed=seed):
        _run_update_stream_scenario(report, seed, rng, rate, update_rate)
        _run_precise_invalidation_scenario(report, seed, rng)
        _run_health_scenario(report, seed, rng)
    obs.counter("resilience.chaos_update.runs").inc()
    obs.gauge("resilience.chaos_update.coverage").set(report.coverage)
    obs.counter("resilience.chaos_update.silent_cases").inc(len(report.silent))
    if report.silent:
        obs.instant(
            "resilience.chaos_update.silent",
            category="error",
            cases=[c.name for c in report.silent],
        )
    return report


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point for ``python -m repro chaos-update``."""
    parser = argparse.ArgumentParser(
        prog="repro chaos-update",
        description=(
            "Race live graph updates against a serving stack under "
            "Poisson load, verifying every response against its "
            "admitted epoch and that caches invalidate exactly the "
            "retired epochs' keys."
        ),
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="injection seed (default: 0)"
    )
    parser.add_argument(
        "--rate", type=float, default=200.0,
        help="Poisson request rate in requests/second (default: 200)",
    )
    parser.add_argument(
        "--update-rate", type=float, default=80.0,
        help="Poisson update-batch rate in batches/second (default: 80)",
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
        help="skip writing the BENCH_chaos_update.json run record",
    )
    args = parser.parse_args(argv)

    with obs.profiled() as session:
        report = run_update_chaos(
            seed=args.seed, rate=args.rate, update_rate=args.update_rate
        )
    print(report.render())

    if not args.no_record:
        record = obs.run_record(
            "chaos_update",
            metrics=session.snapshot(),
            wall_seconds=session.wall_seconds,
            status="ok" if report.passed else "silent-failures",
            extra={"chaos_update": report.to_dict()},
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
