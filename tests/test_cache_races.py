"""Threaded stress tests: cache coherence under concurrent live updates.

Satellite of the live-graph mutation work: hammer the caches that
register with a GraphEpochManager — ScheduleCache and NeighborIndexCache
— from reader threads while a writer applies update batches
(invalidation races against get/put/evict under LRU pressure).  Every
read is verified against the dense reference for the *exact matrix the
reader used*, so any cross-epoch or cross-matrix aliasing shows up as a
numeric mismatch, not a flake.
"""

import threading

import numpy as np
import pytest

from repro.core import ScheduleCache, execute_vectorized
from repro.graphs import power_law_graph
from repro.graphs.delta import DeltaCSR, UpdatePlanner
from repro.sample import PUSH, NeighborIndexCache
from repro.serve import GraphEpochManager

DIM = 8
COST = 256
N_READERS = 4
ROUNDS = 60


@pytest.fixture
def base():
    return power_law_graph(n_nodes=60, nnz=360, max_degree=16, seed=0)


@pytest.fixture
def bystanders():
    return [
        power_law_graph(n_nodes=40, nnz=200, max_degree=10, seed=s)
        for s in (21, 22, 23)
    ]


def _run_race(base, bystanders, read_one):
    """Drive readers + one updater.

    Returns the collected problems, the manager, both caches and every
    installed epoch's fingerprint, in install order.
    """
    # Tiny capacities force evictions to interleave with invalidations.
    schedules = ScheduleCache(max_entries=4)
    indexes = NeighborIndexCache(capacity=4)
    manager = GraphEpochManager(
        DeltaCSR(base, compact_threshold=8),
        caches=(schedules, indexes),
    )
    planner = UpdatePlanner(base)
    installed = [manager.current_snapshot().fingerprint]
    problems: "list[str]" = []
    stop = threading.Event()

    def updater():
        # Keeps installing epochs until the readers finish, so retirements
        # race the readers' puts right up to the end of the run; the last
        # install retires the epoch the readers saw last.
        rng = np.random.default_rng(99)
        try:
            for _ in range(ROUNDS * 50):
                done = stop.wait(0.001)
                installed.append(
                    manager.apply_updates(planner.batch(rng, 2)).fingerprint
                )
                if done:
                    return
        except Exception as exc:  # pragma: no cover - failure path
            problems.append(f"updater: {exc!r}")

    def reader(seed):
        rng = np.random.default_rng(seed)
        dense = rng.standard_normal((base.n_cols, DIM))
        small = {
            m.fingerprint(): rng.standard_normal((m.n_cols, DIM))
            for m in bystanders
        }
        try:
            for i in range(ROUNDS):
                if rng.random() < 0.5:
                    with manager.acquire() as lease:
                        read_one(
                            (schedules, indexes), lease.matrix, dense, problems
                        )
                else:
                    matrix = bystanders[i % len(bystanders)]
                    read_one(
                        (schedules, indexes),
                        matrix,
                        small[matrix.fingerprint()],
                        problems,
                    )
        except Exception as exc:  # pragma: no cover - failure path
            problems.append(f"reader[{seed}]: {exc!r}")

    writer = threading.Thread(target=updater)
    readers = [threading.Thread(target=reader, args=(s,)) for s in range(N_READERS)]
    for t in (writer, *readers):
        t.start()
    for t in readers:
        t.join(timeout=60.0)
    stop.set()
    writer.join(timeout=60.0)
    assert not any(t.is_alive() for t in (writer, *readers)), (
        "race test deadlocked"
    )
    return problems, manager, (schedules, indexes), installed


def _check(expected, got, label, problems):
    if not np.allclose(got, expected, atol=1e-9):
        problems.append(f"{label}: output mismatch")


def _read_index(indexes, matrix, problems):
    """The cached push index must be exactly ``matrix``'s transpose."""
    index = indexes.get(matrix, PUSH)
    _check(matrix.to_dense(), index.csc.to_dense(), "index", problems)


class TestCacheRaces:
    def test_registered_caches_stay_coherent(self, base, bystanders):
        def read_one(caches, matrix, dense, problems):
            schedules, indexes = caches
            schedule = schedules.get(matrix, COST)
            out, _ = execute_vectorized(schedule, dense)
            _check(matrix.multiply_dense(dense), out, "schedule", problems)
            _read_index(indexes, matrix, problems)

        problems, manager, caches, installed = _run_race(
            base, bystanders, read_one
        )
        assert problems == [], problems[:10]
        stats = manager.stats()
        assert stats["leases"] == 0
        # With no lease left, every superseded epoch has retired, and no
        # retired epoch's key survived the race in either cache.
        retired = set(installed) - {manager.current_snapshot().fingerprint}
        assert len(retired) == stats["retired_epochs"] >= 1
        schedules, indexes = caches
        for fp in retired:
            assert schedules.invalidate_fingerprint(fp) == 0
            assert indexes.invalidate_fingerprint(fp) == 0
        # The small caches never grew past their bounds.
        assert schedules.entries <= 4
        assert len(indexes) <= 4

    def test_precise_invalidation_under_eviction_pressure(
        self, base, bystanders
    ):
        # Index-cache-only variant: bystander traffic may evict a live
        # epoch's index at any moment while retirement drops others.
        def read_one(caches, matrix, dense, problems):
            _read_index(caches[1], matrix, problems)

        problems, manager, caches, _ = _run_race(base, bystanders, read_one)
        assert problems == [], problems[:10]
        indexes = caches[1]
        assert indexes.hits + indexes.misses > 0
        assert manager.stats()["compactions"] >= 1
