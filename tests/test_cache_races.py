"""Threaded stress tests: cache coherence under concurrent live updates.

Hammer a cache that registers with a GraphEpochManager — ScheduleCache —
from reader threads while a writer applies update batches
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


def _run_race(base, bystanders, capacity=4):
    """Drive readers + one updater over a ``capacity``-entry cache.

    Returns the collected problems, the manager, the cache and every
    installed epoch's fingerprint, in install order.
    """
    # A tiny capacity forces evictions to interleave with invalidations.
    schedules = ScheduleCache(max_entries=capacity)
    manager = GraphEpochManager(
        DeltaCSR(base, compact_threshold=8), caches=(schedules,)
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
                        _read(schedules, lease.matrix, dense, problems)
                else:
                    matrix = bystanders[i % len(bystanders)]
                    _read(
                        schedules, matrix, small[matrix.fingerprint()], problems
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
    return problems, manager, schedules, installed


def _read(schedules, matrix, dense, problems):
    """The cached schedule must compute exactly ``matrix @ dense``."""
    out, _ = execute_vectorized(schedules.get(matrix, COST), dense)
    if not np.allclose(out, matrix.multiply_dense(dense), atol=1e-9):
        problems.append("schedule: output mismatch")


class TestCacheRaces:
    def test_registered_caches_stay_coherent(self, base, bystanders):
        problems, manager, schedules, installed = _run_race(base, bystanders)
        assert problems == [], problems[:10]
        stats = manager.stats()
        assert stats["leases"] == 0
        # With no lease left, every superseded epoch has retired, and no
        # retired epoch's key survived the race.
        retired = set(installed) - {manager.current_snapshot().fingerprint}
        assert len(retired) == stats["retired_epochs"] >= 1
        for fp in retired:
            assert schedules.invalidate_fingerprint(fp) == 0
        # The small cache never grew past its bound.
        assert schedules.entries <= 4

    def test_precise_invalidation_under_eviction_pressure(
        self, base, bystanders
    ):
        # With room for one schedule, bystander traffic evicts a live
        # epoch's schedule at almost every read while retirement drops
        # others; every read stays exact.
        problems, manager, schedules, _ = _run_race(
            base, bystanders, capacity=1
        )
        assert problems == [], problems[:10]
        assert schedules.evictions > 0
        assert schedules.entries <= 1
        assert manager.stats()["compactions"] >= 1
