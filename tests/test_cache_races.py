"""Threaded stress test: epoch leases racing live updates.

Reader threads hold epoch leases while a writer installs update batches
past the compaction threshold.  Every read multiplies its leased matrix
with the serving kernel and must equal, bit for bit, scipy's product on
copies of that epoch's arrays taken when the epoch was installed: a
lease whose matrix changed under it, or that resolved to another
epoch's matrix, shows up as a mismatch, not a flake.  Once the threads
finish, every lease has drained and every superseded epoch has retired.
"""

import sys
import threading
import time

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.parallel import execute_row_blocks
from repro.graphs import power_law_graph
from repro.graphs.delta import DeltaCSR, UpdatePlanner
from repro.serve import GraphEpochManager

DIM = 8
N_READERS = 4
ROUNDS = 60


@pytest.fixture
def base():
    return power_law_graph(n_nodes=60, nnz=360, max_degree=16, seed=0)


def _frozen(matrix):
    """scipy's view of copies of ``matrix``'s arrays, taken now."""
    return sp.csr_matrix(
        (
            matrix.values.copy(),
            matrix.column_indices.copy(),
            matrix.row_pointers.copy(),
        ),
        shape=matrix.shape,
    )


class TestLeaseRaces:
    def test_leased_reads_stay_exact_while_epochs_retire(self, base):
        manager = GraphEpochManager(DeltaCSR(base, compact_threshold=8))
        planner = UpdatePlanner(base)
        first = manager.current_snapshot()
        installed = {first.epoch: _frozen(first.matrix)}
        reads: "list[tuple[int, np.ndarray, np.ndarray]]" = []
        problems: "list[str]" = []
        stop = threading.Event()

        def updater():
            # Keeps installing epochs until the readers finish, so
            # retirements race the readers' leases right up to the end.
            rng = np.random.default_rng(99)
            try:
                for _ in range(ROUNDS * 50):
                    done = stop.wait(0.001)
                    snapshot = manager.apply_updates(planner.batch(rng, 2))
                    installed[snapshot.epoch] = _frozen(snapshot.matrix)
                    if done:
                        return
            except Exception as exc:  # pragma: no cover - failure path
                problems.append(f"updater: {exc!r}")

        def reader(seed):
            rng = np.random.default_rng(seed)
            try:
                for i in range(ROUNDS):
                    dense = rng.standard_normal((base.n_cols, DIM))
                    with manager.acquire() as lease:
                        if i % 2:
                            # Hold the lease while updates land, so its
                            # epoch is superseded before it drains.
                            time.sleep(0.002)
                        out = execute_row_blocks(lease.matrix, dense, 1)
                        reads.append((lease.epoch, dense, out))
            except Exception as exc:  # pragma: no cover - failure path
                problems.append(f"reader[{seed}]: {exc!r}")

        writer = threading.Thread(target=updater)
        readers = [
            threading.Thread(target=reader, args=(seed,))
            for seed in range(N_READERS)
        ]
        # Switch threads often, so a retirement counted outside the
        # manager's lock would lose updates.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in (writer, *readers):
                t.start()
            for t in readers:
                t.join(timeout=60.0)
            stop.set()
            writer.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in (writer, *readers)), (
            "race test deadlocked"
        )
        assert problems == [], problems[:10]

        assert len(reads) == N_READERS * ROUNDS
        for epoch, dense, out in reads:
            assert np.array_equal(out, installed[epoch] @ dense), epoch
        assert len({epoch for epoch, _, _ in reads}) >= 2

        stats = manager.stats()
        assert stats["leases"] == 0
        assert stats["current_epoch"] == max(installed)
        assert stats["retired_epochs"] == len(installed) - 1
        assert stats["live_epochs"] == 1
        assert stats["compactions"] >= 1
