"""Shared fixtures: small matrices and graphs used across the suite."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.formats import CSRMatrix
from repro.graphs import power_law_graph, regular_graph
from repro.serve.dispatch import Dispatcher


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def dense_small(rng):
    """A 12x12 dense array with ~25% non-zeros, including empty rows."""
    dense = (rng.random((12, 12)) < 0.25) * rng.random((12, 12))
    dense[3] = 0.0  # guaranteed empty row
    dense[7] = 0.0
    return dense

@pytest.fixture
def csr_small(dense_small):
    return CSRMatrix.from_dense(dense_small)


@pytest.fixture
def paper_example():
    """The Figure 3 matrix: 10 rows, 16 non-zeros, evil row 1."""
    row_pointers = [0, 0, 8, 11, 12, 12, 13, 14, 15, 16, 16]
    return CSRMatrix.from_arrays(row_pointers, np.arange(16) % 10)


@pytest.fixture(scope="session")
def small_power_law():
    """A 600-node power-law graph with an evil row (session-cached)."""
    return power_law_graph(n_nodes=600, nnz=4_000, max_degree=300, seed=7)


@pytest.fixture(scope="session")
def small_structured():
    """A 600-node near-regular graph (session-cached)."""
    return regular_graph(n_nodes=600, nnz=2_400, max_degree=8, seed=7)


@pytest.fixture(scope="session")
def chaos_report():
    """The whole chaos table run once at seed 0, shared by the chaos tests."""
    from repro.resilience.chaos import run_chaos_matrix

    return run_chaos_matrix(seed=0)


@pytest.fixture
def replay_chaos(monkeypatch, chaos_report):
    """Make ``python -m repro chaos`` report :func:`chaos_report`.

    The CLI then exercises its flags, run record and exit code without
    running the table again.
    """
    from repro.resilience import chaos

    def run(seed):
        assert seed == chaos_report.seed
        return chaos_report

    monkeypatch.setattr(chaos, "run_chaos_matrix", run)


@pytest.fixture
def features(rng):
    """Feature factory: features(n, d) -> dense operand."""
    def make(n: int, d: int) -> np.ndarray:
        return np.random.default_rng(99).random((n, d))

    return make


class GatedDispatcher(Dispatcher):
    """Holds every kernel call until :attr:`gate` is set.

    :meth:`hold` parks a one-worker service's worker inside the kernel
    on a blocker request; requests submitted next queue behind it, and
    once ``gate`` is set each batch is exactly what was queued when the
    worker freed up — no timing assumptions.
    """

    def __init__(self):
        self.gate = threading.Event()
        self._entered = threading.Event()

    def kernel(self, matrix, dense):
        self._entered.set()
        assert self.gate.wait(timeout=30.0), "gate never opened"
        return super().kernel(matrix, dense)

    def hold(self, service, matrix):
        """Submit a blocker and return its future once it is executing."""
        blocker = service.submit(matrix, np.ones((matrix.n_cols, 3)))
        assert self._entered.wait(timeout=30.0), "blocker never executed"
        return blocker

    def backlog(self, service, requests):
        """Queue ``(matrix, dense)`` requests behind a held blocker.

        Opens the gate once every request is queued and returns their
        responses in submission order.
        """
        blocker = self.hold(service, requests[0][0])
        futures = [service.submit(matrix, dense) for matrix, dense in requests]
        self.gate.set()
        assert blocker.result(timeout=30.0).ok
        return [future.result(timeout=30.0) for future in futures]


@pytest.fixture
def gated_dispatcher():
    """A :class:`GatedDispatcher`, opened at teardown."""
    dispatcher = GatedDispatcher()
    yield dispatcher
    dispatcher.gate.set()
