"""Differential test: every serving path returns scipy's answer.

Each path's output is compared with scipy's CSR product on the exact
matrix the response was served against — bit for bit, since every path
runs that one kernel.  The reference is built from fresh copies of the
matrix's arrays, so it shares nothing with the memoised view
(``CSRMatrix.to_scipy``) the paths serve from.

A hypothesis state machine then interleaves ``submit``, ``submit_ego``,
``apply_updates`` and ``close`` on one epoch-managed thread-tier
service.  Each ``ok`` response must equal the independent reference
(``reference_spmm``) on its admitted epoch's matrix, or on the sampled
subgraph for ego requests; every other response must be terminal and
carry no output, and no future may outlive its timeout.  A subclass
runs the same rules on the process tier, plus ``kill_worker``, which
SIGKILLs a live worker; its teardown finds no shared-memory block or
segment of the pool left behind.
"""

import os
import signal

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.gnn.inference import TRANSFORM_FIRST, InferenceEngine, choose_ordering
from repro.gnn.models import GCN
from repro.graphs import Graph
from repro.graphs.delta import DeltaCSR, UpdatePlanner
from repro.graphs.generators import power_law_graph
from repro.resilience.oracles import reference_spmm
from repro.serve import GraphEpochManager, InferenceService, ServeConfig
from repro.serve.procpool import WORKER_CRASHED, ProcPoolConfig
from repro.serve.service import DEADLINE_EXCEEDED, ERROR, REJECTED

WIDTH = 6


def _matrix(seed=0):
    return power_law_graph(n_nodes=80, nnz=600, max_degree=20, seed=seed)


def _dense(matrix, seed):
    return np.random.default_rng(seed).random((matrix.n_cols, WIDTH))


def _floor(matrix, dense):
    reference = sp.csr_matrix(
        (matrix.values, matrix.column_indices, matrix.row_pointers),
        shape=matrix.shape,
        copy=True,
    )
    return reference @ dense


def _proc_config():
    return ProcPoolConfig(
        n_workers=1, heartbeat_interval=0.02, heartbeat_timeout=2.0,
        hang_timeout=10.0,
    )


class TestServingPathsMatchScipy:
    def test_thread_tier_column_stacked_batch(self, gated_dispatcher):
        matrix = _matrix()
        operands = [_dense(matrix, seed) for seed in range(4)]
        config = ServeConfig(max_batch=4, n_workers=1)
        with InferenceService(gated_dispatcher, config) as service:
            responses = gated_dispatcher.backlog(
                service, [(matrix, dense) for dense in operands]
            )
        assert [r.batch_size for r in responses] == [4] * 4
        for dense, response in zip(operands, responses):
            assert response.ok, response.error
            assert np.array_equal(response.output, _floor(matrix, dense))

    def test_submit_ego_after_updates(self):
        base = _matrix(seed=1)
        manager = GraphEpochManager(DeltaCSR(base, compact_threshold=64))
        planner = UpdatePlanner(base)
        rng = np.random.default_rng(2)
        features = rng.random((base.n_cols, WIDTH))
        with InferenceService(epoch_manager=manager) as service:
            for _ in range(3):
                service.apply_updates(planner.batch(rng, 2))
            submission = service.submit_ego(
                0, features, fanouts=(8, 4), rng=np.random.default_rng(3)
            )
            response = submission.result(timeout=30.0)
        assert response.ok, response.error
        assert response.epoch == 3
        sub = submission.subgraph
        assert np.array_equal(
            response.output, _floor(sub.matrix, features[sub.nodes])
        )

    def test_process_tier(self):
        matrix = _matrix(seed=4)
        dense = _dense(matrix, 5)
        with InferenceService(
            config=ServeConfig(isolation="process", n_workers=1),
            proc_config=_proc_config(),
        ) as service:
            response = service.submit(matrix, dense).result(timeout=30.0)
        assert response.ok, response.error
        assert response.backend == "procpool"
        assert np.array_equal(response.output, _floor(matrix, dense))

    def test_inference_engine(self):
        graph = Graph("pl", _matrix(seed=8))
        model = GCN.random([WIDTH, 8, 3], seed=9)
        features = _dense(graph.adjacency, 10)
        out = InferenceEngine().infer(model, graph, features).output
        adjacency = graph.normalized_adjacency()
        hidden = features
        for layer in model.layers:
            plan = choose_ordering(
                adjacency.n_rows, adjacency.nnz,
                layer.in_features, layer.out_features,
            )
            if plan.ordering == TRANSFORM_FIRST:
                hidden = _floor(adjacency, hidden @ layer.weight)
            else:
                hidden = _floor(adjacency, hidden) @ layer.weight
            hidden = layer._activation(hidden)
        assert np.array_equal(out, hidden)


class EpochManagedServiceMachine(RuleBasedStateMachine):
    """Random interleavings of requests, updates and shutdown."""

    N_NODES = 80
    # Terminal statuses a response without output may carry.
    FAILURES = (REJECTED, ERROR, DEADLINE_EXCEEDED)

    def __init__(self):
        super().__init__()
        base = _matrix(seed=11)
        self.manager = GraphEpochManager(DeltaCSR(base, compact_threshold=8))
        self.planner = UpdatePlanner(base)
        self.service = self._service().start()
        snapshot = self.manager.current_snapshot()
        self.epochs = {snapshot.epoch: snapshot.matrix}
        self.features = _dense(base, 12)
        # (subgraph matrix or None for the admitted epoch's, operand,
        # epoch the sample was drawn from, future)
        self.pending = []
        self.closed = False

    @rule(seed=st.integers(0, 2**16))
    def submit(self, seed):
        dense = _dense(self.manager.current_snapshot().matrix, seed)
        if self.closed:
            with pytest.raises(RuntimeError):
                self.service.submit(None, dense)
            return
        self.pending.append((None, dense, None, self.service.submit(None, dense)))

    @rule(node=st.integers(0, N_NODES - 1), seed=st.integers(0, 2**16))
    def submit_ego(self, node, seed):
        rng = np.random.default_rng(seed)
        if self.closed:
            with pytest.raises(RuntimeError):
                self.service.submit_ego(node, self.features, rng=rng)
            return
        submission = self.service.submit_ego(
            node, self.features, fanouts=(6, 3), rng=rng
        )
        sub = submission.subgraph
        self.pending.append(
            (sub.matrix, self.features[sub.nodes], submission.epoch,
             submission.future)
        )

    @rule(size=st.integers(1, 3), seed=st.integers(0, 2**16))
    def apply_updates(self, size, seed):
        batch = self.planner.batch(np.random.default_rng(seed), size)
        snapshot = self.service.apply_updates(batch)
        self.epochs[snapshot.epoch] = snapshot.matrix

    @rule()
    def close(self):
        self.service.close()
        self.closed = True
        # close() drains the queue: nothing admitted may still be open.
        assert all(future.done() for *_, future in self.pending)

    @invariant()
    def resolved_responses_match_their_epoch(self):
        still_open = []
        for entry in self.pending:
            if entry[-1].done():
                self._check(*entry[:-1], entry[-1].result())
            else:
                still_open.append(entry)
        self.pending = still_open

    def teardown(self):
        self.service.close()
        for *entry, future in self.pending:
            self._check(*entry, future.result(timeout=10.0))

    def _service(self):
        return InferenceService(
            config=ServeConfig(max_batch=4, n_workers=2),
            epoch_manager=self.manager,
        )

    def _check(self, matrix, dense, sampled_epoch, response):
        if not response.ok:
            assert response.status in self.FAILURES
            assert response.output is None
            return
        if matrix is None:
            matrix = self.epochs[response.epoch]
        else:
            assert response.epoch == sampled_epoch
        assert np.allclose(
            response.output, reference_spmm(matrix, dense),
            rtol=1e-9, atol=1e-9,
        )


EpochManagedServiceMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=20, deadline=None
)
TestEpochManagedService = EpochManagedServiceMachine.TestCase


class ProcessTierServiceMachine(EpochManagedServiceMachine):
    """The same interleavings on the process tier, with worker kills."""

    # A batch on a killed worker answers worker_crashed, or
    # deadline_exceeded if its deadline passed meanwhile.
    FAILURES = EpochManagedServiceMachine.FAILURES + (WORKER_CRASHED,)

    def __init__(self):
        self.kills = 0
        self.shm_before = set(os.listdir("/dev/shm"))
        super().__init__()

    def _service(self):
        return InferenceService(
            config=ServeConfig(max_batch=4, n_workers=2, isolation="process"),
            epoch_manager=self.manager,
            proc_config=ProcPoolConfig(
                n_workers=2,
                heartbeat_interval=0.02,
                heartbeat_timeout=2.0,
                hang_timeout=10.0,
                # Kills are the machine's, not the requests': never
                # quarantine a request for them.
                poison_threshold=1000,
                restart_budget=1000,
            ),
        )

    @rule()
    def kill_worker(self):
        if self.closed:
            return
        pool = self.service._proc_pool
        with pool._cond:
            pids = [
                slot.proc.pid
                for slot in pool._slots.values()
                if not slot.dead and slot.proc.is_alive()
            ]
        if pids:
            self.kills += 1
            try:
                os.kill(pids[0], signal.SIGKILL)
            except ProcessLookupError:
                pass  # an earlier kill's victim, reaped since the scan

    def teardown(self):
        super().teardown()
        assert set(os.listdir("/dev/shm")) - self.shm_before == set()

    def _check(self, matrix, dense, sampled_epoch, response):
        if response.status == WORKER_CRASHED:
            assert self.kills, "a worker crashed that no rule killed"
        super()._check(matrix, dense, sampled_epoch, response)


ProcessTierServiceMachine.TestCase.settings = settings(
    max_examples=30, stateful_step_count=20, deadline=None
)
TestProcessTierService = ProcessTierServiceMachine.TestCase
