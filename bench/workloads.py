"""The four workloads and the measurement of one run.

Each workload builds its inputs from the seed, sets the system up cold
several times (``setup_s`` is the median), then drives timed load through
the package's public entry points in :data:`SLICES` slices, checking
every answer against scipy.  After each slice it times the scipy floor —
the in-process ``scipy.sparse`` CSR @ dense call on that slice's
operands — in the same process.  Graphs are fixed per workload (they are
the datasets); the seed draws the features, weights, request streams and
update streams.

A traced run (``trace=True``) splits the same time into an untraced and a
traced half; the per-layer metrics come from the traced half and
``bench.trace_overhead`` compares the two medians.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import math
import multiprocessing
import os
import platform
import resource
import statistics
import threading
import time
from contextlib import nullcontext

import numpy as np
import scipy
import scipy.sparse as sp

from bench import layers, spec
from bench.loadgen import (
    MISMATCH,
    OK,
    TIMEOUT,
    Inflight,
    Phase,
    Record,
    arrival_offsets,
    closed_loop,
    open_loop,
    percentile,
    request_key,
    verify,
)
from repro import power_law_graph
from repro.gnn.inference import InferenceEngine
from repro.gnn.models import GCN
from repro.graphs import Graph
from repro.graphs.datasets import load_dataset
from repro.graphs.delta import DeltaCSR, EdgeUpdate
from repro.obs import rtrace
from repro.serve import GraphEpochManager, InferenceService, ServeConfig

#: Rows of each answer checked against scipy; every FULL_CHECK_EVERY-th
#: answer is checked on all rows.
CHECK_ROWS = 256
FULL_CHECK_EVERY = 16
#: How long a phase waits for its last answers before failing them.
DRAIN_TIMEOUT = 60.0
#: Stream id of warm-up requests (phases use small indices).
WARMUP = 1_000_000
#: A timed phase is cut into this many slices, each followed by a burst
#: of the scipy floor on that slice's operands.  A shared host's speed
#: drifts within seconds, so the floor is sampled throughout the load and
#: the fastest slice's median is the floor every ratio divides by.
SLICES = 10

#: The program's process-wide caches, emptied before each cold set-up.
_PROCESS_CACHES = (
    ("repro.engine.kernels", "get_engine_plan_cache"),
    ("repro.serve.plancache", "get_plan_cache"),
    ("repro.sample.index", "get_neighbor_index_cache"),
    ("repro.sample.classtier", "get_class_tier"),
)

#: Dispatch arms whose share of answers ``serve.backend_share.*`` reports.
ARMS = (
    "engine", "cusparse-like", "gnnadvisor", "vectorized", "threaded",
    "row-splitting", "merge-path-serial", "class-tier", "procpool",
)
#: Ledger stages whose share of latency ``stage.*_share`` reports;
#: ``unattributed`` is latency no stage claims.
SHARE_STAGES = (
    "sample", "queue", "batch_form", "dispatch", "plan_compile", "kernel",
    "ipc", "scatter", "other", "unattributed",
)
#: Program counters reported as their change over the traced phase.
CUMULATIVE = ("procpool.restarts", "epoch.retired", "delta.compactions")


def reset_process_caches() -> None:
    """Empty the program's process-wide caches so a set-up starts cold."""
    for module_name, getter in _PROCESS_CACHES:
        try:
            cache = getattr(importlib.import_module(module_name), getter)()
        except (ImportError, AttributeError):
            continue
        cache.clear()


def scipy_csr(matrix) -> sp.csr_matrix:
    """A scipy CSR view of a ``repro`` CSR matrix (duplicates summed)."""
    csr = sp.csr_matrix(
        (matrix.values, matrix.column_indices, matrix.row_pointers),
        shape=matrix.shape,
        copy=True,
    )
    csr.sum_duplicates()
    return csr


def csr_bytes(n_rows: int, nnz: int) -> int:
    """Bytes of a CSR operand: int64 row pointers, int64 columns, float64 values."""
    return (n_rows + 1) * 8 + nnz * 16


def spmm_bytes(n_rows: int, n_cols: int, nnz: int, width: int) -> int:
    """Computed bytes one ``A @ X`` must move: CSR, dense operand, output."""
    return csr_bytes(n_rows, nnz) + (n_cols + n_rows) * width * 8


def _scope(recorder: "layers.SpanRecorder | None", phase: int, rid: int):
    if recorder is None:
        return nullcontext()
    return recorder.request(request_key(phase, rid))


def _ended(records: "list[Record]", start: float) -> float:
    return max((r.done for r in records if math.isfinite(r.done)), default=start)


def _drain(inflight: Inflight, records: "list[Record]") -> None:
    """Wait for outstanding answers; fail what never arrives."""
    if not inflight.wait(DRAIN_TIMEOUT):
        for record in records:
            if record.status == "pending":
                record.fail(TIMEOUT, f"no answer within {DRAIN_TIMEOUT:.0f} s")


def _require_ok(response, what: str) -> None:
    if response.status != OK:
        raise RuntimeError(f"{what} failed: {response.status} {response.error}")


def _in_threads(count: int, fn) -> None:
    """Run ``fn(i)`` on ``count`` threads; re-raise the first failure."""
    errors: "list[BaseException]" = []

    def target(i: int) -> None:
        try:
            fn(i)
        except BaseException as exc:  # re-raised on the calling thread
            errors.append(exc)

    threads = [threading.Thread(target=target, args=(i,)) for i in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def _worker_peak_rss_mb() -> float:
    """Largest peak RSS among this process's live child processes, in MB."""
    peak = 0.0
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        peak = max(peak, int(line.split()[1]) / 1024.0)
        except OSError:
            continue
    return peak


class Workload:
    """One workload: inputs, cold set-up, timed phases, floor.

    Subclasses build their inputs in ``__init__`` (excluded from every
    timing) and implement :meth:`setup`, :meth:`run_phase` and
    :meth:`floor`.
    """

    name = ""
    #: Floor calls timed after each slice.
    floor_reps = 0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.params = spec.WORKLOAD_PARAMS[self.name]

    def rng(self, *stream: int) -> np.random.Generator:
        """The generator of one input stream of this seed."""
        return np.random.default_rng([self.seed, *stream])

    def setup(self):
        """Build and warm the system under test; returns its handle."""
        raise NotImplementedError

    def close(self, system) -> None:
        system.close()

    def run_phase(self, system, phase: int, seconds: float, recorder) -> Phase:
        """Drive ``seconds`` of load and check every answer."""
        raise NotImplementedError

    def floor(self, phase: Phase) -> "tuple[list[float], list[float]]":
        """Seconds of the scipy floor on the phase's operands, per request.

        Returns the whole request's floor and that of its sparse products
        alone (the same list unless a request does more than one SpMM).
        """
        raise NotImplementedError

    def stats(self, system) -> "dict[str, float]":
        """Program-side counters and gauges read from public stats methods."""
        return {}

    def layer_values(self, phase: Phase) -> "dict[str, float]":
        """Workload-specific per-layer values of a traced phase."""
        return {}


class GcnOffline(Workload):
    """Closed loop, one caller: 2-layer GCN passes through ``InferenceEngine``."""

    name = "gcn-offline"
    floor_reps = 2

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed)
        n, nnz, max_degree = (
            (10_000, 120_000, 1_000) if smoke else (100_000, 1_200_000, 5_000)
        )
        adjacency = power_law_graph(n, nnz, max_degree)
        self.graph = Graph("pl-large", adjacency)
        rng = self.rng(0)
        self.features = rng.random((n, 32))
        self.model = GCN.random([32, 32, 16], seed=seed)
        self.a_norm = self._normalized(adjacency)
        self.check_rows = np.sort(rng.choice(n, CHECK_ROWS, replace=False))
        self.reference = self.floor_pass()
        self.takes_ctx = "ctx" in inspect.signature(InferenceEngine.infer).parameters
        widths = [layer.out_features for layer in self.model.layers]
        nnz_norm = self.a_norm.nnz
        self.flops = float(sum(2 * nnz_norm * w for w in widths))
        self.kernel_bytes = float(sum(spmm_bytes(n, n, nnz_norm, w) for w in widths))
        if smoke:
            self.floor_reps = 1

    @staticmethod
    def _normalized(adjacency) -> sp.csr_matrix:
        """``D^-1/2 (A + I) D^-1/2`` with D counting each row's distinct entries."""
        a_hat = scipy_csr(adjacency) + sp.identity(adjacency.n_rows, format="csr")
        a_hat = a_hat.tocsr()
        a_hat.sum_duplicates()
        inv_sqrt = 1.0 / np.sqrt(np.diff(a_hat.indptr).astype(np.float64))
        return (sp.diags(inv_sqrt) @ a_hat @ sp.diags(inv_sqrt)).tocsr()

    def floor_pass(self, spmm_seconds: "list[float] | None" = None) -> np.ndarray:
        """The same forward pass as ``A_norm @ (H @ W)`` per layer in scipy.

        Appends the time of the sparse products to ``spmm_seconds``.
        """
        hidden = self.features
        spmm = 0.0
        for layer in self.model.layers:
            transformed = hidden @ layer.weight
            started = time.perf_counter()
            hidden = self.a_norm @ transformed
            spmm += time.perf_counter() - started
            if layer.activation_name == "relu":
                hidden = np.maximum(hidden, 0.0)
        if spmm_seconds is not None:
            spmm_seconds.append(spmm)
        return hidden

    def setup(self):
        engine = InferenceEngine(fused=True)
        engine.infer(self.model, self.graph, self.features)
        return engine

    def close(self, system) -> None:
        pass

    def run_phase(self, engine, phase, seconds, recorder) -> Phase:
        with_ctx = recorder is not None and self.takes_ctx
        n = self.graph.n_nodes

        def call(client, record, payload):
            kwargs = {}
            if with_ctx:
                ctx = rtrace.RequestContext.new(request_id=record.rid, route=self.name)
                kwargs["ctx"] = ctx
            try:
                with _scope(recorder, phase, record.rid):
                    report = engine.infer(
                        self.model, self.graph, self.features, **kwargs
                    )
            except Exception as exc:  # a failed pass is a failed request
                record.fail("error", f"{type(exc).__name__}: {exc}", time.perf_counter())
                return
            record.done = time.perf_counter()
            record.status = OK
            record.rows = n
            record.flops = self.flops
            record.kernel_bytes = self.kernel_bytes
            if with_ctx:
                record.stages = ctx.ledger.stages()
                record.events = ctx.ledger.events()
            if record.rid % FULL_CHECK_EVERY == 0:
                verify(record, report.output, self.reference)
            else:
                verify(
                    record,
                    report.output[self.check_rows],
                    self.reference[self.check_rows],
                )

        start, records = closed_loop(self.params.clients, seconds, lambda c, r: None, call)
        return Phase(phase, records, start, _ended(records, start))

    def floor(self, phase):
        times, spmm = [], []
        for _ in range(self.floor_reps):
            started = time.perf_counter()
            self.floor_pass(spmm)
            times.append(time.perf_counter() - started)
        return times, spmm


class ServeSmall(Workload):
    """Open-loop Poisson traffic, Zipf over four small graphs, thread tier."""

    name = "serve-small"
    floor_reps = 300
    datasets = ("Cora", "Citeseer", "Wiki-Vote", "Oregon-1")
    scale = 0.25
    zipf_s = 1.1
    width = 16
    warmup_per_graph = 16
    #: Rows kept per answer for the post-phase check (answers are held
    #: until the phase ends, so fewer than CHECK_ROWS keeps memory small).
    kept_rows = 64

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed)
        self.matrices = [
            load_dataset(name, scale=self.scale).adjacency for name in self.datasets
        ]
        self.scipy = [scipy_csr(m) for m in self.matrices]
        rng = self.rng(0)
        self.check_rows = [
            np.sort(rng.choice(m.n_rows, min(self.kept_rows, m.n_rows), replace=False))
            for m in self.matrices
        ]
        self.scipy_rows = [a[rows] for a, rows in zip(self.scipy, self.check_rows)]
        #: Graph index per request, per phase.
        self.graphs: "dict[int, np.ndarray]" = {}
        if smoke:
            self.floor_reps = 50

    def stream(self, phase: int, seconds: float) -> "tuple[np.ndarray, np.ndarray]":
        """Send offsets and graph index per request.

        Graph popularity is Zipf(1.1) by rank; the mix is an exact
        proportional multiset in seeded order, so every run offers the
        same work.
        """
        rng = self.rng(phase)
        offsets = arrival_offsets(rng, self.params.rate_rps, seconds)
        weights = np.arange(1, len(self.matrices) + 1, dtype=np.float64) ** -self.zipf_s
        counts = np.floor(weights / weights.sum() * len(offsets)).astype(int)
        counts[0] += len(offsets) - counts.sum()
        graphs = rng.permutation(np.repeat(np.arange(len(self.matrices)), counts))
        return offsets, graphs

    def dense(self, phase: int, rid: int, graph: int) -> np.ndarray:
        return self.rng(phase, rid).random((self.matrices[graph].n_cols, self.width))

    def setup(self):
        service = InferenceService(config=ServeConfig()).start()
        try:
            for graph, matrix in enumerate(self.matrices):
                for k in range(self.warmup_per_graph):
                    dense = self.rng(WARMUP, graph, k).random((matrix.n_cols, self.width))
                    response = service.submit(matrix, dense, route=self.name).result(
                        timeout=DRAIN_TIMEOUT
                    )
                    _require_ok(response, "warm-up request")
        except BaseException:
            service.close()
            raise
        return service

    def run_phase(self, service, phase, seconds, recorder) -> Phase:
        offsets, graphs = self.stream(phase, seconds)
        self.graphs[phase] = graphs
        records: "list[Record]" = [None] * len(offsets)  # type: ignore[list-item]
        kept: "dict[int, np.ndarray]" = {}
        inflight = Inflight()

        def complete(record, graph, future):
            done = time.perf_counter()
            try:
                response = future.result()
                record.absorb(response, done)
                if record.ok:
                    output = response.output
                    full = record.rid % FULL_CHECK_EVERY == 0
                    kept[record.rid] = output if full else output[self.check_rows[graph]]
            except Exception as exc:  # recorded as a failed request
                record.fail("error", f"{type(exc).__name__}: {exc}", done)
            finally:
                inflight.finish()

        def send(i, due, dense):
            graph = int(graphs[i])
            matrix = self.matrices[graph]
            record = Record(
                rid=i, due=due, lag=time.perf_counter() - due, rows=matrix.n_rows,
                flops=2.0 * matrix.nnz * self.width,
                kernel_bytes=spmm_bytes(matrix.n_rows, matrix.n_cols, matrix.nnz, self.width),
            )
            records[i] = record
            inflight.add()
            try:
                with _scope(recorder, phase, i):
                    future = service.submit(matrix, dense, route=self.name)
            except Exception as exc:
                record.fail("error", f"{type(exc).__name__}: {exc}", time.perf_counter())
                inflight.finish()
                return
            future.add_done_callback(functools.partial(complete, record, graph))

        start = time.perf_counter()
        open_loop(start, offsets, lambda i: self.dense(phase, i, int(graphs[i])), send)
        _drain(inflight, records)
        result = Phase(phase, records, start, _ended(records, start))
        for rid, output in kept.items():
            graph = int(graphs[rid])
            dense = self.dense(phase, rid, graph)
            if rid % FULL_CHECK_EVERY == 0:
                verify(records[rid], output, self.scipy[graph] @ dense)
            else:
                verify(records[rid], output, self.scipy_rows[graph] @ dense)
        return result

    def floor(self, phase):
        graphs = self.graphs[phase.index]
        times = []
        for rid in range(min(self.floor_reps, len(graphs))):
            graph = int(graphs[rid])
            dense = self.dense(phase.index, rid, graph)
            started = time.perf_counter()
            self.scipy[graph] @ dense
            times.append(time.perf_counter() - started)
        return times, times


class EgoLive(Workload):
    """Open-loop ego requests on a live graph beside a stream of edge updates."""

    name = "ego-live"
    floor_reps = 200
    dataset = "Wiki-Vote"
    width = 16
    fanouts = (10, 5)
    zipf_s = 1.1
    update_rate = 10.0
    update_batch_max = 3
    delete_fraction = 0.3
    compact_threshold = 64
    warmup_requests = 32

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed)
        self.matrix = load_dataset(self.dataset, scale=0.25 if smoke else 1.0).adjacency
        self.base = scipy_csr(self.matrix)
        self.features = self.rng(0).random((self.matrix.n_rows, self.width))
        degrees = np.diff(self.base.indptr)
        self.ranked = np.argsort(-degrees, kind="stable")
        weights = np.arange(1, len(degrees) + 1, dtype=np.float64) ** -self.zipf_s
        self.popularity = weights / weights.sum()
        coo = self.base.tocoo()
        self.occupied = set(zip(coo.row.tolist(), coo.col.tolist()))
        self.update_rng = self.rng(2)
        #: ``(installed epoch, batch)`` for every applied update batch.
        self.update_log: "list[tuple[int, list]]" = []
        self.subgraph_nnz: "dict[tuple[int, int], int]" = {}
        self.nodes: "dict[tuple[int, int], np.ndarray]" = {}
        if smoke:
            self.floor_reps = 50

    def seeds(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Seed nodes, Zipf(1.1) over nodes ranked by degree."""
        return self.ranked[rng.choice(len(self.ranked), size=count, p=self.popularity)]

    def next_batch(self) -> "list":
        """1-3 valid edge updates, tracking which edges exist."""
        rng = self.update_rng
        n = self.matrix.n_rows
        batch = []
        for _ in range(int(rng.integers(1, self.update_batch_max + 1))):
            row, col = int(rng.integers(0, n)), int(rng.integers(0, n))
            if (row, col) not in self.occupied:
                batch.append(EdgeUpdate.insert(row, col, float(rng.random()) + 0.5))
                self.occupied.add((row, col))
            elif rng.random() < self.delete_fraction:
                batch.append(EdgeUpdate.delete(row, col))
                self.occupied.discard((row, col))
            else:
                batch.append(EdgeUpdate.update(row, col, float(rng.random()) + 0.5))
        return batch

    def setup(self):
        manager = GraphEpochManager(
            DeltaCSR(self.matrix, compact_threshold=self.compact_threshold)
        )
        service = InferenceService(config=ServeConfig(), epoch_manager=manager)
        # Keep the caches the service reads coherent across epochs.
        caches = [getattr(service.dispatcher, "plan_cache", None)]
        try:
            from repro.sample import get_neighbor_index_cache

            caches.append(get_neighbor_index_cache())
        except ImportError:
            pass
        for cache in caches:
            if cache is not None:
                manager.register_cache(cache)
        service.start()
        try:
            warm = self.rng(WARMUP)
            for k, node in enumerate(self.seeds(warm, self.warmup_requests)):
                submission = service.submit_ego(
                    int(node), self.features, fanouts=self.fanouts,
                    rng=self.rng(WARMUP, k), route=self.name,
                )
                _require_ok(submission.result(timeout=DRAIN_TIMEOUT), "warm-up request")
        except BaseException:
            service.close()
            raise
        return service

    def run_phase(self, service, phase, seconds, recorder) -> Phase:
        rng = self.rng(phase)
        offsets = arrival_offsets(rng, self.params.rate_rps, seconds)
        seeds = self.seeds(rng, len(offsets))
        update_offsets = arrival_offsets(rng, self.update_rate, seconds)
        records: "list[Record]" = [None] * len(offsets)  # type: ignore[list-item]
        kept: "dict[int, np.ndarray]" = {}
        inflight = Inflight()
        update_seconds: "list[float]" = []
        update_errors: "list[str]" = []
        start = time.perf_counter()

        def updater():
            for offset in update_offsets:
                delay = start + float(offset) - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                batch = self.next_batch()
                began = time.perf_counter()
                try:
                    snapshot = service.apply_updates(batch)
                except Exception as exc:  # counted as a failed operation
                    update_errors.append(f"{type(exc).__name__}: {exc}")
                    return
                update_seconds.append(time.perf_counter() - began)
                self.update_log.append((snapshot.epoch, batch))

        def complete(record, future):
            done = time.perf_counter()
            try:
                response = future.result()
                record.absorb(response, done)
                if record.ok:
                    kept[record.rid] = response.output
            except Exception as exc:  # recorded as a failed request
                record.fail("error", f"{type(exc).__name__}: {exc}", done)
            finally:
                inflight.finish()

        def send(i, due, payload):
            record = Record(rid=i, due=due, lag=time.perf_counter() - due)
            records[i] = record
            inflight.add()
            try:
                with _scope(recorder, phase, i):
                    submission = service.submit_ego(
                        int(seeds[i]), self.features, fanouts=self.fanouts,
                        rng=self.rng(phase, i), route=self.name,
                    )
            except Exception as exc:
                record.fail("error", f"{type(exc).__name__}: {exc}", time.perf_counter())
                inflight.finish()
                return
            sub = submission.subgraph
            record.rows = sub.n_nodes
            record.flops = 2.0 * sub.nnz * self.width
            record.kernel_bytes = spmm_bytes(sub.n_nodes, sub.n_nodes, sub.nnz, self.width)
            self.nodes[phase, i] = sub.nodes
            self.subgraph_nnz[phase, i] = sub.nnz
            submission.future.add_done_callback(functools.partial(complete, record))

        thread = threading.Thread(target=updater, name="bench-updater")
        thread.start()
        try:
            open_loop(start, offsets, lambda i: None, send)
        finally:
            thread.join()
        _drain(inflight, records)
        self._verify(phase, records, kept)
        return Phase(
            phase, records, start, _ended(records, start),
            update_seconds, len(update_errors),
        )

    def _verify(self, phase, records, kept) -> None:
        """Check each answer against scipy on its admitted epoch's graph.

        The epoch's graph is the base plus every update batch installed
        at or before that epoch, replayed here as an edit overlay.
        """
        log = sorted(self.update_log, key=lambda entry: entry[0])
        known = {0} | {epoch for epoch, _ in log}
        overlay: "dict[int, dict[int, float | None]]" = {}
        applied = 0
        for rid in sorted(kept, key=lambda r: records[r].epoch or 0):
            record = records[rid]
            if record.epoch not in known:
                record.fail(MISMATCH, f"answer claims unknown epoch {record.epoch}", record.done)
                continue
            while applied < len(log) and log[applied][0] <= record.epoch:
                for update in log[applied][1]:
                    overlay.setdefault(update.row, {})[update.col] = (
                        None if update.op == "delete" else update.value
                    )
                applied += 1
            nodes = self.nodes[phase, rid]
            induced = self.base[nodes][:, nodes].toarray()
            position = {int(node): k for k, node in enumerate(nodes)}
            for k, node in enumerate(nodes):
                for col, value in overlay.get(int(node), {}).items():
                    j = position.get(col)
                    if j is not None:
                        induced[k, j] = 0.0 if value is None else value
            verify(record, kept[rid], induced @ self.features[nodes])

    def floor(self, phase):
        times = []
        for record in phase.ok_records()[: self.floor_reps]:
            nodes = self.nodes[phase.index, record.rid]
            started = time.perf_counter()
            self.base[nodes][:, nodes] @ self.features[nodes]
            times.append(time.perf_counter() - started)
        return times, times

    def stats(self, service) -> "dict[str, float]":
        epochs = service.epoch_manager.stats()
        return {
            "epoch.retired": float(epochs["retired_epochs"]),
            "delta.compactions": float(epochs["compactions"]),
        }

    def layer_values(self, phase) -> "dict[str, float]":
        nnz = [self.subgraph_nnz[phase.index, r.rid] for r in phase.records
               if (phase.index, r.rid) in self.subgraph_nnz]
        return {
            "sample.subgraph_nnz_p50": float(percentile(nnz, 50)) if nnz else 0.0,
            "epoch.installed": float(len(phase.update_seconds)),
        }


class ServeProcess(Workload):
    """Closed loop, two callers, on the process tier over pl-medium."""

    name = "serve-process"
    floor_reps = 6
    width = 32
    warmup_per_client = 2

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed)
        n, nnz, max_degree = (2_000, 20_000, 200) if smoke else (20_000, 200_000, 2_000)
        self.matrix = power_law_graph(n, nnz, max_degree)
        self.scipy = scipy_csr(self.matrix)
        self.check_rows = np.sort(self.rng(0).choice(n, CHECK_ROWS, replace=False))
        self.scipy_rows = self.scipy[self.check_rows]
        if smoke:
            self.floor_reps = 2

    def dense(self, phase: int, rid: int) -> np.ndarray:
        return self.rng(phase, rid).random((self.matrix.n_cols, self.width))

    def setup(self):
        service = InferenceService(config=ServeConfig(isolation="process")).start()

        def warm(client: int) -> None:
            for k in range(self.warmup_per_client):
                dense = self.rng(WARMUP, client, k).random(
                    (self.matrix.n_cols, self.width)
                )
                response = service.submit(self.matrix, dense, route=self.name).result(
                    timeout=DRAIN_TIMEOUT
                )
                _require_ok(response, "warm-up request")

        try:
            # Concurrent callers, so every worker process attaches the
            # published graph segment before timing starts.
            _in_threads(self.params.clients, warm)
        except BaseException:
            service.close()
            raise
        return service

    def run_phase(self, service, phase, seconds, recorder) -> Phase:
        matrix = self.matrix

        def call(client, record, dense):
            stamp = {}
            try:
                with _scope(recorder, phase, record.rid):
                    future = service.submit(matrix, dense, route=self.name)
                future.add_done_callback(
                    lambda f: stamp.setdefault("done", time.perf_counter())
                )
                response = future.result(timeout=DRAIN_TIMEOUT)
            except Exception as exc:  # recorded as a failed request
                record.fail("error", f"{type(exc).__name__}: {exc}", time.perf_counter())
                return
            record.absorb(response, stamp.get("done", time.perf_counter()))
            record.rows = matrix.n_rows
            record.flops = 2.0 * matrix.nnz * self.width
            record.kernel_bytes = spmm_bytes(matrix.n_rows, matrix.n_cols, matrix.nnz, self.width)
            if not record.ok:
                return
            if record.rid % FULL_CHECK_EVERY == 0:
                verify(record, response.output, self.scipy @ dense)
            else:
                verify(record, response.output[self.check_rows], self.scipy_rows @ dense)

        start, records = closed_loop(
            self.params.clients, seconds,
            lambda client, rid: self.dense(phase, rid), call,
        )
        return Phase(phase, records, start, _ended(records, start))

    def floor(self, phase):
        times = []
        for record in phase.records[: self.floor_reps]:
            dense = self.dense(phase.index, record.rid)
            started = time.perf_counter()
            self.scipy @ dense
            times.append(time.perf_counter() - started)
        return times, times

    def stats(self, service) -> "dict[str, float]":
        pool = service.health().snapshot.get("procpool") or {}
        return {
            "procpool.restarts": float(pool.get("supervisor", {}).get("restarts", 0)),
            "procpool.graph_bytes_copied_per_request": float(
                pool.get("zero_copy", {}).get("per_request_graph_bytes_copied", 0)
            ),
            "procpool.worker_rss_mb": _worker_peak_rss_mb(),
        }

    def layer_values(self, phase) -> "dict[str, float]":
        operand = [
            (self.matrix.n_cols + self.matrix.n_rows) * self.width * 8.0
            for r in phase.ok_records() if r.backend == "procpool"
        ]
        return {
            "procpool.operand_bytes_per_request": float(percentile(operand, 50))
            if operand else 0.0,
        }


WORKLOADS: "dict[str, type[Workload]]" = {
    cls.name: cls for cls in (GcnOffline, ServeSmall, EgoLive, ServeProcess)
}


def _share(records: "list[Record]", predicate) -> float:
    return sum(1 for r in records if predicate(r)) / len(records) if records else 0.0


def _event_rate(records: "list[Record]", hit: "tuple[str, ...]", miss: "tuple[str, ...]") -> float:
    hits = sum(r.events.get(e, 0) for r in records for e in hit)
    misses = sum(r.events.get(e, 0) for r in records for e in miss)
    return hits / (hits + misses) if hits + misses else 0.0


def end_to_end_values(
    workload: Workload, phase: Phase, setups: "list[float]", floor: float
) -> "dict[str, float]":
    """End-to-end metrics of an untraced phase (``floor`` in seconds)."""
    latencies = phase.latencies()
    p50 = percentile(latencies, 50)
    tail = percentile(latencies, workload.params.tail_percentile)
    return {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": p50 * 1e3,
        "latency_tail_ms": tail * 1e3,
        "throughput_rows_per_s": phase.rows_per_second(),
        "floor_ratio_p50": p50 / floor,
        "floor_ratio_tail": tail / floor,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_values(
    workload: Workload,
    untraced: Phase,
    traced: Phase,
    spans: "list[layers.Span]",
    stats: "dict[str, float]",
    floor: float,
    kernel_floor: float,
) -> "dict[str, float]":
    """Per-layer metrics of a traced phase; 0 for layers it does not use."""
    ok = traced.ok_records()
    kernel = [r.stages.get("kernel", 0.0) for r in ok]
    latency = [r.latency for r in ok]
    total = sum(latency)
    names = [s.name for s in spans]
    values = {
        "kernel.ms_p50": percentile(kernel, 50) * 1e3,
        "kernel.floor_ratio": percentile(kernel, 50) / kernel_floor,
        "kernel.gflops": percentile(
            [r.flops * max(1, r.batch_size) / k for r, k in zip(ok, kernel) if k > 0], 50
        ) / 1e9 if any(kernel) else 0.0,
        "kernel.bytes_per_request": percentile([r.kernel_bytes for r in ok], 50),
        "overhead.ms_p50": percentile([t - k for t, k in zip(latency, kernel)], 50) * 1e3,
        "floor.p50_ms": floor * 1e3,
        "loadgen.lag_ms_tail": percentile(
            [r.lag for r in traced.records], workload.params.tail_percentile
        ) * 1e3,
        "bench.trace_overhead": percentile(traced.latencies(), 50)
        / percentile(untraced.latencies(), 50),
        "core.schedules_built": float(names.count("core.schedule")),
        "engine.plan_compiles": float(names.count("engine.compile")),
        "plan_cache.hit_rate": _event_rate(ok, ("plan_cache_hit",), ("plan_compile", "plan_repair")),
        "serve.plan_repairs": float(sum(r.events.get("plan_repair", 0) for r in ok)),
        "serve.batch_size_mean": (
            statistics.fmean(r.batch_size for r in ok) if any(r.batch_size for r in ok) else 0.0
        ),
        "serve.fallbacks": float(sum(1 for r in ok if r.fallback)),
        "serve.rejected": float(sum(1 for r in traced.records if r.status == "rejected")),
        "sample.class_tier_hit_rate": _event_rate(ok, ("class_tier_hit",), ("class_tier_miss",)),
        "sample.subgraph_nnz_p50": 0.0,
        "epoch.installed": 0.0,
        "epoch.retired": 0.0,
        "delta.compactions": 0.0,
        "procpool.restarts": 0.0,
        "procpool.graph_bytes_copied_per_request": 0.0,
        "procpool.worker_rss_mb": 0.0,
        "procpool.operand_bytes_per_request": 0.0,
    }
    for arm in ARMS:
        if arm == "class-tier":
            values[f"serve.backend_share.{arm}"] = _share(
                ok, lambda r: (r.backend or "").startswith("class:")
            )
        else:
            values[f"serve.backend_share.{arm}"] = _share(ok, lambda r, a=arm: r.backend == a)
    for stage in SHARE_STAGES:
        if stage == "unattributed":
            seconds = sum(max(0.0, t - sum(r.stages.values())) for r, t in zip(ok, latency))
        else:
            seconds = sum(r.stages.get(stage, 0.0) for r in ok)
        values[f"stage.{stage}_share"] = seconds / total if total else 0.0
    values.update(stats)
    values.update(workload.layer_values(traced))
    return values


def layer_times(
    traced: Phase,
    phase_spans: "list[layers.Span]",
    setup_spans: "list[layers.Span]",
    setups: int,
) -> "dict[str, float]":
    """Milliseconds per layer that exist on this workload (result file only).

    ``<span>_ms_p50`` is the median call of a wrapped entry point during
    the traced phase, ``setup.<span>_ms`` its time per cold set-up, and
    ``stage.<stage>_ms_p50`` the median attributed time per request.
    """
    times: "dict[str, float]" = {}
    by_name: "dict[str, list[float]]" = {}
    for span in phase_spans:
        by_name.setdefault(span.name, []).append(span.seconds)
    for name, seconds in sorted(by_name.items()):
        times[f"{name}_ms_p50"] = percentile(seconds, 50) * 1e3
    in_setup: "dict[str, float]" = {}
    for span in setup_spans:
        in_setup[span.name] = in_setup.get(span.name, 0.0) + span.seconds
    for name, seconds in sorted(in_setup.items()):
        times[f"setup.{name}_ms"] = seconds / setups * 1e3
    stages: "dict[str, list[float]]" = {}
    for record in traced.ok_records():
        for stage, seconds in record.stages.items():
            stages.setdefault(stage, []).append(seconds)
    for stage, seconds in sorted(stages.items()):
        times[f"stage.{stage}_ms_p50"] = percentile(seconds, 50) * 1e3
    return times


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> "tuple[dict, dict | None]":
    """Run one workload; returns ``(result document, Chrome trace or None)``.

    The result's ``metrics`` hold every gated end-to-end metric of an
    untraced run, or every per-layer metric of a traced run.
    """
    doc = spec.load_benchmark()
    workload = WORKLOADS[name](seed, smoke)
    recorder = layers.SpanRecorder() if trace else None
    setups: "list[float]" = []
    wrapped: "dict[str, str]" = {}
    stats: "dict[str, float]" = {}
    system = None
    try:
        for _ in range(1 if smoke else workload.params.setups):
            if system is not None:
                workload.close(system)
                system = None
            reset_process_caches()
            with layers.installed(recorder) if trace else nullcontext({}) as wrapped:
                started = time.perf_counter()
                system = workload.setup()
                setups.append(time.perf_counter() - started)
        n_setup_spans = len(recorder.spans) if trace else 0

        def sliced(first: int, load_seconds: float, tracer):
            """SLICES phases, each followed by a burst of its floor.

            Returns the merged phase and the floor and kernel floor: each
            the median call of the slice where it ran fastest, because
            interference from the rest of the host only ever slows a
            floor call down.
            """
            parts, floor, kernel_floor = [], [], []
            for k in range(SLICES):
                part = workload.run_phase(system, first + k, load_seconds / SLICES, tracer)
                seconds_, kernel_seconds = workload.floor(part)
                parts.append(part)
                if seconds_:
                    floor.append(percentile(seconds_, 50))
                    kernel_floor.append(percentile(kernel_seconds, 50))
            return Phase.merge(parts), min(floor), min(kernel_floor)

        if trace:
            untraced, floor, kernel_floor = sliced(0, seconds / 2, None)
            before = workload.stats(system)
            with layers.installed(recorder):
                traced, floor, kernel_floor = sliced(SLICES, seconds / 2, recorder)
            stats = workload.stats(system)
            for key in CUMULATIVE:
                if key in stats:
                    stats[key] -= before.get(key, 0.0)
            phases = [untraced, traced]
        else:
            untraced, floor, kernel_floor = sliced(0, seconds, None)
            phases = [untraced]
    finally:
        if system is not None:
            workload.close(system)

    latency_p50 = percentile(untraced.latencies(), 50)
    lag_tail = percentile([r.lag for r in untraced.records], workload.params.tail_percentile)
    result = {
        "schema": spec.RESULT_SCHEMA,
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "host": {
            "cpus": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "correct": all(p.mismatches == 0 for p in phases),
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases),
        "errors": sorted({r.error for p in phases for r in p.records if r.error})[:5],
        "params": dataclasses.asdict(workload.params),
        "samples": len(untraced.records),
        "tail_percentile": workload.params.tail_percentile,
        "latency_ms": {
            f"p{q:g}": percentile(untraced.latencies(), q) * 1e3
            for q in (50, 75, 85, 90, 95, 99)
        },
        # An open loop that ran late invalidates its latencies.
        "valid": lag_tail <= 0.25 * latency_p50,
        "setup_seconds": setups,
    }
    chrome = None
    if not trace:
        values = end_to_end_values(workload, untraced, setups, floor)
        result["metrics"] = {
            m.name: {"value": values[m.name], "unit": m.unit}
            for m in spec.end_to_end_metrics(doc)
        }
        extra = {
            "latency_tail_ms": (values["latency_tail_ms"], "ms"),
            "floor_ratio_tail": (values["floor_ratio_tail"], "x"),
            "error_rate": (untraced.failed / untraced.attempted, "fraction"),
            "loadgen.lag_ms_tail": (lag_tail * 1e3, "ms"),
            "floor.p50_ms": (floor * 1e3, "ms"),
        }
        if untraced.update_seconds:
            extra["update_p50_ms"] = (percentile(untraced.update_seconds, 50) * 1e3, "ms")
        result["extra"] = {k: {"value": v, "unit": u} for k, (v, u) in extra.items()}
    else:
        spans = recorder.spans
        phase_spans = spans[n_setup_spans:]
        values = per_layer_values(
            workload, untraced, traced, phase_spans, stats, floor, kernel_floor,
        )
        declared = spec.per_layer_metrics(doc)
        missing = {m.name for m in declared} - set(values)
        if missing:
            raise RuntimeError(f"per-layer metrics not computed: {sorted(missing)}")
        result["metrics"] = {
            m.name: {"value": values[m.name], "unit": m.unit} for m in declared
        }
        result["layers"] = layer_times(
            traced, phase_spans, spans[:n_setup_spans], len(setups)
        )
        result["self_time"] = layers.self_time_table(phase_spans)
        result["wrapped"] = wrapped
        service_ids = {
            r.service_id: r.key for r in traced.records if r.service_id is not None
        }
        chrome = layers.chrome_trace(
            spans,
            recorder.thread_names,
            [(r.key, r.due, r.done, r.status) for r in traced.records],
            service_ids,
            origin=min([s.start for s in spans] + [traced.started]),
            pid=os.getpid(),
        )
    return result, chrome
