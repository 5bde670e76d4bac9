"""Synthetic traffic generation and the ``serve-bench`` subcommand.

Two load patterns against :class:`~repro.serve.service.InferenceService`:

* **Open loop** — Poisson arrivals at a configured offered rate; the
  generator never waits for responses, so queueing and load shedding are
  exercised exactly as an external client population would.
* **Closed loop** — a fixed population of synchronous clients, each
  issuing its next request when the previous one completes.

Graph popularity is Zipf-distributed over a set of Table II stand-ins
(:mod:`repro.graphs.datasets`): a handful of hot graphs absorb most of
the traffic, which is what gives micro-batching same-graph requests to
stack.

The bench runs a *steady* scenario (throughput, p50/p95/p99 latency,
batching and backend statistics, with every accepted response verified
against the independent reference oracle) and an *overload* scenario (a
burst into a deliberately tiny queue, proving admission control sheds
load instead of growing without bound), then appends a run to the
``BENCH_serve.json`` trajectory.  Measured wall-clock latencies are
reported next to *modeled* latencies from the GPU timing model; the
modeled percentiles are a deterministic function of the seed.

Each request is submitted under its dataset's name as the SLO *route*,
so the report carries per-route SLO attainment (:mod:`repro.obs.slo`,
rendered by ``python -m repro slo-report``), per-stage latency
attribution percentiles from the request-trace ledgers
(:mod:`repro.obs.rtrace`), and the flight recorder's slowest/failed
traces.
"""

from __future__ import annotations

import argparse
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

import threading

from repro import obs
from repro.formats import CSRMatrix
from repro.graphs.datasets import load_dataset
from repro.graphs.delta import DeltaCSR, UpdatePlanner
from repro.obs.rtrace import FlightRecorder
from repro.obs.slo import SLObjective, SLOTracker
from repro.resilience.oracles import reference_spmm
from repro.sample import ZipfSeedGenerator, get_neighbor_index_cache
from repro.serve.epoch import GraphEpochManager
from repro.serve.service import InferenceService, ServeConfig

DEFAULT_DATASETS = ("Cora", "Citeseer", "Wiki-Vote", "Oregon-1")

# Bound on un-harvested in-flight futures during open-loop generation,
# keeping operand memory flat regardless of the request count.
_HARVEST_WINDOW = 128


@dataclass(frozen=True)
class BenchConfig:
    """Tunables of one ``serve-bench`` run.

    ``workload`` selects the traffic shape: ``"full"`` (default) submits
    full-graph aggregations over the Zipf-popular dataset set; ``"ego"``
    submits :meth:`~repro.serve.service.InferenceService.submit_ego`
    minibatch requests against the hottest dataset, with seed nodes
    drawn from a degree-ranked Zipf law and per-request ``fanouts``
    k-hop sampling.  Ego responses verify against a SciPy
    fancy-indexing oracle over the graph of each response's *admitted
    epoch*, so the check stays exact under a concurrent
    ``--update-rate`` stream.
    """

    requests: int = 1000
    seed: int = 0
    mode: str = "open"
    workload: str = "full"
    fanouts: "tuple[int, ...]" = (10, 5)
    rate: float = 400.0
    concurrency: int = 8
    dim: int = 16
    datasets: tuple[str, ...] = DEFAULT_DATASETS
    scale: float = 0.25
    zipf_s: float = 1.1
    verify: bool = True
    deadline_ms: "float | None" = None
    overload_requests: int = 64
    # Per-route SLO template: every dataset route is judged against this
    # p95 target (and it doubles as the error-budget threshold).
    slo_p95_ms: float = 250.0
    # Live-graph update stream: Poisson rate (batches/second) of edge
    # updates applied to the *hottest* dataset while the steady scenario
    # runs.  0 disables the stream; when enabled, the hot dataset is
    # served epoch-managed (submit pins each request to its admitted
    # epoch) and every hot response verifies against that epoch's graph.
    update_rate: float = 0.0
    update_batch_max: int = 3
    compact_threshold: int = 64
    service: ServeConfig = field(default_factory=ServeConfig)

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise ValueError(f"requests must be >= 1, got {self.requests}")
        if self.mode not in ("open", "closed"):
            raise ValueError(f"mode must be 'open' or 'closed', got {self.mode}")
        if self.workload not in ("full", "ego"):
            raise ValueError(
                f"workload must be 'full' or 'ego', got {self.workload}"
            )
        if not self.fanouts or any(f == 0 for f in self.fanouts):
            raise ValueError(
                f"fanouts must be non-empty and non-zero, got {self.fanouts}"
            )
        if self.rate <= 0:
            raise ValueError(f"rate must be positive, got {self.rate}")
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ValueError(
                f"deadline_ms must be positive, got {self.deadline_ms}"
            )
        if not self.datasets:
            raise ValueError("at least one dataset is required")
        if self.slo_p95_ms <= 0:
            raise ValueError(
                f"slo_p95_ms must be positive, got {self.slo_p95_ms}"
            )
        if self.update_rate < 0:
            raise ValueError(
                f"update_rate must be >= 0, got {self.update_rate}"
            )
        if self.update_batch_max < 1:
            raise ValueError(
                f"update_batch_max must be >= 1, got {self.update_batch_max}"
            )
        if self.compact_threshold < 1:
            raise ValueError(
                f"compact_threshold must be >= 1, got {self.compact_threshold}"
            )


def zipf_weights(n: int, s: float) -> np.ndarray:
    """Normalized Zipf popularity over ``n`` ranks (rank 1 hottest)."""
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks**-s
    return weights / weights.sum()


def load_traffic_matrices(config: BenchConfig) -> list[CSRMatrix]:
    """The adjacency matrices traffic is drawn from, hottest first."""
    return [
        load_dataset(name, seed=config.seed, scale=config.scale).adjacency
        for name in config.datasets
    ]


def percentiles(values: "list[float]") -> dict:
    """p50/p95/p99/mean/max of a sample, in its own units."""
    if not values:
        return {"p50": 0.0, "p95": 0.0, "p99": 0.0, "mean": 0.0, "max": 0.0}
    array = np.asarray(values, dtype=np.float64)
    p50, p95, p99 = np.percentile(array, [50, 95, 99])
    return {
        "p50": float(p50),
        "p95": float(p95),
        "p99": float(p99),
        "mean": float(array.mean()),
        "max": float(array.max()),
    }


def percentiles_ms(seconds: "list[float]") -> dict:
    """p50/p95/p99/mean/max of a latency sample, in milliseconds."""
    return percentiles([s * 1e3 for s in seconds])


class _Verifier:
    """Checks accepted responses against the independent reference oracle."""

    def __init__(self) -> None:
        self.verified = 0
        self.mismatches = 0

    def check(
        self, matrix: CSRMatrix, dense: np.ndarray, output: np.ndarray
    ) -> None:
        reference = reference_spmm(matrix, dense)
        self.verified += 1
        if not np.allclose(output, reference, rtol=1e-9, atol=1e-9):
            self.mismatches += 1
            obs.counter("serve.loadgen.mismatches").inc()

    def check_ego(
        self,
        scipy_graph,
        nodes: np.ndarray,
        features: np.ndarray,
        output: np.ndarray,
    ) -> None:
        """Verify one ego response against the SciPy fancy-indexing oracle.

        ``scipy_graph`` is the *full* graph of the response's admitted
        epoch as a ``scipy.sparse.csr_matrix``; the expected output is
        ``(A[nodes][:, nodes]) @ X[nodes]`` computed entirely by SciPy,
        so this cross-checks the sampler's extraction *and* the served
        SpMM in one shot.
        """
        induced = scipy_graph[nodes][:, nodes]
        reference = induced.toarray() @ features[nodes]
        self.verified += 1
        if not np.allclose(output, reference, rtol=1e-9, atol=1e-9):
            self.mismatches += 1
            obs.counter("serve.loadgen.mismatches").inc()

    def unknown_epoch(self) -> None:
        """An accepted response whose admitted epoch cannot be resolved.

        That is an epoch-consistency violation (the response claims an
        epoch the update stream never installed), so it counts as a
        mismatch — a silent failure — not as unverifiable.
        """
        self.verified += 1
        self.mismatches += 1
        obs.counter("serve.loadgen.mismatches").inc()


@dataclass
class _ScenarioTally:
    """Accumulated per-scenario outcome counts and samples."""

    requests: int = 0
    accepted: int = 0
    rejected: int = 0
    errors: int = 0
    deadline_misses: int = 0
    fallbacks: int = 0
    latencies: "list[float]" = field(default_factory=list)
    batch_sizes: "list[int]" = field(default_factory=list)
    backends: "dict[str, int]" = field(default_factory=dict)
    # Per-stage attribution samples (rtrace ledger seconds) and cache
    # event totals across accepted responses.
    stage_seconds: "dict[str, list[float]]" = field(default_factory=dict)
    events: "dict[str, int]" = field(default_factory=dict)
    # Accepted responses per admitted graph epoch (epoch-managed
    # requests only; static-matrix traffic carries no epoch).
    epochs: "dict[int, int]" = field(default_factory=dict)

    def absorb(self, response) -> None:
        self.requests += 1
        if response.rejected:
            self.rejected += 1
            return
        if response.deadline_exceeded:
            self.deadline_misses += 1
            return
        if not response.ok:
            self.errors += 1
            return
        self.accepted += 1
        if response.epoch is not None:
            self.epochs[response.epoch] = self.epochs.get(response.epoch, 0) + 1
        self.latencies.append(response.queue_seconds + response.service_seconds)
        self.batch_sizes.append(response.batch_size)
        if response.backend:
            self.backends[response.backend] = (
                self.backends.get(response.backend, 0) + 1
            )
        if response.fallback_used:
            self.fallbacks += 1
        if response.attribution:
            for stage, seconds in response.attribution["stages"].items():
                self.stage_seconds.setdefault(stage, []).append(seconds)
            for event, n in response.attribution["events"].items():
                self.events[event] = self.events.get(event, 0) + n

    def attribution_ms(self) -> dict:
        """Per-stage latency-attribution percentiles (milliseconds)."""
        return {
            stage: percentiles_ms(samples)
            for stage, samples in sorted(self.stage_seconds.items())
        }


class _EpochOracle:
    """Thread-safe ``epoch -> graph`` registry for epoch-pinned verification.

    The update stream registers every installed snapshot; harvesters
    resolve a response's admitted epoch to the exact graph it executed
    against.  ``matrix_for`` tolerates the tiny publish race (a request
    can admit a just-installed epoch before the updater thread records
    it) by waiting briefly for the registration.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._by_epoch: "dict[int, CSRMatrix]" = {}

    def note(self, snapshot) -> None:
        with self._lock:
            self._by_epoch[snapshot.epoch] = snapshot.matrix

    def matrix_for(
        self, epoch: int, timeout: float = 2.0
    ) -> "CSRMatrix | None":
        deadline = time.monotonic() + timeout
        while True:
            with self._lock:
                matrix = self._by_epoch.get(epoch)
            if matrix is not None or time.monotonic() >= deadline:
                return matrix
            time.sleep(0.001)


class _UpdateStream:
    """Background Poisson edge-update stream against an epoch-managed service."""

    def __init__(
        self,
        service: InferenceService,
        oracle: _EpochOracle,
        config: BenchConfig,
        base: CSRMatrix,
    ) -> None:
        self.service = service
        self.oracle = oracle
        self.config = config
        self.planner = UpdatePlanner(base)
        self.batches = 0
        self.updates = 0
        self.errors = 0
        self.apply_seconds: "list[float]" = []
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="loadgen-updater", daemon=True
        )

    def _run(self) -> None:
        rng = np.random.default_rng(self.config.seed + 9001)
        while not self._stop.is_set():
            batch = self.planner.batch(
                rng, int(rng.integers(1, self.config.update_batch_max + 1))
            )
            started = time.perf_counter()
            try:
                snapshot = self.service.apply_updates(batch)
            except Exception:
                self.errors += 1
                obs.counter("serve.loadgen.update_errors").inc()
                return
            self.apply_seconds.append(time.perf_counter() - started)
            self.oracle.note(snapshot)
            self.batches += 1
            self.updates += len(batch)
            self._stop.wait(rng.exponential(1.0 / self.config.update_rate))

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> dict:
        """Stop the stream and return its stats block for the report."""
        self._stop.set()
        self._thread.join(timeout=10.0)
        stats = {
            "rate_target": self.config.update_rate,
            "batches": self.batches,
            "updates": self.updates,
            "errors": self.errors,
            "stalled": self._thread.is_alive(),
            "apply_ms": percentiles_ms(self.apply_seconds),
        }
        manager = self.service.epoch_manager
        if manager is not None:
            stats["epochs"] = manager.stats()
        return stats


def _modeled_microseconds(matrix: CSRMatrix, dim: int, cache: dict) -> float:
    """Deterministic modeled latency of the paper's kernel on one request."""
    key = (matrix.fingerprint(), dim)
    if key not in cache:
        from repro.gpu.kernels import kernel_time

        cache[key] = kernel_time("mergepath", matrix, dim).microseconds
    return cache[key]


class _ScipyGraphCache:
    """Per-epoch ``scipy.sparse.csr_matrix`` views for ego verification."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._by_fingerprint: dict = {}

    def get(self, matrix: CSRMatrix):
        import scipy.sparse

        key = matrix.fingerprint(include_values=True)
        with self._lock:
            cached = self._by_fingerprint.get(key)
            if cached is None:
                cached = scipy.sparse.csr_matrix(
                    (matrix.values, matrix.column_indices, matrix.row_pointers),
                    shape=matrix.shape,
                )
                self._by_fingerprint[key] = cached
            return cached


@obs.instrumented
def run_steady_ego(
    config: BenchConfig, service: InferenceService
) -> "tuple[_ScenarioTally, _Verifier, dict]":
    """The ego-workload steady scenario.

    All traffic targets the hottest dataset: each request samples a
    k-hop ego network around a Zipf-popular seed node
    (:meth:`InferenceService.submit_ego`) and aggregates the extracted
    subgraph.  Every accepted response
    is verified against SciPy fancy indexing over the full graph of the
    epoch it admitted under — exact even while ``--update-rate`` mutates
    the graph concurrently.
    """
    rng = np.random.default_rng(config.seed)
    matrices = load_traffic_matrices(config)
    hot = matrices[0]
    features = rng.random((hot.n_cols, config.dim))
    seed_gen = ZipfSeedGenerator.for_matrix(
        hot, alpha=config.zipf_s, rng=np.random.default_rng(config.seed + 17)
    )
    seeds = seed_gen.draw(config.requests)
    tally = _ScenarioTally()
    verifier = _Verifier()
    scipy_cache = _ScipyGraphCache()

    manager = service.epoch_manager
    live = manager is not None and config.update_rate > 0
    oracle = _EpochOracle()
    stream: "_UpdateStream | None" = None
    if manager is not None:
        oracle.note(manager.current_snapshot())
    if live:
        stream = _UpdateStream(service, oracle, config, hot)

    # Subgraph-size and per-hop-discovery samples across all submissions.
    subgraph_nodes: "list[float]" = []
    subgraph_nnz: "list[float]" = []
    hop_totals: "dict[int, int]" = {}
    size_lock = threading.Lock()

    def note_submission(submission) -> None:
        with size_lock:
            subgraph_nodes.append(float(submission.subgraph.n_nodes))
            subgraph_nnz.append(float(submission.subgraph.nnz))
            for hop, count in enumerate(submission.subgraph.hop_counts):
                hop_totals[hop] = hop_totals.get(hop, 0) + count

    def harvest(submission) -> None:
        response = submission.future.result()
        tally.absorb(response)
        if not (response.ok and config.verify):
            return
        if manager is not None:
            pinned = (
                oracle.matrix_for(response.epoch)
                if response.epoch is not None
                else None
            )
            if pinned is None:
                verifier.unknown_epoch()
                return
            base = pinned
        else:
            base = hot
        verifier.check_ego(
            scipy_cache.get(base),
            submission.subgraph.nodes,
            features,
            response.output,
        )

    route = config.datasets[0]
    started = time.perf_counter()
    if stream is not None:
        stream.start()
    try:
        if config.mode == "open":
            inflight: list = []
            for seed_node in seeds:
                submission = service.submit_ego(
                    int(seed_node),
                    features,
                    matrix=None if manager is not None else hot,
                    fanouts=config.fanouts,
                    deadline_ms=config.deadline_ms,
                    route=route,
                )
                note_submission(submission)
                inflight.append(submission)
                if len(inflight) >= _HARVEST_WINDOW:
                    harvest(inflight.pop(0))
                time.sleep(rng.exponential(1.0 / config.rate))
            for submission in inflight:
                harvest(submission)
        else:
            per_client = np.array_split(seeds, config.concurrency)

            def client(client_id: int, assigned: np.ndarray) -> None:
                for seed_node in assigned:
                    submission = service.submit_ego(
                        int(seed_node),
                        features,
                        matrix=None if manager is not None else hot,
                        fanouts=config.fanouts,
                        deadline_ms=config.deadline_ms,
                        route=route,
                    )
                    note_submission(submission)
                    harvest(submission)

            with ThreadPoolExecutor(max_workers=config.concurrency) as pool:
                futures = [
                    pool.submit(client, i, assigned)
                    for i, assigned in enumerate(per_client)
                ]
                for future in futures:
                    future.result()
    finally:
        update_stream = stream.stop() if stream is not None else None
    elapsed = time.perf_counter() - started

    throughput = tally.accepted / elapsed if elapsed > 0 else 0.0
    extra = {
        "elapsed_seconds": elapsed,
        "throughput_rps": throughput,
        "modeled": None,
        "attribution_ms": tally.attribution_ms(),
        "events": dict(tally.events),
        "update_stream": update_stream,
        "ego": {
            "fanouts": list(config.fanouts),
            "subgraph_nodes": percentiles(subgraph_nodes),
            "subgraph_nnz": percentiles(subgraph_nnz),
            "hop_discovered": {
                str(hop): count for hop, count in sorted(hop_totals.items())
            },
        },
    }
    return tally, verifier, extra


@obs.instrumented
def run_steady(
    config: BenchConfig, service: InferenceService
) -> "tuple[_ScenarioTally, _Verifier, dict]":
    """Drive the steady scenario; returns tally, verifier, modeled block."""
    if config.workload == "ego":
        return run_steady_ego(config, service)
    rng = np.random.default_rng(config.seed)
    matrices = load_traffic_matrices(config)
    weights = zipf_weights(len(matrices), config.zipf_s)
    choices = rng.choice(len(matrices), size=config.requests, p=weights)
    tally = _ScenarioTally()
    verifier = _Verifier()
    modeled_cache: dict = {}
    modeled_us = [
        _modeled_microseconds(matrices[int(i)], config.dim, modeled_cache)
        for i in choices
    ]

    # Live-update stream: when enabled the hottest dataset is served
    # epoch-managed (submitted as matrix=None, pinning each request to
    # its admitted epoch) while edge updates land concurrently.
    manager = service.epoch_manager
    live = manager is not None and config.update_rate > 0
    oracle = _EpochOracle()
    stream: "_UpdateStream | None" = None
    if live:
        oracle.note(manager.current_snapshot())
        stream = _UpdateStream(service, oracle, config, matrices[0])

    def harvest(entry) -> None:
        matrix, dense, future = entry
        response = future.result()
        tally.absorb(response)
        if response.ok and config.verify:
            if matrix is None:
                # Epoch-managed request: verify against the graph of the
                # epoch it admitted under, not the current one.
                pinned = (
                    oracle.matrix_for(response.epoch)
                    if response.epoch is not None
                    else None
                )
                if pinned is None:
                    verifier.unknown_epoch()
                else:
                    verifier.check(pinned, dense, response.output)
            else:
                verifier.check(matrix, dense, response.output)

    started = time.perf_counter()
    if stream is not None:
        stream.start()
    try:
        if config.mode == "open":
            inflight: list = []
            for idx in choices:
                matrix = matrices[int(idx)]
                dense = rng.random((matrix.n_cols, config.dim))
                submitted = None if live and int(idx) == 0 else matrix
                inflight.append(
                    (
                        submitted,
                        dense,
                        service.submit(
                            submitted,
                            dense,
                            deadline_ms=config.deadline_ms,
                            route=config.datasets[int(idx)],
                        ),
                    )
                )
                if len(inflight) >= _HARVEST_WINDOW:
                    harvest(inflight.pop(0))
                time.sleep(rng.exponential(1.0 / config.rate))
            for entry in inflight:
                harvest(entry)
        else:
            per_client = np.array_split(choices, config.concurrency)

            def client(client_id: int, assigned: np.ndarray) -> None:
                client_rng = np.random.default_rng(
                    (config.seed, client_id)
                )
                for idx in assigned:
                    matrix = matrices[int(idx)]
                    dense = client_rng.random((matrix.n_cols, config.dim))
                    submitted = None if live and int(idx) == 0 else matrix
                    harvest(
                        (
                            submitted,
                            dense,
                            service.submit(
                                submitted,
                                dense,
                                deadline_ms=config.deadline_ms,
                                route=config.datasets[int(idx)],
                            ),
                        )
                    )

            with ThreadPoolExecutor(max_workers=config.concurrency) as pool:
                futures = [
                    pool.submit(client, i, assigned)
                    for i, assigned in enumerate(per_client)
                ]
                for future in futures:
                    future.result()
    finally:
        update_stream = stream.stop() if stream is not None else None
    elapsed = time.perf_counter() - started

    p50, p95, p99 = np.percentile(modeled_us, [50, 95, 99])
    modeled = {
        "p50_us": float(p50),
        "p95_us": float(p95),
        "p99_us": float(p99),
        "mean_us": float(np.mean(modeled_us)),
    }
    throughput = tally.accepted / elapsed if elapsed > 0 else 0.0
    extra = {
        "elapsed_seconds": elapsed,
        "throughput_rps": throughput,
        "modeled": modeled,
        "attribution_ms": tally.attribution_ms(),
        "events": dict(tally.events),
        "update_stream": update_stream,
    }
    return tally, verifier, extra


@obs.instrumented
def run_overload(config: BenchConfig) -> "tuple[_ScenarioTally, _Verifier]":
    """Burst into a tiny queue; proves admission control sheds load."""
    rng = np.random.default_rng(config.seed + 1)
    matrix = load_traffic_matrices(config)[0]
    overload_cfg = ServeConfig(
        max_queue=4,
        max_batch=8,
        max_wait_ms=50.0,
        n_workers=1,
        request_timeout=config.service.request_timeout,
        isolation=config.service.isolation,
    )
    tally = _ScenarioTally()
    verifier = _Verifier()
    with InferenceService(config=overload_cfg) as service:
        inflight = []
        for _ in range(config.overload_requests):
            dense = rng.random((matrix.n_cols, config.dim))
            inflight.append((matrix, dense, service.submit(matrix, dense)))
        for entry_matrix, dense, future in inflight:
            response = future.result()
            tally.absorb(response)
            if response.ok and config.verify:
                verifier.check(entry_matrix, dense, response.output)
    return tally, verifier


@obs.instrumented
def run_bench(config: BenchConfig) -> dict:
    """Run both scenarios and assemble the ``BENCH_serve.json`` payload."""
    slo_tracker = SLOTracker(
        default_objective=SLObjective(
            p95_ms=config.slo_p95_ms, threshold_ms=config.slo_p95_ms
        )
    )
    flight_recorder = FlightRecorder(capacity=16)
    epoch_manager = None
    if config.update_rate > 0:
        # The hottest dataset becomes a live graph: requests against it
        # pin their admitted epoch while the update stream mutates it,
        # and for ego runs the neighbor-index cache is invalidated
        # epoch-precisely.
        hot = load_traffic_matrices(config)[0]
        epoch_manager = GraphEpochManager(
            DeltaCSR(hot, compact_threshold=config.compact_threshold),
            caches=(
                (get_neighbor_index_cache(),)
                if config.workload == "ego"
                else ()
            ),
        )
    with InferenceService(
        config=config.service,
        slo_tracker=slo_tracker,
        flight_recorder=flight_recorder,
        epoch_manager=epoch_manager,
    ) as service:
        with obs.span("serve.loadgen.steady", requests=config.requests):
            steady, steady_verifier, extra = run_steady(config, service)
        health = service.health()
        slo_report = slo_tracker.report()
        # Process-isolation tier: worker crash/restart/heartbeat and
        # zero-copy statistics, captured before the pool closes.
        procpool_stats = (
            service._proc_pool.snapshot()
            if service._proc_pool is not None
            else None
        )

    with obs.span("serve.loadgen.overload", requests=config.overload_requests):
        overload, overload_verifier = run_overload(config)

    silent_failures = steady_verifier.mismatches + overload_verifier.mismatches
    return {
        "seed": config.seed,
        "config": {
            "requests": config.requests,
            "mode": config.mode,
            "workload": config.workload,
            "fanouts": list(config.fanouts),
            "rate_rps": config.rate,
            "concurrency": config.concurrency,
            "dim": config.dim,
            "datasets": list(config.datasets),
            "scale": config.scale,
            "zipf_s": config.zipf_s,
            "max_queue": config.service.max_queue,
            "max_batch": config.service.max_batch,
            "max_wait_ms": config.service.max_wait_ms,
            "n_workers": config.service.n_workers,
            "isolation": config.service.isolation,
            "deadline_ms": config.deadline_ms,
            "update_rate": config.update_rate,
            "update_batch_max": config.update_batch_max,
            "compact_threshold": config.compact_threshold,
        },
        "steady": {
            "mode": config.mode,
            "requests": steady.requests,
            "accepted": steady.accepted,
            "rejected": steady.rejected,
            "errors": steady.errors,
            "deadline_misses": steady.deadline_misses,
            "fallbacks": steady.fallbacks,
            "verified": steady_verifier.verified,
            "mismatches": steady_verifier.mismatches,
            "throughput_rps": extra["throughput_rps"],
            "offered_rps": config.rate if config.mode == "open" else None,
            "elapsed_seconds": extra["elapsed_seconds"],
            "latency_ms": percentiles_ms(steady.latencies),
            "attribution_ms": extra["attribution_ms"],
            "events": extra["events"],
            "modeled": extra["modeled"],
            "batch_size_mean": (
                float(np.mean(steady.batch_sizes))
                if steady.batch_sizes
                else 0.0
            ),
            "backends": steady.backends,
            # Accepted responses per admitted graph epoch (empty without
            # an update stream) and the stream's own statistics.
            "epochs": {
                str(epoch): count
                for epoch, count in sorted(steady.epochs.items())
            },
            **(
                {"update_stream": extra["update_stream"]}
                if extra["update_stream"] is not None
                else {}
            ),
            # Ego workloads: subgraph-size distributions.
            **({"ego": extra["ego"]} if "ego" in extra else {}),
        },
        "overload": {
            "requests": overload.requests,
            "accepted": overload.accepted,
            "rejected": overload.rejected,
            "errors": overload.errors,
            "verified": overload_verifier.verified,
            "mismatches": overload_verifier.mismatches,
        },
        **({"procpool": procpool_stats} if procpool_stats is not None else {}),
        "health": health.to_dict(),
        "slo": slo_report,
        "flight_recorder": flight_recorder.to_dict(),
        "silent_failures": silent_failures,
    }


def render_summary(report: dict) -> str:
    """Human-readable one-screen summary of a bench report."""
    steady = report["steady"]
    overload = report["overload"]
    latency = steady["latency_ms"]
    backends = ", ".join(
        f"{name}={count}"
        for name, count in sorted(
            steady["backends"].items(), key=lambda kv: -kv[1]
        )
    )
    lines = [
        "serve-bench",
        f"  steady    : {steady['accepted']}/{steady['requests']} accepted, "
        f"{steady['rejected']} shed, {steady['errors']} errors, "
        f"{steady['throughput_rps']:.0f} req/s",
        f"  latency ms: p50={latency['p50']:.2f} p95={latency['p95']:.2f} "
        f"p99={latency['p99']:.2f} max={latency['max']:.2f}",
        "  stages p95: "
        + (
            " ".join(
                f"{stage}={stats['p95']:.2f}"
                for stage, stats in steady.get("attribution_ms", {}).items()
            )
            or "none"
        ),
        f"  backends  : {backends or 'none'}",
        f"  batching  : mean batch {steady['batch_size_mean']:.2f}",
        f"  overload  : {overload['rejected']}/{overload['requests']} shed "
        f"(bounded queue), {overload['accepted']} served",
        f"  verified  : {steady['verified'] + overload['verified']} responses, "
        f"{report['silent_failures']} silent failures",
    ]
    modeled = steady.get("modeled")
    if modeled is not None:
        lines.insert(
            3,
            f"  modeled us: p50={modeled['p50_us']:.1f} "
            f"p95={modeled['p95_us']:.1f} "
            f"p99={modeled['p99_us']:.1f}",
        )
    ego = steady.get("ego")
    if ego is not None:
        lines.append(
            f"  ego       : fanouts {ego['fanouts']}, subgraph p50 "
            f"{ego['subgraph_nodes']['p50']:.0f} nodes / "
            f"{ego['subgraph_nnz']['p50']:.0f} nnz"
        )
    if steady.get("deadline_misses"):
        lines.insert(
            2,
            f"  deadlines : {steady['deadline_misses']}/{steady['requests']} "
            "missed and shed",
        )
    stream = steady.get("update_stream")
    if stream is not None:
        epochs = steady.get("epochs", {})
        stream_epochs = stream.get("epochs", {})
        lines.append(
            f"  updates   : {stream['updates']} edge update(s) in "
            f"{stream['batches']} batch(es), {len(epochs)} epoch(s) served, "
            f"{stream_epochs.get('compactions', 0)} compaction(s), "
            f"{stream_epochs.get('retired_epochs', 0)} retirement(s)"
        )
    procpool = report.get("procpool")
    if procpool is not None:
        kills = ", ".join(
            f"{reason}={count}"
            for reason, count in sorted(procpool["kills"].items())
            if count
        )
        lines.append(
            f"  procpool  : {procpool['executed']} batch(es), "
            f"{procpool['supervisor']['restarts']} restart(s), "
            f"kills: {kills or 'none'}, "
            f"{procpool['quarantine']['active']} quarantined, "
            f"{procpool['zero_copy']['per_request_graph_bytes_copied']} "
            "graph bytes copied/request"
        )
    health = report.get("health")
    if health is not None:
        causes = ", ".join(c["kind"] for c in health["causes"]) or "none"
        lines.append(
            f"  health    : {health['status']} (causes: {causes})"
        )
    slo = report.get("slo")
    if slo is not None:
        exhausted = sorted(
            route
            for route, r in slo.get("routes", {}).items()
            if r["budget"]["exhausted"]
        )
        lines.append(
            f"  slo       : {len(slo.get('routes', {}))} route(s), worst "
            f"burn {slo.get('worst_burn_rate', 0.0):.2f}x"
            + (f", exhausted: {', '.join(exhausted)}" if exhausted else "")
        )
    return "\n".join(lines)


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point for ``python -m repro serve-bench``."""
    parser = argparse.ArgumentParser(
        prog="repro serve-bench",
        description=(
            "Drive synthetic Zipf/Poisson traffic through the serving "
            "layer and record throughput, latency percentiles and "
            "load-shedding statistics."
        ),
    )
    parser.add_argument("--requests", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--mode", choices=("open", "closed"), default="open",
        help="open-loop Poisson arrivals or closed-loop clients",
    )
    parser.add_argument(
        "--rate", type=float, default=400.0,
        help="open-loop offered load in requests/second",
    )
    parser.add_argument(
        "--concurrency", type=int, default=8,
        help="closed-loop client population",
    )
    parser.add_argument("--dim", type=int, default=16)
    parser.add_argument(
        "--workload", choices=("full", "ego"), default="full",
        help=(
            "full: Zipf-popular full-graph aggregations (default); "
            "ego: k-hop ego-sampled minibatch requests against the "
            "hottest dataset"
        ),
    )
    parser.add_argument(
        "--fanouts", default="10,5",
        help=(
            "comma-separated per-hop neighbor caps for --workload ego "
            "(-1 keeps all neighbors at a hop)"
        ),
    )
    parser.add_argument(
        "--datasets", default=",".join(DEFAULT_DATASETS),
        help="comma-separated Table II dataset names",
    )
    parser.add_argument(
        "--scale", type=float, default=0.25,
        help="dataset downscale factor in (0, 1]",
    )
    parser.add_argument("--zipf-s", type=float, default=1.1)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument(
        "--isolation", choices=("thread", "process"), default="thread",
        help=(
            "execution tier: in-process worker threads (default) or "
            "process-isolated subprocess workers over shared-memory "
            "graph segments (crash/hang/OOM containment; see "
            "docs/ROBUSTNESS.md)"
        ),
    )
    parser.add_argument("--max-batch", type=int, default=8)
    parser.add_argument("--max-wait-ms", type=float, default=2.0)
    parser.add_argument("--max-queue", type=int, default=64)
    parser.add_argument(
        "--timeout", type=float, default=None,
        help="per-batch wall-clock budget in seconds",
    )
    parser.add_argument(
        "--deadline-ms", type=float, default=None,
        help=(
            "per-request deadline in milliseconds; requests that expire "
            "in the queue are shed with deadline_exceeded before execution"
        ),
    )
    parser.add_argument(
        "--slo-p95-ms", type=float, default=250.0,
        help=(
            "per-route p95 latency objective in milliseconds (also the "
            "per-request error-budget threshold; see `repro slo-report`)"
        ),
    )
    parser.add_argument(
        "--update-rate", type=float, default=0.0,
        help=(
            "Poisson rate (batches/second) of live edge updates applied "
            "to the hottest dataset during the steady scenario; requests "
            "against it pin their admitted graph epoch and verify "
            "against exactly that epoch (0 disables)"
        ),
    )
    parser.add_argument(
        "--no-verify", action="store_true",
        help="skip the per-response oracle cross-check",
    )
    parser.add_argument(
        "--bench-dir", default=None,
        help="run-record directory (default: benchmarks/results)",
    )
    parser.add_argument(
        "--no-record", action="store_true",
        help="skip writing the BENCH_serve.json run record",
    )
    args = parser.parse_args(argv)

    config = BenchConfig(
        requests=args.requests,
        seed=args.seed,
        mode=args.mode,
        workload=args.workload,
        fanouts=tuple(
            int(f.strip()) for f in args.fanouts.split(",") if f.strip()
        ),
        rate=args.rate,
        concurrency=args.concurrency,
        dim=args.dim,
        datasets=tuple(
            name.strip() for name in args.datasets.split(",") if name.strip()
        ),
        scale=args.scale,
        zipf_s=args.zipf_s,
        verify=not args.no_verify,
        deadline_ms=args.deadline_ms,
        slo_p95_ms=args.slo_p95_ms,
        update_rate=args.update_rate,
        service=ServeConfig(
            max_queue=args.max_queue,
            max_batch=args.max_batch,
            max_wait_ms=args.max_wait_ms,
            n_workers=args.workers,
            request_timeout=args.timeout,
            isolation=args.isolation,
        ),
    )

    with obs.profiled() as session:
        report = run_bench(config)
    print(render_summary(report))

    passed = report["silent_failures"] == 0
    if not args.no_record:
        record = obs.run_record(
            "serve",
            metrics=session.snapshot(),
            wall_seconds=session.wall_seconds,
            status="ok" if passed else "silent-failures",
            extra={"serve": report},
        )
        path = obs.write_run_record(record, args.bench_dir)
        print(f"run record: {path}")
    return 0 if passed else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
