"""Tests for the process-isolated worker pool and its service wiring."""

import os
import select
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp

from repro.formats import CSRMatrix
from repro.graphs.generators import power_law_graph
from repro.resilience import faults
from repro.serve import procpool
from repro.serve.procpool import (
    QUARANTINED,
    WORKER_CRASHED,
    ProcessWorkerPool,
    ProcPoolConfig,
    QuarantinedError,
    WorkerCrashError,
    poison_key,
    rss_bytes,
)
from repro.serve.service import InferenceService, ServeConfig


def _matrix(seed: int = 0) -> CSRMatrix:
    return power_law_graph(n_nodes=40, nnz=200, max_degree=12, seed=seed)


def _config(**overrides) -> ProcPoolConfig:
    settings = dict(
        n_workers=2,
        heartbeat_interval=0.02,
        heartbeat_timeout=0.5,
        hang_timeout=0.6,
        poison_threshold=2,
        restart_budget=8,
        restart_window=60.0,
    )
    settings.update(overrides)
    return ProcPoolConfig(**settings)


def _wait_for(predicate, timeout=5.0, interval=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def _floor(matrix, dense):
    """scipy's product on fresh copies of the matrix's arrays."""
    reference = sp.csr_matrix(
        (matrix.values, matrix.column_indices, matrix.row_pointers),
        shape=matrix.shape,
        copy=True,
    )
    return reference @ dense


def _blocks(pool):
    """Live slot blocks by worker id."""
    with pool._cond:
        return {
            slot.worker_id: slot.block
            for slot in pool._slots.values()
            if slot.block is not None
        }


def _in_dev_shm(name):
    return os.path.exists(f"/dev/shm/{name}")


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_workers": 0},
            {"heartbeat_interval": 0.0},
            {"heartbeat_timeout": -1.0},
            {"hang_timeout": 0.0},
            {"poison_threshold": 0},
            {"quarantine_capacity": 0},
            {"segment_cache_capacity": 0},
            {"restart_budget": -1},
            {"start_method": "threads"},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ProcPoolConfig(**kwargs)


class TestPoisonKey:
    def test_deterministic_and_content_sensitive(self):
        matrix = _matrix()
        fp = matrix.fingerprint(include_values=True)
        dense = np.ones((matrix.n_cols, 4))
        assert poison_key(fp, dense) == poison_key(fp, dense.copy())
        other = dense.copy()
        other[0, 0] += 1.0
        assert poison_key(fp, dense) != poison_key(fp, other)
        assert poison_key(fp, dense) != poison_key(fp + "x", dense)


class TestRssBytes:
    def test_own_rss_is_positive(self):
        assert rss_bytes() > 0

    def test_unknown_pid_reports_zero(self):
        assert rss_bytes(2**22 + 12345) == 0


class TestProcessWorkerPool:
    def test_executes_correctly_with_zero_graph_copy(self):
        matrix = _matrix()
        dense = np.random.default_rng(0).random((matrix.n_cols, 4))
        with ProcessWorkerPool(_config(n_workers=1)) as pool:
            result = pool.execute(matrix, dense)
            np.testing.assert_allclose(
                result.output, matrix.multiply_dense(dense),
                rtol=1e-12, atol=1e-12,
            )
            assert result.copied_bytes == 0
            assert result.kernel_seconds >= 0.0
            assert result.ipc_seconds >= 0.0
            # A second request over the same graph reuses the segment.
            pool.execute(matrix, dense)
            snapshot = pool.snapshot()
            assert snapshot["executed"] == 2
            assert snapshot["segments"]["active"] == 1
            assert snapshot["zero_copy"]["per_request_graph_bytes_copied"] == 0

    def test_crash_contained_and_respawned(self):
        matrix = _matrix(1)
        dense = np.ones((matrix.n_cols, 3))
        with ProcessWorkerPool(_config()) as pool:
            with faults.inject(seed=0, crash_proc=1.0):
                with pytest.raises(WorkerCrashError) as excinfo:
                    pool.execute(matrix, dense)
            assert excinfo.value.reason == "crash"
            assert excinfo.value.status == WORKER_CRASHED
            # The supervisor respawns; the pool keeps serving.
            result = pool.execute(matrix, dense)
            np.testing.assert_allclose(
                result.output, matrix.multiply_dense(dense)
            )
            assert pool.supervisor.restarts >= 1

    def test_hang_is_reaped_at_the_budget(self):
        matrix = _matrix(2)
        dense = np.ones((matrix.n_cols, 2))
        with ProcessWorkerPool(_config(n_workers=1)) as pool:
            started = time.monotonic()
            with faults.inject(seed=0, hang_proc=1.0):
                with pytest.raises(WorkerCrashError) as excinfo:
                    pool.execute(matrix, dense, timeout=0.3)
            elapsed = time.monotonic() - started
            assert excinfo.value.reason == "hang-timeout"
            assert elapsed < 5.0
            assert pool.kills["hang-timeout"] == 1

    def test_poison_key_quarantined_after_threshold(self):
        matrix = _matrix(3)
        dense = np.ones((matrix.n_cols, 2))
        key = poison_key(matrix.fingerprint(include_values=True), dense)
        with ProcessWorkerPool(_config(poison_threshold=2)) as pool:
            with faults.inject(seed=0, crash_proc=1.0):
                for _ in range(2):
                    with pytest.raises(WorkerCrashError):
                        pool.execute(matrix, dense, keys=(key,))
            assert pool.is_quarantined(key)
            assert pool.quarantine_size() == 1
            # The quarantined content fails fast without touching a worker.
            restarts = pool.supervisor.restarts
            with pytest.raises(QuarantinedError) as excinfo:
                pool.execute(matrix, dense, keys=(key,))
            assert excinfo.value.status == QUARANTINED
            assert pool.supervisor.restarts == restarts
            # Different content still serves.
            other = dense + 1.0
            other_key = poison_key(
                matrix.fingerprint(include_values=True), other
            )
            result = pool.execute(matrix, other, keys=(other_key,))
            np.testing.assert_allclose(
                result.output, matrix.multiply_dense(other)
            )

    def test_torn_segment_detected_republished_and_retried(self):
        matrix = _matrix(4)
        dense = np.random.default_rng(4).random((matrix.n_cols, 3))
        with ProcessWorkerPool(_config()) as pool:
            pool.execute(matrix, dense)
            with pool._seg_lock:
                segment = next(iter(pool._segments.values()))
            buffer = segment.buffer()
            offset = segment.meta.values_offset
            buffer[offset] = buffer[offset] ^ 0xFF
            # Respawned workers must re-attach (and re-verify) the pages.
            killed = set()
            with pool._cond:
                for slot in pool._slots.values():
                    if not slot.dead and slot.proc.is_alive():
                        killed.add(slot.proc.pid)
            for pid in killed:
                os.kill(pid, signal.SIGKILL)
            assert _wait_for(
                lambda: len(
                    {
                        s.proc.pid
                        for s in list(pool._slots.values())
                        if not s.dead and s.proc.is_alive()
                    }
                    - killed
                )
                >= pool.config.n_workers
            )
            result = pool.execute(matrix, dense)
            np.testing.assert_allclose(
                result.output, matrix.multiply_dense(dense),
                rtol=1e-12, atol=1e-12,
            )
            assert pool.republished >= 1

    def test_closed_pool_refuses_work(self):
        matrix = _matrix(5)
        pool = ProcessWorkerPool(_config(n_workers=1))
        pool.start()
        pool.close()
        from repro.serve.procpool import PoolError

        with pytest.raises(PoolError):
            pool.execute(matrix, np.ones((matrix.n_cols, 1)))


class TestSegments:
    def test_racing_first_uses_publish_once(self, monkeypatch):
        # Eight threads ask for a fresh matrix's segment at once: one
        # publishes, the rest wait for it, and all get the same segment.
        matrix = _matrix(7)
        published = []
        original = procpool.publish_csr

        def slow_publish(m):
            published.append(1)
            time.sleep(0.05)
            return original(m)

        monkeypatch.setattr(procpool, "publish_csr", slow_publish)
        pool = ProcessWorkerPool(_config(n_workers=1))
        barrier = threading.Barrier(8)

        def first_use():
            barrier.wait(timeout=10.0)
            return pool.segment_for(matrix)

        try:
            with ThreadPoolExecutor(max_workers=8) as threads:
                futures = [threads.submit(first_use) for _ in range(8)]
                segments = [future.result(timeout=30.0) for future in futures]
            assert len(published) == 1
            assert len({id(segment) for segment in segments}) == 1
            assert pool.snapshot()["segments"]["active"] == 1
        finally:
            pool.close()

    def test_failed_publish_raises_for_every_waiter(self, monkeypatch):
        matrix = _matrix(8)
        calls = []
        release = threading.Event()

        def failing_publish(m):
            calls.append(1)
            release.wait(5.0)
            raise OSError("no space left for the segment")

        monkeypatch.setattr(procpool, "publish_csr", failing_publish)
        pool = ProcessWorkerPool(_config(n_workers=1))
        try:
            with ThreadPoolExecutor(max_workers=3) as threads:
                futures = [
                    threads.submit(pool.segment_for, matrix) for _ in range(3)
                ]
                assert _wait_for(lambda: calls)
                time.sleep(0.05)
                release.set()
                for future in futures:
                    with pytest.raises(OSError, match="no space"):
                        future.result(timeout=10.0)
            # A failed publish is forgotten: the next first use publishes.
            monkeypatch.undo()
            assert pool.segment_for(matrix).meta.nnz == matrix.nnz
        finally:
            pool.close()


class TestSlotBlocks:
    """Each worker slot owns one block for its operand and product."""

    def test_mixed_traffic_keeps_one_grown_block_per_slot(self):
        graphs = (
            _matrix(10),
            power_law_graph(n_nodes=90, nnz=500, max_degree=16, seed=11),
        )
        widths = (2, 5, 8)
        before = set(os.listdir("/dev/shm"))
        largest: "dict[int, int]" = {}  # worker id -> batch bytes

        with ProcessWorkerPool(_config(hang_timeout=10.0)) as pool:

            def client(index):
                rng = np.random.default_rng(index)
                runs = []
                for k in range(15):
                    matrix = graphs[(index + k) % 2]
                    dense = rng.random((matrix.n_cols, widths[k % 3]))
                    result = pool.execute(matrix, dense)
                    assert np.array_equal(result.output, _floor(matrix, dense))
                    runs.append(
                        (result.worker_id, dense.nbytes + result.output.nbytes)
                    )
                return runs

            # Four callers on two workers, switching threads every
            # microsecond: a block handed to two batches at once, or read
            # after its slot moved on, shows as a wrong product.
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                with ThreadPoolExecutor(4) as threads:
                    for runs in threads.map(client, range(4), timeout=60.0):
                        for worker_id, nbytes in runs:
                            largest[worker_id] = max(
                                largest.get(worker_id, 0), nbytes
                            )
            finally:
                sys.setswitchinterval(interval)
            blocks = _blocks(pool)
            with pool._seg_lock:
                segments = {seg.name for seg in pool._segments.values()}
            created = set(os.listdir("/dev/shm")) - before - segments
            assert pool.snapshot()["executed"] == 60
            # Growth unlinks the old block, so at most one per slot lives.
            assert created == {block.name for block in blocks.values()}
            assert 1 <= len(blocks) <= pool.config.n_workers
            for worker_id, block in blocks.items():
                assert block.size >= largest[worker_id]
        assert set(os.listdir("/dev/shm")) - before == set()

    def test_output_outlives_later_requests_on_the_slot(self):
        matrix = _matrix(12)
        rng = np.random.default_rng(12)
        dense = rng.random((matrix.n_cols, 4))
        with ProcessWorkerPool(_config(n_workers=1)) as pool:
            first = pool.execute(matrix, dense)
            # Same block twice, then a wider batch that grows it.
            for width in (4, 4, 9):
                pool.execute(matrix, rng.random((matrix.n_cols, width)))
            assert first.output.base is None
            assert np.array_equal(first.output, _floor(matrix, dense))

    def test_dropped_block_stays_mapped_under_a_held_view(self):
        # What a worker's death does while execute() is still copying
        # through the slot's view: the name goes, the pages stay.
        matrix = _matrix(14)
        dense = np.random.default_rng(14).random((matrix.n_cols, 3))
        with ProcessWorkerPool(_config(n_workers=1)) as pool:
            pool.execute(matrix, dense)
            with pool._cond:
                (slot,) = pool._slots.values()
            words, name = slot.words, slot.block.name
            pool._drop_block(slot)
            assert not _in_dev_shm(name)
            staged = words[: dense.size].reshape(dense.shape)
            assert np.array_equal(staged, dense)
            assert np.array_equal(pool.execute(matrix, dense).output,
                                  _floor(matrix, dense))

    def test_killed_workers_block_is_unlinked(self):
        matrix = _matrix(13)
        dense = np.random.default_rng(13).random((matrix.n_cols, 3))
        with ProcessWorkerPool(_config(n_workers=1)) as pool:
            pool.execute(matrix, dense)
            with pool._cond:
                (slot,) = pool._slots.values()
            old_name = slot.block.name
            assert _in_dev_shm(old_name)
            os.kill(slot.proc.pid, signal.SIGKILL)
            assert _wait_for(lambda: not _in_dev_shm(old_name))
            result = pool.execute(matrix, dense)
            assert np.array_equal(result.output, _floor(matrix, dense))
            (block,) = _blocks(pool).values()
            assert block.name != old_name
            assert _in_dev_shm(block.name)


#: Builds a two-worker pool, serves one request, writes the worker pids to
#: ``argv[1]`` and SIGKILLs itself, so the pool never closes.
_ORPHANING_PARENT = """
import os, signal, sys
import numpy as np
from repro.formats import CSRMatrix
from repro.serve.procpool import ProcessWorkerPool, ProcPoolConfig

pool = ProcessWorkerPool(ProcPoolConfig(n_workers=2)).start()
pool.execute(CSRMatrix.identity(4), np.ones((4, 2)))
with pool._cond:
    pids = [slot.proc.pid for slot in pool._slots.values()]
with open(sys.argv[1], "w") as handle:
    handle.write(" ".join(map(str, pids)))
os.kill(os.getpid(), signal.SIGKILL)
"""


def _running(pid: int) -> bool:
    """Whether ``pid`` exists and has not exited (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state not in ("Z", "X")


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads /proc"
)
class TestKilledParent:
    def test_workers_exit_and_release_inherited_pipes(self, tmp_path):
        pid_file = tmp_path / "pids"
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        # The workers inherit the write end from the parent; only their
        # exit lets the read end see EOF.
        read_fd, write_fd = os.pipe()
        try:
            parent = subprocess.Popen(
                [sys.executable, "-c", _ORPHANING_PARENT, str(pid_file)],
                env=env, pass_fds=(write_fd,),
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            )
            os.close(write_fd)
            assert parent.wait(timeout=60) == -signal.SIGKILL
            pids = [int(pid) for pid in pid_file.read_text().split()]
            assert len(pids) == 2
            assert _wait_for(
                lambda: not any(map(_running, pids)), timeout=2.0
            ), [pid for pid in pids if _running(pid)]
            readable, _, _ = select.select([read_fd], [], [], 2.0)
            assert readable and os.read(read_fd, 1) == b""
        finally:
            os.close(read_fd)
            for pid in pids if "pids" in locals() else ():
                if _running(pid):
                    os.kill(pid, signal.SIGKILL)


class TestPipeCarriesNoArrays:
    def test_five_megabyte_operand_stays_off_the_pipe(self):
        matrix = power_law_graph(
            n_nodes=20_000, nnz=60_000, max_degree=200, seed=14
        )
        dense = np.random.default_rng(14).random((matrix.n_cols, 32))
        assert dense.nbytes == 5_120_000
        config = ServeConfig(
            isolation="process", n_workers=1, request_timeout=30.0
        )
        with InferenceService(
            config=config, proc_config=_config(n_workers=1, hang_timeout=30.0)
        ) as service:
            response = service.submit(matrix, dense).result(timeout=60.0)
            snapshot = service.health().snapshot
        assert response.ok, response.error
        zero_copy = snapshot["procpool"]["zero_copy"]
        assert 0 < zero_copy["max_message_bytes"] < 4096


class TestServiceProcessIsolation:
    def _service(self, **proc_overrides):
        return InferenceService(
            config=ServeConfig(
                max_queue=64,
                max_batch=2,
                n_workers=2,
                verify=True,
                request_timeout=5.0,
                isolation="process",
            ),
            proc_config=_config(**proc_overrides),
        )

    def test_isolation_validated(self):
        for isolation in ("container", "shard"):
            with pytest.raises(ValueError):
                ServeConfig(isolation=isolation)

    def test_serves_and_attributes_ipc(self):
        matrix = _matrix(6)
        dense = np.random.default_rng(6).random((matrix.n_cols, 4))
        with self._service() as service:
            response = service.submit(matrix, dense).result(timeout=30.0)
            assert response.ok
            np.testing.assert_allclose(
                response.output, matrix.multiply_dense(dense),
                rtol=1e-9, atol=1e-9,
            )
            assert response.backend == "procpool"
            stages = response.attribution["stages"]
            assert "ipc" in stages
            assert "kernel" in stages
            health = service.health()
            assert "procpool" in health.snapshot
            zero_copy = health.snapshot["procpool"]["zero_copy"]
            assert zero_copy["per_request_graph_bytes_copied"] == 0

    def test_kill_worker_mid_batch_fails_only_that_batch(self):
        """A SIGKILLed worker takes down exactly its batch; queued
        requests still complete and the pool respawns."""
        matrix = _matrix(7)
        rng = np.random.default_rng(7)
        with self._service() as service:
            pool = service._proc_pool
            with faults.inject(
                seed=0, delay_proc=1.0, delay_proc_seconds=0.4
            ):
                victim_dense = rng.random((matrix.n_cols, 3))
                victim = service.submit(matrix, victim_dense)
                assert _wait_for(
                    lambda: any(
                        s.job is not None
                        for s in list(pool._slots.values())
                        if not s.dead
                    )
                )
            # Aim at the victim's worker before anything else goes busy.
            with pool._cond:
                busy = [
                    s.proc.pid
                    for s in list(pool._slots.values())
                    if s.job is not None and not s.dead and s.proc.is_alive()
                ]
            queued = []
            for _ in range(3):
                dense = rng.random((matrix.n_cols, 3))
                queued.append((dense, service.submit(matrix, dense)))
            for pid in busy:
                os.kill(pid, signal.SIGKILL)
            victim_response = victim.result(timeout=30.0)
            assert victim_response.status == WORKER_CRASHED
            assert victim_response.output is None
            for dense, future in queued:
                response = future.result(timeout=30.0)
                assert response.ok, response.error
                np.testing.assert_allclose(
                    response.output, matrix.multiply_dense(dense),
                    rtol=1e-9, atol=1e-9,
                )
            assert _wait_for(lambda: pool.supervisor.restarts >= 1)

    def test_quarantined_content_is_refused_at_admission(self):
        matrix = _matrix(8)
        dense = np.ones((matrix.n_cols, 2))
        with self._service() as service:
            with faults.inject(seed=0, crash_proc=1.0):
                for _ in range(2):
                    response = service.submit(matrix, dense).result(
                        timeout=30.0
                    )
                    assert response.status == WORKER_CRASHED
            refused = service.submit(matrix, dense).result(timeout=30.0)
            assert refused.status == QUARANTINED
            health = service.health()
            assert any(
                cause.kind == "worker-quarantine-active"
                for cause in health.causes
            )
            # Different content keeps serving.
            other = dense + 1.0
            response = service.submit(matrix, other).result(timeout=30.0)
            assert response.ok, response.error

    def test_healthy_request_never_hashes_a_poison_key(self, monkeypatch):
        # A poison key is a pass over the whole dense operand: with an
        # empty quarantine set and no worker deaths none is ever needed.
        import repro.serve.procpool as procpool_module
        import repro.serve.service as service_module

        calls = []

        def spy(fingerprint, dense):
            calls.append(fingerprint)
            return poison_key(fingerprint, dense)

        monkeypatch.setattr(procpool_module, "poison_key", spy)
        monkeypatch.setattr(service_module, "poison_key", spy)
        matrix = _matrix(9)
        dense = np.random.default_rng(9).random((matrix.n_cols, 4))
        with self._service() as service:
            response = service.submit(matrix, dense).result(timeout=30.0)
        assert response.ok, response.error
        assert calls == []
