"""Unit tests for the failure-domain guard (worker supervision)."""

import threading
import time

import pytest

from repro.serve.guard import WorkerSupervisor


class _Clock:
    """Manually advanced monotonic clock."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _worker_factory(behaviour):
    """Spawn factory whose workers run ``behaviour(worker_id, supervisor)``."""
    box = {}

    def spawn(worker_id):
        def target():
            try:
                behaviour(worker_id, box["supervisor"])
            except Exception as exc:
                box["supervisor"].note_crash(worker_id, exc)
            else:
                box["supervisor"].note_exit(worker_id)

        return threading.Thread(target=target, daemon=True)

    return spawn, box


class TestWorkerSupervisor:
    def test_starts_requested_pool(self):
        release = threading.Event()

        def behaviour(worker_id, supervisor):
            release.wait(timeout=5.0)

        spawn, box = _worker_factory(behaviour)
        supervisor = WorkerSupervisor(spawn, n_workers=3)
        box["supervisor"] = supervisor
        supervisor.start()
        try:
            assert supervisor.alive_count() == 3
        finally:
            release.set()
            supervisor.join()
        assert supervisor.alive_count() == 0
        assert supervisor.restarts == 0

    def test_crash_respawns_within_budget(self):
        crashes_left = [2]
        release = threading.Event()

        def behaviour(worker_id, supervisor):
            if crashes_left[0] > 0:
                crashes_left[0] -= 1
                raise RuntimeError(f"worker {worker_id} boom")
            release.wait(timeout=5.0)

        spawn, box = _worker_factory(behaviour)
        supervisor = WorkerSupervisor(spawn, n_workers=1, restart_budget=5)
        box["supervisor"] = supervisor
        supervisor.start()
        try:
            deadline = time.monotonic() + 5.0
            while supervisor.restarts < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert supervisor.restarts == 2
            assert supervisor.alive_count() == 1
            assert len(supervisor.crashes) == 2
            assert not supervisor.exhausted
        finally:
            release.set()
            supervisor.join()

    def test_budget_exhaustion_fires_callback_once(self):
        fired = []

        def behaviour(worker_id, supervisor):
            raise RuntimeError("always crashes")

        spawn, box = _worker_factory(behaviour)
        supervisor = WorkerSupervisor(
            spawn, n_workers=1, restart_budget=2, on_exhausted=lambda: fired.append(1)
        )
        box["supervisor"] = supervisor
        supervisor.start()
        supervisor.join()
        assert supervisor.exhausted
        assert supervisor.restarts == 2
        assert len(supervisor.crashes) == 3  # initial + 2 respawns
        assert fired == [1]
        assert supervisor.alive_count() == 0

    def test_zero_budget_exhausts_on_first_crash(self):
        def behaviour(worker_id, supervisor):
            raise RuntimeError("boom")

        spawn, box = _worker_factory(behaviour)
        supervisor = WorkerSupervisor(spawn, n_workers=1, restart_budget=0)
        box["supervisor"] = supervisor
        supervisor.start()
        supervisor.join()
        assert supervisor.exhausted
        assert supervisor.restarts == 0

    def test_recent_crashes_windowing(self):
        clock = _Clock()

        def behaviour(worker_id, supervisor):
            raise RuntimeError("boom")

        spawn, box = _worker_factory(behaviour)
        supervisor = WorkerSupervisor(
            spawn, n_workers=1, restart_budget=0, clock=clock
        )
        box["supervisor"] = supervisor
        supervisor.start()
        supervisor.join()
        assert supervisor.recent_crashes(1.0) == 1
        clock.advance(5.0)
        assert supervisor.recent_crashes(1.0) == 0

    def test_validation(self):
        spawn, _ = _worker_factory(lambda *a: None)
        with pytest.raises(ValueError):
            WorkerSupervisor(spawn, n_workers=0)
        with pytest.raises(ValueError):
            WorkerSupervisor(spawn, n_workers=1, restart_budget=-1)

    def test_snapshot_shape(self):
        def behaviour(worker_id, supervisor):
            raise RuntimeError("boom")

        spawn, box = _worker_factory(behaviour)
        supervisor = WorkerSupervisor(spawn, n_workers=1, restart_budget=0)
        box["supervisor"] = supervisor
        supervisor.start()
        supervisor.join()
        snap = supervisor.snapshot()
        assert snap["exhausted"] is True
        assert snap["crashes"] == 1
        assert snap["last_crash"]["error"].startswith("RuntimeError")


class TestWindowedRestartBudget:
    """The sliding-window budget semantics (``restart_window``)."""

    def _idle_supervisor(self, clock, **kwargs):
        release = threading.Event()

        def behaviour(worker_id, supervisor):
            release.wait(timeout=10.0)

        spawn, box = _worker_factory(behaviour)
        supervisor = WorkerSupervisor(spawn, n_workers=1, clock=clock, **kwargs)
        box["supervisor"] = supervisor
        supervisor.start()
        return supervisor, release

    def test_budget_replenishes_as_crashes_age_out(self):
        clock = _Clock()
        supervisor, release = self._idle_supervisor(
            clock, restart_budget=2, restart_window=10.0
        )
        try:
            assert supervisor.note_crash(0, RuntimeError("a"))
            assert supervisor.note_crash(1, RuntimeError("b"))
            assert supervisor.restarts == 2
            # A burst now would exhaust; spread past the window it doesn't.
            clock.advance(11.0)
            assert supervisor.note_crash(2, RuntimeError("c"))
            assert supervisor.restarts == 3
            assert not supervisor.exhausted
            snap = supervisor.snapshot()
            assert snap["restart_window"] == 10.0
            assert snap["restarts_in_window"] == 1
        finally:
            release.set()
            supervisor.join()

    def test_burst_within_window_exhausts(self):
        clock = _Clock()
        fired = []
        supervisor, release = self._idle_supervisor(
            clock,
            restart_budget=2,
            restart_window=10.0,
            on_exhausted=lambda: fired.append(1),
        )
        try:
            assert supervisor.note_crash(0, RuntimeError("a"))
            clock.advance(1.0)
            assert supervisor.note_crash(1, RuntimeError("b"))
            clock.advance(1.0)
            assert not supervisor.note_crash(2, RuntimeError("c"))
            assert supervisor.exhausted
            assert fired == [1]
        finally:
            release.set()
            supervisor.join()

    def test_window_none_keeps_lifetime_total_semantics(self):
        clock = _Clock()
        supervisor, release = self._idle_supervisor(
            clock, restart_budget=2, restart_window=None
        )
        try:
            assert supervisor.note_crash(0, RuntimeError("a"))
            assert supervisor.note_crash(1, RuntimeError("b"))
            # No amount of elapsed time replenishes a lifetime budget.
            clock.advance(10_000.0)
            assert not supervisor.note_crash(2, RuntimeError("c"))
            assert supervisor.exhausted
            assert supervisor.snapshot()["restarts_in_window"] is None
        finally:
            release.set()
            supervisor.join()

    def test_window_validation(self):
        spawn, _ = _worker_factory(lambda *a: None)
        with pytest.raises(ValueError):
            WorkerSupervisor(spawn, n_workers=1, restart_window=0.0)
        with pytest.raises(ValueError):
            WorkerSupervisor(spawn, n_workers=1, restart_window=-5.0)
