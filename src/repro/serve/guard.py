"""Failure-domain guard for the serving layer: worker supervision.

:class:`WorkerSupervisor` owns the service's worker threads (and, via
:mod:`repro.serve.procpool`, its worker subprocesses).  When a worker
dies of an uncaught exception (anything outside the per-batch error
handler) the supervisor records the crash and respawns a replacement, up
to a restart budget; past the budget it declares the pool *exhausted*
and fires a callback so the service can fail queued work instead of
hanging it.

It is deliberately free of serving-layer imports so it can be unit
tested with fake clocks and crash-on-demand threads, and it emits
``repro.obs`` counters (``serve.supervisor.*``).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable

from repro import obs


class WorkerPoolExhausted(RuntimeError):
    """The supervisor's restart budget is spent; the pool stays down."""


class WorkerSupervisor:
    """Spawns, watches, and respawns a pool of worker threads.

    Args:
        spawn: ``(worker_id) -> threading.Thread`` factory returning an
            *unstarted* thread whose target reports termination through
            :meth:`note_crash` / :meth:`note_exit`.
        n_workers: Initial pool size.
        restart_budget: Respawns allowed per ``restart_window`` seconds;
            the budget bounds crash loops.
        restart_window: Length of the sliding window the budget applies
            to.  A sustained crash *rate* above ``restart_budget`` per
            window exhausts the pool, while isolated transient bursts
            spread over a long-running service's lifetime do not.
            ``None`` restores the historical lifetime-total semantics
            (the budget never replenishes).
        on_exhausted: Callback fired once when the budget runs out (the
            service uses it to fail queued work instead of hanging it).
        clock: Monotonic clock injection point for tests.
    """

    def __init__(
        self,
        spawn: Callable[[int], threading.Thread],
        n_workers: int,
        *,
        restart_budget: int = 3,
        restart_window: "float | None" = None,
        on_exhausted: "Callable[[], None] | None" = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if restart_budget < 0:
            raise ValueError(
                f"restart_budget must be >= 0, got {restart_budget}"
            )
        if restart_window is not None and restart_window <= 0:
            raise ValueError(
                f"restart_window must be positive or None, got {restart_window}"
            )
        self._spawn = spawn
        self.n_workers = n_workers
        self.restart_budget = restart_budget
        self.restart_window = restart_window
        self._on_exhausted = on_exhausted
        self._clock = clock
        self._lock = threading.Lock()
        self._threads: "dict[int, threading.Thread]" = {}
        self._next_id = 0
        self.restarts = 0
        self._restart_times: "deque[float]" = deque()
        self.crashes: "list[dict]" = []
        self.exhausted = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the initial pool."""
        with self._lock:
            for _ in range(self.n_workers):
                self._spawn_locked()

    def _spawn_locked(self) -> None:
        worker_id = self._next_id
        self._next_id += 1
        thread = self._spawn(worker_id)
        self._threads[worker_id] = thread
        thread.start()

    def join(self) -> None:
        """Join every worker, including replacements spawned mid-join."""
        while True:
            with self._lock:
                pending = [t for t in self._threads.values() if t.is_alive()]
            if not pending:
                return
            for thread in pending:
                thread.join()

    # ------------------------------------------------------------------
    # Termination reports (called from inside the dying worker)
    # ------------------------------------------------------------------
    def note_exit(self, worker_id: int) -> None:
        """A worker finished cleanly (service drain/close)."""
        with self._lock:
            self._threads.pop(worker_id, None)

    def _budget_left_locked(self, now: float) -> bool:
        """Whether the (possibly windowed) restart budget has room."""
        if self.restart_window is None:
            return self.restarts < self.restart_budget
        cutoff = now - self.restart_window
        while self._restart_times and self._restart_times[0] < cutoff:
            self._restart_times.popleft()
        return len(self._restart_times) < self.restart_budget

    def note_crash(self, worker_id: int, exc: BaseException) -> bool:
        """A worker died of ``exc``; respawn within budget.

        Returns ``True`` when a replacement was spawned, ``False`` when
        the budget is exhausted (the ``on_exhausted`` callback fires
        exactly once, outside the lock).
        """
        fire_exhausted = False
        with self._lock:
            self._threads.pop(worker_id, None)
            now = self._clock()
            self.crashes.append(
                {
                    "worker_id": worker_id,
                    "error": f"{type(exc).__name__}: {exc}",
                    "at": now,
                }
            )
            obs.counter("serve.supervisor.crashes").inc()
            if self._budget_left_locked(now):
                self.restarts += 1
                self._restart_times.append(now)
                obs.counter("serve.supervisor.restarts").inc()
                self._spawn_locked()
                respawned = True
            else:
                respawned = False
                if not self.exhausted:
                    self.exhausted = True
                    fire_exhausted = True
                    obs.gauge("serve.supervisor.exhausted").set(1.0)
        if fire_exhausted and self._on_exhausted is not None:
            self._on_exhausted()
        return respawned

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def alive_count(self) -> int:
        """Supervised workers currently alive."""
        with self._lock:
            return sum(1 for t in self._threads.values() if t.is_alive())

    def recent_crashes(self, window_seconds: float) -> int:
        """Crashes recorded within the trailing ``window_seconds``."""
        cutoff = self._clock() - window_seconds
        with self._lock:
            return sum(1 for crash in self.crashes if crash["at"] >= cutoff)

    def snapshot(self) -> dict:
        """Machine-readable pool state for health reports."""
        with self._lock:
            if self.restart_window is None:
                windowed = None
            else:
                cutoff = self._clock() - self.restart_window
                windowed = sum(1 for at in self._restart_times if at >= cutoff)
            return {
                "n_workers": self.n_workers,
                "alive": sum(1 for t in self._threads.values() if t.is_alive()),
                "restarts": self.restarts,
                "restart_budget": self.restart_budget,
                "restart_window": self.restart_window,
                "restarts_in_window": windowed,
                "crashes": len(self.crashes),
                "exhausted": self.exhausted,
                "last_crash": (
                    dict(self.crashes[-1]) if self.crashes else None
                ),
            }
