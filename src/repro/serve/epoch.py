"""RCU-style graph epoch management for serving under live updates.

:class:`GraphEpochManager` sits between a mutable
:class:`~repro.graphs.delta.DeltaCSR` and the serving stack, enforcing
the stack's one consistency rule: **a request executes against the
epoch it admitted under, end to end.**

* :meth:`acquire` hands out an :class:`EpochLease` pinning the current
  snapshot — the RCU read-side critical section.  The service takes one
  per admitted request and releases it at the response boundary.
* :meth:`apply_updates` installs a new snapshot atomically (writers
  never block readers); the superseded epoch keeps serving its
  in-flight leases.
* An epoch whose lease count drains after being superseded is
  **retired**: the manager drops its snapshot, and with it everything
  memoised on the snapshot's matrix (its neighbor index, its scipy
  view).

:meth:`stats` reports epoch lag (current epoch minus oldest still-live
epoch) and the delta's compaction backlog for the health surface.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterable

from repro import obs
from repro.formats import CSRMatrix
from repro.graphs.delta import DeltaCSR, EdgeUpdate, GraphSnapshot


class EpochLease:
    """A read lease pinning one graph epoch for one request.

    Idempotent: calling :meth:`release` twice (or racing a release from
    a finalizer) decrements the epoch's lease count exactly once.
    """

    __slots__ = ("snapshot", "_manager", "_released")

    def __init__(self, manager: "GraphEpochManager", snapshot: GraphSnapshot):
        self.snapshot = snapshot
        self._manager = manager
        self._released = False

    @property
    def epoch(self) -> int:
        """Epoch number this lease pins."""
        return self.snapshot.epoch

    @property
    def matrix(self) -> CSRMatrix:
        """The pinned epoch's compacted matrix."""
        return self.snapshot.matrix

    def release(self) -> None:
        """Drop the pin (idempotent); retirement may proceed."""
        if self._released:
            return
        self._released = True
        self._manager._release(self.snapshot.epoch)

    def __enter__(self) -> "EpochLease":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


@dataclass
class _EpochState:
    snapshot: GraphSnapshot
    leases: int = 0
    superseded: bool = False


class GraphEpochManager:
    """Epoch lifecycle: acquire leases, install updates, retire drained epochs.

    Args:
        source: The live graph — a :class:`DeltaCSR`, or a bare
            :class:`CSRMatrix` to wrap in one.
        compact_threshold: Forwarded to a :class:`DeltaCSR` built from a
            bare matrix (ignored when ``source`` already is one).
    """

    def __init__(
        self,
        source: "DeltaCSR | CSRMatrix",
        *,
        compact_threshold: int = 1024,
    ) -> None:
        if isinstance(source, DeltaCSR):
            self.delta = source
        else:
            self.delta = DeltaCSR(source, compact_threshold=compact_threshold)
        self._lock = threading.Lock()
        self.retired_epochs = 0
        self.updates_applied = 0
        snapshot = self.delta.snapshot()
        self._current = snapshot.epoch
        self._epochs: "dict[int, _EpochState]" = {
            snapshot.epoch: _EpochState(snapshot)
        }

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    @property
    def current_epoch(self) -> int:
        """The newest installed epoch number."""
        with self._lock:
            return self._current

    def current_snapshot(self) -> GraphSnapshot:
        """The newest epoch's immutable snapshot."""
        with self._lock:
            return self._epochs[self._current].snapshot

    def acquire(self) -> EpochLease:
        """Lease the current epoch (released at the response boundary)."""
        with self._lock:
            state = self._epochs[self._current]
            state.leases += 1
            lease = EpochLease(self, state.snapshot)
        obs.counter("serve.epoch.leases").inc()
        return lease

    def _release(self, epoch: int) -> None:
        with self._lock:
            state = self._epochs.get(epoch)
            if state is None:
                return
            state.leases -= 1
            if not (state.superseded and state.leases <= 0):
                return
            del self._epochs[epoch]
            self.retired_epochs += 1
        obs.counter("serve.epoch.retired").inc()

    # ------------------------------------------------------------------
    # Write side
    # ------------------------------------------------------------------
    def apply_updates(self, updates: "Iterable[EdgeUpdate]") -> GraphSnapshot:
        """Apply one update batch and install its snapshot atomically.

        Returns the installed snapshot.  In-flight leases keep their
        epochs alive; superseded epochs with no leases retire
        immediately.
        """
        batch = list(updates)
        with self._lock:
            self.delta.apply(batch)
            snapshot = self.delta.snapshot()
            self.updates_applied += len(batch)
            previous = self._epochs[self._current]
            previous.superseded = True
            self._current = snapshot.epoch
            self._epochs[snapshot.epoch] = _EpochState(snapshot)
            drained = [
                epoch
                for epoch, state in self._epochs.items()
                if state.superseded and state.leases <= 0
            ]
            for epoch in drained:
                del self._epochs[epoch]
            self.retired_epochs += len(drained)
        obs.counter("serve.epoch.installed").inc()
        if drained:
            obs.counter("serve.epoch.retired").inc(len(drained))
        if obs.enabled():
            obs.gauge("serve.epoch.current").set(float(snapshot.epoch))
            obs.gauge("serve.epoch.live").set(float(len(self._epochs)))
        return snapshot

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Epoch and compaction state for health() and run records."""
        with self._lock:
            live = sorted(self._epochs)
            leases = sum(state.leases for state in self._epochs.values())
            current = self._current
        log_size = self.delta.log_size
        threshold = self.delta.compact_threshold
        stats = {
            "current_epoch": current,
            "live_epochs": len(live),
            "oldest_live_epoch": live[0] if live else current,
            "epoch_lag": current - (live[0] if live else current),
            "leases": leases,
            "retired_epochs": self.retired_epochs,
            "updates_applied": self.updates_applied,
            "log_size": log_size,
            "compact_threshold": threshold,
            "compaction_backlog": log_size / threshold,
            "compactions": self.delta.compactions,
        }
        if obs.enabled():
            obs.gauge("serve.epoch.lag").set(float(stats["epoch_lag"]))
            obs.gauge("serve.epoch.leases_outstanding").set(float(leases))
        return stats
