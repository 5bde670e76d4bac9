"""RCU-style graph epoch management for serving under live updates.

:class:`GraphEpochManager` sits between a mutable
:class:`~repro.graphs.delta.DeltaCSR` and the serving stack's caches,
enforcing the stack's one consistency rule: **a request executes
against the epoch it admitted under, end to end.**

* :meth:`acquire` hands out an :class:`EpochLease` pinning the current
  snapshot — the RCU read-side critical section.  The service takes one
  per admitted request and releases it at the response boundary.
* :meth:`apply_updates` installs a new snapshot atomically (writers
  never block readers); the superseded epoch keeps serving its
  in-flight leases.
* An epoch whose lease count drains after being superseded is
  **retired**: every registered cache drops exactly that epoch's keys
  (``invalidate_fingerprint``), never a global flush.

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
    """Epoch lifecycle: acquire leases, install updates, retire precisely.

    Args:
        source: The live graph — a :class:`DeltaCSR`, or a bare
            :class:`CSRMatrix` to wrap in one.
        caches: Objects to keep coherent: each exposes
            ``invalidate_fingerprint(fp) -> int`` (such as a
            ScheduleCache) and is invalidated at retirement.  State
            memoised on a snapshot's matrix, such as its neighbor
            index, needs no registration: it is freed with the
            snapshot.
        compact_threshold: Forwarded to a :class:`DeltaCSR` built from a
            bare matrix (ignored when ``source`` already is one).
    """

    def __init__(
        self,
        source: "DeltaCSR | CSRMatrix",
        *,
        caches: "Iterable[object]" = (),
        compact_threshold: int = 1024,
    ) -> None:
        if isinstance(source, DeltaCSR):
            self.delta = source
        else:
            self.delta = DeltaCSR(source, compact_threshold=compact_threshold)
        self._lock = threading.Lock()
        self._caches: "list[object]" = []
        for cache in caches:
            self.register_cache(cache)
        self.retired_epochs = 0
        self.updates_applied = 0
        snapshot = self.delta.snapshot()
        self._current = snapshot.epoch
        self._epochs: "dict[int, _EpochState]" = {
            snapshot.epoch: _EpochState(snapshot)
        }

    def register_cache(self, cache: object) -> None:
        """Register one invalidation target (see class docs)."""
        if not callable(getattr(cache, "invalidate_fingerprint", None)):
            raise TypeError(
                f"{type(cache).__name__} exposes no invalidate_fingerprint"
            )
        self._caches.append(cache)

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
        retired: "list[GraphSnapshot]" = []
        with self._lock:
            state = self._epochs.get(epoch)
            if state is None:
                return
            state.leases -= 1
            if state.superseded and state.leases <= 0:
                del self._epochs[epoch]
                retired.append(state.snapshot)
        self._retire(retired)

    # ------------------------------------------------------------------
    # Write side
    # ------------------------------------------------------------------
    def apply_updates(self, updates: "Iterable[EdgeUpdate]") -> GraphSnapshot:
        """Apply one update batch and install its snapshot atomically.

        Returns the installed snapshot.  In-flight leases keep their
        epochs alive; superseded epochs with no leases retire
        immediately (their cache keys are dropped before this returns).
        """
        batch = list(updates)
        retired: "list[GraphSnapshot]" = []
        with self._lock:
            self.delta.apply(batch)
            snapshot = self.delta.snapshot()
            self.updates_applied += len(batch)
            previous = self._epochs[self._current]
            previous.superseded = True
            self._current = snapshot.epoch
            self._epochs[snapshot.epoch] = _EpochState(snapshot)
            for epoch, state in list(self._epochs.items()):
                if state.superseded and state.leases <= 0:
                    del self._epochs[epoch]
                    retired.append(state.snapshot)
        obs.counter("serve.epoch.installed").inc()
        if obs.enabled():
            obs.gauge("serve.epoch.current").set(float(snapshot.epoch))
            obs.gauge("serve.epoch.live").set(float(len(self._epochs)))
        self._retire(retired)
        return snapshot

    # ------------------------------------------------------------------
    # Retirement
    # ------------------------------------------------------------------
    def _retire(self, retired: "list[GraphSnapshot]") -> None:
        """Drop each retired epoch's keys from every registered cache.

        Every epoch's snapshot carries its own version-stamped
        fingerprint, so a retired epoch shares no key with a live one.
        """
        if not retired:
            return
        self.retired_epochs += len(retired)
        obs.counter("serve.epoch.retired").inc(len(retired))
        for snapshot in retired:
            dropped = 0
            for cache in self._caches:
                dropped += cache.invalidate_fingerprint(snapshot.fingerprint)
            obs.counter("serve.epoch.invalidated_keys").inc(dropped)

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
