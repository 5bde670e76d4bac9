"""Unit tests for request-scoped tracing (ledgers, activation, recorder)."""

import threading

import pytest

from repro.obs.rtrace import (
    FlightRecorder,
    Ledger,
    RequestContext,
    activate,
    active_contexts,
    new_trace_id,
)


class TestTraceIds:
    def test_unique_and_nonempty(self):
        ids = {new_trace_id() for _ in range(1000)}
        assert len(ids) == 1000
        assert all(ids)

    def test_context_new_assigns_id(self):
        a = RequestContext.new(request_id=1, route="r")
        b = RequestContext.new(request_id=2, route="r")
        assert a.trace_id != b.trace_id
        assert a.route == "r" and a.request_id == 1


class TestLedger:
    def test_accumulates_and_totals(self):
        ledger = Ledger()
        ledger.add("queue", 0.5)
        ledger.add("queue", 0.25)
        ledger.add("kernel", 1.0)
        assert ledger.stages() == {"queue": 0.75, "kernel": 1.0}
        assert ledger.total() == pytest.approx(1.75)

    def test_negative_clamped(self):
        ledger = Ledger()
        ledger.add("queue", -1.0)
        assert ledger.total() == 0.0

    def test_events(self):
        ledger = Ledger()
        ledger.count("plan_cache_hit")
        ledger.count("plan_cache_hit", 2)
        assert ledger.events() == {"plan_cache_hit": 3}

    def test_to_dict_is_a_snapshot(self):
        ledger = Ledger()
        ledger.add("queue", 1.0)
        doc = ledger.to_dict()
        ledger.add("queue", 1.0)
        assert doc["stages"]["queue"] == 1.0


class TestActivation:
    def test_activate_and_restore(self):
        ctx = RequestContext.new()
        assert active_contexts() == ()
        with activate(ctx):
            assert active_contexts() == (ctx,)
        assert active_contexts() == ()

    def test_none_entries_filtered(self):
        with activate(None):
            assert active_contexts() == ()
        ctx = RequestContext.new()
        with activate(None, ctx, None):
            assert active_contexts() == (ctx,)

    def test_nested_activation_replaces_and_restores(self):
        outer, inner = RequestContext.new(), RequestContext.new()
        with activate(outer):
            with activate(inner):
                assert active_contexts() == (inner,)
            assert active_contexts() == (outer,)
        assert active_contexts() == ()
        # Activation attributes nothing to either ledger.
        assert outer.ledger.total() == inner.ledger.total() == 0.0

    def test_propagation_across_thread(self):
        """Contexts travel by value; activation is per-thread, explicit."""
        ctx = RequestContext.new()
        seen = {}

        def worker():
            # The spawned thread starts with no inherited context.
            seen["inherited"] = active_contexts()
            with activate(ctx):
                seen["activated"] = active_contexts()
            seen["after"] = active_contexts()

        thread = threading.Thread(target=worker)
        with activate(ctx):
            thread.start()
            thread.join()
            assert active_contexts() == (ctx,)
        assert seen == {"inherited": (), "activated": (ctx,), "after": ()}


class TestSummary:
    def test_summary_shape(self):
        ctx = RequestContext.new(request_id=7, route="cora")
        ctx.ledger.add("queue", 0.5)
        ctx.ledger.count("plan_compile")
        doc = ctx.summary(status="ok", backend="vectorized")
        assert doc["trace_id"] == ctx.trace_id
        assert doc["request_id"] == 7
        assert doc["route"] == "cora"
        assert doc["status"] == "ok"
        assert doc["backend"] == "vectorized"
        assert doc["total_seconds"] == pytest.approx(0.5)
        assert doc["stages"] == {"queue": 0.5}
        assert doc["events"] == {"plan_compile": 1}


def _summary(total, status="ok", **extra):
    return {"status": status, "total_seconds": total,
            "stages": {}, "events": {}, **extra}


class TestFlightRecorder:
    def test_validates_capacity(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)
        with pytest.raises(ValueError):
            FlightRecorder(failed_capacity=0)

    def test_retains_slowest(self):
        recorder = FlightRecorder(capacity=3)
        for total in (0.1, 0.5, 0.2, 0.9, 0.05, 0.4):
            recorder.record(_summary(total))
        ranked = [s["total_seconds"] for s in recorder.slowest()]
        assert ranked == [0.9, 0.5, 0.4]
        assert recorder.recorded == 6
        assert len(recorder) == 3

    def test_bounded_under_overload(self):
        recorder = FlightRecorder(capacity=4, failed_capacity=4)
        for i in range(10_000):
            recorder.record(_summary(i * 1e-6))
        assert len(recorder) == 4
        assert recorder.recorded == 10_000

    def test_failure_ring_keeps_most_recent(self):
        recorder = FlightRecorder(capacity=2, failed_capacity=2)
        for i in range(5):
            recorder.record(_summary(0.0, status="error", seq=i))
        failures = recorder.failures()
        assert [f["seq"] for f in failures] == [3, 4]
        assert recorder.slowest() == []

    def test_slowest_n(self):
        recorder = FlightRecorder(capacity=8)
        for total in (0.3, 0.1, 0.2):
            recorder.record(_summary(total))
        assert [s["total_seconds"] for s in recorder.slowest(2)] == [0.3, 0.2]
