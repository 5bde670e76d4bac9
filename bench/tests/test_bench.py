"""Tests of the benchmark itself.

Run from the repository root with ``PYTHONPATH=src python -m pytest bench/tests -q``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from bench import compare, layers, loadgen, spec  # noqa: E402
from bench.loadgen import MISMATCH, Phase, Record, percentile, verify  # noqa: E402

DOC = spec.load_benchmark()
WORKLOADS = spec.workload_names(DOC)


def run_bench(*args: str, cwd: Path = ROOT, timeout: float = 170.0):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


# ----------------------------------------------------------------------
# The declaration file
# ----------------------------------------------------------------------
def test_benchmark_json_follows_its_contract():
    assert set(DOC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert DOC["command"] == ["python3", "bench/run.py"]
    assert DOC["paths"] == ["bench"]
    assert 1 <= DOC["run_seconds"] <= 60
    assert 2 <= len(DOC["workloads"]) <= 8
    assert 1 <= len(DOC["end_to_end"]) <= 16
    assert 1 <= len(DOC["per_layer"]) <= 128
    names = [w["name"] for w in DOC["workloads"]]
    names += [m["name"] for m in DOC["end_to_end"] + DOC["per_layer"]]
    assert len(names) == len(set(names))
    for workload in DOC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert spec.NAME_RE.match(workload["name"])
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        assert workload["name"] in spec.WORKLOAD_PARAMS
    for metric in DOC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in DOC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in DOC["end_to_end"] + DOC["per_layer"]:
        assert spec.NAME_RE.match(metric["name"]), metric["name"]
        assert spec.UNIT_RE.match(metric["unit"]), metric["unit"]
        assert metric["better"] in ("lower", "higher")
    setup = next(m for m in DOC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in DOC["end_to_end"])


# ----------------------------------------------------------------------
# End to end through the command line
# ----------------------------------------------------------------------
@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_exactly_the_declared_metrics(workload, trace, tmp_path):
    proc = run_bench(
        "--workload", workload, "--seed", "0", "--trace", str(trace),
        "--smoke", "--out", str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True
    assert summary["failed"] == 0
    assert summary["attempted"] >= 1
    declared = DOC["per_layer"] if trace else DOC["end_to_end"]
    assert list(summary["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        reported = summary["metrics"][metric["name"]]
        assert spec.NAME_RE.match(metric["name"])
        assert reported["unit"] == metric["unit"]
        assert math.isfinite(reported["value"])
    if not trace:
        for metric in DOC["end_to_end"]:
            assert summary["metrics"][metric["name"]]["value"] > 0, metric["name"]
    for metric in declared:
        assert f"{workload} {metric['name']} " in proc.stdout
    results = [p for p in tmp_path.glob("*.json") if not p.name.endswith(".chrome.json")]
    assert len(results) == 1
    if trace:
        result = json.loads(results[0].read_text())
        chrome = json.loads(Path(result["chrome_trace"]).read_text())
        spans = [e for e in chrome["traceEvents"] if e["ph"] == "X"]
        assert spans and all("requests" in e["args"] for e in spans)
        assert any(e["args"]["requests"] for e in spans)
        assert result["self_time"]


def test_run_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# ----------------------------------------------------------------------
# Outcome accounting
# ----------------------------------------------------------------------
def _ok_record(rid: int, latency: float) -> Record:
    return Record(rid=rid, due=0.0, done=latency, status=loadgen.OK, rows=1)


def test_tampered_output_counts_as_a_failure():
    reference = np.arange(12.0).reshape(4, 3)
    good, bad = _ok_record(0, 0.001), _ok_record(1, 0.002)
    assert verify(good, reference.copy(), reference)
    tampered = reference.copy()
    tampered[2, 1] += 1e-3
    assert not verify(bad, tampered, reference)
    assert bad.status == MISMATCH
    phase = Phase(0, [good, bad], 0.0, 0.002)
    assert (phase.attempted, phase.failed, phase.mismatches) == (2, 1, 1)
    assert phase.latencies() == [0.001, math.inf]


def test_failed_request_counts_as_infinite_latency():
    records = [_ok_record(0, 0.001), _ok_record(1, 0.003), _ok_record(2, 0.002)]
    records[2].fail("rejected", "queue full", done=0.0025)
    phase = Phase(0, records, 0.0, 0.003)
    assert records[2].latency == math.inf
    assert percentile(phase.latencies(), 50) == 0.003
    assert percentile(phase.latencies(), 99) == math.inf
    records[0].fail("error", "worker crashed", done=0.001)
    assert percentile(phase.latencies(), 50) == math.inf
    assert phase.rows_per_second() == pytest.approx(1 / 0.003)


def test_percentile_is_nearest_rank():
    values = [4.0, 1.0, 3.0, 2.0]
    assert [percentile(values, q) for q in (25, 50, 75, 100)] == [1.0, 2.0, 3.0, 4.0]
    assert math.isnan(percentile([], 50))


def test_two_seeds_generate_different_request_streams():
    from bench.workloads import EgoLive, ServeSmall

    small = [ServeSmall(seed, smoke=True) for seed in (0, 0, 1)]
    streams = [s.stream(0, 2.0) for s in small]
    assert all(np.array_equal(a, b) for a, b in zip(streams[0], streams[1]))
    assert not np.array_equal(streams[0][0], streams[2][0])
    assert not np.array_equal(streams[0][1], streams[2][1])
    assert not np.array_equal(small[0].dense(0, 5, 1), small[2].dense(0, 5, 1))
    # The Zipf mix is exact: both seeds offer the same work.
    assert np.array_equal(np.bincount(streams[0][1]), np.bincount(streams[2][1]))
    ego = [EgoLive(seed, smoke=True) for seed in (0, 1)]
    seeds = [e.seeds(e.rng(0), 200) for e in ego]
    assert not np.array_equal(seeds[0], seeds[1])


def test_arrival_offsets_offer_a_fixed_count():
    rng = np.random.default_rng(0)
    offsets = loadgen.arrival_offsets(rng, 150.0, 2.0)
    assert len(offsets) == 300
    assert np.all(np.diff(offsets) > 0) and 0 <= offsets[0] and offsets[-1] < 2.0


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
def test_missing_wrap_target_is_reported_absent():
    recorder = layers.SpanRecorder()
    targets = (
        ("gone.class", "repro.serve.dispatch", "NoSuchDispatcher.execute"),
        ("gone.module", "no_such_module_anywhere", "execute"),
        ("bench.percentile", "bench.loadgen", "percentile"),
    )
    original = loadgen.percentile
    with layers.installed(recorder, targets) as status:
        assert status == {
            "gone.class": "absent",
            "gone.module": "absent",
            "bench.percentile": "wrapped",
        }
        with recorder.request(7):
            assert loadgen.percentile([1.0, 2.0], 50) == 1.0
    assert loadgen.percentile is original
    assert [(s.name, s.request) for s in recorder.spans] == [("bench.percentile", 7)]


def test_every_wrap_target_exists_in_this_tree():
    with layers.installed(layers.SpanRecorder()) as status:
        assert set(status.values()) == {"wrapped"}, status


def test_self_time_subtracts_child_coverage():
    span = layers.Span
    spans = [
        span(1, "outer", 0.0, 10.0, None, 1, 0, ()),
        span(2, "inner", 1.0, 3.0, 1, 1, None, ()),
        span(3, "inner", 2.0, 5.0, 1, 1, None, ()),
        span(4, "leaf", 8.0, 9.0, 1, 1, None, ()),
    ]
    own = layers.self_seconds(spans)
    assert own[1] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own[2] == pytest.approx(2.0)
    owners = layers.request_of(spans, {})
    assert owners[4] == [0]


# ----------------------------------------------------------------------
# compare.py
# ----------------------------------------------------------------------
LATENCY = spec.Metric("latency_p50_ms", "ms", "lower", 0.10)


def _pairs(a, b):
    return list(zip(a, b))


def test_compare_verdicts():
    base = [10.0, 10.1, 9.9, 10.0, 10.05]
    judge = compare.judge
    assert judge(LATENCY, base, [v * 1.2 for v in base], _pairs(base, [v * 1.2 for v in base]))["verdict"] == compare.WORSE
    faster = [v * 0.8 for v in base]
    assert judge(LATENCY, base, faster, _pairs(base, faster))["verdict"] == compare.IMPROVED
    same = [10.02, 9.95, 10.03, 10.0, 9.97]
    assert judge(LATENCY, base, same, _pairs(base, same))["verdict"] == compare.WITHIN
    noisy = [8.0, 12.0, 9.0, 11.5, 10.0]
    assert judge(LATENCY, base, noisy, _pairs(base, noisy))["verdict"] == compare.UNRESOLVED
    errors = spec.Metric("error_rate", "fraction", "lower", 0.001, absolute=True)
    zero = [0.0] * 5
    assert judge(errors, zero, zero, _pairs(zero, zero))["verdict"] == compare.WITHIN
    assert judge(errors, zero, [0.01] * 5, _pairs(zero, [0.01] * 5))["verdict"] == compare.WORSE


def _write_run(directory: Path, seed: int, latency: float) -> None:
    metrics = {
        m.name: {"value": latency if m.name == "latency_p50_ms" else 1.0, "unit": m.unit}
        for m in spec.end_to_end_metrics(DOC)
    }
    doc = {
        "schema": spec.RESULT_SCHEMA, "workload": WORKLOADS[0], "seed": seed,
        "trace": False, "valid": True, "metrics": metrics,
        "extra": {"error_rate": {"value": 0.0, "unit": "fraction"}},
    }
    (directory / f"run-{seed}.json").write_text(json.dumps(doc))


def test_compare_cli_exits_one_on_a_regression(tmp_path, capsys):
    a, b, c = (tmp_path / name for name in "abc")
    for directory in (a, b, c):
        directory.mkdir()
    for seed in range(5):
        _write_run(a, seed, 10.0 + 0.01 * seed)
        _write_run(b, seed, 10.0 + 0.01 * seed)
        _write_run(c, seed, 13.0 + 0.01 * seed)
    assert compare.main([str(a), str(b)]) == 0
    assert compare.main([str(a), str(c)]) == 1
    out = capsys.readouterr().out
    assert f"{WORKLOADS[0]}: " in out and "latency_p50_ms=worse" in out
