"""Tests for the chaos matrix (``python -m repro chaos``).

The acceptance bar: with a fixed seed, every row of the table — kernel,
thread, update and process tiers — is caught (zero silent wrong
outputs), every accepted output matches the reference, and every guard
demonstrably fired.  The suite runs the whole table twice: once at
seed 0 for the session's shared report (the ``chaos_report`` fixture,
also read by ``test_chaos_serve.py`` and ``test_chaos_update.py``), and
once through the CLI with another seed.
"""

import json
import re
from collections import Counter

import pytest

from repro.resilience import chaos
from repro.resilience.chaos import (
    KERNEL,
    MINIMUMS,
    PROCESS,
    SCENARIOS,
    SILENT,
    THREAD,
    TIERS,
    UPDATE,
    ChaosCase,
    ChaosReport,
    main,
    run_chaos_matrix,
)
from repro.resilience.corruption import CORRUPTIONS, DEGENERATES

EXECUTOR_FAULTS = ("dropped-atomic", "bitflip", "failing-unit")
CASES = {
    KERNEL: {
        *CORRUPTIONS,
        *(
            f"{fault}/{executor}"
            for fault in EXECUTOR_FAULTS
            for executor in ("vectorized", "reference")
        ),
        "halted-warp/gpu-timing",
        "halted-core/multicore",
        *DEGENERATES,
    },
    THREAD: {
        "worker-crash/batch-fails-cleanly",
        "worker-crash/supervisor-restarts",
        "bitflip/verified-fallback",
        "corrupt-matrix/nan-values",
        "expired-deadline/shed-before-execution",
        "slow-kernel/kernel-stage-attribution",
    },
    UPDATE: {
        "update-stream/epoch-pinned-responses",
        "health/epoch-lag-and-backlog",
    },
    PROCESS: {
        "sigkill-mid-batch/contained",
        "sigkill-mid-batch/pool-recovers",
        "busy-hang/reaped-at-budget",
        "busy-hang/pool-recovers",
        "heartbeat-loss/reaped",
        "heartbeat-loss/health-cause",
        "memory-hog/rss-guard-kills",
        "memory-highwater/sheds-at-admission",
        "poison-request/quarantined",
        "poison-request/pool-survives",
        "torn-segment/detected-republished",
        "pool-exhaustion/terminal-batch",
        "pool-exhaustion/health-cause",
        "pool-exhaustion/admission-sheds",
    },
}


@pytest.fixture(scope="module")
def report(chaos_report) -> ChaosReport:
    return chaos_report


class TestChaosMatrix:
    def test_full_detection_coverage(self, report):
        assert report.coverage == 1.0, report.render()
        assert report.passed, report.render()
        assert report.silent == []

    def test_case_names_by_tier(self, report):
        names = [case.name for case in report.cases]
        assert len(names) == len(set(names)) == 46
        by_tier = {
            tier: {c.name for c in report.cases if c.tier == tier}
            for tier in TIERS
        }
        assert by_tier == CASES
        assert [len(by_tier[tier]) for tier in TIERS] == [24, 6, 2, 14]

    def test_cases_carry_their_rows_declared_layer(self, report):
        declared = {
            name: (row.tier, layer)
            for row in SCENARIOS
            for name, layer in row.cases.items()
        }
        assert {
            c.name: (c.tier, c.expected_layer) for c in report.cases
        } == declared
        assert all(row.fault and row.workload for row in SCENARIOS)

    def test_every_corruption_class_covered(self, report):
        layers = {c.name: c.expected_layer for c in report.cases}
        assert {name: layers[name] for name in CORRUPTIONS} == {
            name: layer for name, (_, layer) in CORRUPTIONS.items()
        }

    def test_every_degenerate_graph_covered(self, report):
        cases = {c.name: c for c in report.cases if c.expected_layer == "valid"}
        assert set(cases) == set(DEGENERATES)
        assert all(c.outcome == "ok" for c in cases.values())

    def test_both_executors_and_both_simulators_faulted(self, report):
        names = {c.name for c in report.cases if c.tier == KERNEL}
        for fault in EXECUTOR_FAULTS:
            assert f"{fault}/vectorized" in names
            assert f"{fault}/reference" in names
        assert "halted-warp/gpu-timing" in names
        assert "halted-core/multicore" in names

    def test_deterministic_for_fixed_seed(self, report):
        kernel_rows = [row for row in SCENARIOS if row.tier == KERNEL]
        again = run_chaos_matrix(seed=0, scenarios=kernel_rows)
        assert [c.to_dict() for c in again.cases] == [
            c.to_dict() for c in report.cases if c.tier == KERNEL
        ]

    def test_demonstrations(self, report):
        demos = report.demonstrations
        for key, minimum in MINIMUMS.items():
            assert demos[key] >= minimum, (key, demos)
        assert demos["per_request_graph_bytes_copied"] == 0
        assert demos["update_batches"] >= 1
        assert demos["updates_applied"] >= demos["update_batches"]

    def test_report_serializes(self, report):
        payload = report.to_dict()
        assert payload["coverage"] == 1.0
        assert payload["passed"] is True
        assert payload["missing"] == []
        assert payload["n_cases"] == len(payload["cases"]) == len(report.cases)
        assert set(MINIMUMS) <= set(payload["demonstrations"])
        assert payload["demonstrations"] == {
            key: report.demonstrations[key] for key in payload["demonstrations"]
        }
        json.dumps(payload)  # JSON-safe
        rendered = report.render()
        assert "detection coverage: 100%" in rendered
        assert "SILENT" not in rendered
        assert "MISSING" not in rendered

    def test_empty_report_is_vacuously_covered_but_fails(self):
        empty = ChaosReport(seed=0)
        assert empty.coverage == 1.0
        assert not empty.passed  # no demonstrations -> not a pass
        assert len(empty.missing) == len(MINIMUMS)

    def test_passed_requires_every_minimum(self, report):
        for key, minimum in MINIMUMS.items():
            short = ChaosReport(
                seed=0,
                cases=list(report.cases),
                demonstrations=Counter(report.demonstrations),
            )
            short.demonstrations[key] = minimum - 1
            assert not short.passed, key
        copied = ChaosReport(
            seed=0,
            cases=list(report.cases),
            demonstrations=Counter(report.demonstrations),
        )
        copied.demonstrations["per_request_graph_bytes_copied"] = 1
        assert not copied.passed

    def test_an_array_on_a_pool_pipe_fails_the_run(self, report):
        assert report.demonstrations["oversized_message_rows"] == 0
        fresh = ChaosReport(
            seed=0,
            cases=list(report.cases),
            demonstrations=Counter(report.demonstrations),
        )
        row = next(r for r in SCENARIOS if r.tier == PROCESS)
        run = chaos._Run(row, 0, fresh)
        chaos._absorb_zero_copy(
            run,
            {"per_request_graph_bytes_copied": 0, "max_message_bytes": 4096},
        )
        assert fresh.passed
        chaos._absorb_zero_copy(
            run,
            {"per_request_graph_bytes_copied": 0, "max_message_bytes": 4097},
        )
        assert fresh.missing == ["oversized_message_rows > 0"]
        assert not fresh.passed

    def test_coverage_counts_every_case(self, report):
        degenerate = next(c for c in report.cases if c.outcome == "ok")
        silent = ChaosCase("nan-values", KERNEL, "oracle", SILENT, "accepted")
        mixed = ChaosReport(
            seed=0,
            cases=[degenerate, silent],
            demonstrations=Counter(report.demonstrations),
        )
        assert mixed.coverage == 0.5
        assert mixed.silent == [silent]
        assert not mixed.passed


class TestChaosCli:
    def test_exit_zero_and_record(self, tmp_path, capsys):
        # The table's second full run: another seed, through the CLI.
        json_out = tmp_path / "chaos.json"
        code = main(
            [
                "--seed", "3",
                "--bench-dir", str(tmp_path),
                "--json-out", str(json_out),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "BENCH_chaos.json", "chaos.json",
        ]
        doc = json.loads((tmp_path / "BENCH_chaos.json").read_text())
        assert doc["schema"] == "repro.obs.runs/2"
        record = doc["runs"][-1]
        assert record["status"] == "ok"
        assert record["chaos"]["passed"] is True
        assert record["chaos"]["coverage"] == 1.0
        side = json.loads(json_out.read_text())
        assert side["passed"] is True
        assert side["seed"] == 3
        assert side["n_cases"] == 46
        assert "detection coverage: 100%" in out

    def test_no_record_flag(self, tmp_path, replay_chaos):
        code = main(["--no-record", "--bench-dir", str(tmp_path)])
        assert code == 0
        assert not (tmp_path / "BENCH_chaos.json").exists()

    def test_exit_one_when_not_passed(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            chaos, "run_chaos_matrix", lambda seed: ChaosReport(seed=seed)
        )
        assert main(["--bench-dir", str(tmp_path)]) == 1
        doc = json.loads((tmp_path / "BENCH_chaos.json").read_text())
        assert doc["runs"][-1]["status"] == "failed"

    def test_help_lists_only_four_options(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        options = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
        assert options - {"--help"} == {
            "--seed", "--bench-dir", "--json-out", "--no-record",
        }
