"""Thread-tier rows of the chaos table: a live in-process service.

Worker crashes, bit flips, NaN matrices, expired deadlines and a slowed
kernel are rows of :data:`repro.resilience.chaos.SCENARIOS`.  Pass,
coverage, names and serialization come from the session's seed-0 run of
the whole table (the ``chaos_report`` fixture); the guards are checked
on the thread rows run alone, so they owe nothing to other tiers.
"""

import json

import pytest

from repro.resilience.chaos import (
    MINIMUMS,
    SCENARIOS,
    THREAD,
    ChaosReport,
    main,
    run_chaos_matrix,
)

THREAD_CASES = {
    "worker-crash/batch-fails-cleanly",
    "worker-crash/supervisor-restarts",
    "bitflip/verified-fallback",
    "corrupt-matrix/nan-values",
    "expired-deadline/shed-before-execution",
    "slow-kernel/kernel-stage-attribution",
}


@pytest.fixture(scope="module")
def report(chaos_report) -> ChaosReport:
    return chaos_report


@pytest.fixture(scope="module")
def thread_report() -> ChaosReport:
    return run_chaos_matrix(
        seed=0, scenarios=[row for row in SCENARIOS if row.tier == THREAD]
    )


def _thread_cases(report: ChaosReport) -> list:
    return [case for case in report.cases if case.tier == THREAD]


class TestServeChaosMatrix:
    def test_full_coverage_and_pass(self, report):
        assert report.coverage == 1.0, report.render()
        assert report.passed, report.render()
        assert not report.silent
        assert len(_thread_cases(report)) == len(THREAD_CASES)

    def test_demonstrates_every_guard(self, thread_report):
        assert thread_report.coverage == 1.0, thread_report.render()
        demos = thread_report.demonstrations
        for key in (
            "worker_restarts", "deadline_shed", "slow_kernel_traces",
            "verified_responses",
        ):
            assert demos[key] >= MINIMUMS[key], (key, dict(demos))

    def test_expected_case_names_present(self, report, thread_report):
        assert {case.name for case in _thread_cases(report)} == THREAD_CASES
        # A row's inputs do not depend on which rows ran before it.
        assert [c.name for c in thread_report.cases] == [
            c.name for c in _thread_cases(report)
        ]

    def test_serialization_and_render(self, report):
        payload = report.to_dict()
        assert payload["coverage"] == 1.0
        assert payload["passed"] is True
        demos = payload["demonstrations"]
        assert demos["worker_restarts"] >= 1
        assert len(payload["cases"]) == len(report.cases)
        assert {
            case["name"] for case in payload["cases"] if case["tier"] == THREAD
        } == THREAD_CASES
        rendered = report.render()
        assert "detection coverage: 100%" in rendered
        assert "SILENT" not in rendered

    def test_empty_report_is_vacuously_covered_but_fails(self, report):
        empty = ChaosReport(seed=0)
        assert empty.coverage == 1.0
        assert not empty.passed  # no demonstrations -> not a pass
        # Nor do the thread rows' caught cases pass without their guards.
        cases_only = ChaosReport(seed=0, cases=_thread_cases(report))
        assert cases_only.coverage == 1.0
        assert not cases_only.passed


class TestCli:
    def test_cli_writes_json_report(self, tmp_path, replay_chaos):
        out = tmp_path / "report.json"
        code = main(["--seed", "0", "--no-record", "--json-out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["passed"] is True
        assert payload["coverage"] == 1.0
        assert sum(c["tier"] == THREAD for c in payload["cases"]) == len(
            THREAD_CASES
        )
