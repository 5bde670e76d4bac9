"""Update-tier rows of the chaos table: live edge updates behind epochs.

Poisson update streams and the epoch-lag health check, which retires
epochs and compacts the log once its lease drains, are rows of
:data:`repro.resilience.chaos.SCENARIOS`.  Pass, coverage,
names and the CLI come from the session's seed-0 run of the whole table
(the ``chaos_report`` fixture); the live-update machinery is checked on
the update rows run alone, at seeds 0 and 3.
"""

import json

import pytest

from repro.resilience.chaos import (
    MINIMUMS,
    SCENARIOS,
    UPDATE,
    ChaosReport,
    main,
    run_chaos_matrix,
)

UPDATE_CASES = {
    "update-stream/epoch-pinned-responses",
    "health/epoch-lag-and-backlog",
}
#: The minimums the update rows owe on their own.
UPDATE_MINIMUMS = (
    "distinct_epochs", "retired_epochs", "compactions", "verified_responses",
)
UPDATE_ROWS = [row for row in SCENARIOS if row.tier == UPDATE]


@pytest.fixture(scope="module")
def report(chaos_report) -> ChaosReport:
    return chaos_report


@pytest.fixture(scope="module")
def update_report() -> ChaosReport:
    return run_chaos_matrix(seed=0, scenarios=UPDATE_ROWS)


def _update_cases(report: ChaosReport) -> list:
    return [case for case in report.cases if case.tier == UPDATE]


class TestUpdateChaosSuite:
    def test_full_coverage_and_pass(self, report):
        assert report.coverage == 1.0, report.render()
        assert report.passed, report.render()
        assert not report.silent
        assert len(_update_cases(report)) == len(UPDATE_CASES)

    def test_demonstrates_live_update_machinery(self, update_report):
        assert update_report.coverage == 1.0, update_report.render()
        demos = update_report.demonstrations
        assert demos["distinct_epochs"] >= 2
        assert demos["retired_epochs"] >= 1
        assert demos["compactions"] >= 1
        assert demos["verified_responses"] >= 1
        assert demos["update_batches"] >= 1
        assert demos["updates_applied"] >= demos["update_batches"]

    def test_expected_case_names_present(self, report, update_report):
        assert {case.name for case in _update_cases(report)} == UPDATE_CASES
        # A row's inputs do not depend on which rows ran before it.
        assert [c.name for c in update_report.cases] == [
            c.name for c in _update_cases(report)
        ]

    def test_serialization_and_render(self, report):
        payload = report.to_dict()
        assert payload["coverage"] == 1.0
        assert payload["passed"] is True
        demos = payload["demonstrations"]
        assert demos["distinct_epochs"] >= 2
        assert demos["compactions"] >= 1
        assert demos["distinct_epochs"] == report.demonstrations[
            "distinct_epochs"
        ]
        assert len(payload["cases"]) == len(report.cases)
        assert {
            case["name"] for case in payload["cases"] if case["tier"] == UPDATE
        } == UPDATE_CASES
        rendered = report.render()
        assert "detection coverage: 100%" in rendered
        assert "SILENT" not in rendered

    def test_deterministic_across_seeds(self):
        # Different seeds still converge to full coverage — the rows'
        # assertions are invariants, not golden values.  (The whole
        # table's pass at seed 3 is test_resilience_chaos's CLI run.)
        other = run_chaos_matrix(seed=3, scenarios=UPDATE_ROWS)
        assert other.coverage == 1.0, other.render()
        assert {case.name for case in other.cases} == UPDATE_CASES
        for key in UPDATE_MINIMUMS:
            assert other.demonstrations[key] >= MINIMUMS[key], key

    def test_empty_report_is_vacuously_covered_but_fails(self, report):
        empty = ChaosReport(seed=0)
        assert empty.coverage == 1.0
        assert not empty.passed  # no demonstrations -> not a pass
        # Nor do the update rows' caught cases pass without their guards.
        cases_only = ChaosReport(seed=0, cases=_update_cases(report))
        assert cases_only.coverage == 1.0
        assert not cases_only.passed


class TestCli:
    def test_cli_writes_json_report(self, tmp_path, replay_chaos):
        out = tmp_path / "report.json"
        code = main(["--seed", "0", "--no-record", "--json-out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["coverage"] == 1.0
        assert payload["passed"] is True
        assert sum(c["tier"] == UPDATE for c in payload["cases"]) == 2

    def test_cli_writes_run_record(self, tmp_path, replay_chaos):
        code = main(["--seed", "0", "--bench-dir", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "BENCH_chaos.json").read_text())
        assert doc["schema"] == "repro.obs.runs/2"
        record = doc["runs"][-1]
        assert record["status"] == "ok"
        assert record["chaos"]["passed"] is True
