"""End-to-end tests for the update-race chaos suite (``chaos-update``)."""

import json

import pytest

from repro.resilience.chaos_update import (
    UpdateChaosReport,
    main,
    run_update_chaos,
)


@pytest.fixture(scope="module")
def report() -> UpdateChaosReport:
    return run_update_chaos(seed=0)


class TestUpdateChaosSuite:
    def test_full_coverage_and_pass(self, report):
        assert report.coverage == 1.0, report.render()
        assert report.passed, report.render()
        assert not report.silent

    def test_demonstrates_live_update_machinery(self, report):
        assert len(report.epochs_served) >= 2
        assert report.retired_epochs >= 1
        assert report.compactions >= 1
        assert report.invalidated_keys >= 1
        assert report.verified_responses >= 1
        assert report.update_batches >= 1
        assert report.updates_applied >= report.update_batches

    def test_expected_case_names_present(self, report):
        names = {case.name for case in report.cases}
        assert "update-stream/epoch-pinned-responses" in names
        assert "retirement/precise-invalidation" in names
        assert "health/epoch-lag-and-backlog" in names

    def test_serialization_and_render(self, report):
        payload = report.to_dict()
        assert payload["coverage"] == 1.0
        assert payload["passed"] is True
        demos = payload["demonstrations"]
        assert demos["distinct_epochs"] >= 2
        assert demos["compactions"] >= 1
        assert demos["epochs_served"] == sorted(report.epochs_served)
        assert len(payload["cases"]) == len(report.cases)
        rendered = report.render()
        assert "detection coverage: 100%" in rendered
        assert "SILENT" not in rendered

    def test_deterministic_across_seeds(self):
        # Different seeds still converge to full coverage — the suite's
        # assertions are invariants, not golden values.
        other = run_update_chaos(seed=3)
        assert other.coverage == 1.0, other.render()
        assert other.passed

    def test_empty_report_is_vacuously_covered_but_fails(self):
        empty = UpdateChaosReport(seed=0)
        assert empty.coverage == 1.0
        assert not empty.passed  # no demonstrations -> not a pass


class TestCli:
    def test_cli_writes_json_report(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["--seed", "0", "--no-record", "--json-out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["coverage"] == 1.0
        assert payload["passed"] is True
        assert payload["n_cases"] == 3

    def test_cli_writes_run_record(self, tmp_path):
        code = main(["--seed", "0", "--bench-dir", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "BENCH_chaos_update.json").read_text())
        assert doc["schema"] == "repro.obs.runs/2"
        record = doc["runs"][-1]
        assert record["status"] == "ok"
        assert record["chaos_update"]["passed"] is True
