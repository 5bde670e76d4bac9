"""End-to-end tests for the serving chaos matrix (``chaos-serve``)."""

import json

import pytest

from repro.resilience.chaos_serve import ServeChaosReport, main, run_serve_chaos


@pytest.fixture(scope="module")
def report() -> ServeChaosReport:
    return run_serve_chaos(seed=0)


class TestServeChaosMatrix:
    def test_full_coverage_and_pass(self, report):
        assert report.coverage == 1.0, report.render()
        assert report.passed, report.render()
        assert not report.silent

    def test_demonstrates_every_guard(self, report):
        assert report.worker_restarts >= 1
        assert report.deadline_shed >= 1
        assert report.verified_responses >= 1

    def test_expected_case_names_present(self, report):
        names = {case.name for case in report.cases}
        assert "worker-crash/batch-fails-cleanly" in names
        assert "worker-crash/supervisor-restarts" in names
        assert "bitflip/verified-fallback" in names
        assert "corrupt-matrix/nan-values" in names
        assert "expired-deadline/shed-before-execution" in names
        assert "slow-kernel/kernel-stage-attribution" in names

    def test_serialization_and_render(self, report):
        payload = report.to_dict()
        assert payload["coverage"] == 1.0
        assert payload["passed"] is True
        demos = payload["demonstrations"]
        assert demos["worker_restarts"] >= 1
        assert len(payload["cases"]) == len(report.cases)
        rendered = report.render()
        assert "detection coverage: 100%" in rendered
        assert "SILENT" not in rendered

    def test_empty_report_is_vacuously_covered_but_fails(self):
        empty = ServeChaosReport(seed=0)
        assert empty.coverage == 1.0
        assert not empty.passed  # no demonstrations -> not a pass


class TestCli:
    def test_cli_writes_json_report(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["--seed", "0", "--no-record", "--json-out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["passed"] is True
        assert payload["coverage"] == 1.0
