"""Tests for fault campaigns, their reports, the inject CLI, and the
no-injection digest gate (checker attached => results byte-identical)."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import FaultInjectionError
from repro.faults import (
    CAMPAIGNS,
    REPORT_SCHEMA_VERSION,
    run_campaign,
    validate_report,
    write_report,
)
from repro.io import canonical_json, load_json

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Short trace for test speed; campaigns still inject hundreds of faults.
FAST = {"trace_length": 1500}


class TestCampaignCatalog:
    def test_expected_campaigns_present(self):
        assert {"retention", "buffer-overflow", "write-error",
                "refresh-starvation"} <= set(CAMPAIGNS)

    def test_unknown_campaign_rejected(self):
        with pytest.raises(FaultInjectionError, match="unknown campaign"):
            run_campaign("nope")

    def test_bad_trace_length_rejected(self):
        with pytest.raises(FaultInjectionError):
            run_campaign("retention", trace_length=0)


class TestDeterminism:
    def test_same_seed_byte_identical_report(self):
        first = run_campaign("retention", seed=7, **FAST)
        second = run_campaign("retention", seed=7, **FAST)
        assert canonical_json(first) == canonical_json(second)

    def test_different_seed_changes_report(self):
        assert canonical_json(run_campaign("retention", seed=1, **FAST)) != (
            canonical_json(run_campaign("retention", seed=2, **FAST))
        )


class TestCampaignProperties:
    """Seeded property-style sweep: the safety contract must hold for
    every campaign under several seeds, not just one golden run."""

    @pytest.mark.parametrize("name", sorted(CAMPAIGNS))
    def test_campaign_contract_across_seeds(self, name):
        for seed in range(3):
            report = run_campaign(name, seed=seed, **FAST)
            validate_report(report)
            summary = report["summary"]
            assert summary["undetected_data_loss"] == 0
            assert summary["accounting_balanced"]
            assert report["ok"], report["invariants"]["violations"]

    def test_retention_injects_and_detects(self):
        report = run_campaign("retention", seed=7, **FAST)
        summary = report["summary"]
        assert summary["faults_injected"] >= 1
        assert summary["faults_detected"] >= 1
        # every detected dirty collapse is an accounted data loss
        assert report["l2"]["data_losses"] >= summary["data_losses_detected"]

    def test_buffer_overflow_falls_back_to_dram(self):
        report = run_campaign("buffer-overflow", seed=0, **FAST)
        faults = report["faults"]
        assert faults["buffer_overflows"] >= 1
        # every dirty overflow became a DRAM write-back, never a loss
        assert report["l2"]["dram_writebacks_total"] >= (
            faults["buffer_overflow_dirty"]
        )
        assert report["summary"]["undetected_data_loss"] == 0

    def test_write_error_retries_are_bounded(self):
        report = run_campaign("write-error", seed=3, **FAST)
        faults = report["faults"]
        assert faults["write_errors"] >= 1
        retries_cap = report["plan"]["max_write_retries"]
        # errors = retried failures + final failures of uncorrectable writes;
        # the budget bounds errors per write, so totals obey the cap too
        assert faults["write_retries"] <= faults["write_errors"]
        assert faults["write_uncorrectable"] * (retries_cap + 1) <= (
            faults["write_errors"] + retries_cap * faults["write_retries"]
        )

    def test_refresh_starvation_delays_sweeps(self):
        report = run_campaign("refresh-starvation", seed=0, **FAST)
        assert report["faults"]["sweeps_delayed"] >= 1
        assert report["summary"]["undetected_data_loss"] == 0


class TestReportSchema:
    def test_report_has_schema_and_kind(self):
        report = run_campaign("retention", seed=0, **FAST)
        assert report["schema_version"] == REPORT_SCHEMA_VERSION
        assert report["kind"] == "fault-campaign"

    def test_validate_rejects_wrong_kind(self):
        report = run_campaign("retention", seed=0, **FAST)
        bad = dict(report, kind="replay-bench")
        with pytest.raises(FaultInjectionError, match="kind"):
            validate_report(bad)

    def test_validate_rejects_missing_summary_field(self):
        report = run_campaign("retention", seed=0, **FAST)
        bad = dict(report, summary={"faults_injected": 1})
        with pytest.raises(FaultInjectionError, match="summary"):
            validate_report(bad)

    def test_validate_rejects_negative_count(self):
        report = run_campaign("retention", seed=0, **FAST)
        summary = dict(report["summary"], faults_detected=-1)
        with pytest.raises(FaultInjectionError, match="non-negative"):
            validate_report(dict(report, summary=summary))

    def test_write_report_round_trips(self, tmp_path):
        report = run_campaign("retention", seed=0, **FAST)
        out = tmp_path / "report.json"
        write_report(report, out)
        loaded = load_json(out)
        validate_report(loaded)
        assert loaded["summary"] == report["summary"]


class TestInjectCLI:
    def test_retention_seed7_exits_zero_and_reports_faults(self, tmp_path, capsys):
        out = tmp_path / "campaign.json"
        assert main(["inject", "retention", "--seed", "7",
                     "--trace-length", "1500", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "verdict        : OK" in stdout
        report = json.loads(out.read_text())
        validate_report(report)
        assert report["seed"] == 7
        assert report["summary"]["faults_injected"] >= 1
        assert report["summary"]["undetected_data_loss"] == 0

    def test_cli_report_matches_library_run(self, tmp_path):
        out = tmp_path / "campaign.json"
        main(["inject", "retention", "--seed", "7",
              "--trace-length", "1500", "--out", str(out)])
        direct = run_campaign("retention", seed=7, trace_length=1500)
        assert canonical_json(load_json(out)) == canonical_json(direct)

    def test_unknown_campaign_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["inject", "nonsense"])
        assert excinfo.value.code == 2

    def test_bad_trace_length_exits_two(self, capsys):
        assert main(["inject", "retention", "--trace-length", "0"]) == 2
        assert "inject" in capsys.readouterr().err


class TestDigestGateWithCheckerAttached:
    """Injection off + checker on must leave pinned results untouched."""

    def test_quick_bench_digest_unchanged(self):
        from repro.benchmarks import QUICK_SCENARIOS, result_digest
        from repro.config import all_configs
        from repro.faults import InvariantChecker
        from repro.gpu.simulator import GPUSimulator
        from repro.workloads import build_workload

        baseline_doc = load_json(REPO_ROOT / "BENCH_replay.json")
        baseline = {
            (s["workload"], s["config"], s["trace_length"], s["seed"]):
                s["result_sha256"]
            for s in baseline_doc["scenarios"]
        }
        scenario = QUICK_SCENARIOS[0]
        key = (scenario.workload, scenario.config,
               scenario.trace_length, scenario.seed)
        assert key in baseline, "pinned quick scenario missing from baseline"
        config = all_configs()[scenario.config]
        workload = build_workload(
            scenario.workload, num_accesses=scenario.trace_length,
            num_sms=config.num_sms, seed=scenario.seed,
        )
        simulator = GPUSimulator(config, workload)
        checker = InvariantChecker(simulator.l2)
        simulator.invariant_checker = checker
        digest = result_digest(simulator.run())
        assert digest == baseline[key]
        assert checker.ok
        assert checker.checks_run > 0
