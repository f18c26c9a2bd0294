"""Tests for the MSHR file and the bank conflict model."""

import pytest
from hypothesis import given, strategies as st

from repro.benchmarks import QUICK_SCENARIOS
from repro.cache.banked import BankStats, BankedCache, summarize_banks
from repro.cache.mshr import MSHRFile
from repro.config import all_configs
from repro.engine import make_simulator
from repro.errors import ConfigurationError, SimulationError
from repro.io import simulation_result_to_dict
from repro.workloads import build_workload


class TestMSHR:
    def test_allocate_then_coalesce(self):
        mshr = MSHRFile(num_entries=4)
        assert mshr.register_miss(0x1000) == "allocated"
        assert mshr.register_miss(0x1000) == "coalesced"
        assert mshr.stats.allocations == 1
        assert mshr.stats.coalesced == 1

    def test_full_file_stalls(self):
        mshr = MSHRFile(num_entries=2)
        mshr.register_miss(0x1000)
        mshr.register_miss(0x2000)
        assert mshr.register_miss(0x3000) == "stall"
        assert mshr.stats.stalls == 1

    def test_merge_limit_stalls(self):
        mshr = MSHRFile(num_entries=4, max_merged=2)
        mshr.register_miss(0x1000)
        mshr.register_miss(0x1000)
        assert mshr.register_miss(0x1000) == "stall"

    def test_complete_returns_merged_count(self):
        mshr = MSHRFile(num_entries=4)
        mshr.register_miss(0x1000)
        mshr.register_miss(0x1000)
        assert mshr.complete(0x1000) == 2
        assert not mshr.lookup(0x1000)

    def test_complete_unknown_raises(self):
        mshr = MSHRFile(num_entries=4)
        with pytest.raises(SimulationError):
            mshr.complete(0x9000)

    def test_completion_frees_entry(self):
        mshr = MSHRFile(num_entries=1)
        mshr.register_miss(0x1000)
        mshr.complete(0x1000)
        assert mshr.register_miss(0x2000) == "allocated"

    def test_reset_clears(self):
        mshr = MSHRFile(num_entries=2)
        mshr.register_miss(0x1000)
        mshr.reset()
        assert mshr.occupancy == 0

    def test_rejects_bad_sizes(self):
        with pytest.raises(ConfigurationError):
            MSHRFile(num_entries=0)
        with pytest.raises(ConfigurationError):
            MSHRFile(num_entries=4, max_merged=0)

    @given(st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=100))
    def test_occupancy_bounded(self, lines):
        mshr = MSHRFile(num_entries=4)
        for lid in lines:
            mshr.register_miss(lid * 256)
        assert 0 <= mshr.occupancy <= 4
        assert len(mshr.outstanding_lines()) == mshr.occupancy


class TestBankedCache:
    def test_no_conflict_when_idle(self):
        banks = BankedCache(num_banks=8, line_size=256)
        wait = banks.schedule(0x0000, now=0.0, service_time=10e-9)
        assert wait == 0.0

    def test_back_to_back_same_bank_conflicts(self):
        banks = BankedCache(num_banks=8, line_size=256)
        banks.schedule(0x0000, now=0.0, service_time=10e-9)
        wait = banks.schedule(0x0000, now=0.0, service_time=10e-9)
        assert wait == pytest.approx(10e-9)
        assert banks.stats.conflicts == 1

    def test_different_banks_independent(self):
        banks = BankedCache(num_banks=8, line_size=256)
        banks.schedule(0 * 256, now=0.0, service_time=10e-9)
        wait = banks.schedule(1 * 256, now=0.0, service_time=10e-9)
        assert wait == 0.0

    def test_wait_decreases_as_time_passes(self):
        banks = BankedCache(num_banks=4, line_size=256)
        banks.schedule(0x0000, now=0.0, service_time=10e-9)
        wait = banks.schedule(0x0000, now=6e-9, service_time=10e-9)
        assert wait == pytest.approx(4e-9)

    def test_utilization(self):
        banks = BankedCache(num_banks=2, line_size=256)
        banks.schedule(0 * 256, now=0.0, service_time=5e-9)
        banks.schedule(1 * 256, now=0.0, service_time=5e-9)
        assert banks.utilization(10e-9) == pytest.approx(0.5)

    def test_negative_service_rejected(self):
        banks = BankedCache(num_banks=2, line_size=256)
        with pytest.raises(ConfigurationError):
            banks.schedule(0, now=0.0, service_time=-1.0)

    def test_reset(self):
        banks = BankedCache(num_banks=2, line_size=256)
        banks.schedule(0, now=0.0, service_time=1.0)
        banks.reset()
        assert banks.busy_until(0) == 0.0

    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=63),
                              st.floats(min_value=0, max_value=1e-6)),
                    min_size=1, max_size=100))
    def test_busy_until_monotone_per_bank(self, requests):
        """A bank's busy-until never decreases as requests arrive in time order."""
        banks = BankedCache(num_banks=4, line_size=256)
        now = 0.0
        last = {}
        for lid, dt in requests:
            now += dt
            addr = lid * 256
            bank = banks.bank_for(addr)
            banks.schedule(addr, now=now, service_time=5e-9)
            busy = banks.busy_until(addr)
            assert busy >= last.get(bank, 0.0)
            last[bank] = busy


class TestBankStatsIdleBanks:
    def test_idle_bank_rates_are_none(self):
        stats = BankStats()
        assert stats.idle
        assert stats.conflict_rate is None
        assert stats.mean_wait is None

    def test_active_bank_rates_are_floats(self):
        stats = BankStats(requests=8, conflicts=2, total_wait=4e-9)
        assert not stats.idle
        assert stats.conflict_rate == pytest.approx(0.25)
        assert stats.mean_wait == pytest.approx(5e-10)

    def test_summarize_excludes_idle_banks_from_averages(self):
        banks = [
            BankStats(requests=10, conflicts=5, total_wait=10e-9),
            BankStats(),  # idle: must not dilute the averages
            BankStats(requests=10, conflicts=5, total_wait=10e-9),
            BankStats(),
        ]
        summary = summarize_banks(banks)
        assert summary["banks"] == 4
        assert summary["active_banks"] == 2
        assert summary["idle_banks"] == 2
        assert summary["requests"] == 20
        assert summary["conflict_rate"] == pytest.approx(0.5)
        assert summary["mean_wait_s"] == pytest.approx(1e-9)

    def test_summarize_all_idle(self):
        summary = summarize_banks([BankStats(), BankStats()])
        assert summary["active_banks"] == 0
        assert summary["conflict_rate"] is None
        assert summary["mean_wait_s"] is None

    def test_banked_cache_tracks_per_bank_counters(self):
        cache = BankedCache(4, 128)
        for i in range(8):
            cache.schedule(i * 128, now=0.0, service_time=1e-9)
        per = cache.per_bank
        assert len(per) == 4
        assert sum(b.requests for b in per) == cache.stats.requests == 8
        assert sum(b.conflicts for b in per) == cache.stats.conflicts


def test_bank_stats_never_reach_the_canonical_dict():
    """Digest surface is frozen: bank_stats is observability-only."""
    scenario = QUICK_SCENARIOS[0]
    config = all_configs()[scenario.config]
    workload = build_workload(
        scenario.workload,
        num_accesses=scenario.trace_length,
        num_sms=config.num_sms,
        seed=scenario.seed,
    )
    result = make_simulator(config, workload, engine="soa").run()
    assert result.bank_stats is not None
    assert "bank_stats" not in simulation_result_to_dict(result)
