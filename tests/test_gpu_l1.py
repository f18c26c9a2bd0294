"""Tests for the GPU L1 write policies (the paper's Fig. 1-b).

Each class also runs as a ``...Soa`` twin on the ``soa`` engine's
:class:`SoaCacheArray` backing (end of module).
"""

import pytest

from repro.cache.array import SetAssociativeCache
from repro.config import L1Config
from repro.engine.soa_array import SoaCacheArray
from repro.gpu.l1 import GPUL1Cache, L2Request


class L1Contract:
    """Builds the L1 under test; twins override ``ARRAY``."""

    ARRAY = SetAssociativeCache

    def make_l1(self):
        return GPUL1Cache(L1Config(), array_factory=self.ARRAY)


class TestGlobalWrites(L1Contract):
    def test_global_write_miss_is_no_allocate(self):
        l1 = self.make_l1()
        requests = l1.access(0x1000, is_write=True, is_local=False, now=0.0)
        assert requests == [L2Request("write", 0x1000)]
        assert not l1.array.probe(0x1000)

    def test_global_write_hit_is_write_evict(self):
        l1 = self.make_l1()
        l1.access(0x1000, is_write=False, is_local=False, now=0.0)  # fill
        assert l1.array.probe(0x1000)
        requests = l1.access(0x1000, is_write=True, is_local=False, now=1e-9)
        assert requests == [L2Request("write", 0x1000)]
        assert not l1.array.probe(0x1000), "write-evict must drop the L1 copy"
        assert l1.gpu_stats.write_evictions == 1

    def test_global_write_never_leaves_dirty_line(self):
        l1 = self.make_l1()
        for i in range(50):
            l1.access(i * 128, is_write=True, is_local=False, now=i * 1e-9)
        dirty = [b for _, _, b in l1.array.iter_blocks() if b.valid and b.dirty]
        assert dirty == []

    def test_write_through_aligned_to_line(self):
        l1 = self.make_l1()
        requests = l1.access(0x10AB, is_write=True, is_local=False, now=0.0)
        assert requests[0].address == 0x1080  # 128B alignment


class TestGlobalReads(L1Contract):
    def test_read_miss_fetches(self):
        l1 = self.make_l1()
        requests = l1.access(0x2000, is_write=False, is_local=False, now=0.0)
        assert requests == [L2Request("fetch", 0x2000)]

    def test_read_hit_generates_no_traffic(self):
        l1 = self.make_l1()
        l1.access(0x2000, is_write=False, is_local=False, now=0.0)
        requests = l1.access(0x2000, is_write=False, is_local=False, now=1e-9)
        assert requests == []

    def test_hit_rate_tracks(self):
        l1 = self.make_l1()
        l1.access(0x2000, is_write=False, is_local=False, now=0.0)
        l1.access(0x2000, is_write=False, is_local=False, now=1e-9)
        assert l1.hit_rate == pytest.approx(0.5)


class TestLocalData(L1Contract):
    def test_local_write_allocates_and_fetches(self):
        l1 = self.make_l1()
        requests = l1.access(0x3000, is_write=True, is_local=True, now=0.0)
        # write-allocate: fetch the line, keep it dirty in L1
        assert L2Request("fetch", 0x3000) in requests
        block = l1.array.block_at(0x3000)
        assert block is not None and block.dirty

    def test_local_write_hit_stays_in_l1(self):
        l1 = self.make_l1()
        l1.access(0x3000, is_write=True, is_local=True, now=0.0)
        requests = l1.access(0x3000, is_write=True, is_local=True, now=1e-9)
        assert requests == []

    def test_dirty_local_eviction_writes_back(self):
        l1 = self.make_l1()
        config = l1.config
        sets = l1.array.num_sets
        # fill one set with dirty local lines beyond associativity
        conflicting = [0x100000 + i * sets * config.line_size
                       for i in range(config.associativity + 1)]
        writebacks = []
        for i, addr in enumerate(conflicting):
            for req in l1.access(addr, is_write=True, is_local=True, now=i * 1e-9):
                if req.kind == "writeback":
                    writebacks.append(req.address)
        assert writebacks == [conflicting[0]]
        assert l1.gpu_stats.local_writebacks == 1

    def test_writeback_request_is_write(self):
        assert L2Request("writeback", 0).is_write
        assert L2Request("write", 0).is_write
        assert not L2Request("fetch", 0).is_write


class TestStatsAccounting(L1Contract):
    def test_gpu_stats_partition(self):
        l1 = self.make_l1()
        l1.access(0x0, False, False, 0.0)
        l1.access(0x0, True, False, 0.0)
        l1.access(0x100, False, True, 0.0)
        l1.access(0x100, True, True, 0.0)
        stats = l1.gpu_stats
        assert stats.global_reads == 1
        assert stats.global_writes == 1
        assert stats.local_reads == 1
        assert stats.local_writes == 1

    def test_array_stats_count_all_demand(self):
        l1 = self.make_l1()
        l1.access(0x0, False, False, 0.0)
        l1.access(0x0, True, False, 0.0)
        assert l1.array.stats.accesses == 2


# --- the same policies on the soa engine's array -------------------------------


class TestGlobalWritesSoa(TestGlobalWrites):
    ARRAY = SoaCacheArray


class TestGlobalReadsSoa(TestGlobalReads):
    ARRAY = SoaCacheArray


class TestLocalDataSoa(TestLocalData):
    ARRAY = SoaCacheArray


class TestStatsAccountingSoa(TestStatsAccounting):
    ARRAY = SoaCacheArray
