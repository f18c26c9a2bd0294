"""Tests for the behavioural set-associative cache array.

Every test class runs against the object array (:class:`SetAssociativeCache`)
and, through its ``...Soa`` twin at the end of the module, against the
``soa`` engine's drop-in :class:`SoaCacheArray` (all cases use LRU, the
only policy the SoA array supports).
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cache.array import SetAssociativeCache
from repro.engine.soa_array import SoaCacheArray
from repro.errors import GeometryError
from repro.units import KB


#: Property tests inherited by a ``...Soa`` twin run from two classes; the
#: examples are valid for either backing, so sharing them is intended.
TWINNED = [HealthCheck.differing_executors]


class ArrayContract:
    """Builds the cache array under test; twins override ``ARRAY``."""

    ARRAY = SetAssociativeCache

    def make_cache(self, capacity=16 * KB, assoc=4, line=256, **kwargs):
        return self.ARRAY(capacity, assoc, line, **kwargs)


class TestGeometry(ArrayContract):
    def test_num_sets(self):
        cache = self.make_cache(16 * KB, 4, 256)
        assert cache.num_sets == 16

    def test_num_lines(self):
        cache = self.make_cache(16 * KB, 4, 256)
        assert cache.num_lines == 64

    def test_non_factoring_geometry_rejected(self):
        with pytest.raises(GeometryError):
            self.make_cache(16 * KB + 1, 4, 256)

    def test_seven_way_non_pow2_sets(self):
        cache = self.make_cache(1344 * KB, 7, 256)
        assert cache.num_sets == 768


class TestBasicAccess(ArrayContract):
    def test_cold_miss_then_hit(self):
        cache = self.make_cache()
        first = cache.access(0x1000, is_write=False)
        assert not first.hit and first.filled
        second = cache.access(0x1000, is_write=False)
        assert second.hit

    def test_same_line_different_bytes_hit(self):
        cache = self.make_cache(line=256)
        cache.access(0x1000, is_write=False)
        assert cache.access(0x10FF, is_write=False).hit

    def test_write_marks_dirty(self):
        cache = self.make_cache()
        cache.access(0x2000, is_write=True)
        block = cache.block_at(0x2000)
        assert block is not None and block.dirty

    def test_read_fill_is_clean(self):
        cache = self.make_cache()
        cache.access(0x2000, is_write=False)
        block = cache.block_at(0x2000)
        assert block is not None and not block.dirty

    def test_write_no_allocate_mode(self):
        cache = self.make_cache(write_allocate=False)
        outcome = cache.access(0x3000, is_write=True)
        assert not outcome.hit and not outcome.filled
        assert cache.block_at(0x3000) is None

    def test_probe_has_no_side_effects(self):
        cache = self.make_cache()
        assert not cache.probe(0x1000)
        assert cache.stats.accesses == 0


class TestEviction(ArrayContract):
    def test_conflict_eviction_reports_address(self):
        cache = self.make_cache(capacity=2 * 256, assoc=1, line=256)  # 2 sets, direct-mapped
        cache.access(0x0000, is_write=False)
        outcome = cache.access(0x0000 + 2 * 256, is_write=False)  # same set
        assert outcome.evicted_address == 0x0000
        assert not outcome.evicted_dirty

    def test_dirty_eviction_flagged(self):
        cache = self.make_cache(capacity=2 * 256, assoc=1, line=256)
        cache.access(0x0000, is_write=True)
        outcome = cache.access(0x0000 + 2 * 256, is_write=False)
        assert outcome.evicted_dirty
        assert cache.stats.evictions_dirty == 1

    def test_lru_eviction_order(self):
        cache = self.make_cache(capacity=2 * 256, assoc=2, line=256)  # 1 set, 2 ways
        cache.access(0x0000, is_write=False)
        cache.access(0x0100, is_write=False)
        cache.access(0x0000, is_write=False)  # touch 0 -> 0x100 is LRU
        outcome = cache.access(0x0200, is_write=False)
        assert outcome.evicted_address == 0x0100

    def test_explicit_evict(self):
        cache = self.make_cache()
        cache.access(0x5000, is_write=True)
        result = cache.evict(0x5000)
        assert result == (0x5000, True)
        assert cache.block_at(0x5000) is None

    def test_evict_missing_returns_none(self):
        cache = self.make_cache()
        assert cache.evict(0x5000) is None


class TestFill(ArrayContract):
    def test_fill_installs_without_demand_stats(self):
        cache = self.make_cache()
        cache.fill(0x4000, dirty=True)
        assert cache.stats.accesses == 0
        assert cache.probe(0x4000)

    def test_fill_existing_line_merges_dirty(self):
        cache = self.make_cache()
        cache.fill(0x4000, dirty=False)
        cache.fill(0x4000, dirty=True)
        block = cache.block_at(0x4000)
        assert block is not None and block.dirty
        # no duplicate installed
        assert cache.stats.fills == 1


class TestInvalidate(ArrayContract):
    def test_invalidate_present(self):
        cache = self.make_cache()
        cache.access(0x6000, is_write=False)
        assert cache.invalidate(0x6000)
        assert not cache.probe(0x6000)
        assert cache.stats.invalidations == 1

    def test_invalidate_absent(self):
        cache = self.make_cache()
        assert not cache.invalidate(0x6000)

    def test_flush_counts_dirty(self):
        cache = self.make_cache()
        cache.access(0x1000, is_write=True)
        cache.access(0x2000, is_write=False)
        assert cache.flush() == 1
        assert cache.occupancy() == 0.0


class TestStats(ArrayContract):
    def test_hit_rate(self):
        cache = self.make_cache()
        cache.access(0x1000, is_write=False)
        cache.access(0x1000, is_write=False)
        cache.access(0x1000, is_write=True)
        assert cache.stats.accesses == 3
        assert cache.stats.hits == 2
        assert cache.stats.hit_rate == pytest.approx(2 / 3)

    def test_write_counters_saturate(self):
        cache = self.make_cache(write_counter_saturation=3)
        cache.access(0x1000, is_write=True)
        for _ in range(10):
            cache.access(0x1000, is_write=True)
        block = cache.block_at(0x1000)
        assert block is not None
        assert block.write_count == 3
        assert block.total_writes == 11

    def test_per_set_write_counts(self):
        cache = self.make_cache(capacity=4 * 256, assoc=1, line=256)  # 4 sets
        cache.access(0 * 256, is_write=True)
        cache.access(1 * 256, is_write=True)
        cache.access(1 * 256, is_write=True)
        counts = cache.per_set_write_counts()
        assert counts[0] == 1 and counts[1] == 2 and counts[2] == 0


class TestCapacityBehaviour(ArrayContract):
    def test_working_set_within_capacity_all_hits_after_warmup(self):
        cache = self.make_cache(capacity=16 * KB, assoc=4, line=256)
        lines = [i * 256 for i in range(32)]  # 8KB working set
        for addr in lines:
            cache.access(addr, is_write=False)
        for addr in lines:
            assert cache.access(addr, is_write=False).hit

    def test_streaming_never_rehits(self):
        cache = self.make_cache(capacity=4 * KB, assoc=4, line=256)
        for i in range(1000):
            outcome = cache.access(i * 256, is_write=False)
            assert not outcome.hit

    @settings(max_examples=25, deadline=None, suppress_health_check=TWINNED)
    @given(st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=300),
           st.booleans())
    def test_occupancy_invariant(self, line_ids, writes):
        """Occupancy never exceeds 1.0 and the tag map stays consistent."""
        cache = self.make_cache(capacity=4 * KB, assoc=4, line=256)
        for lid in line_ids:
            cache.access(lid * 256, is_write=writes)
        assert 0.0 < cache.occupancy() <= 1.0
        # every valid block must be findable through block_at
        for index, way, block in cache.iter_blocks():
            if block.valid:
                addr = cache.mapper.rebuild(block.tag, index)
                found = cache.block_at(addr)
                assert found is block

    @settings(max_examples=25, deadline=None, suppress_health_check=TWINNED)
    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=63), st.booleans()),
                    min_size=1, max_size=200))
    def test_stats_balance(self, ops):
        """accesses = hits + misses; fills <= misses (write-allocate)."""
        cache = self.make_cache(capacity=2 * KB, assoc=2, line=256)
        for lid, is_write in ops:
            cache.access(lid * 256, is_write=is_write)
        stats = cache.stats
        assert stats.accesses == stats.hits + stats.misses
        assert stats.fills <= stats.misses
        assert stats.evictions <= stats.fills

    def test_non_pow2_sets_evict_in_lru_order(self):
        """The 12 KB/4-way/64 B texture geometry: 48 sets, divmod split."""
        cache = self.make_cache(capacity=12 * KB, assoc=4, line=64)
        assert cache.num_sets == 48
        stride = 48 * 64  # same set, next tag
        conflicting = [0x40 + i * stride for i in range(5)]
        for now, address in enumerate(conflicting[:4]):
            cache.access(address, is_write=now == 1, now=float(now))
        cache.access(conflicting[0], is_write=False, now=4.0)  # 0 is MRU now
        outcome = cache.access(conflicting[4], is_write=False, now=5.0)
        assert outcome.set_index == 1
        assert outcome.evicted_address == conflicting[1]
        assert outcome.evicted_dirty
        assert cache.probe(conflicting[0]) and not cache.probe(conflicting[1])


def _state(cache):
    """Every line's bookkeeping plus the per-set and per-frame counters."""
    blocks = [
        (index, way, block.valid, block.tag, block.dirty, block.write_count,
         block.total_writes, block.total_reads, block.last_write_time,
         block.last_access_time, block.insert_time)
        for index, way, block in cache.iter_blocks()
    ]
    return (blocks, cache.stats, cache.per_set_eviction_counts(),
            cache.per_set_write_counts(), cache.per_way_write_counts(),
            cache.per_frame_write_counts(), cache.occupancy())


_OPS = st.lists(
    st.tuples(
        st.sampled_from(["read", "write", "read-noalloc", "write-noalloc",
                         "fill", "fill-dirty", "invalidate", "evict",
                         "extract", "probe"]),
        st.integers(min_value=0, max_value=31),
    ),
    min_size=1, max_size=300,
)


class TestBackingsAgree:
    """Both backings give the same outcome for every call, and end equal."""

    @settings(max_examples=60, deadline=None)
    @given(_OPS, st.sampled_from([(12 * KB, 4, 64), (1 * KB, 2, 256)]),
           st.sampled_from([0, 3]))
    def test_random_operation_sequences(self, ops, geometry, saturation):
        capacity, assoc, line = geometry
        num_sets = capacity // (assoc * line)
        pair = [cls(*geometry, write_counter_saturation=saturation)
                for cls in (SetAssociativeCache, SoaCacheArray)]
        for now, (op, line_id) in enumerate(ops):
            # 32 lines over 4 sets: 8 tags per set keeps every way contended
            line_number = (line_id // 4) * num_sets + line_id % 4
            address = line_number * line + now % line
            calls = {
                "read": lambda c: c.access(address, False, float(now)),
                "write": lambda c: c.access(address, True, float(now)),
                "read-noalloc": lambda c: c.access(address, False, float(now),
                                                   allocate=False),
                "write-noalloc": lambda c: c.access(address, True, float(now),
                                                    allocate=False),
                "fill": lambda c: c.fill(address, float(now)),
                "fill-dirty": lambda c: c.fill(address, float(now), dirty=True),
                "invalidate": lambda c: c.invalidate(address),
                "evict": lambda c: c.evict(address),
                "extract": lambda c: c.extract(address),
                "probe": lambda c: c.probe(address),
            }
            obj, soa = (calls[op](cache) for cache in pair)
            assert obj == soa, (now, op, address)
        assert _state(pair[0]) == _state(pair[1])
        assert pair[0].flush() == pair[1].flush()
        assert _state(pair[0]) == _state(pair[1])


# --- the same contract on the soa engine's array ------------------------------


class TestGeometrySoa(TestGeometry):
    ARRAY = SoaCacheArray


class TestBasicAccessSoa(TestBasicAccess):
    ARRAY = SoaCacheArray


class TestEvictionSoa(TestEviction):
    ARRAY = SoaCacheArray


class TestFillSoa(TestFill):
    ARRAY = SoaCacheArray


class TestInvalidateSoa(TestInvalidate):
    ARRAY = SoaCacheArray


class TestStatsSoa(TestStats):
    ARRAY = SoaCacheArray


class TestCapacityBehaviourSoa(TestCapacityBehaviour):
    ARRAY = SoaCacheArray
