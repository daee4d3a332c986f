"""Unit tests for the set-associative cache array (PackedCacheArray)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.memory.cache import PackedCacheArray
from repro.memory.coherence import CacheState


def small_cache(associativity: int = 2, sets: int = 4) -> PackedCacheArray:
    return PackedCacheArray(size_bytes=associativity * sets * 64,
                            associativity=associativity, block_size=64)


class TestGeometry:
    def test_paper_configuration(self):
        cache = PackedCacheArray()
        assert cache.num_sets == 4 * 1024 * 1024 // (4 * 64)

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            PackedCacheArray(size_bytes=1000, associativity=3, block_size=64)

    def test_set_index_wraps(self):
        cache = small_cache()
        assert cache.set_index(0) == cache.set_index(4) == 0


class TestLookupAndInstall:
    def test_miss_then_hit(self):
        cache = small_cache()
        assert cache.lookup(10) is None
        cache.install(10, CacheState.SHARED)
        assert cache.state_of(10) is CacheState.SHARED
        assert 10 in cache

    def test_install_invalid_rejected(self):
        with pytest.raises(ValueError):
            small_cache().install(1, CacheState.INVALID)

    def test_lru_victim_selection(self):
        cache = small_cache(associativity=2, sets=1)
        cache.install(0, CacheState.SHARED)
        cache.install(1, CacheState.SHARED)
        cache.touch(0)                       # 1 becomes LRU
        eviction = cache.install(2, CacheState.SHARED)
        assert eviction.victim_block == 1
        assert cache.lookup(1) is None
        assert cache.lookup(0) is not None

    def test_dirty_victim_needs_writeback(self):
        cache = small_cache(associativity=1, sets=1)
        cache.install(0, CacheState.MODIFIED, version=3, dirty=True)
        eviction = cache.install(1, CacheState.SHARED)
        assert eviction.needs_writeback
        assert eviction.victim_block == 0
        assert eviction.victim_version == 3

    def test_clean_victim_needs_no_writeback(self):
        cache = small_cache(associativity=1, sets=1)
        cache.install(0, CacheState.SHARED)
        eviction = cache.install(1, CacheState.SHARED)
        assert not eviction.needs_writeback

    def test_reinstalling_resident_block_evicts_nothing(self):
        cache = small_cache()
        cache.install(3, CacheState.SHARED)
        eviction = cache.install(3, CacheState.MODIFIED)
        assert eviction.victim_block is None
        assert cache.state_of(3) is CacheState.MODIFIED


class TestStateManagement:
    def test_set_state_to_invalid_removes_line(self):
        cache = small_cache()
        cache.install(5, CacheState.MODIFIED)
        cache.set_state(5, CacheState.INVALID)
        assert cache.lookup(5) is None

    def test_downgrade_clears_dirty(self):
        cache = small_cache()
        cache.install(5, CacheState.MODIFIED, dirty=True)
        cache.set_state(5, CacheState.SHARED)
        assert cache.lookup(5).dirty is False

    def test_set_state_missing_block_raises(self):
        with pytest.raises(KeyError):
            small_cache().set_state(9, CacheState.SHARED)

    def test_touch_missing_block_raises(self):
        with pytest.raises(KeyError):
            small_cache().touch(9)

    def test_write_updates_version_and_dirty(self):
        cache = small_cache()
        cache.install(5, CacheState.MODIFIED, version=1)
        cache.write(5, version=2)
        line = cache.lookup(5)
        assert line.version == 2
        assert line.dirty

    def test_evict_removes_silently(self):
        cache = small_cache()
        cache.install(5, CacheState.SHARED)
        line = cache.evict(5)
        assert line.block == 5
        assert cache.lookup(5) is None
        assert cache.evict(5) is None


class TestOccupancy:
    def test_occupancy_counts_resident_blocks(self):
        cache = small_cache()
        for block in range(3):
            cache.install(block, CacheState.SHARED)
        assert cache.occupancy() == 3
        assert set(cache.resident_blocks()) == {0, 1, 2}

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=63),
                    min_size=1, max_size=200))
    def test_associativity_never_exceeded(self, blocks):
        cache = small_cache(associativity=2, sets=4)
        for block in blocks:
            cache.install(block, CacheState.SHARED)
        for set_index in range(cache.num_sets):
            assert cache.set_occupancy(set_index) <= cache.associativity

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=63),
                    min_size=1, max_size=200))
    def test_most_recent_install_is_always_resident(self, blocks):
        cache = small_cache(associativity=2, sets=4)
        for block in blocks:
            cache.install(block, CacheState.SHARED)
            assert block in cache
