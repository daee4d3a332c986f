"""PackedCacheArray: unit behaviour + property equivalence with an oracle.

The packed array must be observationally identical to the dict/object
oracle in ``tests/memory/reference_cache.py`` after every operation of any
sequence of install / touch / set_state / write operations.
"""

import pytest

from repro.memory.cache import _SLOT_NUMBERS, PackedCacheArray
from repro.memory.coherence import CacheState
from tests.memory.reference_cache import CacheArray

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def tiny(cls, ways=2):
    """A 4-set array so evictions happen quickly."""
    return cls(size_bytes=4 * ways * 64, associativity=ways, block_size=64)


# ---------------------------------------------------------------- unit tests
class TestPackedBasics:
    def test_missing_block_reads_invalid(self):
        cache = tiny(PackedCacheArray)
        assert cache.lookup(10) is None
        assert cache.state_of(10) is CacheState.INVALID
        assert cache.version_of(10) == 0
        assert 10 not in cache

    def test_install_and_lookup(self):
        cache = tiny(PackedCacheArray)
        cache.install(5, CacheState.SHARED, version=7)
        line = cache.lookup(5)
        assert line.block == 5
        assert line.state is CacheState.SHARED
        assert line.version == 7
        assert not line.dirty
        assert cache.version_of(5) == 7

    def test_lru_victim_selection(self):
        cache = tiny(PackedCacheArray)
        # blocks 0, 4, 8 map to set 0 (4 sets); 2 ways.
        cache.install(0, CacheState.SHARED)
        cache.install(4, CacheState.SHARED)
        cache.touch(0)                       # 4 becomes LRU
        eviction = cache.install(8, CacheState.SHARED)
        assert eviction.victim_block == 4
        assert 0 in cache and 8 in cache and 4 not in cache

    def test_dirty_victim_needs_writeback(self):
        cache = tiny(PackedCacheArray)
        cache.install(0, CacheState.MODIFIED, version=3, dirty=True)
        cache.install(4, CacheState.SHARED)
        eviction = cache.install(8, CacheState.SHARED)
        assert eviction.victim_block == 0
        assert eviction.needs_writeback
        assert eviction.victim_version == 3

    def test_set_state_invalid_frees_the_way(self):
        cache = tiny(PackedCacheArray)
        cache.install(5, CacheState.SHARED)
        cache.set_state(5, CacheState.INVALID)
        assert cache.lookup(5) is None
        assert list(cache.resident_blocks()) == []

    def test_write_bumps_version_and_dirty(self):
        cache = tiny(PackedCacheArray)
        cache.install(5, CacheState.MODIFIED)
        cache.write(5, 9)
        line = cache.lookup(5)
        assert line.dirty and line.version == 9

    def test_touch_missing_raises(self):
        cache = tiny(PackedCacheArray)
        with pytest.raises(KeyError):
            cache.touch(3)

    def test_install_invalid_rejected(self):
        cache = tiny(PackedCacheArray)
        with pytest.raises(ValueError):
            cache.install(1, CacheState.INVALID)

    def test_set_bases_are_the_shared_slot_numbers(self):
        # 128 sets of 4 ways: bases run past 256, beyond CPython's cached
        # small ints, so only the shared table can make them identical.
        cache = PackedCacheArray(size_bytes=128 * 4 * 64, associativity=4)
        for block in range(cache.num_sets):
            cache.install(block, CacheState.SHARED)
        bases = cache._set_base.values()
        assert max(bases) > 256
        assert all(base is _SLOT_NUMBERS[base] for base in bases)


# ----------------------------------------------------------- property tests
_STATES = [CacheState.SHARED, CacheState.EXCLUSIVE, CacheState.OWNED,
           CacheState.MODIFIED]

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("install"), st.integers(0, 31),
                  st.sampled_from(_STATES), st.integers(0, 5),
                  st.booleans()),
        st.tuples(st.just("touch"), st.integers(0, 31)),
        st.tuples(st.just("write"), st.integers(0, 31), st.integers(0, 9)),
        st.tuples(st.just("set_state"), st.integers(0, 31),
                  st.sampled_from(_STATES + [CacheState.INVALID])),
    ),
    max_size=120,
)


def _apply(cache, op):
    """Run one op; return an observable outcome (or raised marker)."""
    name = op[0]
    block = op[1]
    try:
        if name == "install":
            eviction = cache.install(block, op[2], version=op[3], dirty=op[4])
            return ("evicted", eviction.victim_block, eviction.victim_state,
                    eviction.victim_dirty, eviction.victim_version)
        if name == "touch":
            cache.touch(block)
            return ("touched",)
        if name == "write":
            cache.write(block, op[2])
            return ("wrote",)
        if name == "set_state":
            cache.set_state(block, op[2])
            return ("set",)
    except KeyError:
        return ("keyerror",)
    raise AssertionError(f"unknown op {name}")


def _observe(cache):
    """Every per-block query over the op range, plus the resident set."""
    return (
        [(cache.state_of(block), cache.version_of(block), block in cache)
         for block in range(32)],
        sorted(cache.resident_blocks()),
    )


class TestPackedMatchesReference:
    @pytest.mark.parametrize("ways", [1, 2, 4])
    @settings(max_examples=150, deadline=None)
    @given(ops=_ops)
    def test_random_sequences_identical(self, ways, ops):
        reference = tiny(CacheArray, ways)
        packed = tiny(PackedCacheArray, ways)
        for op in ops:
            assert _apply(reference, op) == _apply(packed, op), op
            assert _observe(reference) == _observe(packed), op
