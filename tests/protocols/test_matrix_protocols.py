"""Behavioural tests for the matrix protocols (MESIDir, MOESISnoop).

Hand-crafted streams pin the state transitions each variant adds over its
MSI base: clean-exclusive grants and silent E->M upgrades for the MESI
directory, and the owned state (cache-to-cache supply without memory
writeback, permission-only upgrades) for the MOESI snooper.
"""

from repro.memory.coherence import CacheState
from repro.processor.consistency import (
    check_snoop_home_invariant,
    check_swmr_invariant,
)
from repro.protocols.base import MissSource

from tests.conftest import build_and_run, empty_streams, miss_records, ref

BLOCK = 0  # homed at node 0
OWNER = 1
READER = 2
THIRD = 5


class TestMESIExclusiveGrants:
    def test_read_miss_on_uncached_block_installs_exclusive(self):
        streams = empty_streams()
        streams[READER] = [ref(BLOCK, "load")]
        system = build_and_run("mesi-dir", streams)
        assert system.controllers[READER].cache.state_of(BLOCK) is CacheState.EXCLUSIVE
        record = miss_records(system.controllers[READER])[0]
        assert record.source is MissSource.MEMORY
        assert not check_swmr_invariant(system.controllers)

    def test_store_hit_upgrades_exclusive_silently(self):
        streams = empty_streams()
        streams[OWNER] = [
            ref(BLOCK, "load"),
            ref(BLOCK, "store", think=40_000),
        ]
        system = build_and_run("mesi-dir", streams)
        owner = system.controllers[OWNER]
        assert owner.cache.state_of(BLOCK) is CacheState.MODIFIED
        # The store was a cache hit: one miss (the initial load), no
        # upgrade transaction, no extra coherence traffic.
        assert len(miss_records(owner)) == 1
        assert system.checker.clean

    def test_msi_directory_pays_an_upgrade_miss_for_the_same_stream(self):
        streams = empty_streams()
        streams[OWNER] = [
            ref(BLOCK, "load"),
            ref(BLOCK, "store", think=40_000),
        ]
        system = build_and_run("diropt", streams)
        # DirOpt installs the load in S, so the store is a second miss;
        # the silent-upgrade test above is the MESI delta to this.
        assert len(miss_records(system.controllers[OWNER])) == 2

    def test_second_reader_downgrades_the_exclusive_copy(self):
        streams = empty_streams()
        streams[OWNER] = [ref(BLOCK, "load")]
        streams[READER] = [ref(BLOCK, "load", think=40_000)]
        system = build_and_run("mesi-dir", streams)
        assert system.controllers[OWNER].cache.state_of(BLOCK) is CacheState.SHARED
        assert system.controllers[READER].cache.state_of(BLOCK) is CacheState.SHARED
        # The clean-exclusive copy supplied the data (the directory's EM
        # ambiguity forwards the request to the E owner).
        record = miss_records(system.controllers[READER])[0]
        assert record.source is MissSource.CACHE

    def test_store_miss_still_installs_modified(self):
        streams = empty_streams()
        streams[OWNER] = [ref(BLOCK, "store")]
        system = build_and_run("mesi-dir", streams)
        assert system.controllers[OWNER].cache.state_of(BLOCK) is CacheState.MODIFIED

    def test_clean_exclusive_eviction_does_not_strand_the_directory(self):
        # A tiny direct-mapped-ish cache forces the E copy of BLOCK out
        # without a store ever dirtying it.  The eviction must announce
        # itself to the home (a silent drop would leave the directory
        # forwarding later requests to the dropped copy -- a deadlock).
        overrides = {"cache_size_bytes": 8 * 1024, "cache_associativity": 1}
        conflicting = [ref(16 * i, "load", think=2_000) for i in range(1, 9)]
        streams = empty_streams()
        streams[OWNER] = [ref(BLOCK, "load")] + conflicting
        streams[READER] = [ref(BLOCK, "load", think=120_000)]
        system = build_and_run("mesi-dir", streams, config_overrides=overrides)
        assert system.controllers[OWNER].cache.state_of(BLOCK) is CacheState.INVALID
        # The later reader is served from memory, not from a forward to
        # the long-gone exclusive copy.
        record = miss_records(system.controllers[READER])[0]
        assert record.source is MissSource.MEMORY
        assert system.checker.clean


class TestMOESIOwnedState:
    def test_remote_load_leaves_the_writer_owned_without_writeback(self):
        streams = empty_streams()
        streams[OWNER] = [ref(BLOCK, "store")]
        streams[READER] = [ref(BLOCK, "load", think=40_000)]
        system = build_and_run("moesi-snoop", streams)
        assert system.controllers[OWNER].cache.state_of(BLOCK) is CacheState.OWNED
        assert system.controllers[READER].cache.state_of(BLOCK) is CacheState.SHARED
        record = miss_records(system.controllers[READER])[0]
        assert record.source is MissSource.CACHE
        # Memory's owner bit still names the O holder: no writeback
        # happened (the MSI snooper would have downgraded to S and handed
        # ownership back to memory here).
        home = system.controllers[0].home_blocks[BLOCK]
        assert home.owner == OWNER
        assert not check_snoop_home_invariant(system.controllers)

    def test_owner_supplies_every_later_reader(self):
        streams = empty_streams()
        streams[OWNER] = [ref(BLOCK, "store")]
        streams[READER] = [ref(BLOCK, "load", think=40_000)]
        streams[THIRD] = [ref(BLOCK, "load", think=80_000)]
        system = build_and_run("moesi-snoop", streams)
        # Both readers are cache-to-cache: the O copy keeps supplying
        # (under MSI the second reader would fall back to memory).
        for node in (READER, THIRD):
            record = miss_records(system.controllers[node])[0]
            assert record.source is MissSource.CACHE
        assert system.controllers[OWNER].cache.state_of(BLOCK) is CacheState.OWNED

    def test_owned_store_is_a_permission_only_upgrade(self):
        streams = empty_streams()
        streams[OWNER] = [
            ref(BLOCK, "store"),
            ref(BLOCK, "store", think=80_000),
        ]
        streams[READER] = [ref(BLOCK, "load", think=40_000)]
        system = build_and_run("moesi-snoop", streams)
        owner = system.controllers[OWNER]
        assert owner.cache.state_of(BLOCK) is CacheState.MODIFIED
        assert system.controllers[READER].cache.state_of(BLOCK) is CacheState.INVALID
        # The second store found the data already resident in O: its miss
        # is an upgrade (permission-only), not a data transfer.
        assert miss_records(owner)[-1].source is MissSource.UPGRADE
        # An upgrade moves no data, so it is not a cache-to-cache miss.
        assert owner.cache_to_cache_misses == 0
        assert system.checker.clean
        assert not check_snoop_home_invariant(system.controllers)

    def test_msi_snooper_behaviour_is_unchanged(self):
        # The owned state is strictly additive: the same sharing stream
        # under plain ts-snoop still downgrades the writer to S (writeback
        # to memory), proving the MOESI gates default off.
        streams = empty_streams()
        streams[OWNER] = [ref(BLOCK, "store")]
        streams[READER] = [ref(BLOCK, "load", think=40_000)]
        system = build_and_run("ts-snoop", streams)
        assert system.controllers[OWNER].cache.state_of(BLOCK) is CacheState.SHARED
        home = system.controllers[0].home_blocks[BLOCK]
        assert home.owner is None
