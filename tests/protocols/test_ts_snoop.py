"""Behavioural tests for the TS-Snoop protocol on hand-crafted streams."""


from repro.memory.coherence import CacheState
from repro.processor.consistency import check_swmr_invariant
from repro.protocols.base import MissSource

from tests.conftest import build_and_run, empty_streams, miss_records, ref


BLOCK = 0          # homed at node 0
OWNER = 1
READER = 2


class TestCacheToCacheTransfer:
    def test_dirty_miss_is_sourced_from_cache(self):
        streams = empty_streams()
        streams[OWNER] = [ref(BLOCK, "store")]
        streams[READER] = [ref(BLOCK, "load", think=40_000)]
        system = build_and_run("ts-snoop", streams)
        record = miss_records(system.controllers[READER])[0]
        assert record.source is MissSource.CACHE
        assert system.checker.clean

    def test_dirty_miss_latency_matches_table2_on_butterfly(self):
        """Block from cache with timestamp snooping: 123 ns (Table 2)."""
        streams = empty_streams()
        streams[OWNER] = [ref(BLOCK, "store")]
        streams[READER] = [ref(BLOCK, "load", think=40_000)]
        system = build_and_run("ts-snoop", streams, network="butterfly")
        record = miss_records(system.controllers[READER])[0]
        assert record.latency == 123

    def test_memory_miss_latency_matches_table2_on_butterfly(self):
        """Block from memory: 178 ns (Table 2)."""
        streams = empty_streams()
        streams[READER] = [ref(BLOCK, "load")]
        system = build_and_run("ts-snoop", streams, network="butterfly")
        record = miss_records(system.controllers[READER])[0]
        assert record.source is MissSource.MEMORY
        assert record.latency == 178

    def test_owner_downgrades_to_shared_and_memory_reclaims_ownership(self):
        streams = empty_streams()
        streams[OWNER] = [ref(BLOCK, "store")]
        streams[READER] = [ref(BLOCK, "load", think=40_000)]
        third = 5
        streams[third] = [ref(BLOCK, "load", think=80_000)]
        system = build_and_run("ts-snoop", streams)
        assert system.controllers[OWNER].cache.state_of(BLOCK) is CacheState.SHARED
        assert system.controllers[READER].cache.state_of(BLOCK) is CacheState.SHARED
        # After the owner's downgrade writeback, memory sources later misses.
        record = miss_records(system.controllers[third])[0]
        assert record.source is MissSource.MEMORY


class TestWritePermission:
    def test_store_to_shared_block_invalidates_other_sharers(self):
        streams = empty_streams()
        streams[1] = [ref(BLOCK, "load")]
        streams[2] = [ref(BLOCK, "load")]
        streams[3] = [ref(BLOCK, "store", think=40_000)]
        system = build_and_run("ts-snoop", streams)
        assert system.controllers[3].cache.state_of(BLOCK) is CacheState.MODIFIED
        assert system.controllers[1].cache.state_of(BLOCK) is CacheState.INVALID
        assert system.controllers[2].cache.state_of(BLOCK) is CacheState.INVALID
        assert not check_swmr_invariant(system.controllers)

    def test_write_serialisation_between_two_nodes(self):
        streams = empty_streams()
        streams[1] = [ref(BLOCK, "store", think=i * 8_000) for i in range(4)]
        streams[2] = [ref(BLOCK, "store", think=4_000 + i * 8_000)
                      for i in range(4)]
        system = build_and_run("ts-snoop", streams)
        system.checker.assert_clean()
        assert not check_swmr_invariant(system.controllers)
        modified_holders = [c.node for c in system.controllers
                            if c.cache.state_of(BLOCK) is CacheState.MODIFIED]
        assert len(modified_holders) == 1

    def test_concurrent_stores_from_many_nodes_stay_coherent(self):
        streams = empty_streams()
        for node in range(16):
            streams[node] = [ref(BLOCK, "atomic") for _ in range(3)]
        system = build_and_run("ts-snoop", streams)
        system.checker.assert_clean()
        assert not check_swmr_invariant(system.controllers)
        total_writes = 16 * 3
        assert system.checker.writes_recorded == total_writes


class TestWritebacks:
    def test_capacity_evictions_produce_writebacks(self):
        # A tiny 8 KiB / 4-way cache forces dirty victims out quickly.
        overrides = {"cache_size_bytes": 8 * 1024}
        streams = empty_streams()
        streams[1] = [ref(16 * i + 1, "store") for i in range(64)]
        system = build_and_run("ts-snoop", streams,
                               config_overrides=overrides)
        controller = system.controllers[1]
        assert controller.dirty_evictions > 0
        assert system.checker.clean

    def test_reread_after_eviction_refetches_latest_data(self):
        overrides = {"cache_size_bytes": 8 * 1024}
        blocks = [16 * i + 1 for i in range(64)]
        streams = empty_streams()
        streams[1] = ([ref(b, "store") for b in blocks]
                      + [ref(blocks[0], "load", think=40_000)])
        system = build_and_run("ts-snoop", streams,
                               config_overrides=overrides)
        system.checker.assert_clean()


class TestProtocolOptions:
    def test_prefetch_optimisation_never_hurts_latency(self):
        streams = empty_streams()
        streams[OWNER] = [ref(BLOCK, "store")]
        streams[READER] = [ref(BLOCK, "load", think=40_000)]
        with_prefetch = build_and_run(
            "ts-snoop", streams, config_overrides={"prefetch_optimization": True})
        without_prefetch = build_and_run(
            "ts-snoop", streams, config_overrides={"prefetch_optimization": False})
        fast = miss_records(with_prefetch.controllers[READER])[0].latency
        slow = miss_records(without_prefetch.controllers[READER])[0].latency
        assert fast <= slow

    def test_extra_slack_delays_misses(self):
        streams = empty_streams()
        streams[READER] = [ref(BLOCK, "load")]
        base = build_and_run("ts-snoop", streams)
        slacked = build_and_run("ts-snoop", streams,
                                config_overrides={"slack": 4})
        assert (miss_records(slacked.controllers[READER])[0].latency
                >= miss_records(base.controllers[READER])[0].latency)

    def test_detailed_network_produces_same_coherence_outcome(self):
        streams = empty_streams()
        streams[OWNER] = [ref(BLOCK, "store")]
        streams[READER] = [ref(BLOCK, "load", think=40_000)]
        system = build_and_run(
            "ts-snoop", streams, network="torus",
            config_overrides={"detailed_address_network": True})
        record = miss_records(system.controllers[READER])[0]
        assert record.source is MissSource.CACHE
        assert system.checker.clean
