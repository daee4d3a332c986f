"""Behavioural tests for DirClassic and DirOpt on hand-crafted streams."""

import pytest

from repro.memory.coherence import CacheState
from repro.processor.consistency import check_swmr_invariant
from repro.protocols.base import MissSource

from tests.conftest import build_and_run, empty_streams, ref


BLOCK = 0
OWNER = 1
READER = 2
DIRECTORY_PROTOCOLS = ("dirclassic", "diropt")


class TestThreeHopTransfers:
    @pytest.mark.parametrize("protocol", DIRECTORY_PROTOCOLS)
    def test_dirty_miss_goes_through_the_home(self, protocol):
        streams = empty_streams()
        streams[OWNER] = [ref(BLOCK, "store")]
        streams[READER] = [ref(BLOCK, "load", think=40_000)]
        system = build_and_run(protocol, streams)
        record = system.controllers[READER].miss_records[0]
        assert record.source is MissSource.CACHE
        assert system.checker.clean

    @pytest.mark.parametrize("protocol", DIRECTORY_PROTOCOLS)
    def test_three_hop_latency_matches_table2_on_butterfly(self, protocol):
        """Block from cache with directory '3 hops': 252 ns (Table 2)."""
        streams = empty_streams()
        streams[OWNER] = [ref(BLOCK, "store")]
        streams[READER] = [ref(BLOCK, "load", think=40_000)]
        system = build_and_run(protocol, streams, network="butterfly")
        record = system.controllers[READER].miss_records[0]
        assert record.latency == 252

    @pytest.mark.parametrize("protocol", DIRECTORY_PROTOCOLS)
    def test_memory_miss_latency_matches_table2_on_butterfly(self, protocol):
        streams = empty_streams()
        streams[READER] = [ref(BLOCK, "load")]
        system = build_and_run(protocol, streams, network="butterfly")
        record = system.controllers[READER].miss_records[0]
        assert record.source is MissSource.MEMORY
        assert record.latency == 178

    @pytest.mark.parametrize("protocol", DIRECTORY_PROTOCOLS)
    def test_directory_is_slower_than_snooping_for_dirty_misses(self, protocol):
        streams = empty_streams()
        streams[OWNER] = [ref(BLOCK, "store")]
        streams[READER] = [ref(BLOCK, "load", think=40_000)]
        directory = build_and_run(protocol, streams)
        snooping = build_and_run("ts-snoop", streams)
        assert (directory.controllers[READER].miss_records[0].latency
                > snooping.controllers[READER].miss_records[0].latency)


class TestDirectoryBookkeeping:
    @pytest.mark.parametrize("protocol", DIRECTORY_PROTOCOLS)
    def test_sharers_tracked_and_invalidation_collected(self, protocol):
        streams = empty_streams()
        streams[1] = [ref(BLOCK, "load")]
        streams[2] = [ref(BLOCK, "load")]
        streams[3] = [ref(BLOCK, "store", think=60_000)]
        system = build_and_run(protocol, streams)
        assert system.controllers[3].cache.state_of(BLOCK) is CacheState.MODIFIED
        assert system.controllers[1].cache.state_of(BLOCK) is CacheState.INVALID
        assert system.controllers[2].cache.state_of(BLOCK) is CacheState.INVALID
        assert not check_swmr_invariant(system.controllers)
        # The writer waited for one invalidation acknowledgement per sharer.
        writer = system.controllers[3]
        assert writer.miss_records[0].source is MissSource.MEMORY

    @pytest.mark.parametrize("protocol", DIRECTORY_PROTOCOLS)
    def test_writeback_returns_ownership_to_memory(self, protocol):
        overrides = {"cache_size_bytes": 8 * 1024}
        streams = empty_streams()
        streams[1] = [ref(16 * i + 1, "store") for i in range(64)]
        system = build_and_run(protocol, streams, config_overrides=overrides)
        controller = system.controllers[1]
        assert controller.dirty_evictions > 0
        # Writeback buffers drain once the home acknowledges.
        assert not controller.writeback_buffer
        assert system.checker.clean

    @pytest.mark.parametrize("protocol", DIRECTORY_PROTOCOLS)
    def test_concurrent_stores_from_many_nodes_stay_coherent(self, protocol):
        streams = empty_streams()
        for node in range(16):
            streams[node] = [ref(BLOCK, "atomic") for _ in range(3)]
        system = build_and_run(protocol, streams)
        system.checker.assert_clean()
        assert not check_swmr_invariant(system.controllers)


class TestNackBehaviour:
    def _contended_streams(self):
        streams = empty_streams()
        for node in range(16):
            streams[node] = [ref(BLOCK, "atomic") for _ in range(4)]
        return streams

    def test_dirclassic_nacks_under_contention(self):
        system = build_and_run("dirclassic", self._contended_streams())
        nacks = sum(c.nacks_received
                    for c in system.controllers)
        retries = sum(c.retries_sent
                      for c in system.controllers)
        assert nacks > 0
        assert retries >= nacks  # every NACK is eventually retried

    def test_diropt_never_nacks(self):
        system = build_and_run("diropt", self._contended_streams())
        nacks = sum(c.nacks_received
                    for c in system.controllers)
        assert nacks == 0

    def test_dirclassic_directory_not_left_busy(self):
        # keep the system alive while scanning gc-tracked objects below
        _system = build_and_run("dirclassic", self._contended_streams())
        import gc
        from repro.protocols.directory import DirectoryMemoryController
        for obj in gc.get_objects():
            if isinstance(obj, DirectoryMemoryController):
                assert not obj.directory.busy_blocks()
