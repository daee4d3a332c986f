"""Unit tests for protocol-independent plumbing and the protocol registry."""

import pytest

from repro.memory.block import AddressSpace
from repro.memory.cache import PackedCacheArray
from repro.memory.coherence import AccessType, CacheState
from repro.protocols import (
    PROTOCOL_ALIASES,
    PROTOCOLS,
    canonical_protocol_name,
    make_protocol,
)
from repro.protocols.base import (
    CacheControllerBase,
    MissRecord,
    MissSource,
    ProtocolTiming,
)
from repro.protocols.directory import (
    DIR_CLASSIC,
    DIR_OPT,
    MESI_DIR,
    DirectoryProtocol,
)
from repro.protocols.ts_snoop import TSSnoopProtocol
from repro.sim.kernel import Simulator
from repro.system.config import SystemConfig

from tests.conftest import build_and_run, empty_streams, ref

POLICIES = {"dirclassic": DIR_CLASSIC, "diropt": DIR_OPT, "mesi-dir": MESI_DIR}


class TestProtocolTiming:
    def test_paper_defaults(self):
        timing = ProtocolTiming()
        assert timing.cache_access_ns == 25
        assert timing.memory_access_ns == 80

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ProtocolTiming(cache_access_ns=-1)


class _MissLoggingController(CacheControllerBase):
    """A controller whose misses only record the access that missed."""

    def __init__(self, sim):
        super().__init__(sim, 0, AddressSpace(), PackedCacheArray(),
                         ProtocolTiming(), name="hit-rule")
        self._has_exclusive_state = True
        self.started = []

    def _start_miss(self, block, access_type, done):
        self.started.append((block, access_type))


class TestHitRule:
    @pytest.mark.parametrize("access", list(AccessType))
    @pytest.mark.parametrize("state", list(CacheState))
    def test_access_hits_only_with_permission(self, state, access):
        sim = Simulator()
        controller = _MissLoggingController(sim)
        if state is not CacheState.INVALID:
            controller.cache.install(7, state)
        completed = []
        controller.access(7, access, lambda: completed.append(sim.now))
        sim.run()
        if access.needs_write_permission:
            hit = state in (CacheState.MODIFIED, CacheState.EXCLUSIVE)
        else:
            hit = state is not CacheState.INVALID
        if hit:
            assert controller.started == [] and controller.misses == 0
            assert completed == [controller.timing.l2_hit_ns]
            if access.needs_write_permission:
                # A store hit in E upgrades to M silently.
                assert controller.state_of(7) is CacheState.MODIFIED
                assert controller.cache.version_of(7) == 1
            else:
                assert controller.state_of(7) is state
        else:
            assert controller.started == [(7, access)]
            assert controller.misses == 1
            assert completed == []
            assert controller.state_of(7) is state


BLOCK = 0  # homed at node 0
OWNER, READER, WRITER = 1, 2, 5


class TestRemoteRequestTransitions:
    """What a remote request does to the other caches' copies, in every
    protocol: a load downgrades a dirty copy (to O only where the protocol
    has an owned state), a store invalidates every other copy."""

    @pytest.mark.parametrize("protocol", tuple(PROTOCOLS))
    def test_remote_load_downgrades_the_writer(self, protocol):
        streams = empty_streams()
        streams[OWNER] = [ref(BLOCK, "store")]
        streams[READER] = [ref(BLOCK, "load", think=40_000)]
        system = build_and_run(protocol, streams)
        downgraded = (CacheState.OWNED if protocol == "moesi-snoop"
                      else CacheState.SHARED)
        assert system.controllers[OWNER].state_of(BLOCK) is downgraded
        assert system.controllers[READER].state_of(BLOCK) is CacheState.SHARED
        assert system.checker.clean

    @pytest.mark.parametrize("protocol", tuple(PROTOCOLS))
    def test_remote_load_leaves_shared_copies_shared(self, protocol):
        streams = empty_streams()
        streams[OWNER] = [ref(BLOCK, "load")]
        streams[READER] = [ref(BLOCK, "load", think=40_000)]
        system = build_and_run(protocol, streams)
        for node in (OWNER, READER):
            assert system.controllers[node].state_of(BLOCK) is CacheState.SHARED
        assert system.checker.clean

    @pytest.mark.parametrize("protocol", tuple(PROTOCOLS))
    def test_remote_store_invalidates_every_other_copy(self, protocol):
        streams = empty_streams()
        streams[OWNER] = [ref(BLOCK, "store")]
        streams[READER] = [ref(BLOCK, "load", think=40_000)]
        streams[WRITER] = [ref(BLOCK, "store", think=80_000)]
        system = build_and_run(protocol, streams)
        for node in (OWNER, READER):
            assert system.controllers[node].state_of(BLOCK) is CacheState.INVALID
        assert system.controllers[WRITER].state_of(BLOCK) is CacheState.MODIFIED
        assert system.checker.clean


class TestMissRecord:
    def test_latency_and_classification(self):
        record = MissRecord(node=1, block=2, access=AccessType.LOAD,
                            issue_time=100, complete_time=223,
                            source=MissSource.CACHE)
        assert record.latency == 123
        assert record.is_cache_to_cache
        memory = MissRecord(node=1, block=2, access=AccessType.LOAD,
                            issue_time=0, complete_time=178,
                            source=MissSource.MEMORY)
        assert not memory.is_cache_to_cache


class TestFactory:
    @pytest.mark.parametrize("name", tuple(PROTOCOLS))
    def test_config_options_are_applied_at_construction(self, name):
        config = SystemConfig(protocol=name, slack=2,
                              prefetch_optimization=False,
                              detailed_address_network=True)
        protocol = make_protocol(config)
        if name in POLICIES:
            # The directory protocols take no snooping option.
            assert type(protocol) is DirectoryProtocol
            assert protocol.policy is POLICIES[name]
        else:
            assert type(protocol) is TSSnoopProtocol
            assert protocol.slack == 2
            assert protocol.prefetch is False
            assert protocol.detailed_network is True
            assert protocol.owned_state is (name == "moesi-snoop")

    def test_any_spelling_builds(self):
        assert make_protocol(SystemConfig(protocol="DirClassic")).policy is DIR_CLASSIC
        assert make_protocol(SystemConfig(protocol="dir_opt")).policy is DIR_OPT
        snoop = make_protocol(SystemConfig(protocol="snoop"))
        assert type(snoop) is TSSnoopProtocol and not snoop.owned_state

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_protocol(SystemConfig(protocol="mesi-bus"))


class TestRegistry:
    def test_every_alias_names_a_registered_protocol(self):
        assert set(PROTOCOL_ALIASES.values()) == set(PROTOCOLS)

    def test_every_canonical_name_is_its_own_alias(self):
        for name in PROTOCOLS:
            assert PROTOCOL_ALIASES[name] == name
            assert canonical_protocol_name(name) == name


class TestPolicies:
    def test_dirclassic_uses_nacks_and_unordered_forwards(self):
        assert DIR_CLASSIC.nack_when_busy
        assert not DIR_CLASSIC.ordered_forward_network
        assert DIR_CLASSIC.requires_transfer_ack
        assert not DIR_CLASSIC.has_exclusive_state

    def test_diropt_is_nack_free_with_ordered_forwards(self):
        assert not DIR_OPT.nack_when_busy
        assert DIR_OPT.ordered_forward_network
        assert not DIR_OPT.requires_transfer_ack
        assert not DIR_OPT.has_exclusive_state

    def test_mesi_dir_is_diropt_with_exclusive_grants(self):
        assert MESI_DIR.has_exclusive_state
        assert (MESI_DIR.nack_when_busy, MESI_DIR.ordered_forward_network,
                MESI_DIR.requires_transfer_ack) == (
            DIR_OPT.nack_when_busy, DIR_OPT.ordered_forward_network,
            DIR_OPT.requires_transfer_ack)
