"""Unit tests for protocol-independent plumbing and the protocol registry."""

import pytest

from repro.memory.coherence import AccessType
from repro.protocols import (
    PROTOCOL_ALIASES,
    PROTOCOLS,
    canonical_protocol_name,
    make_protocol,
)
from repro.protocols.base import MissRecord, MissSource, ProtocolTiming
from repro.protocols.directory import (
    DIR_CLASSIC,
    DIR_OPT,
    MESI_DIR,
    DirectoryProtocol,
)
from repro.protocols.ts_snoop import TSSnoopProtocol
from repro.system.config import SystemConfig

POLICIES = {"dirclassic": DIR_CLASSIC, "diropt": DIR_OPT, "mesi-dir": MESI_DIR}


class TestProtocolTiming:
    def test_paper_defaults(self):
        timing = ProtocolTiming()
        assert timing.cache_access_ns == 25
        assert timing.memory_access_ns == 80

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ProtocolTiming(cache_access_ns=-1)


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
