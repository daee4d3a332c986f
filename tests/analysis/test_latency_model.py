"""The closed-form latency model must reproduce Table 2 exactly."""

import pytest

from repro.analysis.latency_model import LatencyModel, table2_latencies
from repro.analysis.tables import PAPER_TABLE2
from repro.network import make_topology


class TestTable2Butterfly:
    def test_published_values(self):
        rows = table2_latencies()
        butterfly = rows["butterfly"]
        assert butterfly.one_way_ns == 49
        assert butterfly.block_from_memory_ns == 178
        assert butterfly.block_from_cache_snooping_ns == 123
        assert butterfly.block_from_cache_directory_ns == 252

    def test_against_paper_dict(self):
        rows = table2_latencies()
        for topology, expected in PAPER_TABLE2.items():
            assert rows[topology].as_dict() == expected


class TestTable2Torus:
    def test_published_values(self):
        torus = table2_latencies()["torus"]
        assert torus.one_way_ns == 34
        assert torus.block_from_memory_ns == 148
        assert torus.block_from_cache_snooping_ns == 93
        assert torus.block_from_cache_directory_ns == 207


class TestDerivedClaims:
    def test_snooping_cache_to_cache_cheaper_than_memory(self):
        """Section 4.2: 'the cache-to-cache transfer latency is smaller than
        memory latency (e.g., 70% of memory latency on the butterfly)'."""
        butterfly = table2_latencies()["butterfly"]
        ratio = (butterfly.block_from_cache_snooping_ns
                 / butterfly.block_from_memory_ns)
        assert ratio == pytest.approx(123 / 178)
        assert 0.65 < ratio < 0.75

    def test_snooping_roughly_half_of_directory_cache_to_cache(self):
        """Section 4.2: 'timestamp snooping has a cache-to-cache miss latency
        that is roughly half that of the directory protocols'."""
        for row in table2_latencies().values():
            assert 0.4 < row.snooping_to_directory_ratio < 0.55

    def test_directory_three_hop_slower_than_memory_fetch(self):
        for row in table2_latencies().values():
            assert row.block_from_cache_directory_ns > row.block_from_memory_ns


class TestModelFlexibility:
    def test_for_topology_uses_mean_hops(self):
        model = LatencyModel()
        torus = model.for_topology(make_topology("torus"))
        assert torus.one_way_ns == 34

    def test_custom_timing(self):
        from repro.network.timing import NetworkTiming
        from repro.protocols.timing import ProtocolTiming
        model = LatencyModel(NetworkTiming(overhead_ns=0, switch_ns=10),
                             ProtocolTiming(memory_access_ns=100,
                                            cache_access_ns=20))
        assert model.one_way(2) == 20
        assert model.block_from_memory(2) == 140
        assert model.block_from_cache_snooping(2) == 60
        assert model.block_from_cache_directory(2) == 180
