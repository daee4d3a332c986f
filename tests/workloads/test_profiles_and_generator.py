"""Tests for workload profiles and the generator."""

import pytest

from repro.memory.coherence import AccessType
from repro.sim.randomness import DeterministicRandom
from repro.workloads.generator import Reference, WorkloadGenerator, stream_iterator
from repro.workloads.profiles import PROFILES, get_profile, workload_names


class TestProfiles:
    def test_all_five_benchmarks_exist(self):
        assert set(workload_names()) == {"oltp", "dss", "apache", "altavista",
                                         "barnes"}
        assert set(PROFILES) == set(workload_names())

    def test_aliases(self):
        assert get_profile("TPC-C").name == "oltp"
        assert get_profile("tpch").name == "dss"
        assert get_profile("splash-2").name == "barnes"

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            get_profile("specjbb")

    def test_paper_table3_metadata_attached(self):
        assert PROFILES["oltp"].paper_three_hop_percent == 43.0
        assert PROFILES["dss"].paper_three_hop_percent == 60.0
        assert PROFILES["oltp"].paper_data_touched_mb == 47.1

    def test_footprint_ordering_follows_paper(self):
        """OLTP touches the most data, barnes the least (Table 3)."""
        footprints = {name: PROFILES[name].footprint_mb(16)
                      for name in workload_names()}
        assert footprints["oltp"] == max(footprints.values())
        assert footprints["barnes"] == min(footprints.values())

    def test_scaled_changes_length_only(self):
        profile = PROFILES["oltp"]
        scaled = profile.scaled(0.5)
        assert scaled.references_per_node == profile.references_per_node // 2
        assert scaled.private_blocks_per_node == profile.private_blocks_per_node
        with pytest.raises(ValueError):
            profile.scaled(0)

    def test_patterns_do_not_overlap(self):
        profile = PROFILES["oltp"]
        patterns = profile.build_patterns(16, DeterministicRandom(1))
        ranges = []
        base = 0
        for _weight, pattern in patterns:
            ranges.append((base, base + pattern.footprint_blocks()))
            base += pattern.footprint_blocks()
        for (start_a, end_a), (start_b, end_b) in zip(ranges, ranges[1:]):
            assert end_a <= start_b


class TestWorkloadGenerator:
    def test_streams_are_deterministic(self):
        profile = PROFILES["apache"].scaled(0.1)
        a = WorkloadGenerator(profile, 16, DeterministicRandom(5)).build_streams()
        b = WorkloadGenerator(profile, 16, DeterministicRandom(5)).build_streams()
        assert a == b

    def test_different_seeds_differ(self):
        profile = PROFILES["apache"].scaled(0.1)
        a = WorkloadGenerator(profile, 16, DeterministicRandom(5)).build_streams()
        b = WorkloadGenerator(profile, 16, DeterministicRandom(6)).build_streams()
        assert a != b

    def test_stream_shape(self):
        profile = PROFILES["barnes"].scaled(0.1)
        streams = WorkloadGenerator(profile, 16,
                                    DeterministicRandom(1)).build_streams()
        assert len(streams) == 16
        assert all(len(stream) == profile.references_per_node
                   for stream in streams)
        for stream in streams:
            for reference in stream:
                assert reference.think_instructions >= 1
                assert reference.block >= 0

    def test_mix_includes_shared_and_private_accesses(self):
        profile = PROFILES["oltp"].scaled(0.2)
        streams = WorkloadGenerator(profile, 16,
                                    DeterministicRandom(2)).build_streams()
        private_limit = profile.private_blocks_per_node * 16
        kinds = {"private": 0, "shared": 0}
        for stream in streams:
            for reference in stream:
                if reference.block < private_limit:
                    kinds["private"] += 1
                else:
                    kinds["shared"] += 1
        assert kinds["private"] > 0
        assert kinds["shared"] > 0

    def test_stream_iterator(self):
        stream = [Reference(1, AccessType.LOAD)]
        assert list(stream_iterator(stream)) == stream


class TestReference:
    def test_validation(self):
        with pytest.raises(ValueError):
            Reference(block=-1, access_type=AccessType.LOAD)
        with pytest.raises(ValueError):
            Reference(block=0, access_type=AccessType.LOAD,
                      think_instructions=-1)
