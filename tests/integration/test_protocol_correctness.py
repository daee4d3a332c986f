"""Cross-protocol correctness on randomly generated workloads.

Every protocol, on both networks, must run the same randomly generated
reference streams to completion with no coherence violations (version
checker) and a clean single-writer/multiple-reader state at quiescence.
"""

import pytest

from repro.processor.consistency import check_swmr_invariant
from repro.system.builder import SystemBuilder, build_streams
from repro.system.config import SystemConfig
from repro.workloads.profiles import get_profile

from tests.conftest import ALL_PROTOCOLS, BOTH_NETWORKS


def run_random_workload(protocol: str, network: str, workload: str = "dss",
                        scale: float = 0.08, seed: int = 11,
                        **overrides):
    config = SystemConfig(protocol=protocol, network=network,
                          enable_checker=True, seed=seed, **overrides)
    profile = get_profile(workload).scaled(scale)
    streams = build_streams(profile, config)
    system = SystemBuilder(config).build(streams)
    for processor in system.processors:
        processor.start()
    while not system.all_finished():
        if system.sim.run(max_events=300_000) == 0:
            raise AssertionError(f"{protocol}/{network} deadlocked")
    system.sim.run(max_events=100_000, until=system.sim.now + 5_000)
    return system


@pytest.mark.parametrize("network", BOTH_NETWORKS)
@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
class TestRandomWorkloads:
    def test_runs_to_completion_without_violations(self, protocol, network):
        system = run_random_workload(protocol, network)
        system.checker.assert_clean()
        assert system.checker.writes_recorded > 0
        assert system.checker.reads_recorded > 0

    def test_swmr_invariant_at_quiescence(self, protocol, network):
        system = run_random_workload(protocol, network)
        assert check_swmr_invariant(system.controllers) == []

    def test_no_outstanding_transactions_after_completion(self, protocol,
                                                          network):
        system = run_random_workload(protocol, network)
        for controller in system.controllers:
            assert len(controller.mshrs) == 0

    def test_misses_and_sharing_observed(self, protocol, network):
        system = run_random_workload(protocol, network)
        assert system.total_misses() > 0
        assert system.total_cache_to_cache_misses() > 0


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
class TestSmallCachePressure:
    """Tiny caches force constant evictions and writebacks (harsher races)."""

    def test_capacity_pressure_stays_coherent(self, protocol):
        system = run_random_workload(protocol, "torus", workload="oltp",
                                     scale=0.05,
                                     cache_size_bytes=16 * 1024)
        system.checker.assert_clean()
        writebacks = sum(c.dirty_evictions
                         for c in system.controllers)
        assert writebacks > 0


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
class TestPerturbedReplicasStayCoherent:
    def test_with_random_response_delays(self, protocol):
        from repro.sim.randomness import DeterministicRandom, PerturbationModel
        config = SystemConfig(protocol=protocol, network="torus",
                              enable_checker=True)
        profile = get_profile("apache").scaled(0.05)
        streams = build_streams(profile, config)
        perturbation = PerturbationModel(DeterministicRandom(3), max_delay_ns=6)
        system = SystemBuilder(config).build(streams, perturbation=perturbation)
        for processor in system.processors:
            processor.start()
        while not system.all_finished():
            if system.sim.run(max_events=300_000) == 0:
                raise AssertionError("deadlock under perturbation")
        system.checker.assert_clean()
