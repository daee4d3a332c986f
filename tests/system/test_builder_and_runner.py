"""Tests for system assembly and the simulation runner."""

import pytest

from repro.system.builder import SystemBuilder, build_streams
from repro.system.config import SystemConfig
from repro.system.simulation import SimulationRunner
from repro.workloads.profiles import get_profile

from tests.conftest import empty_streams


class TestSystemBuilder:
    def test_builds_paper_configuration(self):
        config = SystemConfig()
        system = SystemBuilder(config).build(empty_streams(16))
        assert len(system.controllers) == 16
        assert len(system.processors) == 16
        assert system.topology.num_endpoints == 16
        assert system.address_space.num_nodes == 16
        assert system.checker is None

    def test_checker_enabled_on_request(self):
        config = SystemConfig(enable_checker=True)
        system = SystemBuilder(config).build(empty_streams(16))
        assert system.checker is not None

    def test_stream_count_must_match(self):
        with pytest.raises(ValueError):
            SystemBuilder(SystemConfig()).build(empty_streams(4))

    def test_protocol_options_pushed_into_factory(self):
        config = SystemConfig(prefetch_optimization=False, slack=2)
        system = SystemBuilder(config).build(empty_streams(16))
        controller = system.controllers[0]
        assert controller.prefetch is False

    def test_finish_time_requires_completion(self):
        system = SystemBuilder(SystemConfig()).build(empty_streams(16))
        with pytest.raises(RuntimeError):
            system.finish_time()


class TestBuildStreams:
    def test_streams_depend_only_on_profile_and_seed(self):
        profile = get_profile("barnes").scaled(0.05)
        config_a = SystemConfig(protocol="ts-snoop", network="butterfly")
        config_b = SystemConfig(protocol="diropt", network="torus")
        assert build_streams(profile, config_a) == build_streams(profile, config_b)

    def test_seed_changes_streams(self):
        profile = get_profile("barnes").scaled(0.05)
        config = SystemConfig()
        assert build_streams(profile, config, seed=1) != \
            build_streams(profile, config, seed=2)


class TestSimulationRunner:
    def test_small_run_produces_sane_result(self):
        config = SystemConfig(protocol="ts-snoop", network="torus")
        profile = get_profile("barnes").scaled(0.08)
        result = SimulationRunner(config, profile).run()
        assert result.runtime_ns > 0
        assert result.misses > 0
        assert result.references > 0
        assert 0.0 <= result.cache_to_cache_fraction <= 1.0
        assert result.per_link_bytes > 0
        assert result.data_touched_mb > 0

    def test_identical_config_is_deterministic(self):
        config = SystemConfig(protocol="diropt", network="torus")
        profile = get_profile("barnes").scaled(0.05)
        first = SimulationRunner(config, profile).run()
        second = SimulationRunner(config, profile).run()
        assert first.runtime_ns == second.runtime_ns
        assert first.misses == second.misses

    def test_perturbed_replicas_report_minimum(self):
        profile = get_profile("barnes").scaled(0.05)
        base = SimulationRunner(
            SystemConfig(protocol="ts-snoop", network="torus"), profile).run()
        replicated = SimulationRunner(
            SystemConfig(protocol="ts-snoop", network="torus",
                         perturbation_replicas=3), profile).run()
        assert replicated.replicas == 3
        # Replica 0 is unperturbed, so the minimum can never exceed it.
        assert replicated.runtime_ns <= base.runtime_ns
