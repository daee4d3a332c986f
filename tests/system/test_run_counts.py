"""The counts a run keeps, and the RunResult fields built from them.

Each controller keeps its miss, latency, writeback, NACK, retry and anomaly
counts as plain ints; each processor keeps its reference and store-buffer
counts.  These tests pin the contract between those counts, the miss
records and the :class:`~repro.system.results.RunResult` the runner builds,
and check that the warm-up boundary zeroes every one of them.
"""

import itertools

import pytest

from repro.memory.coherence import AccessType
from repro.protocols.base import MissRecord, MissSource
from repro.system.builder import SystemBuilder, build_streams
from repro.system.config import SystemConfig
from repro.system.simulation import SimulationRunner
from repro.workloads.profiles import get_profile

PROTOCOLS = ("ts-snoop", "dirclassic", "diropt", "mesi-dir", "moesi-snoop")
NETWORKS = ("butterfly", "torus")
CONTROLLER_COUNTS = (
    "misses",
    "cache_to_cache_misses",
    "miss_latency_total_ns",
    "dirty_evictions",
    "nacks_received",
    "retries_sent",
    "orphan_data",
    "orphan_inv_ack",
    "unexpected_response",
    "unexpected_transfer",
)
PROCESSOR_COUNTS = (
    "reads",
    "writes",
    "store_buffer_forwards",
    "store_buffer_stalls",
)
#: Small caches so dirty evictions happen at this scale.
CACHE_BYTES = 8 * 1024


def run_and_capture(monkeypatch, config, profile):
    """Run ``profile`` through the runner; return its RunResult and system."""
    built = []
    build = SystemBuilder.build

    def capturing_build(self, *args, **kwargs):
        system = build(self, *args, **kwargs)
        built.append(system)
        return system

    with monkeypatch.context() as patch:
        patch.setattr(SystemBuilder, "build", capturing_build)
        result = SimulationRunner(config, profile).run(jobs=1)
    (system,) = built
    return result, system


@pytest.mark.parametrize(
    "protocol,network,consistency",
    list(itertools.product(PROTOCOLS, NETWORKS, ("sc", "tso"))),
)
def test_result_is_the_sum_of_controller_counts(
    monkeypatch, protocol, network, consistency
):
    config = SystemConfig(
        protocol=protocol,
        network=network,
        consistency=consistency,
        cache_size_bytes=CACHE_BYTES,
    )
    profile = get_profile("oltp").scaled(0.02)
    result, system = run_and_capture(monkeypatch, config, profile)
    controllers = system.controllers

    for controller in controllers:
        records = controller.miss_records
        cache_records = [r for r in records if r.source is MissSource.CACHE]
        assert controller.cache_to_cache_misses == len(cache_records)
        assert controller.miss_latency_total_ns == sum(r.latency for r in records)

    misses = sum(controller.misses for controller in controllers)
    latency = sum(controller.miss_latency_total_ns for controller in controllers)
    assert result.misses == misses > 0
    assert result.cache_to_cache_misses == sum(
        controller.cache_to_cache_misses for controller in controllers
    )
    assert result.average_miss_latency_ns == latency / misses
    assert result.writebacks == sum(c.dirty_evictions for c in controllers)
    assert result.nacks == sum(c.nacks_received for c in controllers)
    assert result.retries == sum(c.retries_sent for c in controllers)
    assert result.traffic_bytes_by_category == system.accountant.bytes_by_category


@pytest.mark.parametrize(
    "protocol,consistency", list(itertools.product(PROTOCOLS, ("sc", "tso")))
)
def test_measurement_reset_zeroes_every_count(protocol, consistency):
    config = SystemConfig(
        protocol=protocol, consistency=consistency, cache_size_bytes=CACHE_BYTES
    )
    profile = get_profile("oltp").scaled(0.02)
    system = SystemBuilder(config).build(build_streams(profile, config))
    for processor in system.processors:
        processor.start()
    system.sim.run(max_events=200_000)
    assert sum(controller.misses for controller in system.controllers) > 0
    assert sum(processor.writes for processor in system.processors) > 0

    system.reset_measurement_state()

    for controller in system.controllers:
        for name in CONTROLLER_COUNTS:
            assert getattr(controller, name) == 0, (controller.name, name)
        assert controller.miss_records == []
    for processor in system.processors:
        for name in PROCESSOR_COUNTS:
            assert getattr(processor, name) == 0, (processor.name, name)
    assert system.accountant.bytes_by_category == {}


def test_negative_miss_latency_is_rejected():
    config = SystemConfig(protocol="diropt")
    profile = get_profile("oltp").scaled(0.02)
    system = SystemBuilder(config).build(build_streams(profile, config))
    controller = system.controllers[0]
    record = MissRecord(
        node=0,
        block=1,
        access=AccessType.LOAD,
        issue_time=10,
        complete_time=9,
        source=MissSource.MEMORY,
    )
    with pytest.raises(ValueError, match="negative miss latency"):
        controller.record_miss(record)
    assert controller.miss_latency_total_ns == 0
    assert controller.miss_records == []
