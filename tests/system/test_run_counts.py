"""The counts a run keeps, and the RunResult fields built from them.

Each controller keeps its miss, latency, writeback, NACK, retry and anomaly
counts as plain ints; each processor keeps its reference and store-buffer
counts.  These tests pin the contract between those counts, the misses a
``miss_observer`` sees and the :class:`~repro.system.results.RunResult` the
runner builds, check that the warm-up boundary zeroes every one of them,
and that a run keeps no per-miss or per-entry objects it does not need.
"""

import gc
import itertools

import pytest

from repro.memory.coherence import AccessType
from repro.protocols.base import MissRecord, MissSource
from repro.protocols.directory_state import DirectoryEntry
from repro.system.builder import BuiltSystem, SystemBuilder, build_streams
from repro.system.config import SystemConfig
from repro.system.simulation import SimulationRunner
from repro.workloads.profiles import get_profile

from tests.conftest import miss_records, observe_misses

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


def run_and_capture(monkeypatch, config, profile, observe=False):
    """Run ``profile`` through the runner; return its RunResult and system.

    With ``observe``, every controller logs the misses it completes in the
    measured phase (the log is replaced at the warm-up boundary).
    """
    built = []
    build = SystemBuilder.build
    reset = BuiltSystem.reset_measurement_state

    def capturing_build(self, *args, **kwargs):
        system = build(self, *args, **kwargs)
        if observe:
            observe_misses(system)
        built.append(system)
        return system

    def observing_reset(self):
        reset(self)
        observe_misses(self)

    with monkeypatch.context() as patch:
        patch.setattr(SystemBuilder, "build", capturing_build)
        if observe:
            patch.setattr(BuiltSystem, "reset_measurement_state", observing_reset)
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
    result, system = run_and_capture(monkeypatch, config, profile, observe=True)
    controllers = system.controllers

    for controller in controllers:
        records = miss_records(controller)
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
    assert system.missed_blocks
    assert all(
        controller.missed_blocks is system.missed_blocks
        for controller in system.controllers
    )

    system.reset_measurement_state()

    assert system.missed_blocks == set()
    for controller in system.controllers:
        for name in CONTROLLER_COUNTS:
            assert getattr(controller, name) == 0, (controller.name, name)
    for processor in system.processors:
        for name in PROCESSOR_COUNTS:
            assert getattr(processor, name) == 0, (processor.name, name)
    assert system.accountant.bytes_by_category == {}


def test_negative_miss_latency_is_rejected():
    config = SystemConfig(protocol="diropt")
    profile = get_profile("oltp").scaled(0.02)
    system = SystemBuilder(config).build(build_streams(profile, config))
    controller = system.controllers[0]
    observed = []
    controller.miss_observer = observed.append
    with pytest.raises(ValueError, match="negative miss latency"):
        controller.record_miss(1, AccessType.LOAD, 10, 9, MissSource.MEMORY)
    assert controller.miss_latency_total_ns == 0
    assert controller.missed_blocks == set()
    assert observed == []


def test_a_run_keeps_no_miss_records_or_entry_dicts(monkeypatch):
    """A diropt torus run holds no MissRecord and no DirectoryEntry with a
    ``__dict__``: with no observer installed, a miss leaves only its block
    in ``missed_blocks``, and directory entries carry slots."""
    config = SystemConfig(protocol="diropt", network="torus")
    profile = get_profile("oltp").scaled(0.02)
    result, system = run_and_capture(monkeypatch, config, profile)
    assert result.misses > 0
    assert all(controller.miss_observer is None for controller in system.controllers)

    gc.collect()  # earlier tests' systems, observer logs included
    live = gc.get_objects()
    assert not [obj for obj in live if type(obj) is MissRecord]
    entries = [obj for obj in live if type(obj) is DirectoryEntry]
    assert entries
    assert not [entry for entry in entries if hasattr(entry, "__dict__")]
