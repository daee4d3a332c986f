"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import pytest

from repro.memory.coherence import AccessType
from repro.network import make_topology
from repro.network.timing import NetworkTiming
from repro.protocols.base import CacheControllerBase, MissRecord
from repro.sim.kernel import Simulator
from repro.sim.randomness import DeterministicRandom
from repro.system.builder import BuiltSystem, SystemBuilder
from repro.system.config import SystemConfig
from repro.workloads.generator import Reference


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def rng() -> DeterministicRandom:
    return DeterministicRandom(1234)


@pytest.fixture
def butterfly():
    return make_topology("butterfly")


@pytest.fixture
def torus():
    return make_topology("torus")


@pytest.fixture
def paper_timing() -> NetworkTiming:
    return NetworkTiming(overhead_ns=4, switch_ns=15)


# --------------------------------------------------------------------- helpers
def ref(block: int, access: str = "load", think: int = 0) -> Reference:
    """Shorthand reference constructor for hand-written streams."""
    access_type = {"load": AccessType.LOAD, "store": AccessType.STORE,
                   "atomic": AccessType.ATOMIC}[access]
    return Reference(block=block, access_type=access_type,
                     think_instructions=think)


def empty_streams(num_nodes: int = 16) -> List[List[Reference]]:
    return [[] for _ in range(num_nodes)]


class MissLog(list):
    """A ``miss_observer`` that keeps every :class:`MissRecord` it is handed."""

    __call__ = list.append


def observe_misses(system: BuiltSystem) -> None:
    """Install a fresh :class:`MissLog` on every controller of ``system``."""
    for controller in system.controllers:
        controller.miss_observer = MissLog()


def miss_records(controller: CacheControllerBase) -> List[MissRecord]:
    """The misses ``controller`` completed since :func:`observe_misses`."""
    return controller.miss_observer


def build_and_run(protocol: str, streams: Sequence[Sequence[Reference]],
                  network: str = "butterfly", num_nodes: int = 16,
                  enable_checker: bool = True,
                  config_overrides: Optional[Dict] = None) -> BuiltSystem:
    """Build a system with hand-written streams, run it to completion.

    Every controller runs with a :class:`MissLog` installed, so tests can
    read each completed miss with :func:`miss_records` as well as inspect
    cache states, directory entries and the coherence checker of the
    returned :class:`BuiltSystem`.
    """
    overrides = dict(config_overrides or {})
    config = SystemConfig(num_nodes=num_nodes, network=network,
                          protocol=protocol, enable_checker=enable_checker,
                          **overrides)
    builder = SystemBuilder(config)
    system = builder.build(list(streams))
    observe_misses(system)
    for processor in system.processors:
        processor.start()
    sim = system.sim
    guard = 0
    while not system.all_finished():
        processed = sim.run(max_events=200_000)
        guard += 1
        if processed == 0:
            pending = {
                controller.node: controller.mshrs.blocks_in_flight()
                for controller in system.controllers
                if len(controller.mshrs)}
            raise AssertionError(
                f"simulation deadlocked; outstanding transactions: {pending}")
        if guard > 500:
            raise AssertionError("simulation did not terminate")
    # Drain trailing writebacks/acks so post-run state is stable.
    sim.run(max_events=100_000, until=sim.now + 5_000)
    return system


ALL_PROTOCOLS = (
    "ts-snoop", "dirclassic", "diropt", "mesi-dir", "moesi-snoop",
)
BOTH_NETWORKS = ("butterfly", "torus")
