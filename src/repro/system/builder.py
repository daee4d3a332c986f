"""Assembly of a complete simulated system."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set

from repro.memory.block import AddressSpace
from repro.memory.cache import PackedCacheArray
from repro.network import make_topology
from repro.network.link import TrafficAccountant
from repro.network.topology import Topology
from repro.processor.consistency import CoherenceChecker
from repro.processor.processor import Processor, ProcessorConfig
from repro.protocols import make_protocol
from repro.protocols.base import (
    CacheControllerBase,
    ProtocolBuildContext,
)
from repro.sim.kernel import Simulator
from repro.sim.randomness import DeterministicRandom, PerturbationModel
from repro.system.config import SystemConfig
from repro.workloads.generator import PackedReferenceStream, Reference
from repro.workloads.profiles import WorkloadProfile


@dataclass
class BuiltSystem:
    """A fully wired target system, ready to run."""

    config: SystemConfig
    sim: Simulator
    topology: Topology
    address_space: AddressSpace
    accountant: TrafficAccountant
    controllers: List[CacheControllerBase]
    processors: List[Processor]
    checker: Optional[CoherenceChecker]
    #: Every block with a completed miss since the last measurement reset;
    #: every controller adds to this one set.
    missed_blocks: Set[int]

    @property
    def num_nodes(self) -> int:
        return self.config.num_nodes

    def all_finished(self) -> bool:
        return all(processor.finished for processor in self.processors)

    def finish_time(self) -> int:
        """Completion time of the slowest processor (the run's runtime)."""
        times = [processor.finish_time for processor in self.processors]
        if any(time is None for time in times):
            raise RuntimeError("not every processor has finished")
        return max(times)

    def total_misses(self) -> int:
        return sum(controller.misses for controller in self.controllers)

    def total_cache_to_cache_misses(self) -> int:
        return sum(controller.cache_to_cache_misses for controller in self.controllers)

    def reset_measurement_state(self) -> None:
        """Zero the counts at the warm-up / measurement boundary."""
        self.accountant.reset()
        for controller in self.controllers:
            controller.reset_counts()
        self.missed_blocks.clear()
        for processor in self.processors:
            processor.reset_counts()


class SystemBuilder:
    """Builds a :class:`BuiltSystem` from a config, workload and streams."""

    def __init__(self, config: SystemConfig) -> None:
        self.config = config

    def build(
        self,
        streams: Sequence[Sequence[Reference]],
        perturbation: Optional[PerturbationModel] = None,
        phase_boundary: Optional[int] = None,
        on_processor_finish=None,
        on_phase_barrier=None,
    ) -> BuiltSystem:
        """Wire up the system and attach the given per-node streams."""
        config = self.config
        if len(streams) != config.num_nodes:
            raise ValueError(f"expected {config.num_nodes} streams, got {len(streams)}")

        sim = Simulator()
        topology = make_topology(config.network, config.num_nodes)
        address_space = AddressSpace(
            total_bytes=config.memory_bytes,
            block_size=config.block_size_bytes,
            num_nodes=config.num_nodes,
        )
        accountant = TrafficAccountant(num_links=topology.num_links)
        caches = [
            PackedCacheArray(
                size_bytes=config.cache_size_bytes,
                associativity=config.cache_associativity,
                block_size=config.block_size_bytes,
                name=f"L2.n{node}",
            )
            for node in range(config.num_nodes)
        ]
        checker = CoherenceChecker() if config.enable_checker else None

        protocol = make_protocol(config)
        context = ProtocolBuildContext(
            sim=sim,
            topology=topology,
            address_space=address_space,
            caches=caches,
            protocol_timing=config.protocol_timing,
            network_timing=config.network_timing,
            accountant=accountant,
            perturbation=perturbation,
            checker=checker,
        )
        controllers = protocol.build(context)

        processor_config = ProcessorConfig(
            instructions_per_ns=config.instructions_per_ns,
            consistency=config.consistency,
        )
        processors = []
        for node in range(config.num_nodes):
            processors.append(
                Processor(
                    sim,
                    node,
                    controllers[node],
                    streams[node],
                    config=processor_config,
                    on_finish=on_processor_finish,
                    on_phase=on_phase_barrier,
                    phase_boundary=phase_boundary,
                )
            )

        return BuiltSystem(
            config=config,
            sim=sim,
            topology=topology,
            address_space=address_space,
            accountant=accountant,
            controllers=controllers,
            processors=processors,
            checker=checker,
            missed_blocks=context.missed_blocks,
        )


def build_streams(
    profile: WorkloadProfile, config: SystemConfig, seed: Optional[int] = None
) -> List[PackedReferenceStream]:
    """Generate the per-node reference streams for a workload profile.

    The streams depend only on the profile, node count and seed -- never
    on the protocol or network -- so every protocol is measured on the
    identical input, and perturbed replicas replay the identical streams.
    """
    from repro.workloads.generator import WorkloadGenerator

    rng = DeterministicRandom(config.seed if seed is None else seed)
    generator = WorkloadGenerator(profile, config.num_nodes, rng)
    return generator.build_streams()
