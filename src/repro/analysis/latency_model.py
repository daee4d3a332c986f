"""The closed-form unloaded-latency model behind Table 2.

Every number in the paper's Table 2 is a simple composition of the four base
latencies (Dovh, Dswitch, Dmem, Dcache) and the topology's hop counts; this
module reproduces them exactly and is validated against the published values
by ``tests/analysis/test_latency_model.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.network.timing import NetworkTiming
from repro.network.topology import Topology
from repro.protocols.timing import ProtocolTiming


@dataclass(frozen=True)
class UnloadedLatencies:
    """One row group of Table 2 (for one topology)."""

    topology: str
    one_way_ns: float
    block_from_memory_ns: float
    block_from_cache_snooping_ns: float
    block_from_cache_directory_ns: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "one_way": self.one_way_ns,
            "memory": self.block_from_memory_ns,
            "cache_snooping": self.block_from_cache_snooping_ns,
            "cache_directory_3hop": self.block_from_cache_directory_ns,
        }

    @property
    def snooping_to_directory_ratio(self) -> float:
        """Cache-to-cache latency advantage of snooping over directories."""
        return self.block_from_cache_snooping_ns / self.block_from_cache_directory_ns


class LatencyModel:
    """Composes the Table 2 latencies for an arbitrary topology."""

    def __init__(
        self,
        network_timing: NetworkTiming | None = None,
        protocol_timing: ProtocolTiming | None = None,
    ) -> None:
        self.network = network_timing or NetworkTiming()
        self.protocol = protocol_timing or ProtocolTiming()

    # --------------------------------------------------------------- pieces
    def one_way(self, hops: float) -> float:
        """``Dnet`` for a path with ``hops`` switch traversals."""
        return self.network.overhead_ns + hops * self.network.switch_ns

    def block_from_memory(self, hops: float) -> float:
        """``Dnet + Dmem + Dnet``."""
        return 2 * self.one_way(hops) + self.protocol.memory_access_ns

    def block_from_cache_snooping(self, hops: float) -> float:
        """``Dnet + Dcache + Dnet`` (timestamp snooping, prefetch hides
        the ordering wait at this unloaded operating point)."""
        return 2 * self.one_way(hops) + self.protocol.cache_access_ns

    def block_from_cache_directory(self, hops: float) -> float:
        """``Dnet + Dmem + Dnet + Dcache + Dnet`` (the three-hop path)."""
        return (
            3 * self.one_way(hops)
            + self.protocol.memory_access_ns
            + self.protocol.cache_access_ns
        )

    # ---------------------------------------------------------------- tables
    def for_hops(self, topology_name: str, hops: float) -> UnloadedLatencies:
        return UnloadedLatencies(
            topology=topology_name,
            one_way_ns=self.one_way(hops),
            block_from_memory_ns=self.block_from_memory(hops),
            block_from_cache_snooping_ns=self.block_from_cache_snooping(hops),
            block_from_cache_directory_ns=self.block_from_cache_directory(hops),
        )

    def for_topology(
        self, topology: Topology, use_mean_hops: bool = True
    ) -> UnloadedLatencies:
        """Latencies using the topology's mean (paper's convention) hop count."""
        hops = topology.mean_hop_count() if use_mean_hops else topology.max_hops
        return self.for_hops(topology.name, hops)


def table2_latencies(
    model: LatencyModel | None = None,
) -> Dict[str, UnloadedLatencies]:
    """The exact Table 2 rows: butterfly at 3 hops, torus at its mean 2 hops."""
    model = model or LatencyModel()
    return {
        "butterfly": model.for_hops("butterfly", 3),
        "torus": model.for_hops("torus", 2),
    }
