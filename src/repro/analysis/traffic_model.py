"""Back-of-the-envelope traffic model (Section 5, "Network Traffic").

The paper bounds timestamp snooping's extra bandwidth with a simple per-miss
byte count: on the butterfly a snooping transaction sends an 8-byte address
packet over 21 links and receives a 72-byte data packet over 3 links
(384 bytes), while a directory protocol sends the address over 3 links and
receives data over 3 links (240 bytes), so the extra bandwidth cannot exceed
60%.  Doubling the block size reduces the bound to 33%; growing the system
raises it.  This module reproduces those numbers for any topology, block
size and system size.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.network.message import CONTROL_MESSAGE_BYTES
from repro.network.topology import Topology


@dataclass(frozen=True)
class TrafficBound:
    """Per-miss byte counts and the resulting worst-case traffic ratio."""

    topology: str
    block_bytes: int
    snooping_bytes_per_miss: float
    directory_bytes_per_miss: float

    @property
    def extra_fraction(self) -> float:
        """Upper bound on snooping's extra bandwidth (0.60 for the paper)."""
        return (self.snooping_bytes_per_miss / self.directory_bytes_per_miss) - 1.0

    @property
    def directory_fraction_of_snooping(self) -> float:
        """"directories use at least 63% the bandwidth of timestamp snooping"."""
        return self.directory_bytes_per_miss / self.snooping_bytes_per_miss


def data_message_bytes(block_bytes: int) -> int:
    """A data message is the block plus an 8-byte header (72 B at 64 B blocks)."""
    return block_bytes + 8


def per_miss_bytes(
    topology: Topology, block_bytes: int = 64, source: int = 0
) -> TrafficBound:
    """Per-miss link bytes for snooping vs. a minimal directory transaction.

    Follows the paper's accounting exactly: the snooping request is broadcast
    over the topology's broadcast tree; both protocols receive one data
    message over a unicast path; the directory's request takes the same
    unicast path.  (Real protocols add more messages -- sharing writebacks,
    forwards, invalidations, acknowledgements -- which is why measured ratios
    come in *below* this bound.)
    """
    data_bytes = data_message_bytes(block_bytes)
    broadcast_links = topology.broadcast_tree(source).link_count
    unicast_links = max(topology.hop_count(source, dst) for dst in topology.endpoints())
    if topology.name == "torus":
        # The paper's torus estimate uses the mean path of 2 links.
        unicast_links = 2
    snooping = broadcast_links * CONTROL_MESSAGE_BYTES + unicast_links * data_bytes
    directory = unicast_links * CONTROL_MESSAGE_BYTES + unicast_links * data_bytes
    return TrafficBound(
        topology=topology.name,
        block_bytes=block_bytes,
        snooping_bytes_per_miss=snooping,
        directory_bytes_per_miss=directory,
    )


def traffic_bound(topology: Topology, block_bytes: int = 64) -> float:
    """The headline bound: snooping's maximum extra bandwidth fraction."""
    return per_miss_bytes(topology, block_bytes).extra_fraction


def broadcast_cost_scaling(topology_factory, system_sizes) -> dict:
    """How the per-miss broadcast cost grows with system size.

    ``topology_factory`` maps a node count to a topology; used by the
    ablation bench to reproduce the paper's observation that larger systems
    make directories increasingly attractive.
    """
    results = {}
    for size in system_sizes:
        topology = topology_factory(size)
        results[size] = per_miss_bytes(topology).extra_fraction
    return results
