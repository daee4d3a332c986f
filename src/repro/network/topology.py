"""Topology abstraction.

A :class:`Topology` serves two consumers:

* the **analytic timing model** used for full performance runs, which only
  needs hop counts (number of link traversals, each costing ``Dswitch``),
  broadcast link counts and per-destination broadcast arrival distances,
  matching the unloaded-latency methodology of Table 2; and
* the **detailed token-passing network** (``repro.core.timestamp_network``),
  which needs the explicit switch/endpoint graph: nodes, directed links and
  per-source broadcast spanning trees annotated with the ``delta-D`` values of
  Section 2.2.

Graph nodes are identified with strings: ``"ep:<i>"`` for endpoint *i* and
``"sw:..."`` for switches.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

NodeId = str


def endpoint_node(index: int) -> NodeId:
    """Graph node id of endpoint ``index``."""
    return f"ep:{index}"


def is_endpoint(node: NodeId) -> bool:
    return node.startswith("ep:")


def endpoint_index(node: NodeId) -> int:
    """Inverse of :func:`endpoint_node`."""
    if not is_endpoint(node):
        raise ValueError(f"{node!r} is not an endpoint node")
    return int(node.split(":")[1])


@dataclass
class BroadcastTree:
    """A per-source broadcast spanning tree over the switch fabric.

    ``children`` maps every tree node to its outgoing branches, each carrying
    the ``delta_d`` slack adjustment of Section 2.2 (zero for the branch that
    continues on the longest remaining path, positive for shorter branches).
    ``arrival_hops`` gives, per destination endpoint, the number of link
    traversals from the source along the tree.
    """

    source: int
    children: Dict[NodeId, List[Tuple[NodeId, int]]] = field(default_factory=dict)
    arrival_hops: Dict[int, int] = field(default_factory=dict)
    depth: int = 0
    #: remaining maximum depth (in links) below each tree node; used by
    #: co-located switch/endpoint nodes to adjust slack on local delivery.
    depth_below: Dict[NodeId, int] = field(default_factory=dict)

    def branches_from(self, node: NodeId) -> List[Tuple[NodeId, int]]:
        return self.children.get(node, [])

    def remaining_depth(self, node: NodeId) -> int:
        """Maximum links from ``node`` down to any leaf of the tree."""
        if node in self.depth_below:
            return self.depth_below[node]
        branches = self.children.get(node, [])
        if not branches:
            return 0
        return 1 + max(self.remaining_depth(child) for child, _delta in branches)

    def link_count(self) -> int:
        """Total directed links used by one broadcast along this tree."""
        return sum(len(branches) for branches in self.children.values())

    def all_endpoints_reached(self, num_endpoints: int) -> bool:
        return set(self.arrival_hops.keys()) == set(range(num_endpoints))


class Topology(ABC):
    """Base class for the evaluated interconnect topologies."""

    name: str = "abstract"

    def __init__(self, num_endpoints: int) -> None:
        if num_endpoints <= 0:
            raise ValueError("num_endpoints must be positive")
        self.num_endpoints = num_endpoints

    # ----------------------------------------------------- analytic interface
    @abstractmethod
    def hop_count(self, src: int, dst: int) -> int:
        """Number of link traversals for a unicast from ``src`` to ``dst``."""

    @property
    @abstractmethod
    def max_hops(self) -> int:
        """Worst-case unicast/broadcast hop count (``Dmax`` of Section 2.2)."""

    @abstractmethod
    def broadcast_link_count(self, src: int) -> int:
        """Directed links used to broadcast one transaction from ``src``."""

    @abstractmethod
    def broadcast_arrival_hops(self, src: int, dst: int) -> int:
        """Link traversals from ``src`` to ``dst`` along the broadcast tree."""

    @property
    @abstractmethod
    def num_links(self) -> int:
        """Total directed links (denominator of per-link traffic, Figure 4)."""

    # -------------------------------------------------------- fabric interface
    @abstractmethod
    def fabric_nodes(self) -> List[NodeId]:
        """All graph nodes (endpoints and switches)."""

    @abstractmethod
    def fabric_links(self) -> List[Tuple[NodeId, NodeId]]:
        """All directed links of the fabric graph."""

    @abstractmethod
    def broadcast_tree(self, src: int) -> BroadcastTree:
        """Broadcast spanning tree (with delta-D annotations) rooted at ``src``."""

    # ------------------------------------------------------------ conveniences
    def endpoints(self) -> range:
        return range(self.num_endpoints)

    def mean_hop_count(self) -> float:
        """Mean unicast hop count over all (src, dst) pairs, self included."""
        total = 0
        for src in self.endpoints():
            for dst in self.endpoints():
                total += self.hop_count(src, dst)
        return total / (self.num_endpoints**2)

    def mean_broadcast_arrival_hops(self, src: int) -> float:
        total = sum(self.broadcast_arrival_hops(src, dst) for dst in self.endpoints())
        return total / self.num_endpoints

    def validate(self) -> None:
        """Sanity checks used by tests: trees reach every endpoint, etc."""
        for src in self.endpoints():
            tree = self.broadcast_tree(src)
            if not tree.all_endpoints_reached(self.num_endpoints):
                missing = set(self.endpoints()) - set(tree.arrival_hops)
                raise AssertionError(
                    f"{self.name}: broadcast tree from {src} misses {missing}"
                )
            if tree.link_count() != self.broadcast_link_count(src):
                raise AssertionError(
                    f"{self.name}: tree from {src} uses {tree.link_count()} "
                    f"links, expected {self.broadcast_link_count(src)}"
                )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name} n={self.num_endpoints}>"
