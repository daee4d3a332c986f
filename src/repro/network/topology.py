"""Topology abstraction.

A :class:`Topology` serves two consumers:

* the **analytic timing model** used for full performance runs, which only
  needs hop counts (number of link traversals, each costing ``Dswitch``)
  and, from each source's broadcast tree, the broadcast's link count and
  per-destination arrival distances, matching the unloaded-latency
  methodology of Table 2; and
* the **detailed token-passing network** (``repro.core.timestamp_network``),
  which needs the explicit switch/endpoint graph: nodes, directed links and
  the same per-source broadcast spanning trees, annotated with the
  ``delta-D`` values of Section 2.2.

A topology builds each source's tree on first use and keeps it: the paper's
switches route broadcasts "with a table lookup on transaction source ID"
(Section 2.2), and every network of a run shares the one table.

Graph nodes are identified with strings: ``"ep:<i>"`` for endpoint *i* and
``"sw:..."`` for switches.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

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
    traversals from the source along the tree.  ``link_count`` is the number
    of directed links one broadcast uses, computed once from ``children``.
    """

    source: int
    children: Dict[NodeId, List[Tuple[NodeId, int]]] = field(default_factory=dict)
    arrival_hops: Dict[int, int] = field(default_factory=dict)
    depth: int = 0
    #: remaining maximum depth (in links) below each tree node; used by
    #: co-located switch/endpoint nodes to adjust slack on local delivery.
    depth_below: Dict[NodeId, int] = field(default_factory=dict)
    link_count: int = field(init=False)

    def __post_init__(self) -> None:
        self.link_count = sum(len(branches) for branches in self.children.values())


class Topology(ABC):
    """Base class for the evaluated interconnect topologies."""

    name: str = "abstract"

    def __init__(self, num_endpoints: int) -> None:
        if num_endpoints <= 0:
            raise ValueError("num_endpoints must be positive")
        self.num_endpoints = num_endpoints
        self._trees: List[Optional[BroadcastTree]] = [None] * num_endpoints

    # ----------------------------------------------------- analytic interface
    @abstractmethod
    def hop_count(self, src: int, dst: int) -> int:
        """Number of link traversals for a unicast from ``src`` to ``dst``."""

    @property
    @abstractmethod
    def max_hops(self) -> int:
        """Worst-case unicast/broadcast hop count (``Dmax`` of Section 2.2)."""

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

    def broadcast_tree(self, src: int) -> BroadcastTree:
        """Broadcast spanning tree (with delta-D annotations) rooted at
        ``src``, built on the first call and the same object thereafter."""
        self._check_endpoint(src)
        tree = self._trees[src]
        if tree is None:
            tree = self._trees[src] = self._build_broadcast_tree(src)
        return tree

    @abstractmethod
    def _build_broadcast_tree(self, src: int) -> BroadcastTree:
        """Build the broadcast tree rooted at ``src`` (already range-checked)."""

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

    def _check_endpoint(self, endpoint: int) -> None:
        if not 0 <= endpoint < self.num_endpoints:
            raise ValueError(
                f"endpoint {endpoint} out of range 0..{self.num_endpoints - 1}"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name} n={self.num_endpoints}>"
