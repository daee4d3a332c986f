"""4x4 bidirectional 2D torus (the paper's direct topology).

Section 4.2 / Figure 2 (right): each of the 16 nodes integrates its network
switch onto the processor die (as in the Compaq Alpha 21364), so the fabric
nodes are the endpoints themselves, connected to their four neighbours with
bidirectional links.  A unicast travels the wraparound Manhattan distance
(0 to 4 links, mean 2); a broadcast follows a minimum-distance spanning tree
using 15 links with mean arrival distance 2 and worst case 4.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.network.routing import build_torus_broadcast_tree
from repro.network.topology import BroadcastTree, NodeId, Topology, endpoint_node


class TorusTopology(Topology):
    """A ``width x height`` bidirectional torus with on-die switches."""

    name = "torus"

    def __init__(self, width: int = 4, height: int = 4) -> None:
        if width < 2 or height < 2:
            raise ValueError("torus dimensions must be at least 2x2")
        super().__init__(width * height)
        self.width = width
        self.height = height
        # Per-axis ring-distance tables plus a lazily-filled per-source
        # distance row: hop_count is two index operations on warm paths
        # instead of coordinate maths per call (a 256-node torus asks for
        # up to 65k pairs per run).
        self._axis_x = [
            [min(abs(a - b), width - abs(a - b)) for b in range(width)]
            for a in range(width)
        ]
        self._axis_y = [
            [min(abs(a - b), height - abs(a - b)) for b in range(height)]
            for a in range(height)
        ]
        self._dist_rows: List[List[int]] = [None] * (width * height)

    @classmethod
    def for_endpoints(cls, num_endpoints: int) -> "TorusTopology":
        """Build the squarest torus holding ``num_endpoints`` nodes."""
        width = int(num_endpoints**0.5)
        while width > 1 and num_endpoints % width:
            width -= 1
        height = num_endpoints // width
        if width * height != num_endpoints or width < 2 or height < 2:
            raise ValueError(f"cannot build a 2D torus with {num_endpoints} endpoints")
        return cls(width=width, height=height)

    # ------------------------------------------------------------ coordinates
    def coordinates(self, endpoint: int) -> Tuple[int, int]:
        self._check_endpoint(endpoint)
        return endpoint % self.width, endpoint // self.width

    def endpoint_at(self, x: int, y: int) -> int:
        return (y % self.height) * self.width + (x % self.width)

    def neighbors(self, endpoint: int) -> List[int]:
        """The four torus neighbours (duplicates removed on tiny tori)."""
        x, y = self.coordinates(endpoint)
        candidates = [
            self.endpoint_at(x + 1, y),
            self.endpoint_at(x - 1, y),
            self.endpoint_at(x, y + 1),
            self.endpoint_at(x, y - 1),
        ]
        seen: List[int] = []
        for node in candidates:
            if node != endpoint and node not in seen:
                seen.append(node)
        return seen

    # ----------------------------------------------------- analytic interface
    def hop_count(self, src: int, dst: int) -> int:
        n = self.num_endpoints
        if not (0 <= src < n and 0 <= dst < n):
            raise ValueError(f"endpoint out of range 0..{n - 1}")
        row = self._dist_rows[src]
        if row is None:
            width = self.width
            axis_x = self._axis_x[src % width]
            axis_y = self._axis_y[src // width]
            row = self._dist_rows[src] = [
                axis_x[d % width] + axis_y[d // width] for d in range(n)
            ]
        return row[dst]

    @property
    def max_hops(self) -> int:
        return self.width // 2 + self.height // 2

    @property
    def num_links(self) -> int:
        """Directed node-to-node links (each bidirectional link counts twice)."""
        return sum(len(self.neighbors(node)) for node in self.endpoints())

    # -------------------------------------------------------- fabric interface
    def fabric_nodes(self) -> List[NodeId]:
        return [endpoint_node(i) for i in self.endpoints()]

    def fabric_links(self) -> List[Tuple[NodeId, NodeId]]:
        links: List[Tuple[NodeId, NodeId]] = []
        for node in self.endpoints():
            for neighbor in self.neighbors(node):
                links.append((endpoint_node(node), endpoint_node(neighbor)))
        return links

    def _build_broadcast_tree(self, src: int) -> BroadcastTree:
        return build_torus_broadcast_tree(src, self.width, self.height)
