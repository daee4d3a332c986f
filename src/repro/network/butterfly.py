"""Four radix-4 butterflies (the paper's indirect topology).

Section 4.2 / Figure 2 (left): 16 processor/memory nodes are connected by
four parallel radix-4 butterflies, selected round-robin, so every node has
four outgoing and four incoming point-to-point links.  A 16-endpoint radix-4
butterfly has two switch stages of four switches each:

* endpoint *i* injects into ingress switch ``i // 4``,
* every ingress switch connects to all four egress switches,
* egress switch *k* delivers to endpoints ``4k .. 4k+3``.

A unicast therefore traverses 3 links (endpoint->ingress, ingress->egress,
egress->endpoint), giving the paper's one-way latency
``Dnet = Dovh + 3 * Dswitch = 49 ns``, and a broadcast uses
``1 + 4 + 16 = 21`` links with every destination at exactly 3 hops.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.network.topology import (
    BroadcastTree,
    NodeId,
    Topology,
    endpoint_node,
)


class ButterflyTopology(Topology):
    """Indirect network: ``planes`` parallel radix-``radix`` butterflies."""

    name = "butterfly"

    def __init__(
        self, num_endpoints: int = 16, radix: int = 4, planes: int = 4
    ) -> None:
        super().__init__(num_endpoints)
        if radix <= 1:
            raise ValueError("radix must be at least 2")
        if num_endpoints != radix * radix:
            raise ValueError(
                "this two-stage butterfly supports exactly radix**2 endpoints "
                f"({radix * radix}), got {num_endpoints}"
            )
        if planes <= 0:
            raise ValueError("planes must be positive")
        self.radix = radix
        self.planes = planes
        self._num_switch_groups = num_endpoints // radix

    # ----------------------------------------------------- analytic interface
    def hop_count(self, src: int, dst: int) -> int:
        """Every endpoint pair is exactly 3 links apart through the butterfly."""
        self._check_endpoint(src)
        self._check_endpoint(dst)
        return 3

    @property
    def max_hops(self) -> int:
        return 3

    @property
    def num_links(self) -> int:
        """Directed links over all planes.

        Per plane: ``num_endpoints`` injection links, ``radix**2``
        stage-to-stage links and ``num_endpoints`` delivery links.
        """
        per_plane = self.num_endpoints + self.radix * self.radix + self.num_endpoints
        return per_plane * self.planes

    # -------------------------------------------------------- fabric interface
    # The detailed token-passing model uses a single plane; the planes are
    # identical round-robin copies, so one plane captures the ordering
    # behaviour while the analytic accounting above covers all four.
    def ingress_switch(self, endpoint: int) -> NodeId:
        self._check_endpoint(endpoint)
        return f"sw:in:{endpoint // self.radix}"

    def egress_switch(self, endpoint: int) -> NodeId:
        self._check_endpoint(endpoint)
        return f"sw:out:{endpoint // self.radix}"

    def fabric_nodes(self) -> List[NodeId]:
        nodes = [endpoint_node(i) for i in self.endpoints()]
        nodes += [f"sw:in:{g}" for g in range(self._num_switch_groups)]
        nodes += [f"sw:out:{g}" for g in range(self._num_switch_groups)]
        return nodes

    def fabric_links(self) -> List[Tuple[NodeId, NodeId]]:
        links: List[Tuple[NodeId, NodeId]] = []
        for ep in self.endpoints():
            links.append((endpoint_node(ep), self.ingress_switch(ep)))
            links.append((self.egress_switch(ep), endpoint_node(ep)))
        for g_in in range(self._num_switch_groups):
            for g_out in range(self._num_switch_groups):
                links.append((f"sw:in:{g_in}", f"sw:out:{g_out}"))
        return links

    def _build_broadcast_tree(self, src: int) -> BroadcastTree:
        """Source -> its ingress switch -> all egress switches -> all endpoints.

        The tree uses ``1 + radix + num_endpoints`` links.  Every branch has
        the same remaining depth, so all ``delta_d`` values are zero
        (Section 2.2's third rule only produces non-zero adjustments on
        unbalanced trees such as the torus).
        """
        children: Dict[NodeId, List[Tuple[NodeId, int]]] = {}
        ingress = self.ingress_switch(src)
        groups = range(self._num_switch_groups)
        children[endpoint_node(src)] = [(ingress, 0)]
        children[ingress] = [(f"sw:out:{g}", 0) for g in groups]
        arrival: Dict[int, int] = {}
        depth_below: Dict[NodeId, int] = {endpoint_node(src): 3, ingress: 2}
        for g in groups:
            egress = f"sw:out:{g}"
            children[egress] = []
            depth_below[egress] = 1
            for ep in range(g * self.radix, (g + 1) * self.radix):
                children[egress].append((endpoint_node(ep), 0))
                arrival[ep] = 3
                if ep != src:
                    depth_below[endpoint_node(ep)] = 0
        return BroadcastTree(
            source=src,
            children=children,
            arrival_hops=arrival,
            depth=3,
            depth_below=depth_below,
        )
