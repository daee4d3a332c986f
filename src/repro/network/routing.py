"""Broadcast routing helpers.

The paper assumes "a statically balanced broadcast routing algorithm using
minimum distance spanning trees implemented with a table lookup on
transaction source ID" (Section 2.2).  This module builds those trees for
the torus (dimension-order: X ring first, then Y rings), annotating every
branch with the ``delta-D`` that keeps a transaction's ordering time
invariant on the unbalanced tree.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.network.topology import BroadcastTree, NodeId, endpoint_node


def ring_offsets(size: int) -> List[int]:
    """Minimum-distance offsets that cover a ring of ``size`` nodes.

    For a 4-ring this is ``[0, 1, -1, 2]``: each non-zero offset is reached
    by extending the walk in one direction, never taking a longer path than
    necessary.
    """
    offsets = [0]
    step = 1
    while len(offsets) < size:
        offsets.append(step)
        if len(offsets) < size:
            offsets.append(-step)
        step += 1
    return offsets


def ring_parent(offset: int) -> int:
    """Parent offset of ``offset`` in the minimum-distance ring walk."""
    if offset == 0:
        raise ValueError("the ring root has no parent")
    if offset > 0:
        return offset - 1
    return offset + 1


def build_torus_broadcast_tree(source: int, width: int, height: int) -> BroadcastTree:
    """Dimension-order broadcast spanning tree rooted at ``source``.

    The tree first spans the source's X ring, then each node in that ring
    spans its own Y ring.  Every destination is reached at its minimum
    Manhattan (with wraparound) distance, and the tree uses exactly
    ``width * height - 1`` links.
    """
    num_nodes = width * height
    if not 0 <= source < num_nodes:
        raise ValueError(f"source {source} out of range")
    sx, sy = source % width, source // width

    def node_at(x: int, y: int) -> int:
        return (y % height) * width + (x % width)

    children: Dict[NodeId, List[Tuple[NodeId, int]]] = {}
    arrival: Dict[int, int] = {}
    depth_below: Dict[int, int] = {}

    # Pass 1: record parent/child structure and arrival distances.
    edges: Dict[int, List[int]] = {}
    for dx in ring_offsets(width):
        x = (sx + dx) % width
        row_node = node_at(x, sy)
        if dx != 0:
            parent_row = node_at(sx + ring_parent(dx), sy)
            edges.setdefault(parent_row, []).append(row_node)
        for dy in ring_offsets(height):
            y = (sy + dy) % height
            node = node_at(x, y)
            arrival[node] = abs_ring(dx, width) + abs_ring(dy, height)
            if dy != 0:
                parent = node_at(x, sy + ring_parent(dy))
                edges.setdefault(parent, []).append(node)

    # Pass 2: compute remaining depth below every node (longest path to a leaf).
    def compute_depth(node: int) -> int:
        if node in depth_below:
            return depth_below[node]
        kids = edges.get(node, [])
        depth = 0 if not kids else 1 + max(compute_depth(kid) for kid in kids)
        depth_below[node] = depth
        return depth

    compute_depth(source)

    # Pass 3: emit children lists with delta-D = (longest branch) - (this branch).
    for parent, kids in edges.items():
        branch_depths = [1 + compute_depth(kid) for kid in kids]
        longest = max(branch_depths)
        children[endpoint_node(parent)] = [
            (endpoint_node(kid), longest - depth)
            for kid, depth in zip(kids, branch_depths)
        ]

    return BroadcastTree(
        source=source,
        children=children,
        arrival_hops=arrival,
        depth=max(arrival.values()),
        depth_below={endpoint_node(node): depth for node, depth in depth_below.items()},
    )


def abs_ring(offset: int, size: int) -> int:
    """Number of hops represented by a ring offset (never exceeds size // 2)."""
    return min(abs(offset), size - abs(offset))

