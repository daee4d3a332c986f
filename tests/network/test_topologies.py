"""Topology tests: the paper's butterfly and torus numbers (Figure 2)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.network import make_topology
from repro.network.butterfly import ButterflyTopology
from repro.network.topology import endpoint_node, is_endpoint
from repro.network.torus import TorusTopology


class TestButterfly:
    def test_every_pair_is_three_hops(self, butterfly):
        for src in butterfly.endpoints():
            for dst in butterfly.endpoints():
                assert butterfly.hop_count(src, dst) == 3
        assert butterfly.max_hops == 3

    def test_broadcast_uses_21_links(self, butterfly):
        """Section 4.2: 'broadcasts a transaction ... using 21 links (1+4+16)'."""
        for src in butterfly.endpoints():
            assert butterfly.broadcast_tree(src).link_count == 21

    def test_four_planes_give_each_node_four_links(self, butterfly):
        # 48 directed links per plane, four planes.
        assert butterfly.num_links == 192

    def test_broadcast_tree_reaches_everyone_at_three_hops(self, butterfly):
        tree = butterfly.broadcast_tree(5)
        assert set(tree.arrival_hops) == set(range(16))
        assert all(hops == 3 for hops in tree.arrival_hops.values())
        assert tree.link_count == 21
        assert tree.depth == 3

    def test_every_tree_reaches_every_endpoint(self, butterfly):
        for src in butterfly.endpoints():
            tree = butterfly.broadcast_tree(src)
            assert set(tree.arrival_hops) == set(butterfly.endpoints())

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            ButterflyTopology(num_endpoints=12, radix=4)
        with pytest.raises(ValueError):
            ButterflyTopology(num_endpoints=16, radix=4, planes=0)

    def test_out_of_range_endpoint(self, butterfly):
        with pytest.raises(ValueError):
            butterfly.hop_count(0, 16)

    def test_delta_d_all_zero_on_balanced_tree(self, butterfly):
        tree = butterfly.broadcast_tree(0)
        for branches in tree.children.values():
            assert all(delta == 0 for _child, delta in branches)


class TestTorus:
    def test_mean_hop_count_is_two(self, torus):
        """Section 4.2: 'delivers messages using a mean of 2 links'."""
        assert torus.mean_hop_count() == pytest.approx(2.0)

    def test_worst_case_is_four(self, torus):
        assert torus.max_hops == 4
        assert max(torus.hop_count(0, dst) for dst in torus.endpoints()) == 4

    def test_broadcast_uses_15_links(self, torus):
        for src in torus.endpoints():
            assert torus.broadcast_tree(src).link_count == 15

    def test_num_links_64_directed(self, torus):
        assert torus.num_links == 64

    def test_hop_count_symmetric(self, torus):
        for src in torus.endpoints():
            for dst in torus.endpoints():
                assert torus.hop_count(src, dst) == torus.hop_count(dst, src)

    def test_neighbors_are_mutual_and_four(self, torus):
        for node in torus.endpoints():
            neighbors = torus.neighbors(node)
            assert len(neighbors) == 4
            for neighbor in neighbors:
                assert node in torus.neighbors(neighbor)

    def test_broadcast_arrival_matches_shortest_path(self, torus):
        for src in torus.endpoints():
            tree = torus.broadcast_tree(src)
            for dst in torus.endpoints():
                assert tree.arrival_hops[dst] == torus.hop_count(src, dst)

    def test_every_tree_reaches_every_endpoint(self, torus):
        for src in torus.endpoints():
            tree = torus.broadcast_tree(src)
            assert set(tree.arrival_hops) == set(torus.endpoints())

    def test_for_endpoints_builds_square(self):
        assert TorusTopology.for_endpoints(16).width == 4
        assert TorusTopology.for_endpoints(8).width in (2, 4)

    def test_rejects_tiny_torus(self):
        with pytest.raises(ValueError):
            TorusTopology(width=1, height=4)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=15),
           st.integers(min_value=0, max_value=15))
    def test_hop_count_triangle_inequality_through_broadcast(self, src, dst):
        torus = TorusTopology(4, 4)
        assert 0 <= torus.hop_count(src, dst) <= torus.max_hops


def longest_paths(tree):
    """Links on the longest path below every node of the tree, counted from
    ``tree.children``.  The butterfly's branch back to the source endpoint
    (the source's own copy, consumed on arrival) is left out."""
    root = endpoint_node(tree.source)
    below = {}

    def longest(node):
        kids = [kid for kid, _delta in tree.children.get(node, ()) if kid != root]
        below[node] = 1 + max(map(longest, kids)) if kids else 0
        return below[node]

    longest(root)
    return below


TOPOLOGIES = [
    *(make_topology(name, n) for name in ("butterfly", "torus")
      for n in (16, 64, 256)),
    *(TorusTopology(width, height)
      for width, height in ((2, 3), (3, 5), (5, 7), (4, 6), (7, 2))),
]


@pytest.mark.parametrize(
    "topology", TOPOLOGIES, ids=lambda t: f"{t.name}{t.num_endpoints}")
class TestBroadcastTrees:
    """What the networks read from a tree: the analytical network orders
    every broadcast ``max_hops`` after injection, and the detailed network
    pads each local delivery by ``depth_below`` without a fallback."""

    def test_every_source_tree(self, topology):
        n = topology.num_endpoints
        if topology.name == "butterfly":
            expected_links = 1 + topology.radix + n
        else:
            expected_links = n - 1
        for src in topology.endpoints():
            tree = topology.broadcast_tree(src)
            below = longest_paths(tree)
            reached = {node for node in below if is_endpoint(node)}
            assert reached == {endpoint_node(ep) for ep in topology.endpoints()}
            assert set(tree.arrival_hops) == set(topology.endpoints())
            assert tree.depth == below[endpoint_node(src)] == topology.max_hops
            assert max(tree.arrival_hops.values()) == topology.max_hops
            assert tree.link_count == expected_links
            for node, depth in below.items():
                assert tree.depth_below[node] == depth

    def test_tree_is_built_once(self, topology):
        for src in (0, topology.num_endpoints - 1):
            assert topology.broadcast_tree(src) is topology.broadcast_tree(src)

    def test_out_of_range_source(self, topology):
        for src in (-1, topology.num_endpoints):
            with pytest.raises(ValueError):
                topology.broadcast_tree(src)


class TestFactory:
    def test_factory_names(self):
        assert make_topology("butterfly").name == "butterfly"
        assert make_topology("torus").name == "torus"
        assert make_topology("BFLY").name == "butterfly"

    def test_factory_rejects_unknown(self):
        with pytest.raises(ValueError):
            make_topology("hypercube")
