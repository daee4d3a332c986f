"""Unit tests for torus broadcast routing and its delta-D annotations."""

from hypothesis import given, settings, strategies as st

from repro.network.routing import (
    abs_ring,
    build_torus_broadcast_tree,
    ring_offsets,
    ring_parent,
)


class TestRingHelpers:
    def test_ring_offsets_cover_ring(self):
        assert sorted(offset % 4 for offset in ring_offsets(4)) == [0, 1, 2, 3]
        assert len(ring_offsets(5)) == 5

    def test_ring_parent_moves_toward_zero(self):
        assert ring_parent(2) == 1
        assert ring_parent(-2) == -1
        assert ring_parent(1) == 0

    def test_abs_ring(self):
        assert abs_ring(2, 4) == 2
        assert abs_ring(-1, 4) == 1
        assert abs_ring(3, 4) == 1


class TestTorusBroadcastTree:
    def test_uses_exactly_n_minus_1_links(self):
        tree = build_torus_broadcast_tree(0, 4, 4)
        assert tree.link_count == 15

    def test_reaches_every_node_at_min_distance(self):
        tree = build_torus_broadcast_tree(5, 4, 4)
        for node in range(16):
            sx, sy = 5 % 4, 5 // 4
            nx, ny = node % 4, node // 4
            expected = abs_ring(nx - sx, 4) + abs_ring(ny - sy, 4)
            assert tree.arrival_hops[node] == expected

    def test_delta_d_nonnegative_and_zero_on_longest_branch(self):
        tree = build_torus_broadcast_tree(0, 4, 4)
        for branches in tree.children.values():
            deltas = [delta for _child, delta in branches]
            assert all(delta >= 0 for delta in deltas)
            assert min(deltas) == 0

    def test_tree_is_acyclic(self):
        tree = build_torus_broadcast_tree(0, 4, 4)
        children = [child for branches in tree.children.values()
                    for child, _delta in branches]
        # A spanning tree visits every non-root node exactly once.
        assert len(children) == len(set(children)) == 15

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=15))
    def test_any_source_spans_the_torus(self, source):
        tree = build_torus_broadcast_tree(source, 4, 4)
        assert set(tree.arrival_hops) == set(range(16))
        assert tree.link_count == 15
        assert tree.depth == max(tree.arrival_hops.values())

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=2, max_value=6),
           st.integers(min_value=2, max_value=6),
           st.integers(min_value=0, max_value=35))
    def test_non_square_tori(self, width, height, source):
        source = source % (width * height)
        tree = build_torus_broadcast_tree(source, width, height)
        assert set(tree.arrival_hops) == set(range(width * height))
        assert tree.link_count == width * height - 1
