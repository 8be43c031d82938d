"""Graph container, cut arithmetic, contraction, and the neighboring relation."""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import strategies
from ghtree import (
    Graph,
    are_neighboring,
    contract,
    cut_weight,
    make_cut_side,
    min_st_cut_exact,
)
from ghtree._maxflow import _network


def triangle() -> Graph:
    return Graph(range(3), [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 4.0)])


class TestConstruction:
    def test_parallel_edges_merge_by_sum(self):
        g = Graph(range(2), [(0, 1, 1.5), (1, 0, 2.0)])
        assert g.weight(0, 1) == 3.5
        assert g.m == 1

    def test_zero_weight_edges_are_dropped(self):
        g = Graph(range(3), [(0, 1, 0.0), (1, 2, 1.0)])
        assert g.m == 1
        assert g.weight(0, 1) == 0.0

    def test_cancelling_parallel_edges_drop_the_pair(self):
        g = Graph(range(2), [(0, 1, 1.0), (0, 1, -0.0)])
        assert g.weight(0, 1) == 1.0

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(range(2), [(1, 1, 1.0)])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="invalid weight"):
            Graph(range(2), [(0, 1, -1.0)])

    @pytest.mark.parametrize("w", [math.nan, math.inf, -math.inf])
    def test_nonfinite_weight_rejected(self, w):
        with pytest.raises(ValueError, match="invalid weight"):
            Graph(range(2), [(0, 1, w)])

    def test_endpoint_outside_vertex_set_rejected(self):
        with pytest.raises(ValueError, match="outside the vertex set"):
            Graph(range(2), [(0, 5, 1.0)])

    def test_isolated_vertices_survive(self):
        g = Graph([3, 1, 7], [(1, 3, 1.0)])
        assert g.vertices == (1, 3, 7)
        assert oracles.degree(g, 7) == 0

    def test_equality_ignores_input_order(self):
        g1 = Graph([2, 0, 1], [(1, 2, 2.0), (0, 1, 1.0)])
        g2 = Graph(range(3), [(0, 1, 1.0), (2, 1, 2.0)])
        assert g1 == g2
        assert hash(g1) == hash(g2)

    def test_weight_lookup_is_symmetric(self):
        g = triangle()
        assert g.weight(2, 0) == g.weight(0, 2) == 4.0

    def test_weight_of_unknown_vertex_raises(self):
        with pytest.raises(ValueError):
            triangle().weight(0, 9)

    def test_edges_iterate_sorted_canonical(self):
        g = Graph(range(3), [(2, 1, 2.0), (1, 0, 1.0)])
        assert list(g.edges()) == [(0, 1, 1.0), (1, 2, 2.0)]

    def test_equal_graphs_with_different_store_orders_compare_and_hash_equal(self):
        g = Graph(range(4), [(0, 1, 1.0), (0, 3, 2.0), (1, 2, 3.0), (2, 3, 1.5)])
        h = contract(g, [0])[0]
        same = Graph(h.vertices, h.edges())
        assert list(h._weights) == [(1, 2), (2, 3), (1, 4), (3, 4)] != list(same._weights)
        assert h == same and hash(h) == hash(same)


@st.composite
def spread_graphs(draw, min_n: int = 1, weights=strategies.kernel_weights):
    """A connected graph on spread-out labels, plus up to three isolated vertices."""
    g = draw(strategies.connected_graphs(min_n=min_n, max_n=10, weights=weights))
    isolated = draw(st.integers(0, 3))
    label = {v: 3 * v + 1 for v in g.vertices}
    return Graph(
        [*label.values(), *(3 * (g.n + i) for i in range(isolated))],
        [(label[u], label[v], w) for u, v, w in g.edges()],
    )


@st.composite
def sided_graphs(draw):
    """A spread-out graph with any vertex subset as the side."""
    h = draw(spread_graphs())
    return h, draw(st.sets(st.sampled_from(h.vertices)))


@st.composite
def blocked_graphs(draw, max_blocks: int = 4, spare: int = 1):
    """A spread-out graph with weights in thirds, and 1 to ``max_blocks`` disjoint blocks.

    The blocks together hold from one vertex to all but ``spare``, in
    random order, so a block ranges from a singleton to all but
    ``spare`` vertices.
    """
    h = draw(spread_graphs(min_n=spare + 1, weights=strategies.third_weights))
    order = draw(st.permutations(h.vertices))
    covered = draw(st.integers(1, h.n - spare))
    ends = draw(st.sets(st.integers(1, covered - 1), max_size=max_blocks - 1)) if covered > 1 else set()
    bounds = [0, *sorted(ends), covered]
    return h, [order[a:b] for a, b in zip(bounds, bounds[1:])]


class TestCutWeight:
    def test_triangle_singleton(self):
        assert cut_weight(triangle(), {0}) == 5.0
        assert cut_weight(triangle(), {1}) == 3.0

    def test_empty_and_full_sides_are_zero(self):
        g = triangle()
        assert cut_weight(g, set()) == 0.0
        assert cut_weight(g, set(g.vertices)) == 0.0

    def test_side_outside_graph_raises(self):
        with pytest.raises(ValueError):
            cut_weight(triangle(), {0, 9})

    def test_make_cut_side_rejects_empty_and_full(self):
        g = triangle()
        with pytest.raises(ValueError):
            make_cut_side(g, set())
        with pytest.raises(ValueError):
            make_cut_side(g, g.vertices)

    def test_make_cut_side_recomputes_value(self):
        cs = make_cut_side(triangle(), {0, 1})
        assert cs.side == frozenset({0, 1})
        assert cs.value == 6.0

    @given(strategies.connected_graphs())
    @settings(max_examples=60, deadline=None)
    def test_complement_has_equal_weight(self, g):
        side = set(g.vertices[: g.n // 2])
        rest = set(g.vertices) - side
        assert cut_weight(g, side) == pytest.approx(cut_weight(g, rest), abs=1e-12)
        # The adjacency oracle agrees with the graph's weight lookup.
        for v in g.vertices:
            pairs = [(u, g.weight(v, u)) for u in g.vertices if g.weight(v, u) > 0.0]
            assert oracles.adjacency(g, v) == pairs
            assert oracles.degree(g, v) == len(pairs)

    @given(strategies.connected_graphs(min_n=3))
    @settings(max_examples=60, deadline=None)
    def test_cut_function_is_submodular(self, g):
        vs = list(g.vertices)
        a = set(vs[: 2 * len(vs) // 3])
        b = set(vs[len(vs) // 3 :])
        lhs = cut_weight(g, a) + cut_weight(g, b)
        rhs = cut_weight(g, a | b) + cut_weight(g, a & b)
        assert lhs >= rhs - 1e-9

    @given(sided_graphs(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_bitwise_equal_to_an_edge_scan(self, case, flow_first):
        g, side = case
        if flow_first and g.n > 1:
            min_st_cut_exact(g, g.vertices[0], g.vertices[-1])
        rest = g.vertex_set - side
        for s in [side, rest, set(), g.vertex_set] + [{v} for v in g.vertices]:
            want = oracles.scan_cut_weight(g, s).hex()
            assert cut_weight(g, s).hex() == want
            if 0 < len(s) < g.n:
                assert make_cut_side(g, s).value.hex() == want

    @given(strategies.connected_graphs())
    @settings(max_examples=40, deadline=None)
    def test_matches_bitmask_oracle_on_every_subset(self, g):
        values = oracles.all_cut_values(g)
        for mask in range(len(values)):
            side = oracles.side_from_mask(g, mask)
            assert cut_weight(g, side) == pytest.approx(values[mask], abs=1e-12)


class TestContract:
    def test_block_edges_vanish_boundary_edges_merge(self):
        g = Graph(range(4), [(0, 1, 1.0), (0, 2, 2.0), (1, 2, 3.0), (2, 3, 4.0)])
        h, label = contract(g, {0, 1})
        assert label == max(g.vertices) + 1 == 4
        assert h.vertex_set == {2, 3, 4}
        assert h.weight(4, 2) == 5.0
        assert h.weight(2, 3) == 4.0

    def test_block_holding_the_largest_vertex_gets_a_fresh_label(self):
        h, label = contract(triangle(), {1, 2})
        assert label == 3
        assert h.vertices == (0, 3)
        assert h.weight(0, 3) == 5.0

    def test_empty_block_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            contract(triangle(), set())

    def test_block_outside_graph_rejected(self):
        with pytest.raises(ValueError, match="outside the graph"):
            contract(triangle(), {0, 9})

    def test_whole_vertex_set_contracts_to_point(self):
        h, label = contract(triangle(), {0, 1, 2})
        assert label == 3
        assert h.vertices == (3,)
        assert h.m == 0

    @given(strategies.connected_graphs(min_n=3))
    @settings(max_examples=60, deadline=None)
    def test_cut_weights_are_preserved_under_contraction(self, g):
        # Cutting around the supernode equals cutting around its block.
        block = set(g.vertices[: g.n // 2])
        h, label = contract(g, block)
        assert label == max(g.vertices) + 1
        for v in h.vertex_set - {label}:
            assert cut_weight(h, {label, v}) == pytest.approx(
                cut_weight(g, block | {v}), abs=1e-12
            )
        assert cut_weight(h, {label}) == pytest.approx(cut_weight(g, block), abs=1e-12)


    @given(strategies.graphs_with_disjoint_blocks())
    @settings(max_examples=150, deadline=None)
    def test_several_blocks_equal_one_block_at_a_time(self, case):
        # Bitwise equality, also on edges that join two multi-vertex blocks.
        g, blocks = case
        h, label = contract(g, *blocks)
        seq = g
        for i, block in enumerate(blocks):
            seq, seq_label = oracles.contract_one(seq, block)
            assert seq_label == label + i
        assert h == seq
        assert list(h.edges()) == list(seq.edges())
        assert h.vertices == seq.vertices

    @given(strategies.connected_graphs(min_n=3))
    @settings(max_examples=60, deadline=None)
    def test_one_block_matches_reference(self, g):
        block = g.vertices[1 : 1 + g.n // 2]
        h, label = contract(g, block)
        ref, ref_label = oracles.contract_one(g, block)
        assert (h, label) == (ref, ref_label)
        assert list(h.edges()) == list(ref.edges())

    def test_sums_between_blocks_follow_the_later_block(self):
        # Blocks {0, 1} then {2, 3}: one at a time gives (w02 + w12) + (w03 + w13),
        # which differs in the last bit from the flat scan-order sum.
        t1, t2 = 1.0 / 3.0, 2.0 / 3.0
        g = Graph(range(4), [(0, 2, t2), (0, 3, t2), (1, 2, t2), (1, 3, t1)])
        h, label = contract(g, {0, 1}, {2, 3})
        assert h.vertices == (4, 5)
        assert h.weight(4, 5) == (t2 + t2) + (t2 + t1)
        assert h.weight(4, 5) != ((t2 + t2) + t2) + t1

    @given(blocked_graphs())
    @settings(max_examples=200, deadline=None)
    def test_bitwise_equal_to_a_full_edge_scan(self, case):
        # The first call builds g's network, the second reuses it.
        g, blocks = case
        ref, ref_label = oracles.scan_contract(g, *blocks)
        assert g._net is None
        for _ in range(2):
            h, label = contract(g, *blocks)
            assert label == ref_label
            assert h.vertices == ref.vertices
            assert [(u, v, w.hex()) for u, v, w in h.edges()] == [(u, v, w.hex()) for u, v, w in ref.edges()]
            assert g._net is not None

    @given(blocked_graphs(max_blocks=3, spare=0))
    # One vertex of four; every vertex of a path; two blocks joined by
    # four edges, and vertices whose edges into a block merge.
    @example((Graph(range(4), [(0, 1, 1 / 3), (1, 2, 2 / 3), (2, 3, 1.0)]), [[2]]))
    @example((Graph([1, 4, 7], [(1, 4, 2 / 3), (4, 7, 1 / 3)]), [[7, 1, 4]]))
    @example(
        (
            Graph(
                range(7),
                [(0, 2, 1 / 3), (0, 3, 2 / 3), (1, 2, 2 / 3), (1, 3, 1 / 3), (2, 5, 1 / 3), (3, 5, 2 / 3),
                 (4, 0, 4 / 3), (4, 1, 1 / 3), (5, 6, 1.0), (6, 1, 2 / 3), (6, 0, 1 / 3)],
            ),
            [[2, 3], [1, 0]],
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_bitwise_equal_to_popping_and_sorting_every_key(self, case):
        g, blocks = case
        ref, ref_label = oracles.contract_by_sorting(g, *blocks)
        h, label = contract(g, *blocks)
        assert label == ref_label
        assert h.vertices == ref.vertices
        assert [(u, v, w.hex()) for u, v, w in h.edges()] == [(u, v, w.hex()) for u, v, w in ref.edges()]

    @given(blocked_graphs())
    @settings(max_examples=100, deadline=None)
    def test_outside_contracted_equals_the_region_reference(self, case):
        # The blocks serve as disjoint regions; each keeps its vertices and loses its outside.
        g, regions = case
        refs, ref_label = oracles.contract_complements(g, regions)
        for region, ref in zip(regions, refs):
            h, label = contract(g, g.vertex_set - set(region))
            assert label == ref_label
            assert h.vertices == ref.vertices
            assert [(u, v, w.hex()) for u, v, w in h.edges()] == [(u, v, w.hex()) for u, v, w in ref.edges()]

    def test_no_block_and_overlapping_blocks_rejected(self):
        with pytest.raises(ValueError, match="at least one block"):
            contract(triangle())
        with pytest.raises(ValueError, match="disjoint"):
            contract(triangle(), {0, 1}, {1, 2})


class TestNetwork:
    @given(spread_graphs())
    @settings(max_examples=100, deadline=None)
    def test_equals_a_network_grown_one_edge_at_a_time(self, g):
        index, verts, adj, head, cap = _network(g)
        ref_index, ref_verts, ref_adj, ref_head, ref_cap = oracles.loop_network(g)
        assert (index, verts, adj, head) == (ref_index, ref_verts, ref_adj, ref_head)
        assert [c.hex() for c in cap] == [c.hex() for c in ref_cap]


class TestTrustedConstructor:
    @given(strategies.connected_graphs(), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_equals_public_constructor(self, g, random):
        vertices = tuple(3 * v + 2 for v in g.vertices)
        items = [((3 * u + 2, 3 * v + 2), w) for u, v, w in g.edges()]
        random.shuffle(items)
        trusted = Graph._trusted(vertices, dict(items))
        public = Graph(vertices, [(u, v, w) for (u, v), w in items])
        assert trusted == public
        assert hash(trusted) == hash(public)
        assert list(trusted.edges()) == list(public.edges())
        assert trusted.vertices == public.vertices
        assert trusted.vertex_set == public.vertex_set


class TestNeighboring:
    def test_identical_graphs_are_neighbors(self):
        assert are_neighboring(triangle(), triangle())

    def test_single_small_change_is_neighboring(self):
        g = triangle()
        h = Graph(range(3), [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 5.0)])
        assert are_neighboring(g, h)

    def test_single_large_change_is_not(self):
        g = triangle()
        h = Graph(range(3), [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 5.5)])
        assert not are_neighboring(g, h)

    def test_added_edge_within_unit_weight_is_neighboring(self):
        g = Graph(range(3), [(0, 1, 1.0)])
        h = Graph(range(3), [(0, 1, 1.0), (1, 2, 1.0)])
        assert are_neighboring(g, h)

    def test_two_changed_pairs_are_not(self):
        g = triangle()
        h = Graph(range(3), [(0, 1, 1.5), (1, 2, 2.5), (0, 2, 4.0)])
        assert not are_neighboring(g, h)

    def test_different_vertex_sets_raise(self):
        with pytest.raises(ValueError, match="vertex sets"):
            are_neighboring(triangle(), Graph(range(4)))
