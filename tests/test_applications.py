"""Tree-based applications: pair queries, global min cut, min k-cut."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import strategies
from ghtree import (
    Graph,
    SteinerTree,
    cut_weight,
    generate,
    global_min_cut,
    gomory_hu_exact,
    min_k_cut,
    tree_query,
)


def dumbbell6() -> Graph:
    edges = [(0, 1, 2.0), (0, 2, 2.0), (1, 2, 2.0),
             (3, 4, 2.0), (3, 5, 2.0), (4, 5, 2.0), (2, 3, 1.0)]
    return Graph(range(6), edges)


class TestTreeQuery:
    def test_path_query_reads_min_edge_and_near_side(self):
        g = Graph(range(3), [(0, 1, 2.0), (1, 2, 7.0)])
        tree = gomory_hu_exact(g)
        value, cut = tree_query(tree, g, 0, 2)
        assert value == 2.0
        assert cut.side == {0}
        assert cut.value == 2.0

    def test_query_side_contains_first_endpoint(self):
        g = dumbbell6()
        tree = gomory_hu_exact(g)
        _, cut_u = tree_query(tree, g, 0, 5)
        _, cut_v = tree_query(tree, g, 5, 0)
        assert 0 in cut_u.side and 5 not in cut_u.side
        assert 5 in cut_v.side and 0 not in cut_v.side

    def test_query_values_are_symmetric(self):
        g = dumbbell6()
        tree = gomory_hu_exact(g)
        for u in g.vertices:
            for v in g.vertices:
                if u != v:
                    assert tree_query(tree, g, u, v)[0] == tree_query(tree, g, v, u)[0]

    def test_validation(self):
        g = dumbbell6()
        tree = gomory_hu_exact(g)
        with pytest.raises(ValueError):
            tree_query(tree, g, 0, 0)
        with pytest.raises(ValueError):
            tree_query(tree, g, 0, 99)

    def test_steiner_tree_query_side_may_span_nonterminals(self):
        g = dumbbell6()
        # The Gomory-Hu Steiner tree over {0, 5}: each clique maps to its terminal.
        tree = SteinerTree([0, 5], [(0, 5, 1.0)], {0: 0, 1: 0, 2: 0, 3: 5, 4: 5, 5: 5})
        value, cut = tree_query(tree, g, 0, 5)
        assert value == 1.0
        assert cut.side in ({0, 1, 2}, {3, 4, 5})

    @given(strategies.connected_graphs(min_n=2, max_n=8))
    @settings(max_examples=40, deadline=None)
    def test_exact_tree_queries_match_enumeration(self, g):
        tree = gomory_hu_exact(g)
        for i, u in enumerate(g.vertices):
            for v in g.vertices[i + 1 :]:
                value, cut = tree_query(tree, g, u, v)
                lam = oracles.brute_min_st_value(g, u, v)
                assert value == pytest.approx(lam, abs=1e-9)
                assert cut.value == pytest.approx(lam, abs=1e-9)
                assert (u in cut.side) != (v in cut.side)


class TestGlobalMinCut:
    def test_dumbbell_cuts_the_bridge(self):
        g = dumbbell6()
        value, cut = global_min_cut(gomory_hu_exact(g), g)
        assert value == 1.0
        assert cut.side in ({0, 1, 2}, {3, 4, 5})
        assert cut.value == 1.0

    def test_single_node_tree_rejected(self):
        with pytest.raises(ValueError):
            global_min_cut(SteinerTree([0]), Graph([0]))

    @given(strategies.connected_graphs(min_n=2, max_n=8))
    @settings(max_examples=40, deadline=None)
    def test_matches_enumeration_on_exact_trees(self, g):
        value, cut = global_min_cut(gomory_hu_exact(g), g)
        assert value == pytest.approx(oracles.brute_global_min_value(g), abs=1e-9)
        assert cut.value == pytest.approx(value, abs=1e-9)


@st.composite
def mapped_trees(draw):
    """A random tree on some of a graph's vertices, with tied weights, and a random vertex map onto its nodes."""
    g = draw(strategies.connected_graphs(min_n=3, max_n=8, weights=strategies.rounding_weights))
    nodes = sorted(draw(st.sets(st.sampled_from(g.vertices), min_size=2)))
    edges = [(v, draw(st.sampled_from(nodes[:i])), draw(st.integers(0, 4)) / 2.0) for i, v in enumerate(nodes) if i]
    f = {v: v if v in nodes else draw(st.sampled_from(nodes)) for v in g.vertices}
    return SteinerTree(nodes, edges, f), g


class TestMinKCut:
    def test_dumbbell_two_parts(self):
        g = dumbbell6()
        sol = min_k_cut(gomory_hu_exact(g), g, 2)
        assert sol.value == 1.0
        assert set(sol.parts) == {frozenset({0, 1, 2}), frozenset({3, 4, 5})}

    def test_unit_path_three_parts(self):
        g = Graph(range(4), [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        sol = min_k_cut(gomory_hu_exact(g), g, 3)
        assert sol.value == 2.0
        assert len(sol.parts) == 3

    def test_k_equals_n_gives_singletons(self):
        g = dumbbell6()
        sol = min_k_cut(gomory_hu_exact(g), g, g.n)
        assert all(len(p) == 1 for p in sol.parts)
        assert sol.value == pytest.approx(sum(w for _, _, w in g.edges()))

    def test_k_bounds(self):
        g = dumbbell6()
        tree = gomory_hu_exact(g)
        with pytest.raises(ValueError):
            min_k_cut(tree, g, 1)
        with pytest.raises(ValueError):
            min_k_cut(tree, g, 7)

    def test_a_vertex_the_tree_does_not_map_is_rejected(self):
        tree = gomory_hu_exact(dumbbell6())
        with pytest.raises(ValueError, match="vertex map"):
            min_k_cut(tree, Graph(range(7), [(5, 6, 1.0)]), 2)

    def test_disconnected_graph_merges_surplus_for_free(self):
        g = Graph(range(4), [(0, 1, 1.0), (2, 3, 1.0)])
        sol = min_k_cut(gomory_hu_exact(g), g, 2)
        assert len(sol.parts) == 2
        assert sol.value == 0.0

    @given(strategies.connected_graphs(min_n=3, max_n=7))
    @settings(max_examples=40, deadline=None)
    def test_partition_is_valid_and_value_consistent(self, g):
        tree = gomory_hu_exact(g)
        for k in (2, 3):
            if k > g.n:
                continue
            sol = min_k_cut(tree, g, k)
            assert len(sol.parts) == k
            union = set()
            for p in sol.parts:
                assert p and not p & union
                union |= p
            assert union == g.vertex_set
            assert sol.value == pytest.approx(
                oracles.partition_cut_value(g, sol.parts), abs=1e-9
            )

    @given(strategies.connected_graphs(min_n=3, max_n=7))
    @settings(max_examples=40, deadline=None)
    def test_two_approximation_on_exact_trees(self, g):
        tree = gomory_hu_exact(g)
        for k in (2, 3):
            if k > g.n:
                continue
            sol = min_k_cut(tree, g, k)
            opt = oracles.brute_k_cut_value(g, k)
            assert sol.value <= 2.0 * opt + 1e-9

    @given(mapped_trees(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_parts_and_value_follow_the_definition(self, case, data):
        tree, g = case
        k = data.draw(st.integers(2, len(tree.nodes)))
        sol = min_k_cut(tree, g, k)
        assert sol.parts == oracles.tree_k_cut_parts(tree, g, k)
        assert sol.value.hex() == oracles.exact_partition_value(g, sol.parts).hex()

    def test_seeded_instances_stay_within_two_opt(self):
        for seed in range(20):
            g = generate("erdos-renyi-weighted", {"n": 8, "p": 0.35}, seed)
            tree = gomory_hu_exact(g)
            for k in (2, 3):
                sol = min_k_cut(tree, g, k)
                assert sol.value <= 2.0 * oracles.brute_k_cut_value(g, k) + 1e-9
