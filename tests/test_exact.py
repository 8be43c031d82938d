"""Exact oracles against independent brute-force references."""

from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given, settings

import oracles
import strategies
from ghtree import (
    Graph,
    brute_force_min_cut,
    component_nodes,
    cut_weight,
    generate,
    gomory_hu_exact,
    isolating_cuts_exact,
    min_ST_cut_exact,
    min_edge_on_path,
    min_st_cut_exact,
)


def dumbbell6() -> Graph:
    edges = [(0, 1, 2.0), (0, 2, 2.0), (1, 2, 2.0),
             (3, 4, 2.0), (3, 5, 2.0), (4, 5, 2.0), (2, 3, 1.0)]
    return Graph(range(6), edges)


class TestMinStCut:
    def test_path_cuts_at_lightest_edge(self):
        g = Graph(range(3), [(0, 1, 3.0), (1, 2, 1.0)])
        res = min_st_cut_exact(g, 0, 2)
        assert res.value == 1.0
        assert res.cut.side == {0, 1}

    def test_side_is_minimal_on_ties(self):
        # Both edges weigh 2; reachability in the residual keeps only s.
        g = Graph(range(3), [(0, 1, 2.0), (1, 2, 2.0)])
        res = min_st_cut_exact(g, 0, 2)
        assert res.value == 2.0
        assert res.cut.side == {0}

    def test_disconnected_pair_has_zero_cut(self):
        g = Graph(range(4), [(0, 1, 1.0), (2, 3, 1.0)])
        res = min_st_cut_exact(g, 0, 3)
        assert res.value == 0.0
        assert res.cut.side == {0, 1}

    def test_endpoint_validation(self):
        g = dumbbell6()
        with pytest.raises(ValueError):
            min_st_cut_exact(g, 0, 0)
        with pytest.raises(ValueError):
            min_st_cut_exact(g, 0, 99)

    @given(strategies.graphs_with_pair())
    @settings(max_examples=100, deadline=None)
    def test_value_matches_subset_enumeration(self, gst):
        g, s, t = gst
        res = min_st_cut_exact(g, s, t)
        assert res.value == pytest.approx(oracles.brute_min_st_value(g, s, t), abs=1e-9)
        assert s in res.cut.side and t not in res.cut.side
        assert cut_weight(g, res.cut.side) == pytest.approx(res.value, abs=1e-12)

    @given(strategies.graphs_with_pair())
    @settings(max_examples=100, deadline=None)
    def test_side_is_intersection_of_all_minimum_sides(self, gst):
        # Labels 3v+2 are non-contiguous, as in contracted graphs, so the
        # kernel's vertex-index map is exercised. Quarter-integer weights
        # sum exactly, so the minimum sides are found by equality.
        g0, s0, t0 = gst
        g = Graph([3 * v + 2 for v in g0.vertices], [(3 * u + 2, 3 * v + 2, w) for u, v, w in g0.edges()])
        s, t = 3 * s0 + 2, 3 * t0 + 2
        bits = oracles.vertex_bits(g)
        values = oracles.all_cut_values(g)
        masks = [m for m in range(len(values)) if (m >> bits[s]) & 1 and not (m >> bits[t]) & 1]
        best = min(values[m] for m in masks)
        minimal = frozenset.intersection(
            *(oracles.side_from_mask(g, m) for m in masks if values[m] == best)
        )
        assert min_st_cut_exact(g, s, t).cut.side == minimal

    def test_agrees_with_package_brute_force(self):
        for seed in range(30):
            g = generate("erdos-renyi-weighted", {"n": 8, "p": 0.4}, seed)
            res = min_st_cut_exact(g, 0, 7)
            ref = brute_force_min_cut(g, 0, 7)
            assert res.value == pytest.approx(ref.value, abs=1e-9)

    def test_brute_force_refuses_large_graphs(self):
        g = Graph(range(21), [(i, i + 1, 1.0) for i in range(20)])
        with pytest.raises(ValueError, match="refuses"):
            brute_force_min_cut(g, 0, 20)


class TestMinSTCut:
    def test_singleton_sets_delegate_exactly(self):
        g = dumbbell6()
        a = min_ST_cut_exact(g, [0], [5])
        b = min_st_cut_exact(g, 0, 5)
        assert a == b

    def test_grouped_terminals(self):
        g = dumbbell6()
        res = min_ST_cut_exact(g, [0, 1], [4, 5])
        assert res.value == 1.0
        assert res.cut.side == {0, 1, 2}

    def test_validation(self):
        g = dumbbell6()
        with pytest.raises(ValueError):
            min_ST_cut_exact(g, [], [1])
        with pytest.raises(ValueError):
            min_ST_cut_exact(g, [0, 1], [1, 2])
        with pytest.raises(ValueError):
            min_ST_cut_exact(g, [0], [99])

    @given(strategies.graphs_with_terminals(min_n=4, min_r=4))
    @settings(max_examples=60, deadline=None)
    def test_value_matches_subset_enumeration(self, gt):
        g, terminals = gt
        S = list(terminals[: len(terminals) // 2])
        T = list(terminals[len(terminals) // 2 :])
        res = min_ST_cut_exact(g, S, T)
        assert res.value == pytest.approx(oracles.brute_min_ST_value(g, S, T), abs=1e-9)
        assert set(S) <= res.cut.side
        assert not set(T) & res.cut.side
        assert cut_weight(g, res.cut.side) == pytest.approx(res.value, abs=1e-12)


class TestIsolatingCuts:
    def test_dumbbell_regions(self):
        cuts = isolating_cuts_exact(dumbbell6(), [0, 3])
        assert cuts[0].side == {0, 1, 2}
        assert cuts[3].side == {3, 4, 5}
        assert cuts[0].value == 1.0 and cuts[3].value == 1.0

    def test_validation(self):
        g = dumbbell6()
        with pytest.raises(ValueError):
            isolating_cuts_exact(g, [0])
        with pytest.raises(ValueError):
            isolating_cuts_exact(g, [0, 99])

    @given(strategies.graphs_with_terminals(min_n=3, min_r=2))
    @settings(max_examples=80, deadline=None)
    def test_outputs_are_optimal_disjoint_isolating_cuts(self, gt):
        g, terminals = gt
        cuts = isolating_cuts_exact(g, terminals)
        reference = oracles.brute_isolating_values(g, terminals)
        assert set(cuts) == set(terminals)
        for r, cs in cuts.items():
            assert cs.side & set(terminals) == {r}
            assert cs.value == pytest.approx(reference[r], abs=1e-9)
            assert cut_weight(g, cs.side) == pytest.approx(cs.value, abs=1e-12)
        for a, b in combinations(terminals, 2):
            assert not cuts[a].side & cuts[b].side


def tree_cut_for_pair(tree, g, u, v):
    a, b, w = min_edge_on_path(tree, u, v)
    side_nodes = component_nodes(tree, (a, b), a if a != v else b)
    return w, tree.preimage(side_nodes)


class TestGomoryHu:
    def test_dumbbell_tree_separates_cliques_at_bridge(self):
        g = dumbbell6()
        tree = gomory_hu_exact(g)
        w, side = tree_cut_for_pair(tree, g, 0, 5)
        assert w == 1.0
        assert side in ({0, 1, 2}, {3, 4, 5})

    def test_single_vertex_graph(self):
        tree = gomory_hu_exact(Graph([4]))
        assert tree.nodes == (4,)

    def test_empty_terminals_rejected(self):
        with pytest.raises(ValueError):
            gomory_hu_exact(dumbbell6(), [])

    @given(strategies.connected_graphs(min_n=2, max_n=8))
    @settings(max_examples=60, deadline=None)
    def test_all_pairs_agree_with_enumeration(self, g):
        tree = gomory_hu_exact(g)
        assert tree.node_set == g.vertex_set
        for u, v in combinations(g.vertices, 2):
            lam = oracles.brute_min_st_value(g, u, v)
            w, side = tree_cut_for_pair(tree, g, u, v)
            assert w == pytest.approx(lam, abs=1e-9)
            # The induced side is itself an optimal u-v cut.
            assert (u in side) != (v in side)
            assert cut_weight(g, side) == pytest.approx(lam, abs=1e-9)

    @given(strategies.graphs_with_terminals(min_n=4, min_r=2))
    @settings(max_examples=60, deadline=None)
    def test_steiner_variant_covers_terminal_pairs(self, gt):
        g, terminals = gt
        tree = gomory_hu_exact(g, terminals)
        assert tree.node_set == set(terminals)
        assert set(tree.f) == g.vertex_set
        for u, v in combinations(terminals, 2):
            lam = oracles.brute_min_st_value(g, u, v)
            w, side = tree_cut_for_pair(tree, g, u, v)
            assert w == pytest.approx(lam, abs=1e-9)
            assert cut_weight(g, side) == pytest.approx(lam, abs=1e-9)
