"""Exact oracles against independent brute-force references."""

from __future__ import annotations

import ast
import contextlib
import inspect
import sys
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import strategies
from ghtree import (
    INFINITE,
    Epsilon,
    Graph,
    Rng,
    component_nodes,
    contract,
    cut_weight,
    generate,
    gomory_hu_exact,
    isolating_cuts_exact,
    min_edge_on_path,
    min_st_cut_exact,
    private_min_ST_cut,
    private_min_st_cut,
)
from ghtree import _maxflow, exact, private_cuts
from ghtree._maxflow import _decided_side, _dinic_levels, _network, edges_at, min_cut_source_side


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
        assert min_st_cut_exact(g, s, t).cut.side == oracles.brute_minimal_ST_side(g, [s], [t])

    def test_agrees_with_package_brute_force(self):
        for seed in range(30):
            g = generate("erdos-renyi-weighted", {"n": 8, "p": 0.4}, seed)
            res = min_st_cut_exact(g, 0, 7)
            ref = oracles.brute_force_min_cut(g, 0, 7)
            assert res.value == pytest.approx(ref.value, abs=1e-9)

    def test_brute_force_refuses_large_graphs(self):
        g = Graph(range(21), [(i, i + 1, 1.0) for i in range(20)])
        with pytest.raises(ValueError, match="refuses"):
            oracles.brute_force_min_cut(g, 0, 20)


def fresh_cut(g: Graph, s: int, t: int):
    """The cut on a new copy of g, so no network built for g is reused."""
    return min_st_cut_exact(Graph(g.vertices, g.edges()), s, t)


class TestFlowNetworkReuse:
    """Repeated cuts on one graph object reuse its flow network.

    Weights in thirds are inexact, so a flow that started from another
    flow's residual capacities, or from another graph's network, shows
    up as a different side or value.
    """

    @given(
        strategies.connected_graphs(min_n=3, weights=strategies.third_weights),
        strategies.connected_graphs(weights=strategies.third_weights),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_pair_in_any_order_equals_fresh_graphs(self, g, h, data):
        pairs = [(s, t) for s in g.vertices for t in g.vertices if s != t]
        expected = {(s, t): fresh_cut(g, s, t) for s, t in pairs}
        h_expected = fresh_cut(h, h.vertices[0], h.vertices[-1])
        order = data.draw(st.permutations(pairs))
        interleave = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        for (s, t), cut_h in zip(order, interleave):
            got = min_st_cut_exact(g, s, t)
            assert got.cut.side == expected[s, t].cut.side
            assert got.value == expected[s, t].value
            if cut_h:
                assert min_st_cut_exact(h, h.vertices[0], h.vertices[-1]) == h_expected

    def test_graph_then_other_graph_then_graph_again(self):
        # Same vertex set, different edges: a network chosen by anything
        # but the graph object itself would cut h with g's arcs.
        g = dumbbell6()
        h = Graph(range(6), [(0, 1, 1 / 3), (1, 2, 2 / 3), (2, 3, 1 / 3), (3, 4, 1.0), (4, 5, 1 / 3)])
        calls = [(g, 0, 1), (g, 0, 5), (g, 5, 0), (h, 0, 5), (g, 0, 5), (h, 1, 4), (h, 2, 0), (g, 0, 5)]
        expected = [fresh_cut(graph, s, t) for graph, s, t in calls]
        assert [min_st_cut_exact(graph, s, t) for graph, s, t in calls] == expected
        assert [e.cut.side for e in expected[1:4]] == [{0, 1, 2}, {3, 4, 5}, {0}]


def next_blocks(data, g: Graph) -> list[list[int]]:
    """Blocks for one more contraction of g.

    One vertex, all vertices but one, neighbours of one vertex, whose
    edges to it merge, or one to three random disjoint blocks.
    """
    kind = data.draw(st.sampled_from(["single", "all but one", "merging", "several"]))
    order = data.draw(st.permutations(g.vertices))
    if kind == "single":
        return [order[:1]]
    if kind == "all but one":
        return [order[1:]]
    if kind == "merging":
        near = [v for v in order if sum(g.weight(v, u) > 0.0 for u in g.vertices) >= 2]
        if near:
            ring = [u for u in g.vertices if g.weight(near[0], u) > 0.0]
            return [data.draw(st.lists(st.sampled_from(ring), min_size=2, unique=True))]
    cuts = sorted(data.draw(st.sets(st.integers(1, g.n - 1), min_size=1, max_size=3)))
    return [order[a:b] for a, b in zip([0, *cuts], cuts)]


def edge_bits(g: Graph) -> list:
    return [(u, v, w.hex()) for u, v, w in g.edges()]


def residual_rows(g: Graph, s: int, t: int) -> dict:
    """Each vertex's arcs in list order, as (head, start and final capacity), after the kernel cuts s from t in g's network."""
    index, verts, adj, head, cap = _network(g)
    final = cap[:]
    _dinic_levels(adj, head, final, index[s], index[t], len(adj) - g.n)
    return {v: [(verts[head[a]], cap[a].hex(), final[a].hex()) for a in adj[index[v]]] for v in g.vertices}


class TestPatchedNetworks:
    """A contracted graph's network, patched from its parent's, cuts, weighs and contracts as a fresh graph's does."""

    @given(strategies.connected_graphs(min_n=3, max_n=9, weights=strategies.third_weights), st.data())
    @settings(max_examples=120, deadline=None)
    def test_chains_of_contractions_equal_fresh_graphs(self, g, data):
        h = g
        for _ in range(data.draw(st.integers(1, 4))):
            if h.n < 3:
                break
            blocks = next_blocks(data, h)
            parent = h
            before = repr(_network(parent))  # repr shows every float's bits
            h, label = contract(parent, *blocks)
            # The same contraction of a fresh copy; its own result is fresh too.
            ref, ref_label = contract(Graph(parent.vertices, parent.edges()), *blocks)
            assert (h.vertices, label, edge_bits(h)) == (ref.vertices, ref_label, edge_bits(ref))
            # Until first asked for, h's network is the parent's, with the patch still to apply.
            pending = h._net is not None
            assert not pending or h._net[0] is parent._net
            patched = repr(_network(h))
            empty, parent_empty = len(h._net[2]) - h.n, len(parent._net[2]) - parent.n
            if pending and len(blocks) == len(blocks[0]) == 1:
                # A rename: the label takes the vertex's position, and the parent's arcs are shared.
                assert empty == parent_empty
                assert h._net[3] is parent._net[3] and h._net[4] is parent._net[4]
            else:
                # A patched network leaves each block vertex's position empty; a fresh one has none.
                assert empty == (parent_empty + sum(map(len, blocks)) if pending else 0)
            fresh = Graph(h.vertices, h.edges())
            for s, t in ((s, t) for s in h.vertices for t in h.vertices if s != t):
                side = min_cut_source_side(h, s, t)
                assert side == min_cut_source_side(fresh, s, t)
                assert cut_weight(h, side).hex() == cut_weight(fresh, side).hex()
                assert edges_at(h, [t, s]) == edges_at(fresh, [t, s])
                assert residual_rows(h, s, t) == residual_rows(fresh, s, t)
            # Each vertex's edges, read from the network, are its edges in canonical order.
            assert edges_at(h, h.vertices) == [(v, x, w) for v in h.vertices for x, w in oracles.adjacency(fresh, v)]
            rest = h.vertices[1:]
            for bits in range(2 ** len(rest)):
                side = {h.vertices[0], *(v for i, v in enumerate(rest) if bits >> i & 1)}
                assert cut_weight(h, side).hex() == cut_weight(fresh, side).hex()
            # Neither the contraction nor the cuts changed the parent's network, or a patched one.
            assert repr(parent._net) == before
            assert repr(h._net) == patched
        # The last graph's next contraction, as each earlier one's was checked above.
        blocks = next_blocks(data, h)
        nxt, ref = contract(h, *blocks), contract(Graph(h.vertices, h.edges()), *blocks)
        assert (nxt[0].vertices, nxt[1], edge_bits(nxt[0])) == (ref[0].vertices, ref[1], edge_bits(ref[0]))

    def test_one_vertex_cut_off_patches_the_network(self):
        g = generate("erdos-renyi-weighted", {"n": 40, "p": 0.2}, 0)
        min_st_cut_exact(g, 0, 1)
        h = contract(g, [5])[0]
        assert h._net[0] is g._net  # nothing is copied before h is cut
        index, verts, adj, head, cap = _network(h)
        # 5's label takes its position and arc list; g's arcs are shared, not copied, and none is dead.
        assert head is g._net[3] and cap is g._net[4]
        assert 5 not in index and index[g.n] == 5 and verts == [*g.vertices[:5], g.n, *g.vertices[6:]]
        assert adj[5] is g._net[2][5]
        assert sum(map(len, adj)) == 2 * h.m == len(head)
        # Each neighbour's arc to the label moves last, in a copy of its list; every other list is g's own.
        near = {head[a]: a ^ 1 for a in adj[5]}
        for x, row in enumerate(adj):
            old = g._net[2][x]
            if x in near:
                assert row is not old and row == [a for a in old if a != near[x]] + [near[x]]
            else:
                assert row is old
        assert min_st_cut_exact(h, 0, g.n) == fresh_cut(h, 0, g.n)

    def test_an_exact_tree_renames_over_the_input_arcs(self, monkeypatch):
        # Every ER cut splits off one vertex, so each contraction is a rename of the last one's network.
        g = generate("erdos-renyi-weighted", {"n": 60, "p": 0.2}, 0)
        seen = []
        real = _maxflow._patched

        def spy(h, net, blocks, new):
            before = repr(net)  # repr shows every float's bits
            seen.append((h, net, before, len(blocks)))
            return real(h, net, blocks, new)

        monkeypatch.setattr(_maxflow, "_patched", spy)
        gomory_hu_exact(g)
        assert len(seen) > g.n // 2
        for i, (h, parent, before, size) in enumerate(seen):
            assert size == 1
            assert h._net[3] is g._net[3] and h._net[4] is g._net[4]
            # Neither the rename nor any later flow or contraction changed the parent's network.
            assert repr(parent) == before
            if i % 4 == 0:
                fresh = Graph(h.vertices, h.edges())
                label = h.vertices[-1]
                for s, t in ((h.vertices[0], label), (label, h.vertices[1])):
                    assert residual_rows(h, s, t) == residual_rows(fresh, s, t)


class TestCopiedStores:
    """A contraction copies its parent's edge store, deletes the keys at its blocks and appends its new keys."""

    @given(strategies.connected_graphs(min_n=3, max_n=10, weights=strategies.kernel_weights), st.data())
    @settings(max_examples=150, deadline=None)
    def test_chains_keep_each_vertex_in_order_and_equal_sorted_stores(self, g, data):
        h = ref = g
        for _ in range(data.draw(st.integers(1, 5))):
            if h.n < 2:
                break
            blocks = next_blocks(data, h)
            if data.draw(st.booleans()):
                _network(h)  # a parent cut before it is contracted, or not
            h, label = contract(h, *blocks)
            ref, ref_label = oracles.contract_by_sorting(ref, *blocks)
            assert (h.vertices, label, edge_bits(h)) == (ref.vertices, ref_label, edge_bits(ref))
            for v in h.vertices:
                keys = [k for k in h._weights if v in k]
                assert keys == sorted(keys)
            if h._net is None:  # the patch was declined: a fresh network, built from the store as it is
                assert _network(h)[:2] == oracles.loop_network(ref)[:2]
                assert edges_at(h, h.vertices) == edges_at(ref, ref.vertices)  # each vertex's (head, capacity) list

    def test_relabels_append_and_big_blocks_decline(self):
        g = generate("erdos-renyi-weighted", {"n": 40, "p": 0.2}, 0)
        h = contract(g, [5])[0]
        assert h._net is not None  # patched
        moved = [k for k in h._weights if g.n in k]
        assert list(h._weights)[-len(moved) :] == moved == sorted(moved)
        assert list(h._weights) != sorted(h._weights)
        k = contract(h, h.vertices[1:])[0]
        assert k._net is None  # declined
        assert _network(k) == oracles.loop_network(Graph(k.vertices, k.edges()))


class TestExactlyRoundedCutWeights:
    """A cut weight is the exact sum of its crossing weights rounded once: store order, network kind and walked side do not matter."""

    def test_a_sum_that_rounds_differently_in_store_order(self):
        tiny = 2.0**-53
        clique = [(u, v, 1.0) for u in range(4, 9) for v in range(u + 1, 9)]
        g = Graph(range(9), [(0, 1, 1.0), (0, 2, tiny), (0, 3, tiny), (1, 4, 1.0), *clique])
        patched = contract(g, [1])[0]
        declined = contract(g, range(4, 9))[0]
        assert patched._net is not None and declined._net is None
        # Vertex 0's edges in store order; added in that order, the first sum rounds down twice.
        assert [w for k, w in g._weights.items() if 0 in k] == [1.0, tiny, tiny]
        assert [w for k, w in patched._weights.items() if 0 in k] == [tiny, tiny, 1.0]
        assert 1.0 + tiny + tiny == 1.0 != tiny + tiny + 1.0 == 1.0 + 2 * tiny
        for h in (g, patched, declined, Graph(patched.vertices, patched.edges())):
            for side in ({0}, h.vertex_set - {0}):
                assert cut_weight(h, side).hex() == (1.0 + 2 * tiny).hex()

    @given(strategies.connected_graphs(min_n=3, max_n=8, weights=strategies.rounding_weights), st.data())
    @settings(max_examples=80, deadline=None)
    def test_equal_sides_give_equal_bits_on_every_store_and_network(self, g, data):
        h = g
        for _ in range(data.draw(st.integers(0, 3))):
            if h.n < 3:
                break
            h = contract(h, *next_blocks(data, h))[0]  # a patched network, or a declined patch's fresh one
        shuffled = dict(data.draw(st.permutations(list(h._weights.items()))))
        # The same graph with its store sorted, and in any order at all: cut weights read no order.
        copies = [h, Graph(h.vertices, h.edges()), Graph._canonical(h.vertices, shuffled)]
        rest = h.vertices[1:]
        for bits in range(2 ** len(rest)):
            side = {h.vertices[0], *(v for i, v in enumerate(rest) if bits >> i & 1)}
            want = oracles.exact_cut_weight(h, side).hex()
            for copy in copies:
                assert cut_weight(copy, side).hex() == cut_weight(copy, copy.vertex_set - side).hex() == want


class TestNetworkSlot:
    """A graph's flow network is built once, kept on that object and nowhere else."""

    def test_one_graph_builds_one_network(self):
        g = dumbbell6()
        assert g._net is None
        assert _network(g) is _network(g)
        assert g._net is _network(g)

    def test_equal_distinct_graph_builds_its_own(self):
        g, h = dumbbell6(), dumbbell6()
        net = _network(g)
        assert h._net is None
        assert _network(h) is not net
        assert _network(h) == net
        assert _network(g) is net

    def test_equality_and_hash_ignore_the_network(self):
        g, h = dumbbell6(), dumbbell6()
        before = hash(g)
        min_st_cut_exact(g, 0, 5)
        assert g._net is not None and h._net is None
        assert g == h
        assert hash(g) == hash(h) == before


@st.composite
def disconnected_pairs(draw):
    """Two disjoint connected graphs side by side, s in the first, t in the second."""
    a = draw(strategies.connected_graphs(min_n=1, max_n=6, weights=strategies.kernel_weights))
    b = draw(strategies.connected_graphs(min_n=1, max_n=6, weights=strategies.kernel_weights))
    shift = a.n
    edges = list(a.edges()) + [(u + shift, v + shift, w) for u, v, w in b.edges()]
    g = Graph(range(a.n + b.n), edges)
    return g, draw(st.sampled_from(a.vertices)), draw(st.sampled_from(b.vertices)) + shift


@st.composite
def noised_pairs(draw, max_noise: float = 10.0):
    """A graph whose every other vertex has an edge to both s and t, as a noised s-t cut builds it."""
    g, s, t = draw(strategies.graphs_with_pair(min_n=3, max_n=12, weights=strategies.kernel_weights))
    noise = [(v, end, draw(st.floats(1e-6, max_noise))) for v in g.vertices if v not in (s, t) for end in (s, t)]
    return Graph(g.vertices, list(g.edges()) + noise), s, t


class TestDinicKernel:
    """The kernel against the full-BFS reference in ``oracles``, on the same arc arrays."""

    @given(
        st.one_of(
            strategies.graphs_with_pair(max_n=12, weights=strategies.kernel_weights),
            disconnected_pairs(),
            noised_pairs(),
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_same_capacities_and_reachable_set_as_full_bfs(self, case):
        g, s, t = case
        index, _, adj, head, cap = _network(g)
        got_cap, ref_cap = cap[:], cap[:]
        got = _dinic_levels(adj, head, got_cap, index[s], index[t], 0)
        ref = oracles.dinic_levels_full_bfs(adj, head, ref_cap, index[s], index[t])
        assert [c.hex() for c in got_cap] == [c.hex() for c in ref_cap]
        assert {i for i, lv in enumerate(got) if lv >= 0} == {i for i, lv in enumerate(ref) if lv >= 0}


def assert_levels_match_full_bfs(adj: list, head: list, cap: list, s: int, t: int, empty: int) -> list[int]:
    """Check the kernel against the full-BFS reference on one network, each on its own copy of ``cap``; return the kernel's levels."""
    got_cap, ref_cap = cap[:], cap[:]
    got = _dinic_levels(adj, head, got_cap, s, t, empty)
    ref = oracles.dinic_levels_full_bfs(adj, head, ref_cap, s, t)
    assert [c.hex() for c in got_cap] == [c.hex() for c in ref_cap]
    assert {i for i, lv in enumerate(got) if lv >= 0} == {i for i, lv in enumerate(ref) if lv >= 0}
    return got


def assert_kernel_matches_full_bfs(g: Graph, s: int, t: int) -> frozenset[int]:
    """Check the kernel against the full-BFS reference on g's network; return the side found."""
    index, verts, adj, head, cap = _network(g)
    got = assert_levels_match_full_bfs(adj, head, cap, index[s], index[t], len(adj) - g.n)
    return frozenset(v for v, lv in zip(verts, got) if lv >= 0)


@st.composite
def deep_pairs(draw):
    """A path, cycle or grid of at most 30 vertices plus a few chords, and a distinct pair.

    Long shortest paths give level graphs four or more deep, and the
    chords leave vertices that reach t by no shortest path, which
    become dead ends as phases saturate arcs.
    """
    shape = draw(st.sampled_from(["path", "cycle", "grid"]))
    if shape == "grid":
        rows, cols = draw(st.integers(2, 5)), draw(st.integers(2, 6))
        n = rows * cols
        pairs = [(v, v + 1) for v in range(n) if (v + 1) % cols]
        pairs += [(v, v + cols) for v in range(n - cols)]
    else:
        n = draw(st.integers(5, 30))
        pairs = [(v, v + 1) for v in range(n - 1)] + ([(0, n - 1)] if shape == "cycle" else [])
    chords = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4))
    keys = {(min(a, b), max(a, b)) for a, b in pairs + chords if a != b}
    g = Graph(range(n), [(u, v, draw(strategies.kernel_weights)) for u, v in sorted(keys)])
    s = draw(st.sampled_from(g.vertices))
    t = draw(st.sampled_from([v for v in g.vertices if v != s]))
    return g, s, t


@st.composite
def detached_pairs(draw):
    """A ``deep_pairs`` case plus a second such graph on fresh labels, joined to nothing.

    No vertex of the second graph reaches t or is reached from s, so
    the forward BFS of the last phase labels fewer vertices than the
    BFS from t leaves unlabelled and must run to the end.
    """
    g, s, t = draw(deep_pairs())
    other = draw(deep_pairs())[0]
    edges = [*g.edges(), *((u + g.n, v + g.n, w) for u, v, w in other.edges())]
    return Graph(range(g.n + other.n), edges), s, t


class TestDinicDeepLevels:
    """The kernel against the full-BFS reference where level graphs are deep and dead ends form mid-phase."""

    @pytest.mark.parametrize(
        "kind, params",
        [("erdos-renyi-weighted", {"n": 60, "p": 0.1}), ("planted-community", {"n": 40})],
    )
    def test_every_pivot_flow(self, kind, params):
        g = generate(kind, params, 0)
        for t in g.vertices[1:]:
            assert_kernel_matches_full_bfs(g, 0, t)

    @pytest.mark.parametrize(
        "kind, params",
        [("erdos-renyi-weighted", {"n": 60, "p": 0.1}), ("planted-community", {"n": 40})],
    )
    def test_flows_cut_at_the_source(self, kind, params):
        # Into the heaviest vertex, many flows' min cut is the source's own edges, where the kernel stops early.
        g = generate(kind, params, 0)
        t = max(g.vertices, key=lambda v: cut_weight(g, {v}))
        sources = [s for s in g.vertices if s != t]
        sides = [assert_kernel_matches_full_bfs(g, s, t) for s in sources]
        assert sum(side == {s} for s, side in zip(sources, sides)) >= g.n // 3

    def test_noised_instance(self, monkeypatch):
        # The noised graph's network private_min_st_cut hands to the kernel with the rule off, captured on its way in.
        seen = []
        real = _maxflow._dinic_levels

        def capture(adj, head, cap, s, t, empty):
            seen.append((adj, head, cap[:], s, t, empty))
            return real(adj, head, cap, s, t, empty)

        g = generate("erdos-renyi-weighted", {"n": 60, "p": 0.1}, 0)
        want = private_min_st_cut(g, 0, 59, Epsilon(1.0), Rng(0))
        monkeypatch.setattr(private_cuts, "_decided_side", lambda sums: None)
        monkeypatch.setattr(_maxflow, "_dinic_levels", capture)
        side = private_min_st_cut(g, 0, 59, Epsilon(1.0), Rng(0))
        (adj, head, cap, s, t, empty), = seen
        assert sum(c > 0.0 for c in cap) > 2 * g.m  # the noise arcs
        assert empty == 0  # the noised graph's network is built fresh
        got = assert_levels_match_full_bfs(adj, head, cap, s, t, empty)
        # The noised graph has g's vertices, so its levels read as a side of g.
        assert frozenset(v for v, lv in zip(g.vertices, got) if lv >= 0) == side == want
        assert side == oracles.private_min_st_cut(g, 0, 59, Epsilon(1.0), Rng(0))

    @given(deep_pairs())
    @settings(max_examples=200, deadline=None)
    def test_paths_cycles_and_grids_with_chords(self, case):
        assert_kernel_matches_full_bfs(*case)

    @given(detached_pairs())
    @settings(max_examples=100, deadline=None)
    def test_vertices_beside_both_ends(self, case):
        assert_kernel_matches_full_bfs(*case)


def level_branches() -> tuple[int, range, range]:
    """The line of ``_residual_levels``' direction test, and the lines of its top-down and bottom-up branches."""
    tree = ast.parse(inspect.getsource(_maxflow))
    fn = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_residual_levels")
    (branch,) = [node for node in ast.walk(fn) if isinstance(node, ast.If) and node.orelse]
    return branch.lineno, *(range(body[0].lineno, body[-1].end_lineno + 1) for body in (branch.body, branch.orelse))


RESIDUAL_LEVELS = _maxflow._residual_levels
TEST_LINE, TOP_DOWN, BOTTOM_UP = level_branches()


def traced_levels(adj: list, head: list, cap: list, s: int, t: int) -> tuple[list[int], list[str]]:
    """``_residual_levels``' result, and the direction it expanded each level in, read off a line tracer."""
    directions = []
    branch_next = False

    def on_line(frame, event, arg):
        nonlocal branch_next
        if event == "line":
            if frame.f_lineno == TEST_LINE:
                branch_next = True
            elif branch_next:
                branch_next = False
                line = frame.f_lineno
                directions.append("top-down" if line in TOP_DOWN else "bottom-up" if line in BOTTOM_UP else line)
        return on_line

    before = sys.gettrace()
    sys.settrace(lambda frame, event, arg: on_line if frame.f_code is RESIDUAL_LEVELS.__code__ else None)
    try:
        dist = RESIDUAL_LEVELS(adj, head, cap, s, t)
    finally:
        sys.settrace(before)
    return dist, directions


def predicted_directions(ref: list[int], s: int) -> list[str]:
    """The direction of each level expansion, by the rule, given the true distances to t."""
    n, stop = len(ref), ref[s] - 1
    directions = []
    labelled = k = 0
    while ref.count(k) and k != stop:
        labelled += ref.count(k)
        directions.append("top-down" if ref.count(k) < n - labelled else "bottom-up")
        k += 1
    return directions


def check_levels(adj: list, head: list, cap: list, s: int, t: int) -> tuple[list[int], list[str]]:
    """``_residual_levels`` against ``oracles.residual_distances``, with the directions it took.

    Below s's distance and at s it gives the oracle's distance, and it
    labels nothing else; when s cannot reach t it labels every vertex.
    """
    got, directions = traced_levels(adj, head, cap, s, t)
    ref = oracles.residual_distances(adj, head, cap, t)
    d = ref[s]
    assert got == (ref if d < 0 else [x if 0 <= x < d or v == s else -1 for v, x in enumerate(ref)])
    assert directions == predicted_directions(ref, s)
    return got, directions


@contextlib.contextmanager
def checked_phases():
    """Check every phase's levels inside the kernel; yields the directions of all phases, a list per phase."""
    seen = []

    def spy(adj, head, cap, s, t):
        dist, directions = check_levels(adj, head, cap, s, t)
        seen.append(directions)
        return dist

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_maxflow, "_residual_levels", spy)
        yield seen


@st.composite
def dense_pairs(draw):
    """A clique, or a random graph missing at most half its pairs, on 4-12 vertices, and a distinct pair."""
    n = draw(st.integers(4, 12))
    pairs = list(combinations(range(n), 2))
    missing = draw(st.sets(st.sampled_from(pairs), max_size=len(pairs) // 2)) if draw(st.booleans()) else set()
    g = Graph(range(n), [(u, v, draw(strategies.kernel_weights)) for u, v in pairs if (u, v) not in missing])
    s, t = draw(st.permutations(g.vertices))[:2]
    return g, s, t


def zeroed(data, g: Graph, s: int, t: int) -> tuple:
    """g's network with a random set of arcs, in either direction, set to 0.0; s and t as positions."""
    index, _, adj, head, cap = _network(g)
    cap = cap[:]
    for a in data.draw(st.sets(st.integers(0, len(cap) - 1), max_size=len(cap) // 2)) if cap else ():
        cap[a] = 0.0
    return adj, head, cap, index[s], index[t], len(adj) - g.n


class TestResidualLevels:
    """Every phase's levels against a plain BFS to t, expanded top-down or bottom-up as the rule says."""

    def test_a_path_runs_top_down_only(self):
        g = Graph(range(10), [(v, v + 1, 1.0 + v) for v in range(9)])
        index, _, adj, head, cap = _network(g)
        dist, directions = check_levels(adj, head, cap, index[9], index[0])
        assert dist == list(range(10))
        assert directions == ["top-down"] * 8

    @pytest.mark.parametrize("patched", [False, True])
    def test_a_clique_turns_bottom_up_at_level_1(self, patched):
        # t = 0, s = 1; 2 and 3 have no residual arc into t, and s none but into 2 and 3.
        g = Graph(range(8 + 2 * patched), [(u, v, 1.0) for u, v in combinations(range(8 + 2 * patched), 2)])
        if patched:
            g = contract(g, [8, 9])[0]  # two clique vertices merged: positions 8 and 9 are left empty
        index, _, adj, head, cap = _network(g)
        assert len(adj) - g.n == 2 * patched
        cap = cap[:]
        for x in (1, 2, 3):
            for a in adj[index[x]]:
                if head[a] == index[0] or (x == 1 and head[a] > index[3]):
                    cap[a] = 0.0
        dist, directions = check_levels(adj, head, cap, index[1], index[0])
        assert dist == [0, 3, 2, 2, 1, 1, 1, 1] + ([-1, -1, 1] if patched else [])
        assert directions == ["top-down", "bottom-up"]

    def test_pivot_flows_run_both_directions(self):
        # A dense random graph: later phases saturate s's arcs into level 1, so its expansion goes bottom-up.
        g = generate("erdos-renyi-weighted", {"n": 30, "p": 0.5}, 0)
        with checked_phases() as seen:
            for t in g.vertices[1:]:
                assert_kernel_matches_full_bfs(g, 0, t)
        steps = [direction for phase in seen for direction in phase]
        assert "top-down" in steps and "bottom-up" in steps
        assert any(phase[1:2] == ["bottom-up"] for phase in seen)

    @given(dense_pairs(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_cliques_and_dense_graphs_with_arcs_set_to_zero(self, case, data):
        with checked_phases() as seen:
            assert_levels_match_full_bfs(*zeroed(data, *case))
        assert seen

    @given(
        st.one_of(deep_pairs(), detached_pairs(), strategies.graphs_with_pair(max_n=12, weights=strategies.kernel_weights)),
        st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_paths_cycles_grids_and_sparse_graphs_with_arcs_set_to_zero(self, case, data):
        with checked_phases() as seen:
            assert_levels_match_full_bfs(*zeroed(data, *case))
        assert seen

    @given(
        st.one_of(
            strategies.connected_graphs(min_n=4, max_n=10, weights=strategies.kernel_weights),
            dense_pairs().map(lambda case: case[0]),
        ),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_patched_networks_with_empty_positions(self, g, data):
        h = g
        while h.n > 2 and (h is g or data.draw(st.booleans())):
            h = contract(h, *next_blocks(data, h))[0]
        s, t = data.draw(st.permutations(h.vertices))[:2]
        with checked_phases() as seen:
            side = assert_kernel_matches_full_bfs(h, s, t)
            assert_levels_match_full_bfs(*zeroed(data, h, s, t))
        assert seen
        assert side == min_cut_source_side(Graph(h.vertices, h.edges()), s, t)


class MovedCaps(list):
    """Capacities that refuse a write that leaves an arc's capacity as it was."""

    def __setitem__(self, a, x):
        assert x != self[a], "a push moved no flow"
        super().__setitem__(a, x)


class TestLastHop:
    """A vertex at level 1 steps into t over its one arc while that arc has residual capacity, and is a dead end after."""

    def test_a_saturated_last_hop_is_a_dead_end(self):
        # s = 2 pushes 1.0 over 2 -> 1 -> 0; the push saturates 1 -> 0, so 1 is then a dead end and the phase ends.
        g = Graph(range(3), [(0, 1, 1.0), (1, 2, 2.0)])
        index, _, adj, head, cap = _network(g)
        got = MovedCaps(cap)
        assert _dinic_levels(adj, head, got, index[2], index[0], 0) == [-1, 1, 0]
        assert got == [2.0, 0.0, 3.0, 1.0]

    @given(strategies.graphs_with_pair(max_n=12))
    @settings(max_examples=200, deadline=None)
    def test_every_push_moves_flow(self, case):
        # Quarter weights keep every sum exact, so a push of any positive amount changes both arcs it writes.
        g, s, t = case
        index, _, adj, head, cap = _network(g)
        got, ref = MovedCaps(cap), cap[:]
        _dinic_levels(adj, head, got, index[s], index[t], 0)
        oracles.dinic_levels_full_bfs(adj, head, ref, index[s], index[t])
        assert got == ref


@contextlib.contextmanager
def phases_reaching_s():
    """Record, for each phase BFS the kernel runs, whether it labelled s: True for a phase that pushes."""
    seen = []

    def spy(adj, head, cap, s, t):
        dist = RESIDUAL_LEVELS(adj, head, cap, s, t)
        seen.append(dist[s] >= 0)
        return dist

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_maxflow, "_residual_levels", spy)
        yield seen


@st.composite
def light_end_pairs(draw):
    """A graph with the edges at s or t scaled down, so that end's own edges are often the min cut.

    Half the time a contraction of blocks of other vertices follows, so
    the kernel runs on a patched network, where s and t keep their
    labels; it has empty positions unless its one block is one vertex,
    which is renamed.
    """
    g, s, t = draw(strategies.graphs_with_pair(min_n=3, max_n=12, weights=strategies.kernel_weights))
    end = draw(st.sampled_from([s, t]))
    scale = draw(st.sampled_from([0.5, 1 / 3, 0.1, 1e-3]))
    g = Graph(g.vertices, [(u, v, w * scale if end in (u, v) else w) for u, v, w in g.edges()])
    rest = [v for v in draw(st.permutations(g.vertices)) if v not in (s, t)]
    if len(rest) >= 2 and draw(st.booleans()):
        cuts = sorted(draw(st.sets(st.integers(1, len(rest)), min_size=1, max_size=2)))
        g = contract(g, *(rest[a:b] for a, b in zip([0, *cuts], cuts)))[0]
    return g, s, t


class TestClosedEnds:
    """The kernel stops at the push that closes the last residual arc into t or out of s, with no closing BFS."""

    @staticmethod
    def light_star() -> Graph:
        """A clique on 0-5 with weight 2, and 6 tied to 0, 1 and 2 by lighter edges: 6's own edges are the min cut."""
        return Graph(range(7), [(u, v, 2.0) for u, v in combinations(range(6), 2)] + [(0, 6, 1.0), (1, 6, 0.5), (2, 6, 0.25)])

    def test_a_sink_star_cut_runs_only_pushing_phases(self):
        with phases_reaching_s() as seen:
            side = assert_kernel_matches_full_bfs(self.light_star(), 5, 6)
        assert side == set(range(6))
        assert seen and all(seen)

    def test_a_source_star_cut_runs_only_pushing_phases(self):
        with phases_reaching_s() as seen:
            side = assert_kernel_matches_full_bfs(self.light_star(), 6, 5)
        assert side == {6}
        assert seen and all(seen)

    def test_light_ends_on_fresh_and_patched_networks(self):
        fired = {"s": 0, "t": 0}

        @given(light_end_pairs())
        @settings(max_examples=300, deadline=None)
        def check(case):
            g, s, t = case
            with phases_reaching_s() as seen:
                side = assert_kernel_matches_full_bfs(g, s, t)
            if seen[-1]:  # the last phase pushed, so a stop ended the flow
                fired["s" if side == {s} else "t"] += 1

        check()
        assert fired["s"] and fired["t"]


@st.composite
def decided_pairs(draw):
    """A noised graph whose every other vertex leans to s or to t by more than all its other edges weigh.

    A vertex has at most 11 edges of weight at most 1e3 besides its
    noise, so a noise edge of 2e4 or more on the leaning side decides it.
    """
    g, s, t = draw(strategies.graphs_with_pair(min_n=3, max_n=12, weights=strategies.kernel_weights))
    noise = []
    for v in g.vertices:
        if v not in (s, t):
            heavy, light = (s, t) if draw(st.booleans()) else (t, s)
            noise += [(v, heavy, draw(st.floats(2e4, 1e6))), (v, light, draw(st.floats(1e-6, 10.0)))]
    return Graph(g.vertices, list(g.edges()) + noise), s, t


@st.composite
def with_loose_vertices(draw, pairs):
    """A ``pairs`` case plus isolated vertices and vertices whose one edge goes to s or to t."""
    g, s, t = draw(pairs)
    loose = draw(st.lists(st.sampled_from([None, s, t]), min_size=1, max_size=4))
    edges = [(g.n + i, end, draw(strategies.kernel_weights)) for i, end in enumerate(loose) if end is not None]
    return Graph(range(g.n + len(loose)), list(g.edges()) + edges), s, t


def rule_and_kernel(g: Graph, s: int, t: int) -> tuple[list[int] | None, list[int]]:
    """Levels the rule reads off g's network, None when it falls back, and ``_dinic_levels``' levels.

    The rule gets each vertex's c_s, c_t and r summed over its arcs in
    list order, as ``bit_round_codes`` sums them for a noised graph.
    """
    index, _, adj, head, cap = _network(g)
    side = _decided_side(oracles.arc_sums(adj, head, cap, index[s], index[t]))
    ref = _dinic_levels(adj, head, cap[:], index[s], index[t], 0)
    if side is None:
        return None, ref
    level = [-1] * len(adj)
    level[index[s]] = 0
    for x in side:
        level[x] = 1
    return level, ref


# s = 0, t = 1, and x = 2 with edges to s, to t and to 3 and 4, which hang on t.
# Exact: x's weight to s less its weight to t, 1, equals its other weight.
# Rounded: 1.0 - 0.1 rounds to more than 0.2 + 0.7, but the weights' exact
# sum 0.1 + 0.2 + 0.7 exceeds 1.0, so Dinic saturates the arc from s to x.
TIES = {
    "exact": [(0, 2, 2.0), (1, 2, 1.0), (2, 3, 0.5), (2, 4, 0.5), (1, 3, 100.0), (1, 4, 100.0)],
    "rounded": [(0, 2, 1.0), (1, 2, 0.1), (2, 3, 0.2), (2, 4, 0.7), (1, 3, 1e3), (1, 4, 1e3)],
}


class TestDecidedCuts:
    """The rule that skips Dinic when every vertex's arcs to s and t decide its side, against Dinic."""

    @given(
        st.one_of(
            noised_pairs(),
            noised_pairs(max_noise=1e6),
            decided_pairs(),
            with_loose_vertices(decided_pairs()),
            with_loose_vertices(noised_pairs(max_noise=1e6)),
            strategies.graphs_with_pair(max_n=12, weights=strategies.kernel_weights),
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_same_levels_as_dinic(self, case):
        got, ref = rule_and_kernel(*case)
        assert got is None or got == ref

    @given(st.one_of(decided_pairs(), with_loose_vertices(decided_pairs())))
    @settings(max_examples=100, deadline=None)
    def test_decided_graphs_run_no_flow(self, case):
        got, ref = rule_and_kernel(*case)
        assert got == ref

    @pytest.mark.parametrize("edges", TIES.values(), ids=TIES.keys())
    def test_ties_fall_back_to_dinic(self, edges):
        got, ref = rule_and_kernel(Graph(range(5), edges), 0, 1)
        assert got is None
        assert [lv >= 0 for lv in ref] == [True, False, False, False, False]


class TestMinSTCut:
    """The exact S-T cut: the private S-T cut at an infinite budget."""

    def test_singleton_sets_delegate_exactly(self):
        g = dumbbell6()
        side = private_min_ST_cut(g, [0], [5], INFINITE, Rng(0))
        assert side == min_st_cut_exact(g, 0, 5).cut.side

    def test_grouped_terminals(self):
        g = dumbbell6()
        side = private_min_ST_cut(g, [0, 1], [4, 5], INFINITE, Rng(0))
        assert cut_weight(g, side) == 1.0
        assert side == {0, 1, 2}

    def test_validation(self):
        g = dumbbell6()
        with pytest.raises(ValueError):
            private_min_ST_cut(g, [], [1], INFINITE, Rng(0))
        with pytest.raises(ValueError):
            private_min_ST_cut(g, [0, 1], [1, 2], INFINITE, Rng(0))
        with pytest.raises(ValueError):
            private_min_ST_cut(g, [0], [99], INFINITE, Rng(0))

    @given(strategies.graphs_with_terminals(min_n=4, min_r=4))
    @settings(max_examples=60, deadline=None)
    def test_value_matches_subset_enumeration(self, gt):
        g, terminals = gt
        S = list(terminals[: len(terminals) // 2])
        T = list(terminals[len(terminals) // 2 :])
        side = private_min_ST_cut(g, S, T, INFINITE, Rng(0))
        assert cut_weight(g, side) == pytest.approx(oracles.brute_min_ST_value(g, S, T), abs=1e-9)
        assert set(S) <= side
        assert not set(T) & side


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

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError, match="at least one vertex"):
            gomory_hu_exact(Graph([]))

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

    def test_memory_stays_near_the_input_size(self):
        """The graphs alive at once are the pending halves, not every
        contracted graph on the path from the root. On ER n=120 the peak
        was 226 times the input graph's allocations when each split kept
        its graph while its rest half was built, and is 8 times now."""
        g = generate("erdos-renyi-weighted", {"n": 120, "p": 0.1}, 0)
        tracemalloc.start()
        try:
            g = Graph(g.vertices, list(g.edges()))
            graph_bytes = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            gomory_hu_exact(g)
            peak = tracemalloc.get_traced_memory()[1] - graph_bytes
        finally:
            tracemalloc.stop()
        assert peak < 20 * graph_bytes

    @pytest.mark.parametrize(
        "kind, params", [("erdos-renyi-weighted", {"n": 120, "p": 0.1}), ("dumbbell", {"clique": 20})]
    )
    def test_networks_hold_at_most_twice_the_live_arcs(self, kind, params, monkeypatch):
        sizes = []
        real = exact.min_cut_source_side

        def spy(h, s, t):
            side = real(h, s, t)
            _, verts, adj, head, cap = h._net
            sizes.append((len(head), len(cap), sum(map(len, adj)), 2 * h.m, len(verts) - h.n))
            return side

        block_sizes = []
        real_patched = _maxflow._patched

        def patch_spy(h, net, blocks, new):
            block_sizes.append(len(blocks))
            return real_patched(h, net, blocks, new)

        monkeypatch.setattr(exact, "min_cut_source_side", spy)
        monkeypatch.setattr(_maxflow, "_patched", patch_spy)
        g = generate(kind, params, 0)
        gomory_hu_exact(g)
        assert len(sizes) == g.n - 1
        for arcs, caps, live, want, empty in sizes:
            assert arcs == caps <= 2 * live
            assert live == want
        assert len(block_sizes) > g.n // 2  # most of the cut graphs were patched from their parents' networks
        # Every ER cut splits off one vertex, so each patch is a rename and leaves no position empty;
        # the dumbbell's bridge cut contracts a clique, whose patch leaves its vertices' positions empty.
        merged = any(b > 1 for b in block_sizes)
        assert merged == any(empty > 0 for *_, empty in sizes) == (kind == "dumbbell")
