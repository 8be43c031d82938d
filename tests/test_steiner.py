"""Steiner tree container, path queries, and tree stitching."""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ghtree import (
    SteinerTree,
    combine_steiner,
    component_nodes,
    min_edge_on_path,
    save_tree,
)


def path_tree() -> SteinerTree:
    return SteinerTree(range(4), [(0, 1, 5.0), (1, 2, 2.0), (2, 3, 4.0)])


class TestConstruction:
    def test_single_node_tree(self):
        t = SteinerTree([3])
        assert t.nodes == (3,)
        assert t.edges == ()
        assert dict(t.f) == {3: 3}

    def test_default_map_is_identity(self):
        t = path_tree()
        assert dict(t.f) == {v: v for v in range(4)}

    def test_map_may_cover_extra_vertices(self):
        t = SteinerTree([0, 1], [(0, 1, 1.0)], f={0: 0, 1: 1, 5: 0, 6: 1})
        assert t.preimage([0]) == {0, 5}
        assert t.preimage([1]) == {1, 6}

    def test_zero_weight_edges_allowed(self):
        t = SteinerTree([0, 1], [(0, 1, 0.0)])
        assert t.edges == ((0, 1, 0.0),)

    def test_wrong_edge_count_rejected(self):
        with pytest.raises(ValueError, match="spanning tree"):
            SteinerTree(range(3), [(0, 1, 1.0)])

    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="connect|duplicate|spanning"):
            SteinerTree(range(4), [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="connect"):
            SteinerTree(range(5), [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (3, 4, 1.0)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SteinerTree(range(3), [(0, 1, 1.0), (1, 0, 2.0)])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="invalid weight"):
            SteinerTree(range(2), [(0, 1, -0.5)])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            SteinerTree(range(2), [(0, 0, 1.0)])

    def test_map_must_fix_nodes(self):
        with pytest.raises(ValueError, match="fix terminal"):
            SteinerTree([0, 1], [(0, 1, 1.0)], f={0: 1, 1: 1})

    def test_map_range_must_be_nodes(self):
        with pytest.raises(ValueError, match="non-terminal"):
            SteinerTree([0, 1], [(0, 1, 1.0)], f={0: 0, 1: 1, 5: 9})

    def test_edge_outside_node_set_rejected(self):
        with pytest.raises(ValueError, match="outside the node set"):
            SteinerTree([0, 1], [(0, 2, 1.0)])


@st.composite
def tied_trees(draw):
    """A random tree on two to nine spread-out labels whose weights take two or three values."""
    labels = draw(st.lists(st.integers(0, 40), min_size=2, max_size=9, unique=True))
    values = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]), min_size=2, max_size=3, unique=True))
    edges = [
        (labels[i], labels[draw(st.integers(0, i - 1))], draw(st.sampled_from(values)))
        for i in range(1, len(labels))
    ]
    return SteinerTree(labels, edges)


class TestPaths:
    def test_path_needs_tree_nodes(self):
        with pytest.raises(ValueError, match="tree nodes"):
            min_edge_on_path(path_tree(), 0, 9)

    def test_min_edge_value_and_orientation(self):
        a, b, w = min_edge_on_path(path_tree(), 0, 3)
        assert (a, b, w) == (1, 2, 2.0)
        a, b, w = min_edge_on_path(path_tree(), 3, 0)
        assert (a, b, w) == (2, 1, 2.0)

    def test_min_edge_tie_breaks_toward_first_endpoint(self):
        t = SteinerTree(range(3), [(0, 1, 3.0), (1, 2, 3.0)])
        assert min_edge_on_path(t, 0, 2) == (0, 1, 3.0)
        assert min_edge_on_path(t, 2, 0) == (2, 1, 3.0)

    def test_min_edge_requires_distinct_endpoints(self):
        with pytest.raises(ValueError, match="no edges"):
            min_edge_on_path(path_tree(), 1, 1)

    def test_component_nodes_after_dropping_edge(self):
        t = path_tree()
        assert component_nodes(t, (1, 2), 0) == {0, 1}
        assert component_nodes(t, (1, 2), 3) == {2, 3}
        assert component_nodes(t, (2, 1), 3) == {2, 3}

    @given(tied_trees())
    @settings(max_examples=200, deadline=None)
    def test_walks_match_reference_on_ties(self, tree):
        for u in tree.nodes:
            for v in tree.nodes:
                if u == v:
                    continue
                a, b, w = min_edge_on_path(tree, u, v)
                assert (a, b, w) == oracles.min_edge_on_path(tree, u, v)
                for anchor in (u, v):
                    assert component_nodes(tree, (a, b), anchor) == oracles.component_nodes(tree, (a, b), anchor)


@st.composite
def joins(draw):
    """A valid backbone and one to five valid child trees, each with its supernodes and join weight.

    Labels come from a random permutation, so nodes, mapped vertices and
    supernodes interleave. The children's x labels are their own, one
    shared label, or the first y label, as in the private recursion.
    """
    k = draw(st.integers(1, 5))
    sizes = [draw(st.integers(1, 4)) for _ in range(k + 1)]
    extras = [draw(st.integers(0, 3)) for _ in range(k + 1)]
    xs_from = draw(st.sampled_from(["own", "shared", "first y"]))
    need = sum(sizes) + sum(extras) + k + {"own": k, "shared": 1, "first y": 0}[xs_from]
    labels = iter(draw(st.permutations(range(need))))
    ys = [next(labels) for _ in range(k)]
    if xs_from == "own":
        xs = [next(labels) for _ in range(k)]
    else:
        xs = [next(labels) if xs_from == "shared" else ys[0]] * k
    weight = st.sampled_from([0.0, 1 / 3, 2 / 3, 1.0, 2.5])
    trees = []
    for i, (size, extra) in enumerate(zip(sizes, extras)):
        nodes = [next(labels) for _ in range(size)]
        edges = [(nodes[j], nodes[draw(st.integers(0, j - 1))], draw(weight)) for j in range(1, size)]
        mapped = [next(labels) for _ in range(extra)] + (ys if i == 0 else [xs[i - 1]])
        f = {v: v for v in nodes} | {v: draw(st.sampled_from(nodes)) for v in mapped}
        trees.append(SteinerTree(nodes, edges, f))
    return trees[0], [(t, x, y, draw(weight)) for t, x, y in zip(trees[1:], xs, ys)]


def saved(tree: SteinerTree) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.tree"
        save_tree(tree, str(path))
        return path.read_bytes()


class TestCombine:
    @given(joins())
    @settings(max_examples=150, deadline=None)
    def test_equals_the_checked_constructor(self, case):
        backbone, children = case
        out = combine_steiner(backbone, children)
        ref = oracles.checked_combine(backbone, children)
        assert out == ref
        assert out.node_set == ref.node_set
        assert out._adj == ref._adj
        assert saved(out) == saved(ref)

    @pytest.mark.parametrize(
        "backbone, children",
        [
            pytest.param(
                SteinerTree([0], f={0: 0, 9: 0, 10: 0}),
                [(SteinerTree([1], f={1: 1, 8: 1}), 8, 9, 1.0),
                 (SteinerTree([1, 2], [(1, 2, 1.0)], f={1: 1, 2: 2, 8: 2}), 8, 10, 1.0)],
                id="overlapping-child-nodes",
            ),
            pytest.param(
                SteinerTree([0], f={0: 0, 9: 0, 5: 0}),
                [(SteinerTree([1], f={1: 1, 8: 1, 5: 1}), 8, 9, 1.0)],
                id="vertex-mapped-twice",
            ),
            pytest.param(
                SteinerTree([0], f={0: 0, 9: 0}),
                [(SteinerTree([1, 8], [(1, 8, 1.0)]), 8, 9, 1.0)],
                id="supernode-is-a-terminal",
            ),
            pytest.param(
                SteinerTree([0], f={0: 0, 9: 0}),
                [(SteinerTree([1], f={1: 1, 8: 1}), 8, 9, float("nan"))],
                id="nan-weight",
            ),
        ],
    )
    def test_invalid_join_rejected(self, backbone, children):
        with pytest.raises(ValueError):
            combine_steiner(backbone, children)

    def test_stitches_child_onto_backbone(self):
        # Backbone over {0, 4}; vertex 9 is the supernode for the child's
        # region, mapped to terminal 0.  Child over {1, 2}; vertex 8 is the
        # supernode for everything else, mapped to terminal 2.
        backbone = SteinerTree([0, 4], [(0, 4, 5.0)], f={0: 0, 4: 4, 9: 0})
        child = SteinerTree([1, 2], [(1, 2, 3.0)], f={1: 1, 2: 2, 8: 2})
        out = combine_steiner(backbone, [(child, 8, 9, 7.0)])
        assert out.nodes == (0, 1, 2, 4)
        assert set(out.edges) == {(0, 4, 5.0), (1, 2, 3.0), (0, 2, 7.0)}
        assert dict(out.f) == {0: 0, 1: 1, 2: 2, 4: 4}

    def test_no_children_returns_backbone(self):
        t = path_tree()
        assert combine_steiner(t, []) is t

    def test_supernodes_leave_the_vertex_map(self):
        backbone = SteinerTree([0], f={0: 0, 9: 0})
        child = SteinerTree([1], f={1: 1, 8: 1})
        out = combine_steiner(backbone, [(child, 8, 9, 2.0)])
        assert out.nodes == (0, 1)
        assert out.edges == ((0, 1, 2.0),)
        assert 8 not in out.f and 9 not in out.f

    def test_duplicate_backbone_supernode_rejected(self):
        backbone = SteinerTree([0], f={0: 0, 9: 0})
        child = SteinerTree([1], f={1: 1, 8: 1})
        with pytest.raises(ValueError, match="duplicate"):
            combine_steiner(backbone, [(child, 8, 9, 1.0), (child, 8, 9, 1.0)])

    def test_missing_supernode_in_child_map_rejected(self):
        backbone = SteinerTree([0], f={0: 0, 9: 0})
        child = SteinerTree([1])
        with pytest.raises(ValueError, match="missing from child"):
            combine_steiner(backbone, [(child, 8, 9, 1.0)])

    def test_missing_supernode_in_backbone_map_rejected(self):
        backbone = SteinerTree([0])
        child = SteinerTree([1], f={1: 1, 8: 1})
        with pytest.raises(ValueError, match="missing from backbone"):
            combine_steiner(backbone, [(child, 8, 9, 1.0)])

    def test_two_children(self):
        backbone = SteinerTree([0], f={0: 0, 10: 0, 11: 0})
        c1 = SteinerTree([1], f={1: 1, 20: 1})
        c2 = SteinerTree([2, 3], [(2, 3, 1.0)], f={2: 2, 3: 3, 21: 3})
        out = combine_steiner(backbone, [(c1, 20, 10, 4.0), (c2, 21, 11, 6.0)])
        assert out.nodes == (0, 1, 2, 3)
        assert set(out.edges) == {(0, 1, 4.0), (2, 3, 1.0), (0, 3, 6.0)}
