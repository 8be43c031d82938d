"""Steiner cut trees: a weighted tree on terminals plus a vertex map.

A SteinerTree over terminals U of a graph G is a spanning tree on U
together with a total map f from V(G) onto U that is the identity on
U. Splitting the tree at any edge induces the vertex cut f^-1 of one
node side; the tree is approximately Gomory-Hu when the minimum edge
on the tree path between two terminals matches their minimum cut.
Every walk over a tree lives here: the reach walk behind the
connectivity check and ``component_nodes``, the path-minimum walk
behind ``min_edge_on_path`` and the sweep's answers, and the preorder
that weighs every tree edge's cut.
"""

from __future__ import annotations

import math
from itertools import chain
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .graph import Graph, cut_weight


class SteinerTree:
    """Immutable spanning tree on a terminal set with a vertex map.

    Edge weights may be zero (disconnected graphs and noise clamping
    both produce zero-weight tree edges), never negative.
    """

    __slots__ = ("_nodes", "_nodeset", "_edges", "_f", "_adj")

    def __init__(
        self,
        nodes: Iterable[int],
        edges: Iterable[tuple[int, int, float]] = (),
        f: Mapping[int, int] | None = None,
    ):
        ns = sorted({int(v) for v in nodes})
        nodeset = frozenset(ns)
        if not ns:
            raise ValueError("a Steiner tree needs at least one node")
        canon = []
        seen = set()
        for u, v, w in edges:
            u, v, w = int(u), int(v), float(w)
            if u == v:
                raise ValueError(f"self-loop on tree node {u}")
            if u not in nodeset or v not in nodeset:
                raise ValueError(f"tree edge ({u}, {v}) has an endpoint outside the node set")
            if not math.isfinite(w) or w < 0.0:
                raise ValueError(f"tree edge ({u}, {v}) has invalid weight {w!r}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ValueError(f"duplicate tree edge {key}")
            seen.add(key)
            canon.append((key[0], key[1], w))
        canon.sort()
        if len(canon) != len(ns) - 1:
            raise ValueError("edge count does not form a spanning tree on the node set")
        adj: dict[int, list[tuple[int, float]]] = {v: [] for v in ns}
        for u, v, w in canon:
            adj[u].append((v, w))
            adj[v].append((u, w))
        for v in ns:
            adj[v].sort()
        if len(_reach(adj, ns[0])) != len(ns):
            raise ValueError("tree edges do not connect the node set")
        fmap = {int(v): int(t) for v, t in (f or {v: v for v in ns}).items()}
        for v in ns:
            if fmap.get(v) != v:
                raise ValueError(f"vertex map must fix terminal {v}")
        for v, t in fmap.items():
            if t not in nodeset:
                raise ValueError(f"vertex map sends {v} to non-terminal {t}")
        self._nodes: tuple[int, ...] = tuple(ns)
        self._nodeset = nodeset
        self._edges: tuple[tuple[int, int, float], ...] = tuple(canon)
        self._f = MappingProxyType(fmap)
        self._adj = adj

    @property
    def nodes(self) -> tuple[int, ...]:
        return self._nodes

    @property
    def node_set(self) -> frozenset[int]:
        return self._nodeset

    @property
    def edges(self) -> tuple[tuple[int, int, float], ...]:
        return self._edges

    @property
    def f(self) -> Mapping[int, int]:
        return self._f

    def preimage(self, terminals: Iterable[int]) -> frozenset[int]:
        """All mapped vertices whose terminal lies in ``terminals``."""
        ts = set(terminals)
        return frozenset(v for v, t in self._f.items() if t in ts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SteinerTree):
            return NotImplemented
        return (
            self._nodes == other._nodes
            and self._edges == other._edges
            and dict(self._f) == dict(other._f)
        )

    def __hash__(self) -> int:
        return hash((self._nodes, self._edges))

    def __repr__(self) -> str:
        return f"SteinerTree(nodes={len(self._nodes)}, mapped={len(self._f)})"


def _reach(adj: Mapping[int, list[tuple[int, float]]], anchor: int, block: int | None = None) -> set[int]:
    """Nodes connected to ``anchor`` over ``adj`` by paths that avoid node ``block``."""
    reached = {anchor, block}
    stack = [anchor]
    while stack:
        for y, _ in adj[stack.pop()]:
            if y not in reached:
                reached.add(y)
                stack.append(y)
    reached.discard(block)
    return reached


def _path_minima(tree: SteinerTree, s: int, stop: int | None = None) -> dict[int, tuple[int, int, float] | None]:
    """Minimum edge (a, b, w) on the tree path from s to every node.

    Walking away from s, an edge replaces the best so far only when
    strictly lighter, so ties go to the edge nearest s, and a is the
    endpoint closer to s. s maps to None. The walk ends once ``stop``,
    if given, has its answer.
    """
    adj = tree._adj
    best: dict[int, tuple[int, int, float] | None] = {s: None}
    stack = [s]
    while stack:
        x = stack.pop()
        bx = best[x]
        for y, w in adj[x]:
            if y not in best:
                best[y] = (x, y, w) if bx is None or w < bx[2] else bx
                if y == stop:
                    return best
                stack.append(y)
    return best


def min_edge_on_path(tree: SteinerTree, u: int, v: int) -> tuple[int, int, float]:
    """Minimum-weight edge on the u-v tree path, ties broken nearest u.

    Returned as (a, b, w) with a the endpoint closer to u.
    """
    if u not in tree.node_set or v not in tree.node_set:
        raise ValueError("path endpoints must be tree nodes")
    if u == v:
        raise ValueError("path has no edges")
    return _path_minima(tree, u, v)[v]


def component_nodes(tree: SteinerTree, drop: tuple[int, int], anchor: int) -> frozenset[int]:
    """Tree nodes connected to ``anchor`` once tree edge ``drop`` is removed."""
    if anchor not in tree.node_set:
        raise ValueError(f"node {anchor} not in tree")
    # In a tree, the paths from da that avoid db are those that avoid the edge.
    da, db = drop
    side = _reach(tree._adj, da, db)
    return frozenset(side if anchor in side else tree.node_set - side)


def _edge_cut_weights(tree: SteinerTree, g: Graph) -> dict[tuple[int, int], float]:
    """True weight of the cut each tree edge induces, keyed by both orientations.

    The tree is rooted at its first node and each edge's side is the
    preimage of the subtree below it. Both sides of an edge have the
    same boundary, whose exactly rounded sum ``cut_weight`` returns, so
    one value serves both orientations bit for bit.
    """
    root = tree.nodes[0]
    parent = {root: root}
    order = []
    stack = [root]
    while stack:
        x = stack.pop()
        order.append(x)
        for y, _ in tree._adj[x]:
            if y not in parent:
                parent[y] = x
                stack.append(y)
    # ``order`` is a preorder, so each subtree is a contiguous slice.
    size = dict.fromkeys(order, 1)
    for x in reversed(order[1:]):
        size[parent[x]] += size[x]
    cuts: dict[tuple[int, int], float] = {}
    for i in range(1, len(order)):
        x = order[i]
        value = cut_weight(g, tree.preimage(order[i : i + size[x]]))
        cuts[(parent[x], x)] = cuts[(x, parent[x])] = value
    return cuts


def _single_node_tree(vertices: Iterable[int], terminal: int) -> SteinerTree:
    """The tree of a graph region holding one terminal: every vertex maps to it."""
    return SteinerTree([terminal], (), {v: terminal for v in vertices})


def combine_steiner(
    t_large: SteinerTree,
    children: Sequence[tuple[SteinerTree, int, int, float]],
) -> SteinerTree:
    """Stitch child trees onto a backbone tree.

    Each child entry is (tree, x, y, w): x is the supernode in the
    child's originating graph standing for everything outside its
    region, y is the supernode in the backbone's originating graph
    standing for that region, and w becomes the weight of the new edge
    joining f_child(x) to f_large(y). With no children the backbone is
    returned unchanged.

    The inputs are valid trees, so only what a join can break is
    checked: distinct y labels, mapped non-terminal supernodes, finite
    nonnegative weights, and disjoint node sets and vertex maps once the
    supernodes leave. The sorted nodes and edges are merged, and only
    the new edges' endpoints get new adjacency lists, each built once.
    The result equals the checked constructor's.
    """
    if not children:
        return t_large
    f = dict(t_large._f)
    joins = []
    for child, x, y, w in children:
        if x not in child.f or x in child.node_set:
            raise ValueError(f"supernode {x} missing from child vertex map, or a child terminal")
        if y not in t_large.f or y in t_large.node_set:
            raise ValueError(f"supernode {y} missing from backbone vertex map, or a backbone terminal")
        if y not in f:
            raise ValueError(f"duplicate backbone supernode {y}")
        del f[y]
        a, b, w = child.f[x], t_large.f[y], float(w)
        if not math.isfinite(w) or w < 0.0:
            raise ValueError(f"tree edge ({a}, {b}) has invalid weight {w!r}")
        joins.append((a, b, w) if a < b else (b, a, w))
    mapped = len(f)
    adj = dict(t_large._adj)
    for child, x, _, _ in children:
        part = dict(child._f)
        del part[x]
        mapped += len(part)
        f.update(part)
        adj.update(child._adj)
    nodes = sorted(chain(t_large._nodes, *(child._nodes for child, *_ in children)))
    nodeset = frozenset(nodes)
    if len(nodeset) != len(nodes) or len(f) != mapped:
        raise ValueError("joined trees share a node or map a vertex twice")
    added: dict[int, list[tuple[int, float]]] = {}
    for a, b, w in joins:
        added.setdefault(a, []).append((b, w))
        added.setdefault(b, []).append((a, w))
    for v, extra in added.items():
        adj[v] = sorted(adj[v] + extra)
    out = object.__new__(SteinerTree)
    out._nodes = tuple(nodes)
    out._nodeset = nodeset
    out._edges = tuple(sorted(chain(joins, t_large._edges, *(child._edges for child, *_ in children))))
    out._f = MappingProxyType(f)
    out._adj = adj
    return out
