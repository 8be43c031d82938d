"""Steiner cut trees: a weighted tree on terminals plus a vertex map.

A SteinerTree over terminals U of a graph G is a spanning tree on U
together with a total map f from V(G) onto U that is the identity on
U. Splitting the tree at any edge induces the vertex cut f^-1 of one
node side; the tree is approximately Gomory-Hu when the minimum edge
on the tree path between two terminals matches their minimum cut.
"""

from __future__ import annotations

import math
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence


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
        stack = [ns[0]]
        reached = {ns[0]}
        while stack:
            u = stack.pop()
            for v, _ in adj[u]:
                if v not in reached:
                    reached.add(v)
                    stack.append(v)
        if len(reached) != len(ns):
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

    def adjacency(self, v: int) -> list[tuple[int, float]]:
        if v not in self._nodeset:
            raise ValueError(f"node {v} not in tree")
        return self._adj[v]

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


def tree_path(tree: SteinerTree, u: int, v: int) -> list[int]:
    """Node sequence of the unique tree path from u to v, inclusive."""
    if u not in tree.node_set or v not in tree.node_set:
        raise ValueError("path endpoints must be tree nodes")
    if u == v:
        return [u]
    parent: dict[int, int] = {u: u}
    stack = [u]
    while stack:
        x = stack.pop()
        if x == v:
            break
        for y, _ in tree.adjacency(x):
            if y not in parent:
                parent[y] = x
                stack.append(y)
    path = [v]
    while path[-1] != u:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def min_edge_on_path(tree: SteinerTree, u: int, v: int) -> tuple[int, int, float]:
    """Minimum-weight edge on the u-v tree path, ties broken nearest u.

    Returned as (a, b, w) with a the endpoint closer to u.
    """
    path = tree_path(tree, u, v)
    if len(path) < 2:
        raise ValueError("path has no edges")
    best = None
    for a, b in zip(path, path[1:]):
        w = next(w for y, w in tree.adjacency(a) if y == b)
        if best is None or w < best[2]:
            best = (a, b, w)
    return best


def component_nodes(tree: SteinerTree, drop: tuple[int, int], anchor: int) -> frozenset[int]:
    """Tree nodes connected to ``anchor`` once edge ``drop`` is removed."""
    da, db = drop
    reached = {anchor}
    stack = [anchor]
    while stack:
        x = stack.pop()
        for y, _ in tree.adjacency(x):
            if (x == da and y == db) or (x == db and y == da):
                continue
            if y not in reached:
                reached.add(y)
                stack.append(y)
    return frozenset(reached)


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
    """
    if not children:
        return t_large
    y_labels = set()
    for _, _, y, _ in children:
        if y in y_labels:
            raise ValueError(f"duplicate backbone supernode {y}")
        y_labels.add(y)
    nodes = set(t_large.nodes)
    edges = list(t_large.edges)
    f: dict[int, int] = {}
    for vert, term in sorted(t_large.f.items()):
        if vert not in y_labels:
            f[vert] = term
    for child, x, y, w in children:
        if x not in child.f:
            raise ValueError(f"supernode {x} missing from child vertex map")
        if y not in t_large.f:
            raise ValueError(f"supernode {y} missing from backbone vertex map")
        nodes.update(child.nodes)
        edges.extend(child.edges)
        edges.append((child.f[x], t_large.f[y], float(w)))
        for vert, term in sorted(child.f.items()):
            if vert != x:
                f[vert] = term
    return SteinerTree(sorted(nodes), edges, f)
