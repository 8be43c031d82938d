"""Cut queries answered from a Gomory-Hu style tree.

All three applications read only the tree and the vertex map: pair
queries take the minimum edge on the tree path, global min cut takes
the minimum edge overall, and min k-cut removes the k-1 lightest
edges. Reported values are the tree's edge weights, which are the
noisy quantities when the tree came from the private pipeline; the
CutSide values are exact weights recomputed from the graph and are a
non-private diagnostic.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .graph import CutSide, Graph, make_cut_side
from .steiner import SteinerTree, component_nodes, min_edge_on_path


class KCutSolution(NamedTuple):
    """A partition of the vertex set into exactly k nonempty parts.

    ``value`` is the recomputed total weight of edges between distinct
    parts.
    """

    parts: tuple[frozenset[int], ...]
    value: float


def tree_query(tree: SteinerTree, g: Graph, u: int, v: int) -> tuple[float, CutSide]:
    """Approximate min u-v cut read off the tree.

    Returns the minimum edge weight on the tree path (ties broken by
    the edge nearest u) and the cut induced by mapping u's side of that
    edge back through the vertex map. The returned weight is the
    private answer; the CutSide's value is recomputed from g and is not
    private.
    """
    if u not in tree.node_set or v not in tree.node_set:
        raise ValueError("query endpoints must be terminals of the tree")
    if u == v:
        raise ValueError("query endpoints must differ")
    a, b, w = min_edge_on_path(tree, u, v)
    side = tree.preimage(component_nodes(tree, (a, b), u))
    return w, make_cut_side(g, side)


def global_min_cut(tree: SteinerTree, g: Graph) -> tuple[float, CutSide]:
    """Smallest tree edge and its induced cut.

    Equals the minimum over all pair queries. Ties resolve to the first
    edge in canonical order; the side is the component of that edge's
    smaller endpoint.
    """
    if len(tree.nodes) < 2:
        raise ValueError("global min cut needs at least two terminals")
    best = None
    for a, b, w in tree.edges:
        if best is None or w < best[2]:
            best = (a, b, w)
    a, b, w = best
    side = tree.preimage(component_nodes(tree, (a, b), a))
    return w, make_cut_side(g, side)


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if rb < ra:
            ra, rb = rb, ra
        self.parent[rb] = ra
        return True


def min_k_cut(tree: SteinerTree, g: Graph, k: int) -> KCutSolution:
    """Partition g into exactly k parts using the k-1 lightest tree edges.

    Removing those edges splits the terminals into k groups; the edges
    of g whose ends' terminals f(x), f(y) fall in different groups are
    deleted. If that leaves more than k components, deleted edges are
    re-added heaviest first (they only merge, never pay) until exactly
    k remain; any leftover surplus from a disconnected input is merged
    at zero cost. ``value`` is the exactly rounded sum (``math.fsum``)
    of the deleted edges that still join two parts.
    """
    if not 2 <= k <= len(tree.nodes):
        raise ValueError(f"k must lie in [2, {len(tree.nodes)}], got {k}")
    f = tree.f
    if any(v not in f for v in g.vertices):
        raise ValueError("the tree's vertex map must cover every vertex of the graph")
    order = sorted(tree.edges, key=lambda e: (e[2], e[0], e[1]))
    groups = _UnionFind(tree.nodes)
    for a, b, _ in order[k - 1 :]:
        groups.union(a, b)
    uf = _UnionFind(g.vertices)
    count = g.n
    cut = []
    for x, y, w in g.edges():
        if groups.find(f[x]) != groups.find(f[y]):
            cut.append((x, y, w))
        elif uf.union(x, y):
            count -= 1
    cut.sort(key=lambda e: (-e[2], e[0], e[1]))
    for x, y, _w in cut:
        if count == k:
            break
        if uf.union(x, y):
            count -= 1
    if count > k:
        roots = sorted({uf.find(v) for v in g.vertices})
        for r in roots[1:]:
            if count == k:
                break
            if uf.union(roots[0], r):
                count -= 1
    parts: dict[int, set[int]] = {}
    for v in g.vertices:
        parts.setdefault(uf.find(v), set()).add(v)
    return KCutSolution(
        parts=tuple(frozenset(p) for p in sorted(parts.values(), key=min)),
        value=math.fsum(w for x, y, w in cut if uf.find(x) != uf.find(y)),
    )
