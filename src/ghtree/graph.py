"""Immutable weighted undirected graphs and cut primitives.

Vertices are opaque integer labels with a stable total order; every
algorithm in this package that needs "the i-th vertex" relies on that
order. Edge weights are positive reals on unordered pairs: parallel
edges merge by summation, zero-weight pairs are dropped, self-loops are
rejected.

Each vertex's edges appear in the edge store in canonical order, by
their other end; flow networks and every sum over a vertex's edges
rely on that alone. A contraction copies its parent's store, deletes
the keys at its blocks and appends its sorted new keys, each last among
its ends' edges. Other graphs keep the whole store sorted, and
``Graph.edges`` always sorts. Cut weights are exactly rounded sums
(``math.fsum``), so they do not depend on the store's order.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple

from ._maxflow import boundary_weight, edges_at, patch_network


def _canon(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


class Graph:
    """Immutable undirected graph with positive edge weights.

    Isolated vertices are allowed; the vertex set is fixed at
    construction. Zero-weight edges supplied to the constructor are
    dropped, negative or non-finite weights are rejected. The edge store
    lists each vertex's edges in canonical order (module docstring). The
    flow network that ``_maxflow`` builds for the graph, or patches from
    its parent's after ``contract``, is kept in ``_net``.
    ``_pivot_values`` is None, or a dict that ``gh_tree_step`` reads and
    fills with exact pivot cut values λ(s, v) under the key (s, v); only
    ``run_experiment`` gives a graph one, so that a seed's eps cells
    share them. Equality and hashing ignore the store's order and these
    two slots.
    """

    __slots__ = ("_vertices", "_vset", "_weights", "_net", "_pivot_values")

    def __init__(self, vertices: Iterable[int], edges: Iterable[tuple[int, int, float]] = ()):
        vs = sorted({int(v) for v in vertices})
        vset = frozenset(vs)
        weights: dict[tuple[int, int], float] = {}
        for u, v, w in edges:
            u, v, w = int(u), int(v), float(w)
            if u == v:
                raise ValueError(f"self-loop on vertex {u}")
            if u not in vset or v not in vset:
                raise ValueError(f"edge ({u}, {v}) has an endpoint outside the vertex set")
            if not math.isfinite(w) or w < 0.0:
                raise ValueError(f"edge ({u}, {v}) has invalid weight {w!r}")
            key = _canon(u, v)
            weights[key] = weights.get(key, 0.0) + w
        self._vertices: tuple[int, ...] = tuple(vs)
        self._vset = vset
        self._weights = {k: w for k, w in sorted(weights.items()) if w > 0.0}
        self._net = None
        self._pivot_values: dict[tuple[int, int], float] | None = None

    @classmethod
    def _trusted(cls, vertices: tuple[int, ...], weights: dict[tuple[int, int], float]) -> Graph:
        """Graph from input that is already valid, without checking it.

        ``vertices`` is a sorted tuple of ints and every key of
        ``weights`` a pair (u, v) of them with u < v, mapped to a
        positive finite weight. Nothing is checked or merged; only the
        key order is restored, by sorting the whole store. Keys are
        unique, so sorting on them alone gives the same order.
        """
        return cls._canonical(vertices, dict(sorted(weights.items(), key=itemgetter(0))))

    @classmethod
    def _canonical(cls, vertices: tuple[int, ...], weights: dict[tuple[int, int], float]) -> Graph:
        """``_trusted`` for weights that already list each vertex's edges in canonical order: nothing is sorted."""
        g = object.__new__(cls)
        g._vertices = vertices
        g._vset = frozenset(vertices)
        g._weights = weights
        g._net = None
        g._pivot_values = None
        return g

    @property
    def vertices(self) -> tuple[int, ...]:
        return self._vertices

    @property
    def vertex_set(self) -> frozenset[int]:
        return self._vset

    @property
    def n(self) -> int:
        return len(self._vertices)

    @property
    def m(self) -> int:
        return len(self._weights)

    def has_vertex(self, v: int) -> bool:
        return v in self._vset

    def weight(self, u: int, v: int) -> float:
        """Weight of edge {u, v}, or 0.0 if the pair is not an edge."""
        if u not in self._vset or v not in self._vset:
            raise ValueError(f"vertex pair ({u}, {v}) not in graph")
        if u == v:
            return 0.0
        return self._weights.get(_canon(u, v), 0.0)

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Edges as (u, v, w) with u < v, in sorted order."""
        for (u, v), w in sorted(self._weights.items()):
            yield u, v, w

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._vertices == other._vertices and self._weights == other._weights

    def __hash__(self) -> int:
        return hash((self._vertices, frozenset(self._weights.items())))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


class CutSide(NamedTuple):
    """One side of a cut: a proper nonempty vertex subset and its weight.

    ``value`` is always the recomputed boundary weight of ``side`` in the
    graph the cut refers to, never a value trusted from a solver.
    """

    side: frozenset[int]
    value: float


def cut_weight(g: Graph, side: Iterable[int]) -> float:
    """Total weight of edges leaving ``side``.

    ``side`` must be a subset of the vertex set; the empty set and the
    full set both have weight 0. Only the edges at the smaller of
    ``side`` and its complement are read, from the graph's flow network,
    and the crossing ones are added by ``math.fsum``, which rounds the
    exact total once, so equal sides always produce bitwise-equal totals.
    """
    s = {int(v) for v in side}
    if not s <= g.vertex_set:
        raise ValueError("cut side contains vertices outside the graph")
    return boundary_weight(g, s)


def make_cut_side(g: Graph, side: Iterable[int]) -> CutSide:
    """Build a CutSide, validating properness; its value is ``cut_weight``'s exactly rounded sum."""
    s = frozenset(int(v) for v in side)
    if not s or not s < g.vertex_set:
        raise ValueError("cut side must be a proper nonempty subset of the vertex set")
    return CutSide(side=s, value=boundary_weight(g, s))


def contract(g: Graph, *blocks: Iterable[int]) -> tuple[Graph, int]:
    """Contract each disjoint block into one fresh vertex, reading only the edges at its blocks.

    Block i gets the label max(V) + 1 + i, so no label collides with a
    surviving vertex; the first label is returned with the graph. Edges
    internal to a block disappear; edges between the same two vertices
    of the result merge by summation. Contracting the whole vertex set
    yields a single-vertex graph. The edges at the blocks are read from
    the graph's flow network, which is built if g has none yet, block
    vertex by block vertex in increasing order. The result's store is a
    copy of g's with the keys at the blocks deleted and the new keys
    appended in canonical order; it is never sorted or rebuilt as a
    whole. Each new key holds a block label, above every vertex of g, so
    it comes after every kept edge of its ends and each vertex's edges
    stay in canonical order (module docstring). The result patches g's
    network into its own when first asked for one
    (``_maxflow.patch_network``). A lone block vertex is renamed in g's
    arcs, which the result shares; other blocks copy g's arcs and add
    the new ones, unless over half the arcs would then be dead, in
    which case the result builds its own.

    The result is bitwise that of contracting the blocks one at a time
    in the order given. A vertex's edges into a block are summed in
    increasing order of the block vertex, as each one-block contraction
    does. An edge between blocks i < j is the sum, over the vertices b
    of block j in increasing order, of b's summed edges into block i.
    """
    if not blocks:
        raise ValueError("contract needs at least one block")
    label = g.vertices[-1] + 1
    to: dict[int, int] = {}
    for i, block in enumerate(blocks):
        s = {int(v) for v in block}
        if not s:
            raise ValueError("cannot contract an empty block")
        if not s <= g.vertex_set:
            raise ValueError("contraction block contains vertices outside the graph")
        if not to.keys().isdisjoint(s):
            raise ValueError("contraction blocks must be pairwise disjoint")
        to.update(dict.fromkeys(s, label + i))
    order = sorted(to)
    weights = g._weights.copy()
    fresh: dict[tuple[int, int], float] = {}
    into_earlier: dict[tuple[int, int], float] = {}  # (b, earlier label), each b's keys before the next b's
    for b, x, w in edges_at(g, order):
        fx = to.get(x)
        if fx is None:
            del weights[(x, b) if x < b else (b, x)]
            key = (x, to[b])
            fresh[key] = fresh.get(key, 0.0) + w
            continue
        if b < x:  # an edge inside the blocks is met from both ends
            del weights[b, x]
        if fx < to[b]:
            key = (b, fx)
            into_earlier[key] = into_earlier.get(key, 0.0) + w
    for (b, earlier), w in into_earlier.items():
        key = (earlier, to[b])
        fresh[key] = fresh.get(key, 0.0) + w
    new = sorted(fresh.items())
    weights.update(new)
    vs = g.vertices
    vertices, i = [], 0
    for v in order:  # the kept vertices, as slices between the block vertices' positions
        j = bisect_left(vs, v, i)
        vertices += vs[i:j]
        i = j + 1
    vertices += vs[i:]
    vertices += range(label, label + len(blocks))
    h = Graph._canonical(tuple(vertices), weights)
    patch_network(g, h, to, new)
    return h, label


def are_neighboring(g1: Graph, g2: Graph) -> bool:
    """Whether two graphs differ on at most one pair by weight at most 1.

    Both graphs must share the same vertex set; comparing graphs on
    different vertex sets is a domain error, not False.
    """
    if g1.vertex_set != g2.vertex_set:
        raise ValueError("neighboring relation requires identical vertex sets")
    pairs = set(g1._weights) | set(g2._weights)
    diff = 0.0
    changed = 0
    for key in pairs:
        w1 = g1._weights.get(key, 0.0)
        w2 = g2._weights.get(key, 0.0)
        if w1 != w2:
            changed += 1
            diff = abs(w1 - w2)
            if changed > 1:
                return False
    return changed == 0 or diff <= 1.0
