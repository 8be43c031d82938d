"""Immutable weighted undirected graphs and cut primitives.

Vertices are opaque integer labels with a stable total order; every
algorithm in this package that needs "the i-th vertex" relies on that
order. Edge weights are positive reals on unordered pairs: parallel
edges merge by summation, zero-weight pairs are dropped, self-loops are
rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator


def _canon(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


class Graph:
    """Immutable undirected graph with positive edge weights.

    Isolated vertices are allowed; the vertex set is fixed at
    construction. Zero-weight edges supplied to the constructor are
    dropped, negative or non-finite weights are rejected.
    """

    __slots__ = ("_vertices", "_vset", "_weights")

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
        for (u, v), w in self._weights.items():
            yield u, v, w

    def adjacency(self, v: int) -> list[tuple[int, float]]:
        """Neighbours of v with edge weights, sorted by neighbour."""
        if v not in self._vset:
            raise ValueError(f"vertex {v} not in graph")
        return sorted((b if a == v else a, w) for (a, b), w in self._weights.items() if v in (a, b))

    def degree(self, v: int) -> int:
        return len(self.adjacency(v))

    def total_weight(self) -> float:
        return sum(w for _, w in sorted(self._weights.items()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._vertices == other._vertices and self._weights == other._weights

    def __hash__(self) -> int:
        return hash((self._vertices, tuple(self._weights.items())))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class CutSide:
    """One side of a cut: a proper nonempty vertex subset and its weight.

    ``value`` is always the recomputed boundary weight of ``side`` in the
    graph the cut refers to, never a value trusted from a solver.
    """

    side: frozenset[int]
    value: float


def cut_weight(g: Graph, side: Iterable[int]) -> float:
    """Total weight of edges leaving ``side``.

    ``side`` must be a subset of the vertex set; the empty set and the
    full set both have weight 0. Summation runs in canonical edge order
    so equal sides always produce bitwise-equal totals.
    """
    s = {int(v) for v in side}
    if not s <= g.vertex_set:
        raise ValueError("cut side contains vertices outside the graph")
    if not s or len(s) == g.n:
        return 0.0
    total = 0.0
    for u, v, w in g.edges():
        if (u in s) != (v in s):
            total += w
    return total


def make_cut_side(g: Graph, side: Iterable[int]) -> CutSide:
    """Build a CutSide, validating properness and recomputing its value."""
    s = frozenset(int(v) for v in side)
    if not s or not s < g.vertex_set:
        raise ValueError("cut side must be a proper nonempty subset of the vertex set")
    return CutSide(side=s, value=cut_weight(g, s))


def contract(g: Graph, block: Iterable[int]) -> tuple[Graph, int]:
    """Contract ``block`` into one fresh vertex; return the graph and its label.

    The label is max(V) + 1, so it never collides with a surviving
    vertex and is the largest vertex of the result. Edges between the
    block and any outside vertex merge by summation; edges internal to
    the block disappear. Contracting the whole vertex set yields a
    single-vertex graph.
    """
    b = {int(v) for v in block}
    if not b:
        raise ValueError("cannot contract an empty block")
    if not b <= g.vertex_set:
        raise ValueError("contraction block contains vertices outside the graph")
    label = g.vertices[-1] + 1
    new_edges = []
    for u, v, w in g.edges():
        fu = label if u in b else u
        fv = label if v in b else v
        if fu != fv:
            new_edges.append((fu, fv, w))
    return Graph([v for v in g.vertices if v not in b] + [label], new_edges), label


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
