"""Exact min s-t cuts and Gomory-Hu trees.

The exact min s-t cut runs the flow kernel on the network a graph
keeps, as the private mechanisms do on their noised graphs; the exact
S-T and isolating cuts are those mechanisms at an infinite budget. All
cut values returned here are recomputed boundary weights, never solver
bookkeeping.
"""

from __future__ import annotations

from typing import NamedTuple

from ._maxflow import min_cut_source_side
from .graph import CutSide, Graph, contract, cut_weight
from .steiner import SteinerTree, _single_node_tree, combine_steiner


class MaxFlowResult(NamedTuple):
    """A minimum s-t cut: the side containing s, and its value."""

    cut: CutSide
    value: float


def min_st_cut_exact(g: Graph, s: int, t: int) -> MaxFlowResult:
    """Minimum s-t cut; the side is the minimal one containing s.

    The side is the set of vertices reachable from s in the final
    residual network, so ties always resolve toward the smallest
    s-side. Disconnected pairs get value 0 with s's component as the
    side.
    """
    if not g.has_vertex(s) or not g.has_vertex(t):
        raise ValueError("cut endpoints must be graph vertices")
    if s == t:
        raise ValueError("cut endpoints must differ")
    side = min_cut_source_side(g, s, t)
    value = cut_weight(g, side)
    return MaxFlowResult(cut=CutSide(side=side, value=value), value=value)


def gomory_hu_exact(g: Graph) -> SteinerTree:
    """Exact Gomory-Hu tree via the classic contraction scheme.

    Every vertex is a node. For any two vertices the minimum edge on
    their tree path equals their minimum cut in g, and splitting the
    tree there induces an optimal cut. A single-vertex graph yields a
    single-node tree; an empty graph is rejected.
    """
    U = list(g.vertices)
    if not U:
        raise ValueError("graph must have at least one vertex")
    if len(U) == 1:
        return _single_node_tree(U, U[0])
    # Work runs in the plain recursion's order: a split's side half, then
    # its rest half, then the join of their trees. The stack holds the
    # pending halves' graphs, which share no vertex but contraction
    # labels; a split's graph is dropped once both halves are built,
    # rather than kept while the rest half recurses. Items are
    # ("split", graph, terminals), ("tree", tree, None) and
    # ("join", label, cut value).
    todo = [("split", g, U)]
    trees: list[SteinerTree] = []
    while todo:
        kind, a, b = todo.pop()
        if kind == "split":
            todo += reversed(_split(a, b))
        elif kind == "tree":
            trees.append(a)
        else:
            t_rest = trees.pop()
            trees.append(combine_steiner(t_rest, [(trees.pop(), a, a, b)]))
    return trees.pop()


def _split(g: Graph, U: list[int]) -> list[tuple]:
    """Cut g between U's first two terminals; return the work left.

    That is a half for each side, with the other side contracted, then
    the join of their trees at the cut's value. A half holding one
    terminal needs no graph, only a tree that maps its vertices and the
    label to that terminal.
    """
    res = min_st_cut_exact(g, U[0], U[1])
    side = res.cut.side
    label = g.vertices[-1] + 1  # the other half, contracted, in either half's graph
    work = []
    for keep, other in ((side, g.vertex_set - side), (g.vertex_set - side, side)):
        T = [u for u in U if u in keep]
        if len(T) == 1:
            work.append(("tree", _single_node_tree([*sorted(keep), label], T[0]), None))
        else:
            work.append(("split", contract(g, other)[0], T))
    return work + [("join", label, res.value)]
