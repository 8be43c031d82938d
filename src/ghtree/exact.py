"""Exact min s-t cuts and Gomory-Hu trees.

The min s-t cut is the flow primitive every cut mechanism solves: the
private s-t mechanism calls it on a graph that already carries noise
edges. The exact S-T and isolating cuts are the private mechanisms of
``private_cuts`` at an infinite budget. All cut values returned here
are recomputed boundary weights, never solver bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ._maxflow import min_cut_source_side
from .graph import CutSide, Graph, contract, cut_weight
from .steiner import SteinerTree, _single_node_tree, combine_steiner


@dataclass(frozen=True)
class MaxFlowResult:
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


def gomory_hu_exact(g: Graph, terminals: Iterable[int] | None = None) -> SteinerTree:
    """Exact Gomory-Hu tree via the classic contraction scheme.

    For any two terminals the minimum edge on their tree path equals
    their minimum cut in g, and splitting the tree there induces an
    optimal cut through the vertex map. Defaults to all vertices as
    terminals; a single-vertex graph yields a single-node tree.
    """
    U = sorted({int(v) for v in terminals} if terminals is not None else g.vertices)
    if not U:
        raise ValueError("terminal set must be nonempty")
    if not set(U) <= g.vertex_set:
        raise ValueError("terminals must be graph vertices")
    return _gh_steiner(g, U)


def _gh_steiner(g: Graph, U: list[int]) -> SteinerTree:
    if len(U) == 1:
        return _single_node_tree(g.vertices, U[0])
    res = min_st_cut_exact(g, U[0], U[1])
    side = res.cut.side
    label = g.vertices[-1] + 1  # the other half, contracted, in either half's graph
    t_side = _gh_half(g, side, [u for u in U if u in side], label)
    t_rest = _gh_half(g, g.vertex_set - side, [u for u in U if u not in side], label)
    return combine_steiner(t_rest, [(t_side, label, label, res.value)])


def _gh_half(g: Graph, keep: frozenset[int], U: list[int], label: int) -> SteinerTree:
    """Tree of g with everything outside ``keep`` contracted into ``label``.

    A half holding one terminal needs no graph: its tree maps the kept
    vertices and the label to that terminal.
    """
    if len(U) == 1:
        return _single_node_tree([*sorted(keep), label], U[0])
    return _gh_steiner(contract(g, g.vertex_set - keep)[0], U)
