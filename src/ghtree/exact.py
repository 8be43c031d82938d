"""Exact cut oracles: min s-t cuts, isolating cuts, Gomory-Hu trees.

These are the noiseless reference algorithms. They double as
subroutines of the private pipeline, which calls them on graphs that
already carry noise edges. Two reductions live here once and are shared
with ``private_cuts``: the S-T reduction (contract each side into one
vertex, cut, map the side back), which the private S-T cut runs with
its noised s-t mechanism as the oracle, and the bit partition of
isolating cuts into disjoint regions, which the private isolating cuts
run with the private S-T cut. All cut values returned here are
recomputed boundary weights, never solver bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from ._maxflow import min_cut_source_side
from .graph import (
    CutSide,
    Graph,
    _contract_complements,
    _disjoint_cut_sides,
    contract,
    cut_weight,
    make_cut_side,
)
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


def _reduce_ST_cut(
    g: Graph, S: Iterable[int], T: Iterable[int], st_cut: Callable[[Graph, int, int], CutSide]
) -> CutSide:
    """Minimum S-T cut from an s-t cut oracle: contract, cut, map back.

    The multi-vertex sides are contracted in one call, S first, into
    fresh labels, never vertices of g, so the side in g is the oracle's
    side within V(g), plus S. Singleton sides skip contraction: that
    case is exactly ``st_cut(g, s, t)``.
    """
    S = sorted({int(v) for v in S})
    T = sorted({int(v) for v in T})
    if not S or not T:
        raise ValueError("S and T must be nonempty")
    if set(S) & set(T):
        raise ValueError("S and T must be disjoint")
    if not set(S) <= g.vertex_set or not set(T) <= g.vertex_set:
        raise ValueError("S and T must be subsets of the vertex set")
    if len(S) == 1 and len(T) == 1:
        return st_cut(g, S[0], T[0])
    blocks = [block for block in (S, T) if len(block) > 1]
    work, label = contract(g, *blocks)
    s = label if len(S) > 1 else S[0]
    t = label + len(blocks) - 1 if len(T) > 1 else T[0]
    side = st_cut(work, s, t).side
    return make_cut_side(g, (side & g.vertex_set) | set(S))


def min_ST_cut_exact(g: Graph, S: Iterable[int], T: Iterable[int]) -> MaxFlowResult:
    """Minimum cut separating vertex set S from vertex set T.

    The returned side contains all of S and none of T. Singleton sides
    skip contraction entirely, so min_ST_cut_exact(g, {s}, {t}) is
    exactly min_st_cut_exact(g, s, t).
    """
    cut = _reduce_ST_cut(g, S, T, lambda h, s, t: min_st_cut_exact(h, s, t).cut)
    return MaxFlowResult(cut=cut, value=cut.value)


def _isolating_terminals(g: Graph, R: Iterable[int]) -> list[int]:
    """Validated terminals of an isolating-cuts call, deduplicated and sorted."""
    R = sorted({int(v) for v in R})
    if len(R) < 2:
        raise ValueError("isolating cuts need at least two terminals")
    if not set(R) <= g.vertex_set:
        raise ValueError("terminals must be graph vertices")
    return R


def _isolating_regions(
    g: Graph, R: list[int], ST_side: Callable[[int, list[int], list[int]], frozenset[int]]
) -> list[tuple[int, set[int], Graph, int]]:
    """Bit partition of V into disjoint regions, one around each terminal.

    Terminals are identified with 0..|R|-1 in the order of ``R``. Round
    i takes ``ST_side(i, A, B)``, the side of a cut separating the
    terminals whose bit i is 0 (A) from the rest (B), and shrinks every
    region to its terminal's side. Returns (r, W_r, h, t) per terminal:
    h is g with everything outside W_r contracted into the vertex t,
    and the disjoint regions' graphs are built in one edge scan.
    """
    region = {r: set(g.vertices) for r in R}
    for i in range((len(R) - 1).bit_length()):
        A = [r for idx, r in enumerate(R) if not (idx >> i) & 1]
        B = [r for idx, r in enumerate(R) if (idx >> i) & 1]
        side = ST_side(i, A, B)
        for idx, r in enumerate(R):
            if (idx >> i) & 1:
                region[r] -= side
            else:
                region[r] &= side
    graphs, t = _contract_complements(g, [region[r] for r in R])
    return [(r, region[r], h, t) for r, h in zip(R, graphs)]


def isolating_cuts_exact(g: Graph, R: Iterable[int]) -> dict[int, CutSide]:
    """Minimum isolating cuts for every terminal in R simultaneously.

    Runs the bit-partition scheme: terminals are identified with
    0..|R|-1 in vertex order, one min S-T cut per bit position refines
    a disjoint region W_r around each terminal, and a final exact min
    cut inside each region yields S_r. Each S_r contains exactly one
    terminal, the outputs are pairwise disjoint, and each is a minimum
    cut separating its terminal from the rest of R.
    """
    R = _isolating_terminals(g, R)
    regions = _isolating_regions(g, R, lambda i, A, B: min_ST_cut_exact(g, A, B).cut.side)
    sides = [min_st_cut_exact(h, r, t).cut.side for r, _, h, t in regions]
    return dict(zip(R, _disjoint_cut_sides(g, sides)))


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
