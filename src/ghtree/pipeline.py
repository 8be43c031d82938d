"""The private Gomory-Hu pipeline: step, recursion, and final tree.

One step guesses noisy cut values toward a random pivot, carves off
terminal groups whose private isolating cuts look minimal, and keeps
the largest batch. The recursion contracts each carved region (masking
its boundary with noisy edges before descending), recurses on the
rest, and stitches the child trees back together. A frame that starts
past the depth cap does none of this and returns a star over its
terminals, so every build yields a tree. ``final_gh_tree``, the only
way into the recursion, runs it on ``RECURSION_SHARE`` of the budget,
one half, and spends the rest noising the tree's edge weights.

Budget accounting mirrors the mechanism structure: one step at budget
e charges e/4 for pivot cut values, e/2 across isolating-cut rounds,
and e/4 across cut-weight releases. The recursion charges each depth
level e/(2 t_max) against its own budget, the per-level worst case
over how a single edge change can land across sibling branches.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, NamedTuple

from .dp import Epsilon, PrivacyLedger, Rng, _Frozen, sample_laplace
from .exact import gomory_hu_exact, min_st_cut_exact
from .graph import CutSide, Graph, contract, cut_weight
from .private_cuts import DEFAULT_C1, DEFAULT_C2, DEFAULT_C_DEPTH, DEFAULT_PENALTY_CONST, RECURSION_SHARE
from .private_cuts import IsoCutParams, _check_constants, private_isolating_cuts
from .steiner import SteinerTree, _single_node_tree, combine_steiner


class GHTreeAbort(RuntimeError):
    """Never raised: a frame past the depth cap returns a star instead.

    Kept importable, as a bare ``RuntimeError`` subclass, because code
    written when the recursion could abort still names it: the
    acceptance criteria in ``tests/test_acceptance.py`` catch it around
    their builds.
    """


class StepParams(_Frozen):
    """Budget and constants for a single carving step."""

    __slots__ = ("eps", "beta", "c1", "c2", "penalty_const")

    def __init__(
        self,
        eps: Epsilon,
        beta: float,
        c1: float = DEFAULT_C1,
        c2: float = DEFAULT_C2,
        penalty_const: float = DEFAULT_PENALTY_CONST,
    ):
        if not 0.0 < beta < 1.0:
            raise ValueError(f"beta must lie in (0, 1), got {beta!r}")
        _check_constants(c1=c1, c2=c2, penalty_const=penalty_const)
        self._set(eps, beta, c1, c2, penalty_const)


class StepOutput(NamedTuple):
    """Terminals carved off by one step.

    ``sets`` maps each selected terminal v to its cut side, which
    contains v, never the pivot, and at most 90% of the step's
    terminals. Sides are pairwise disjoint and ``D`` is the union of
    their terminal contents. Each side's value is its exact boundary
    weight in the step's graph.
    """

    D: frozenset[int]
    R_star: tuple[int, ...]
    sets: Mapping[int, CutSide]


def gh_tree_step(
    g: Graph,
    s: int,
    U: Iterable[int],
    params: StepParams,
    rng: Rng,
    ledger: PrivacyLedger | None = None,
) -> StepOutput:
    """One carving step at pivot s over terminal set U.

    Noisy pivot cut values are estimated once. Then, over lg|U| + 1
    rounds of geometrically thinned terminal samples, private isolating
    cuts are computed and a terminal is accepted when its noised cut
    weight is within the error allowance of its noised pivot value and
    its side stays under 90% of U. The round covering the most
    terminals wins, earliest round on ties. Exact pivot values are read
    from, and stored in, g's ``_pivot_values`` when it holds a dict.

    A full run at budget e charges the ledger e/4 + e/2 + e/4 = e, with
    every scheduled slot charged whether or not its round degenerated.
    """
    U_sorted = sorted({int(v) for v in U})
    u_set = frozenset(U_sorted)
    if s not in u_set:
        raise ValueError("pivot must be a terminal")
    if not u_set <= g.vertex_set:
        raise ValueError("terminals must be graph vertices")
    if len(U_sorted) < 2:
        raise ValueError("a step needs at least two terminals")
    eps = params.eps
    k = len(U_sorted)
    levels = math.floor(math.log2(k))
    inv_eps = 1.0 / eps.value
    err_iso = params.c1 * (g.n + math.log2(1.0 / params.beta)) * math.log2(k) ** 3 * inv_eps
    err_val = params.c2 * k * math.log2(k / params.beta) * inv_eps

    lam_scale = 4.0 * (k - 1) * inv_eps
    lam_rng = rng.child("lambda")
    lam_hat: dict[int, float] = {}
    known = g._pivot_values
    for v in U_sorted:
        if v == s:
            continue
        if known is None:
            lam = min_st_cut_exact(g, s, v).value
        elif (s, v) in known:
            lam = known[s, v]
        else:
            lam = known[s, v] = min_st_cut_exact(g, s, v).value
        lam_hat[v] = lam + sample_laplace(lam_scale, lam_rng)
    if ledger is not None:
        ledger.charge("step.pivot_values", 1.0, lam_scale, k - 1)

    iso_scale = 2.0 * (levels + 1) * inv_eps
    what_scale = 8.0 * (levels + 1) * inv_eps
    R = list(U_sorted)
    best: tuple[frozenset[int], list[int], dict[int, CutSide]] | None = None
    for i in range(levels + 1):
        iso_rng = rng.child(f"iso.{i}")
        what_rng = rng.child(f"cutweights.{i}")
        samp_rng = rng.child(f"resample.{i}")
        sets_i: dict[int, CutSide] = {}
        if len(R) >= 2:
            iso_params = IsoCutParams(
                eps=eps.split(2.0 * (levels + 1)),
                beta=params.beta / (levels + 1),
                U=u_set,
                penalty_const=params.penalty_const,
            )
            sets_i = dict(private_isolating_cuts(g, R, iso_params, iso_rng).cuts)
        if ledger is not None:
            ledger.charge("step.isolating_cuts", 1.0, iso_scale)
        what: dict[int, float] = {}
        for v in sorted(sets_i):
            if v != s:
                what[v] = sets_i[v].value + sample_laplace(what_scale, what_rng)
        if ledger is not None:
            ledger.charge("step.cut_weights", 2.0, what_scale)
        allowance = (2.0 * (levels - i) + 1.0) * err_iso + err_val
        selected = [
            v
            for v in sorted(what)
            if what[v] <= lam_hat[v] + allowance
            and len(sets_i[v].side & u_set) <= 0.9 * k
        ]
        covered = frozenset().union(*(sets_i[v].side & u_set for v in selected)) if selected else frozenset()
        if best is None or len(covered) > len(best[0]):
            best = (covered, selected, sets_i)
        if i < levels:
            rate = min(1.0, 2.0 ** (-(i + 1)))
            R = [s] + [v for v in U_sorted if v != s and samp_rng.uniform() < rate]
            R.sort()
    covered, selected, sets_i = best
    return StepOutput(
        D=covered,
        R_star=tuple(selected),
        sets={v: sets_i[v] for v in selected},
    )


def _gh_rec(
    g: Graph,
    U: list[int],
    t: int,
    rng: Rng,
    t_max: int,
    step_params: StepParams,
    mask_scale: float,
    depths: set[int],
) -> SteinerTree:
    """One frame at depth t: a step at a random pivot, a child per carved side, the backbone.

    A frame with one terminal, or one that starts past ``t_max``, is a
    star over U instead: rooted at min(U), with every other vertex of g
    mapped to the root, and each edge (root, u) weighing
    ``cut_weight(g, {u})``. It draws nothing, charges nothing and adds
    no depth to ``depths``, which records every other frame's depth.
    With one terminal the star is the single-node tree.

    The star is post-processing of released outputs (Dwork & Roth,
    Prop. 2.1). Its shape and map depend only on U and g's vertex set,
    both functions of the pivots and sides that earlier steps released.
    Its weights, like every tree weight here, are cut values of a
    frame's graph, and reach the output only through ``final_gh_tree``'s
    noised release of the weights, whose charge is the same for any
    such tree.

    A carved region holding more than one terminal is descended into
    with the rest of g contracted to one vertex, ``contract(g, V -
    side)``, and its boundary masked: each inside vertex's edge to that
    vertex becomes its weight plus Laplace noise at ``mask_scale``,
    clamped at zero. A one-terminal region becomes a single-node child
    with no graph built. The remainder, every carved side contracted in
    one call, is built only when the backbone recurses.

    Side i of R*, in the step's order, is the backbone's vertex
    max(V) + 1 + i, and every child calls the rest of g max(V) + 1;
    ``combine_steiner`` joins the trees on those labels.
    """
    if len(U) == 1 or t > t_max:
        root = min(U)
        f = dict.fromkeys(g.vertices, root)
        f.update(zip(U, U))
        return SteinerTree(U, [(root, u, cut_weight(g, {u})) for u in U if u != root], f)
    depths.add(t)
    s = U[rng.child("pivot").integer(len(U))]
    step = gh_tree_step(g, s, U, step_params, rng.child("step"))
    label = g.vertices[-1] + 1
    sides = [step.sets[v].side for v in step.R_star]
    inside = [[u for u in U if u in side] for side in sides]
    children: list[tuple[SteinerTree, int, int, float]] = []
    for i, v in enumerate(step.R_star):
        if len(inside[i]) > 1:
            g_v = contract(g, g.vertex_set - sides[i])[0]
            mask_rng = rng.child(f"mask.{v}")
            edges = [(a, b, w) for a, b, w in g_v.edges() if label not in (a, b)]
            for u in sorted(sides[i]):
                w = max(0.0, g_v.weight(label, u) + sample_laplace(mask_scale, mask_rng))
                if w > 0.0:
                    edges.append((label, u, w))
            g_v = Graph(g_v.vertices, edges)
            branch_rng = rng.child(f"branch.{v}")
            subtree = _gh_rec(g_v, inside[i], t + 1, branch_rng, t_max, step_params, mask_scale, depths)
        else:
            subtree = _single_node_tree([*sorted(sides[i]), label], v)
        children.append((subtree, label, label + i, step.sets[v].value))
    u_rest = [u for u in U if u not in step.D]
    if len(u_rest) > 1:
        remainder = contract(g, *sides)[0] if sides else g
        rest_rng = rng.child("rest")
        backbone = _gh_rec(remainder, u_rest, t + 1, rest_rng, t_max, step_params, mask_scale, depths)
    else:
        carved = frozenset().union(*sides)
        rest = [u for u in g.vertices if u not in carved] + list(range(label, label + len(sides)))
        backbone = _single_node_tree(rest, u_rest[0])
    return combine_steiner(backbone, children)


def final_gh_tree(
    g: Graph,
    eps: Epsilon,
    rng: Rng,
    ledger: PrivacyLedger | None = None,
    *,
    c_depth: float = DEFAULT_C_DEPTH,
    c1: float = DEFAULT_C1,
    c2: float = DEFAULT_C2,
    penalty_const: float = DEFAULT_PENALTY_CONST,
) -> SteinerTree:
    """End-to-end private Gomory-Hu tree over all vertices.

    The recursion, whose tree carries exact cut weights, runs at
    ``RECURSION_SHARE`` of the budget, e = eps/2, with depth cap
    t_max = ceil(c_depth * lg(n)^2) for the input's n vertices. Every
    frame's step runs at e/(4 t_max) with beta = 1/n^3, and every
    carved region's boundary is masked at scale 8 t_max/e. The ledger
    is charged e/(2 t_max) per executed depth level, once per level
    rather than per branch, because sibling subgraphs split any single
    edge difference between at most two of them. The rest of the
    budget, eps - e, replaces every tree edge weight with a
    Laplace-noised copy clamped at zero. At ``INFINITE`` every scale is
    0.0 and nothing is drawn.

    Every graph with a vertex yields a tree. A one-vertex graph yields
    ``gomory_hu_exact``'s single-node tree, with no draw and no charge.
    A frame that starts past t_max returns a star over its terminals
    (see ``_gh_rec``) rather than failing, which spends no budget: its
    shape is a function of released pivots and sides, and its weights
    are released only through ``final.edge_weights``. That entry's
    sensitivity argument, one unit per weight for weights that are cut
    values of the frames' graphs, holds for star weights too, so its
    charge is unchanged.
    """
    _check_constants(c_depth=c_depth, c1=c1, c2=c2, penalty_const=penalty_const)
    if g.n < 2:
        return gomory_hu_exact(g)
    eps_rec = eps.split(1.0 / RECURSION_SHARE)
    t_max = math.ceil(c_depth * math.log2(g.n) ** 2)
    step_params = StepParams(
        eps=eps_rec.split(4.0 * t_max),
        beta=1.0 / g.n**3,
        c1=c1,
        c2=c2,
        penalty_const=penalty_const,
    )
    mask_scale = 8.0 * t_max / eps_rec.value
    depths: set[int] = set()
    tree = _gh_rec(g, list(g.vertices), 0, rng.child("tree"), t_max, step_params, mask_scale, depths)
    if ledger is not None:
        level_scale = 2.0 * t_max / eps_rec.value
        for d in sorted(depths):
            ledger.charge(f"gh_tree.level.{d}", 1.0, level_scale)
    weight_scale = (g.n - 1) / (eps.value * (1.0 - RECURSION_SHARE))
    weight_rng = rng.child("edge_weights")
    noised = [
        (u, v, max(0.0, w + sample_laplace(weight_scale, weight_rng)))
        for u, v, w in tree.edges
    ]
    if ledger is not None:
        ledger.charge("final.edge_weights", 1.0, weight_scale, g.n - 1)
    return SteinerTree(tree.nodes, noised, tree.f)
