"""Private cut mechanisms: noised min s-t, S-T and isolating cuts.

The s-t mechanism attaches exponentially distributed noise edges from
every vertex to both endpoints and solves the noised instance exactly,
releasing only the side it found. The S-T cut contracts each side and
runs it. The isolating cuts refine disjoint regions with one S-T cut
per bit of the terminals' indices, then cut all regions at once, with
a penalty against regions that swallow most of U. ``bit_round_codes``
solves the s-t mechanism as one round and the per-bit rounds in one
call, each bit for bit the S-T cut it stands for. It builds a round's
noised graph only when sums read in one scan of the input's edges
leave the side undecided, which at moderate budgets is rare. At
``INFINITE`` they draw nothing and add no penalty: the exact S-T cut
is ``private_min_ST_cut`` at ``INFINITE`` and ``isolating_cuts_exact``
is the isolating cuts there. A side's weight is not private; callers take
it from ``make_cut_side``. The pipeline's default constants and the
recursion's budget share live here, the lowest module that uses a
constant.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, NamedTuple

from ._maxflow import _decided_side, min_cut_source_side
from .dp import INFINITE, Epsilon, PrivacyLedger, Rng, _Frozen, sample_exponential
from .graph import CutSide, Graph, contract, make_cut_side

# Default constants of the pipeline's error allowances (c1, c2), depth
# cap (c_depth) and large-side penalty; every layer takes them from here.
DEFAULT_C1 = 4.0
DEFAULT_C2 = 4.0
DEFAULT_C_DEPTH = 4.0
DEFAULT_PENALTY_CONST = 4.0
# Share of a tree build's budget that the recursion spends on the tree's
# shape; the release of the tree's edge weights spends the rest.
RECURSION_SHARE = 0.5


def _check_constants(**constants: float) -> None:
    """Reject any pipeline constant that is not a positive finite number."""
    for name, value in constants.items():
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be positive and finite, got {value!r}")


class IsoCutParams(_Frozen):
    """Budget and shape parameters for one isolating-cuts invocation.

    ``U`` is the terminal universe whose coverage the penalty protects;
    it may differ from the terminal set R being isolated. ``beta`` is
    the failure probability the penalty is calibrated against.
    """

    __slots__ = ("eps", "beta", "U", "penalty_const")

    def __init__(self, eps: Epsilon, beta: float, U: frozenset[int], penalty_const: float = DEFAULT_PENALTY_CONST):
        if not 0.0 < beta < 1.0:
            raise ValueError(f"beta must lie in (0, 1), got {beta!r}")
        _check_constants(penalty_const=penalty_const)
        self._set(eps, beta, frozenset(int(v) for v in U), penalty_const)


class IsoCutsResult(NamedTuple):
    cuts: Mapping[int, CutSide]


def _draw_noise(count: int, mean: float, rng: Rng) -> list[tuple[float, float]]:
    """Exponential draws on each of ``count`` vertices' edges to s and to t, vertex by vertex, s first."""
    if not count:
        return []
    draws = sample_exponential(mean, rng, 2 * count)
    return list(zip(draws[::2], draws[1::2]))


def _contract_sides(g: Graph, S: list[int], T: list[int]) -> tuple[Graph, int, int]:
    """g with each side of several vertices contracted in one call, S first, and the vertices S and T became."""
    blocks = [block for block in (S, T) if len(block) > 1]
    if not blocks:
        return g, S[0], T[0]
    work, label = contract(g, *blocks)
    return work, (label if len(S) > 1 else S[0]), (label + len(blocks) - 1 if len(T) > 1 else T[0])


def bit_round_codes(g: Graph, R: list[int], noise: list[list[tuple[float, float]]]) -> list[int]:
    """Each vertex's code after the isolating cuts' rounds, in vertex order.

    ``R`` holds terminals of g in caller order, such as [s, t] for the
    s-t mechanism; a block of several must list them in vertex order,
    as a sorted R does. Round i cuts block A, the terminals whose index
    has bit i clear, from block B, the rest, and bit i of a vertex's
    code is set when the round's side misses it, so a terminal's code is
    its index. ``noise[i]`` holds the round's draws on each vertex
    outside R, in vertex order: on its edge to A, then to B. A round's
    side is ``private_min_ST_cut``'s on the same draws.

    One scan of g's edges gives each outside vertex its c_s, c_t and r
    (``_maxflow``'s docstring): its edges into A and into B, summed in
    canonical order as contraction sums them, plus the draws, and its
    other edges. A round these decide, such as one with no vertex
    outside R, builds nothing. Any other contracts each block of several
    terminals, A first, adds each nonzero draw onto the vertex's edge to
    its block, in vertex order, and cuts that noised graph with
    ``min_cut_source_side``.
    """
    term = dict(zip(R, range(len(R))))
    code = {v: term.get(v, 0) for v in g.vertices}
    outside = [v for v in g.vertices if v not in term]
    inner = dict.fromkeys(outside, 0.0)
    into: dict[int, list[tuple[int, float]]] = {v: [] for v in outside}  # (terminal index, weight) pairs
    for (u, v), w in g._weights.items():
        if u in inner:
            if v in inner:
                inner[u] += w
                inner[v] += w
            else:
                into[u].append((term[v], w))
        elif v in inner:
            into[v].append((term[u], w))
    for i, draws in enumerate(noise):
        sums = []
        for x, (da, db) in zip(outside, draws):
            wa = wb = 0.0
            for k, w in into[x]:
                if k >> i & 1:
                    wb += w
                else:
                    wa += w
            sums.append((x, wa + da, wb + db, inner[x]))
        side = _decided_side(sums)
        if side is None:
            A = [r for k, r in enumerate(R) if not k >> i & 1]
            B = [r for k, r in enumerate(R) if k >> i & 1]
            work, s, t = _contract_sides(g, A, B)
            weights = dict(work._weights)
            for x, draw in zip(outside, draws):
                for end, d in zip((s, t), draw):
                    if d:
                        key = (x, end) if x < end else (end, x)
                        weights[key] = weights.get(key, 0.0) + d
            side = min_cut_source_side(Graph._trusted(work.vertices, weights), s, t)
        for x in set(outside).difference(side):
            code[x] |= 1 << i
    return list(code.values())


def private_min_st_cut(
    g: Graph,
    s: int,
    t: int,
    eps: Epsilon,
    rng: Rng,
    ledger: PrivacyLedger | None = None,
) -> frozenset[int]:
    """Side containing s of a min s-t cut under noise edges.

    Every vertex other than s and t gets a noise edge to s and one to
    t, each an independent exponential with mean 1/eps stacked onto any
    existing weight. The noised instance is cut exactly, as one round
    of ``bit_round_codes``, which builds it only when the sums leave the
    side undecided, and the minimal side containing s is returned. With
    an infinite budget every draw is zero and this is min_st_cut_exact's
    side.
    """
    if not g.has_vertex(s) or not g.has_vertex(t):
        raise ValueError("cut endpoints must be graph vertices")
    if s == t:
        raise ValueError("cut endpoints must differ")
    mean = 1.0 / eps.value
    if ledger is not None:
        ledger.charge("private_st_cut", 1.0, mean)
    codes = bit_round_codes(g, [s, t], [_draw_noise(g.n - 2, mean, rng)])
    return frozenset(v for v, code in zip(g.vertices, codes) if code == 0)


def private_min_ST_cut(
    g: Graph,
    S: Iterable[int],
    T: Iterable[int],
    eps: Epsilon,
    rng: Rng,
    ledger: PrivacyLedger | None = None,
) -> frozenset[int]:
    """Side of a private minimum cut that holds vertex set S and not vertex set T.

    The multi-vertex sides are contracted in one call, S first, into
    fresh labels, never vertices of g, so the side in g is the s-t
    mechanism's side within V(g), plus S. Singleton sides skip
    contraction, so a call with |S| = |T| = 1 is bit-for-bit the same
    as private_min_st_cut under the same stream.
    """
    S = sorted({int(v) for v in S})
    T = sorted({int(v) for v in T})
    if not S or not T:
        raise ValueError("S and T must be nonempty")
    if set(S) & set(T):
        raise ValueError("S and T must be disjoint")
    if not set(S) <= g.vertex_set or not set(T) <= g.vertex_set:
        raise ValueError("S and T must be subsets of the vertex set")
    work, s, t = _contract_sides(g, S, T)
    side = private_min_st_cut(work, s, t, eps, rng, ledger)
    return (side & g.vertex_set) | frozenset(S)


def private_isolating_cuts(
    g: Graph,
    R: Iterable[int],
    params: IsoCutParams,
    rng: Rng,
    ledger: PrivacyLedger | None = None,
) -> IsoCutsResult:
    """Private minimum isolating cuts for all terminals in R at once.

    Terminals are identified with 0..|R|-1 in vertex order. Round i
    takes a private S-T cut separating the terminals whose bit i is 0
    from the rest: ``private_min_ST_cut`` on the round's own stream
    ``rng.child(f"round.{i}")``, solved from one edge scan all rounds
    share (``bit_round_codes``). Each vertex gets a code with bit i set when
    round i's side misses it, and joins the region of terminal index c
    when its code is c < |R|. A single private cut on the disjoint union
    of the regions, each with its outside contracted, then produces every
    output simultaneously. Each of the floor(lg(|R|-1)) + 2 private
    calls runs at eps / (lg|R| + 2) and is charged as one
    ``private_st_cut``, a round with no vertex outside R included.

    The union takes one edge scan of g. Each region's vertices take
    consecutive labels in vertex order, followed by the region's sink,
    its contracted outside. An edge inside a region is copied over and
    an edge leaving region r is summed onto (vertex, sink of r) in
    canonical edge order, so every region's part equals
    ``contract(g, V - region)`` bitwise, relabelled. Each output's
    value reads only the edges at its smaller side.

    Each region also carries a penalty weight between each vertex of
    region-intersect-U and its sink, which discourages outputs that
    swallow most of U. An empty U skips the penalty entirely.
    """
    R = sorted({int(v) for v in R})
    if len(R) < 2:
        raise ValueError("isolating cuts need at least two terminals")
    if not set(R) <= g.vertex_set:
        raise ValueError("terminals must be graph vertices")
    if not params.U <= g.vertex_set:
        raise ValueError("penalty universe must be a subset of the vertex set")
    eps_call = params.eps.split(math.log2(len(R)) + 2.0)
    mean = 1.0 / eps_call.value
    noise = []
    for i in range((len(R) - 1).bit_length()):
        if ledger is not None:
            ledger.charge("private_st_cut", 1.0, mean)
        noise.append(_draw_noise(g.n - len(R), mean, rng.child(f"round.{i}")))
    regions: list[list[int]] = [[] for _ in R]
    for v, code in zip(g.vertices, bit_round_codes(g, R, noise)):
        if code < len(R):
            regions[code].append(v)
    penalty = 0.0
    if params.U:
        penalty = (
            params.penalty_const
            * (g.n + math.log2(1.0 / params.beta))
            * math.log2(len(R)) ** 2
            / (params.eps.value * len(params.U))
        )
        if math.isinf(penalty):
            raise ValueError(f"penalty weight overflows at eps={params.eps.value!r}")
    # The rounds leave the regions pairwise disjoint, each holding its terminal.
    label: dict[int, int] = {}
    sink: dict[int, int] = {}  # region vertex -> its region's sink
    sinks: list[int] = []
    for region in regions:
        first = len(label) + len(sinks)
        label.update((v, first + i) for i, v in enumerate(region))
        sink.update(dict.fromkeys(region, first + len(region)))
        sinks.append(first + len(region))
    weights: dict[tuple[int, int], float] = {}
    for (u, v), w in g._weights.items():
        su = sink.get(u)
        sv = sink.get(v)
        if su == sv:
            if su is not None:
                weights[label[u], label[v]] = w
            continue
        if su is not None:
            key = (label[u], su)
            weights[key] = weights.get(key, 0.0) + w
        if sv is not None:
            key = (label[v], sv)
            weights[key] = weights.get(key, 0.0) + w
    if penalty > 0.0:
        for u in params.U & sink.keys():
            key = (label[u], sink[u])
            weights[key] = weights.get(key, 0.0) + penalty
    combined = Graph._trusted(tuple(range(len(label) + len(R))), weights)
    sources = [label[r] for r in R]
    side = private_min_ST_cut(combined, sources, sinks, eps_call, rng.child("combined"), ledger)
    cuts = {r: make_cut_side(g, [v for v in region if label[v] in side]) for r, region in zip(R, regions)}
    return IsoCutsResult(cuts=cuts)


def isolating_cuts_exact(g: Graph, R: Iterable[int]) -> dict[int, CutSide]:
    """Minimum isolating cuts for every terminal in R simultaneously.

    The private isolating cuts at an infinite budget, which draw
    nothing. Each output contains exactly one terminal, the outputs are
    pairwise disjoint, and each is a minimum cut separating its
    terminal from the rest of R.
    """
    # At INFINITE the penalty is zero, so beta and U have no effect.
    params = IsoCutParams(INFINITE, 0.5, frozenset())
    return dict(private_isolating_cuts(g, R, params, Rng(0)).cuts)
