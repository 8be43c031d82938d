"""Private cut mechanisms: noised min s-t, S-T and isolating cuts.

The s-t mechanism attaches exponentially distributed noise edges from
every vertex to both endpoints and solves the noised instance exactly,
reporting the true weight of the side it found. The S-T cut contracts
each side and runs it. The isolating cuts refine disjoint regions with
one S-T cut per bit of the terminals' indices, then cut all regions at
once, with a penalty against regions that swallow most of U. At
``INFINITE`` they draw nothing and add no penalty, so
``min_ST_cut_exact`` and ``isolating_cuts_exact`` are these mechanisms
at ``INFINITE``. The pipeline's default constants live here, the
lowest module that uses one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

from ._maxflow import min_cut_source_side
from .dp import INFINITE, Epsilon, PrivacyLedger, Rng, sample_exponential
from .exact import MaxFlowResult, min_st_cut_exact
from .graph import CutSide, Graph, _contract_complements, contract, cut_weight, make_cut_side

# Default constants of the pipeline's error allowances (c1, c2), depth
# cap (c_depth) and large-side penalty; every layer takes them from here.
DEFAULT_C1 = 4.0
DEFAULT_C2 = 4.0
DEFAULT_C_DEPTH = 4.0
DEFAULT_PENALTY_CONST = 4.0


def _check_constants(**constants: float) -> None:
    """Reject any pipeline constant that is not a positive finite number."""
    for name, value in constants.items():
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class IsoCutParams:
    """Budget and shape parameters for one isolating-cuts invocation.

    ``U`` is the terminal universe whose coverage the penalty protects;
    it may differ from the terminal set R being isolated. ``beta`` is
    the failure probability the penalty is calibrated against.
    """

    eps: Epsilon
    beta: float
    U: frozenset[int]
    penalty_const: float = DEFAULT_PENALTY_CONST

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta must lie in (0, 1), got {self.beta!r}")
        _check_constants(penalty_const=self.penalty_const)
        object.__setattr__(self, "U", frozenset(int(v) for v in self.U))


@dataclass(frozen=True)
class IsoCutsResult:
    cuts: Mapping[int, CutSide]
    total_value: float


def private_min_st_cut(
    g: Graph,
    s: int,
    t: int,
    eps: Epsilon,
    rng: Rng,
    ledger: PrivacyLedger | None = None,
) -> CutSide:
    """Min s-t cut under noise edges, reporting the true cut weight.

    Every vertex other than s and t gets a noise edge to s and one to
    t, each an independent exponential with mean 1/eps stacked onto any
    existing weight. The noised instance is cut exactly and the side
    found is returned with its weight recomputed in the input graph.
    With an infinite budget this is exactly min_st_cut_exact and
    consumes no randomness.
    """
    if not g.has_vertex(s) or not g.has_vertex(t):
        raise ValueError("cut endpoints must be graph vertices")
    if s == t:
        raise ValueError("cut endpoints must differ")
    mean = 1.0 / eps.value
    if ledger is not None:
        ledger.charge("private_st_cut", 1.0, mean)
    if eps.is_noiseless:
        return min_st_cut_exact(g, s, t).cut
    weights = dict(g._weights)
    for v in g.vertices:
        if v == s or v == t:
            continue
        for end in (s, t):
            key = (v, end) if v < end else (end, v)
            w = weights.get(key, 0.0) + sample_exponential(mean, rng)
            if w > 0.0:  # a zero draw on a non-edge adds no edge
                weights[key] = w
    side = min_cut_source_side(Graph._trusted(g.vertices, weights), s, t)
    return CutSide(side=side, value=cut_weight(g, side))


def private_min_ST_cut(
    g: Graph,
    S: Iterable[int],
    T: Iterable[int],
    eps: Epsilon,
    rng: Rng,
    ledger: PrivacyLedger | None = None,
) -> CutSide:
    """Private minimum cut separating vertex set S from vertex set T.

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
    if len(S) == 1 and len(T) == 1:
        return private_min_st_cut(g, S[0], T[0], eps, rng, ledger)
    blocks = [block for block in (S, T) if len(block) > 1]
    work, label = contract(g, *blocks)
    s = label if len(S) > 1 else S[0]
    t = label + len(blocks) - 1 if len(T) > 1 else T[0]
    side = private_min_st_cut(work, s, t, eps, rng, ledger).side
    return make_cut_side(g, (side & g.vertex_set) | set(S))


def min_ST_cut_exact(g: Graph, S: Iterable[int], T: Iterable[int]) -> MaxFlowResult:
    """Minimum cut separating vertex set S from vertex set T.

    The private S-T cut at an infinite budget, which draws nothing. The
    returned side contains all of S and none of T, and singleton sides
    make it exactly min_st_cut_exact(g, s, t).
    """
    cut = private_min_ST_cut(g, S, T, INFINITE, Rng(0))
    return MaxFlowResult(cut=cut, value=cut.value)


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
    from the rest and shrinks every terminal's region to its side of
    that cut. A single private cut on the disjoint union of the
    regions, each with its outside contracted, then produces every
    output simultaneously. The region graphs take one edge scan of g,
    and each output's value reads only the edges at its smaller side.
    Each of the floor(lg(|R|-1)) + 2 private calls runs at
    eps / (lg|R| + 2).

    Region graphs carry a penalty weight between each vertex of
    region-intersect-U and the region's contracted outside, which
    discourages outputs that swallow most of U. An empty U skips the
    penalty entirely.
    """
    R = sorted({int(v) for v in R})
    if len(R) < 2:
        raise ValueError("isolating cuts need at least two terminals")
    if not set(R) <= g.vertex_set:
        raise ValueError("terminals must be graph vertices")
    if not params.U <= g.vertex_set:
        raise ValueError("penalty universe must be a subset of the vertex set")
    eps_call = params.eps.split(math.log2(len(R)) + 2.0)
    regions = [set(g.vertices) for _ in R]
    for i in range((len(R) - 1).bit_length()):
        A = [r for idx, r in enumerate(R) if not (idx >> i) & 1]
        B = [r for idx, r in enumerate(R) if (idx >> i) & 1]
        side = private_min_ST_cut(g, A, B, eps_call, rng.child(f"round.{i}"), ledger).side
        for idx, region in enumerate(regions):
            if (idx >> i) & 1:
                region -= side
            else:
                region &= side
    graphs, t = _contract_complements(g, regions)
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
    combined_weights: dict[tuple[int, int], float] = {}
    sources: list[int] = []
    sinks: list[int] = []
    relabels: list[dict[int, int]] = []
    next_label = 0
    for r, region, h in zip(R, regions, graphs):
        # Labels rise with h's vertex order, so relabelled keys stay canonical.
        relabel = {v: next_label + i for i, v in enumerate(h.vertices)}
        next_label += h.n
        for (u, v), w in h._weights.items():
            combined_weights[relabel[u], relabel[v]] = w
        if penalty > 0.0:
            for u in sorted(region & params.U):
                key = (relabel[u], relabel[t])  # t, the contracted outside, is h's largest vertex
                combined_weights[key] = combined_weights.get(key, 0.0) + penalty
        sources.append(relabel[r])
        sinks.append(relabel[t])
        relabels.append(relabel)
    combined = Graph._trusted(tuple(range(next_label)), combined_weights)
    side = private_min_ST_cut(combined, sources, sinks, eps_call, rng.child("combined"), ledger).side
    cuts = {
        r: make_cut_side(g, [v for v in region if relabel[v] in side])
        for r, region, relabel in zip(R, regions, relabels)
    }
    total = sum(cuts[r].value for r in R)
    return IsoCutsResult(cuts=cuts, total_value=total)


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
