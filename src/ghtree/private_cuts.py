"""Private cut primitives: noised min s-t cuts and isolating cuts.

The s-t mechanism attaches exponentially distributed noise edges from
every vertex to both endpoints and solves the noised instance exactly,
reporting the true weight of the side it found. The S-T cut is the
exact module's S-T reduction with this mechanism as its s-t oracle.
The isolating-cut routine runs the exact module's bit partition with
the private S-T cut and, to keep regions from ballooning, adds a
penalty weight between each region's terminals-of-interest and its
contracted outside before the final combined cut. The pipeline's
default constants live here, the lowest module that uses one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

from ._maxflow import min_cut_source_side
from .dp import Epsilon, PrivacyLedger, Rng, sample_exponential
from .exact import _isolating_regions, _isolating_terminals, _reduce_ST_cut, min_st_cut_exact
from .graph import CutSide, Graph, _disjoint_cut_sides, cut_weight

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
    mean = 0.0 if eps.is_noiseless else 1.0 / eps.value
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

    Contracts each side into a supernode and runs the s-t mechanism.
    Singleton sides skip contraction, so a call with |S| = |T| = 1 is
    bit-for-bit the same as private_min_st_cut under the same stream.
    """
    return _reduce_ST_cut(g, S, T, lambda h, s, t: private_min_st_cut(h, s, t, eps, rng, ledger))


def private_isolating_cuts(
    g: Graph,
    R: Iterable[int],
    params: IsoCutParams,
    rng: Rng,
    ledger: PrivacyLedger | None = None,
) -> IsoCutsResult:
    """Private minimum isolating cuts for all terminals in R at once.

    Terminals are identified with 0..|R|-1 in vertex order. One private
    S-T cut per bit position refines disjoint regions, then a single
    private cut on the disjoint union of the contracted regions
    produces every output simultaneously. The region graphs and the
    outputs' cut values each take one edge scan of g. Each of the
    floor(lg(|R|-1)) + 2 private calls runs at eps / (lg|R| + 2).

    Region graphs carry a penalty weight between each vertex of
    region-intersect-U and the region's contracted outside, which
    discourages outputs that swallow most of U. An empty U skips the
    penalty entirely.
    """
    R = _isolating_terminals(g, R)
    if not params.U <= g.vertex_set:
        raise ValueError("penalty universe must be a subset of the vertex set")
    eps_call = params.eps.split(math.log2(len(R)) + 2.0)
    regions = _isolating_regions(
        g, R, lambda i, A, B: private_min_ST_cut(g, A, B, eps_call, rng.child(f"round.{i}"), ledger).side
    )
    if params.U and not params.eps.is_noiseless:
        penalty = (
            params.penalty_const
            * (g.n + math.log2(1.0 / params.beta))
            * math.log2(len(R)) ** 2
            / (params.eps.value * len(params.U))
        )
        if math.isinf(penalty):
            raise ValueError(f"penalty weight overflows at eps={params.eps.value!r}")
    else:
        penalty = 0.0
    combined_weights: dict[tuple[int, int], float] = {}
    sources: list[int] = []
    sinks: list[int] = []
    relabels: list[dict[int, int]] = []
    next_label = 0
    for r, region, h, t in regions:
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
    sides = [
        [v for v in region if relabel[v] in side]
        for (_, region, _, _), relabel in zip(regions, relabels)
    ]
    cuts = dict(zip(R, _disjoint_cut_sides(g, sides)))
    total = sum(cuts[r].value for r in R)
    return IsoCutsResult(cuts=cuts, total_value=total)
