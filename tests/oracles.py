"""Independent reference implementations used only by the test suite.

Everything here is deliberately brute force: enumerate all candidates,
never share a shortcut with the package, so a bug in the implementation
cannot be mirrored by the oracle.  Exponential in n; callers keep n small.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from itertools import combinations

import numpy as np

from ghtree import (
    INFINITE,
    CutSide,
    Graph,
    MaxFlowResult,
    Rng,
    SteinerTree,
    contract,
    cut_weight,
    make_cut_side,
    min_st_cut_exact,
    private_min_ST_cut,
    sample_exponential,
)

BRUTE_FORCE_LIMIT = 20


def vertex_bits(g: Graph) -> dict:
    """Map each vertex to its bit position in subset masks (sorted order)."""
    return {v: i for i, v in enumerate(g.vertices)}


def all_cut_values(g: Graph) -> np.ndarray:
    """Value of every vertex subset as a cut, indexed by bitmask.

    Entry [mask] is the total weight of edges with exactly one endpoint
    in the subset encoded by mask.  Entries 0 and 2^n - 1 are 0.0.
    """
    bits = vertex_bits(g)
    n = len(g.vertices)
    masks = np.arange(1 << n, dtype=np.int64)
    values = np.zeros(1 << n, dtype=np.float64)
    for u, v, w in g.edges():
        crossing = ((masks >> bits[u]) & 1) != ((masks >> bits[v]) & 1)
        values[crossing] += w
    return values


def scan_cut_weight(g: Graph, side) -> float:
    """Weight of the edges leaving ``side``, found by a scan of every edge and exactly rounded by ``math.fsum``."""
    side = set(side)
    return math.fsum(w for u, v, w in g.edges() if (u in side) != (v in side))


def exact_cut_weight(g: Graph, side) -> float:
    """Weight of the edges leaving ``side``, summed exactly as fractions and rounded once to the nearest float."""
    side = set(side)
    return exact_partition_value(g, [side, g.vertex_set - side])


def side_from_mask(g: Graph, mask: int) -> frozenset:
    bits = vertex_bits(g)
    return frozenset(v for v in g.vertices if (mask >> bits[v]) & 1)


def adjacency(g: Graph, v) -> list:
    """Neighbours of v with edge weights, sorted by neighbour."""
    if not g.has_vertex(v):
        raise ValueError(f"vertex {v} not in graph")
    return sorted((b if a == v else a, w) for a, b, w in g.edges() if v in (a, b))


def degree(g: Graph, v) -> int:
    return len(adjacency(g, v))


def brute_force_min_cut(g: Graph, s, t) -> MaxFlowResult:
    """Minimum s-t cut by enumerating every side containing s.

    Refuses graphs with more than 20 vertices. Ties resolve to the
    lexicographically smallest side under the vertex order.
    """
    if g.n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force refuses graphs with more than {BRUTE_FORCE_LIMIT} vertices")
    if not g.has_vertex(s) or not g.has_vertex(t):
        raise ValueError("cut endpoints must be graph vertices")
    if s == t:
        raise ValueError("cut endpoints must differ")
    others = [v for v in g.vertices if v != s]
    t_bit = 1 << others.index(t)
    best_w = None
    best_side = None
    for mask in range(1 << len(others)):
        if mask & t_bit:
            continue
        side = frozenset([s] + [v for i, v in enumerate(others) if (mask >> i) & 1])
        w = cut_weight(g, side)
        key = tuple(sorted(side))
        if best_w is None or w < best_w or (w == best_w and key < best_side):
            best_w = w
            best_side = key
    cut = CutSide(side=frozenset(best_side), value=best_w)
    return MaxFlowResult(cut=cut, value=best_w)


def brute_min_st_value(g: Graph, s, t) -> float:
    """Minimum weight over all sides containing s and excluding t."""
    bits = vertex_bits(g)
    values = all_cut_values(g)
    masks = np.arange(len(values), dtype=np.int64)
    ok = (((masks >> bits[s]) & 1) == 1) & (((masks >> bits[t]) & 1) == 0)
    return float(values[ok].min())


def brute_min_ST_value(g: Graph, S, T) -> float:
    """Minimum weight over all sides containing all of S and none of T."""
    bits = vertex_bits(g)
    values = all_cut_values(g)
    masks = np.arange(len(values), dtype=np.int64)
    ok = np.ones(len(values), dtype=bool)
    for s in S:
        ok &= ((masks >> bits[s]) & 1) == 1
    for t in T:
        ok &= ((masks >> bits[t]) & 1) == 0
    return float(values[ok].min())


def brute_minimal_ST_side(g: Graph, S, T) -> frozenset:
    """Intersection of all minimum-weight sides containing S and none of T.

    Ties are found by equality, so the weights must sum exactly, as
    quarter integers do.
    """
    bits = vertex_bits(g)
    values = all_cut_values(g)
    masks = [
        m
        for m in range(len(values))
        if all((m >> bits[s]) & 1 for s in S) and not any((m >> bits[t]) & 1 for t in T)
    ]
    best = min(values[m] for m in masks)
    return frozenset.intersection(*(side_from_mask(g, m) for m in masks if values[m] == best))


def brute_isolating_values(g: Graph, terminals) -> dict:
    """Per-terminal minimum isolating cut values, each solved separately."""
    out = {}
    for r in terminals:
        others = [t for t in terminals if t != r]
        out[r] = brute_min_ST_value(g, [r], others)
    return out


def brute_global_min_value(g: Graph) -> float:
    """Minimum cut value over all nonempty proper subsets."""
    values = all_cut_values(g)
    return float(values[1:-1].min())


def brute_min_cut_side(g: Graph, normalize=True) -> tuple:
    """(value, side) of a global minimum cut; smallest-index side on ties.

    With normalize, a side and its complement count as the same cut and
    the representative containing vertex 0 of the sorted order is kept.
    """
    values = all_cut_values(g)
    n = len(g.vertices)
    best_value = None
    best_side = None
    for mask in range(1, (1 << n) - 1):
        if normalize and not (mask & 1):
            continue
        value = float(values[mask])
        side = tuple(sorted(side_from_mask(g, mask)))
        if (
            best_value is None
            or value < best_value - 1e-12
            or (abs(value - best_value) <= 1e-12 and side < best_side)
        ):
            best_value = value
            best_side = side
    return best_value, frozenset(best_side)


def partitions_into_k(items, k):
    """All set partitions of items into exactly k nonempty blocks.

    Restricted growth strings; items order fixes block identity, so each
    partition is produced once.
    """
    items = list(items)
    n = len(items)
    if k < 1 or k > n:
        return
    codes = [0] * n

    def rec(i: int, used: int):
        if i == n:
            if used == k:
                blocks = [[] for _ in range(k)]
                for item, c in zip(items, codes):
                    blocks[c].append(item)
                yield tuple(frozenset(b) for b in blocks)
            return
        limit = min(used + 1, k)
        for c in range(limit):
            codes[i] = c
            yield from rec(i + 1, max(used, c + 1))

    yield from rec(0, 0)


def partition_cut_value(g: Graph, blocks) -> float:
    """Total weight of edges whose endpoints lie in different blocks."""
    owner = {}
    for idx, block in enumerate(blocks):
        for v in block:
            owner[v] = idx
    return sum(w for u, v, w in g.edges() if owner[u] != owner[v])


def exact_partition_value(g: Graph, blocks) -> float:
    """``partition_cut_value`` summed exactly as fractions and rounded once to the nearest float."""
    owner = {v: i for i, block in enumerate(blocks) for v in block}
    return float(sum(Fraction(w) for u, v, w in g.edges() if owner[u] != owner[v]))


def tree_k_cut_parts(tree: SteinerTree, g: Graph, k: int) -> tuple:
    """The parts of ``min_k_cut`` by its definition, one removed tree edge at a time.

    Each of the k-1 lightest tree edges (by weight, then ends) splits
    the tree in two; every edge of g that crosses the preimage of either
    half is deleted. Deleted edges come back heaviest first (ties by
    ends) while they merge two of more than k components, and any
    surplus left merges into the component of the smallest vertex, in
    order of each component's smallest vertex. Parts are sorted by their
    smallest vertex.
    """
    lightest = sorted(tree.edges, key=lambda e: (e[2], e[0], e[1]))[: k - 1]
    cut = set()
    for a, b, _ in lightest:
        half = {a}
        grown = True
        while grown:
            grown = False
            for x, y, _ in tree.edges:
                if {x, y} != {a, b} and (x in half) != (y in half):
                    half |= {x, y}
                    grown = True
        side = {v for v, t in tree.f.items() if t in half}
        cut |= {(x, y, w) for x, y, w in g.edges() if (x in side) != (y in side)}
    comp = {v: v for v in g.vertices}  # each vertex's component, named by its smallest vertex

    def merge(x, y) -> bool:
        cx, cy = sorted((comp[x], comp[y]))
        for v in comp:
            if comp[v] == cy:
                comp[v] = cx
        return cx != cy

    for x, y, w in g.edges():
        if (x, y, w) not in cut:
            merge(x, y)
    for x, y, _ in sorted(cut, key=lambda e: (-e[2], e[0], e[1])):
        if len(set(comp.values())) > k:
            merge(x, y)
    names = sorted(set(comp.values()))
    for name in names[1 : len(names) - k + 1]:
        merge(names[0], name)
    parts = {}
    for v in g.vertices:
        parts.setdefault(comp[v], set()).add(v)
    return tuple(frozenset(p) for p in sorted(parts.values(), key=min))


def brute_k_cut_value(g: Graph, k: int) -> float:
    """Optimal k-cut value by exhaustive partition enumeration."""
    return min(
        partition_cut_value(g, blocks)
        for blocks in partitions_into_k(g.vertices, k)
    )


def tree_claims_all_pairs(tree, g) -> dict:
    """Min tree-path edge weight for every vertex pair, from the tree alone."""
    from ghtree import min_edge_on_path

    out = {}
    for u, v in combinations(sorted(tree.node_set), 2):
        out[(u, v)] = min_edge_on_path(tree, u, v)[2]
    return out


def tree_neighbours(tree) -> dict:
    """Each tree node's neighbours, read off ``tree.edges``."""
    nbrs = {x: [] for x in tree.nodes}
    for a, b, _ in tree.edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
    return nbrs


def tree_path(tree, u, v) -> list:
    """Node sequence of the unique tree path from u to v, inclusive."""
    if u not in tree.node_set or v not in tree.node_set:
        raise ValueError("path endpoints must be tree nodes")
    nbrs = tree_neighbours(tree)
    parent = {u: u}
    stack = [u]
    while stack:
        x = stack.pop()
        for y in nbrs[x]:
            if y not in parent:
                parent[y] = x
                stack.append(y)
    path = [v]
    while path[-1] != u:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def min_edge_on_path(tree, u, v) -> tuple:
    """Minimum edge (a, b, w) on ``tree_path``, a nearer u; ties go to the edge nearest u."""
    path = tree_path(tree, u, v)
    if len(path) < 2:
        raise ValueError("path has no edges")
    weight = {}
    for a, b, w in tree.edges:
        weight[a, b] = weight[b, a] = w
    best = None
    for a, b in zip(path, path[1:]):
        if best is None or weight[a, b] < best[2]:
            best = (a, b, weight[a, b])
    return best


def component_nodes(tree, drop, anchor) -> frozenset:
    """Tree nodes reached from ``anchor`` by a DFS that never crosses edge ``drop``."""
    nbrs = tree_neighbours(tree)
    reached = set()

    def visit(x):
        reached.add(x)
        for y in nbrs[x]:
            if y not in reached and {x, y} != set(drop):
                visit(y)

    visit(anchor)
    return frozenset(reached)


def contract_one(g: Graph, block) -> tuple:
    """One block contracted into max(V) + 1 through the public constructor.

    Edges are relabelled in canonical order and merged by ``Graph``, so a
    vertex's edges into the block are summed in increasing block-vertex
    order. Sequential calls are the reference for contracting several
    blocks at once.
    """
    b = set(block)
    label = g.vertices[-1] + 1
    edges = [(label if u in b else u, label if v in b else v, w) for u, v, w in g.edges()]
    kept = [(u, v, w) for u, v, w in edges if u != v]
    return Graph([v for v in g.vertices if v not in b] + [label], kept), label


def scan_contract(g: Graph, *blocks) -> tuple:
    """``contract`` as one scan over every edge, the reference for the package's.

    Blocks must be nonempty and pairwise disjoint. Every edge is read in
    canonical order: an edge between two blocks goes into a per-vertex
    sum into the earlier block, any other edge not inside a block is
    added to its relabelled pair, and the sums between blocks are added
    last, in increasing order of (later-block vertex, earlier label).
    """
    label = g.vertices[-1] + 1
    to = {v: label + i for i, block in enumerate(blocks) for v in block}
    weights = {}
    into_earlier = {}
    for u, v, w in g.edges():
        fu = to.get(u, u)
        fv = to.get(v, v)
        if fu == fv:
            continue
        if fu != u and fv != v:
            key = (v, fu) if fu < fv else (u, fv)
            into_earlier[key] = into_earlier.get(key, 0.0) + w
            continue
        key = (fu, fv) if fu < fv else (fv, fu)
        weights[key] = weights.get(key, 0.0) + w
    for (b, earlier), w in sorted(into_earlier.items()):
        key = (earlier, to[b])
        weights[key] = weights.get(key, 0.0) + w
    vertices = [v for v in g.vertices if v not in to] + list(range(label, label + len(blocks)))
    return Graph(vertices, [(u, v, w) for (u, v), w in weights.items()]), label


def contract_by_sorting(g: Graph, *blocks) -> tuple:
    """``contract`` on a copy of g's edge store, re-sorted as a whole.

    Blocks must be nonempty and pairwise disjoint. Each edge at a block
    is popped from the copy in canonical order and its weight added to
    its relabelled pair, with the sums between blocks added last, as
    ``scan_contract`` orders them; then ``Graph._trusted`` sorts every
    key. The reference for the package's merge of new keys into the kept
    ones.
    """
    label = g.vertices[-1] + 1
    to = {v: label + i for i, block in enumerate(blocks) for v in block}
    weights = dict(g._weights)
    into_earlier = {}
    for u, v, w in g.edges():
        if u not in to and v not in to:
            continue
        del weights[u, v]
        fu = to.get(u, u)
        fv = to.get(v, v)
        if fu == fv:
            continue
        if fu != u and fv != v:
            key = (v, fu) if fu < fv else (u, fv)
            into_earlier[key] = into_earlier.get(key, 0.0) + w
            continue
        key = (fu, fv) if fu < fv else (fv, fu)
        weights[key] = weights.get(key, 0.0) + w
    for (b, earlier), w in sorted(into_earlier.items()):
        key = (earlier, to[b])
        weights[key] = weights.get(key, 0.0) + w
    vertices = tuple(v for v in g.vertices if v not in to) + tuple(range(label, label + len(blocks)))
    return Graph._trusted(vertices, weights), label


def checked_combine(backbone: SteinerTree, children) -> SteinerTree:
    """``combine_steiner`` through the checked constructor, the reference for the package's join.

    The nodes, the edges and the vertex maps of every tree are pooled,
    with each child's new edge and without the supernodes, and
    ``SteinerTree`` validates and sorts the whole tree again.
    """
    ys = {y for _, _, y, _ in children}
    nodes = set(backbone.nodes)
    edges = list(backbone.edges)
    f = {v: t for v, t in backbone.f.items() if v not in ys}
    for child, x, y, w in children:
        nodes |= child.node_set
        edges += child.edges
        edges.append((child.f[x], backbone.f[y], w))
        f.update((v, t) for v, t in child.f.items() if v != x)
    return SteinerTree(sorted(nodes), edges, f)


def loop_network(g: Graph) -> tuple:
    """The flow network of g, its arc arrays grown one edge at a time.

    Edge k of the canonical order becomes arc 2k (u -> v) and arc 2k+1
    (v -> u), both with capacity w, appended to each endpoint's arc list.
    Returns (vertex index, each position's vertex, arc lists, arc heads,
    capacities).
    """
    index = {v: i for i, v in enumerate(g.vertices)}
    adj = [[] for _ in index]
    heads = []
    caps = []
    for u, v, w in g.edges():
        adj[index[u]].append(len(heads))
        adj[index[v]].append(len(heads) + 1)
        heads += (index[v], index[u])
        caps += (w, w)
    return index, list(g.vertices), adj, heads, caps


def noised_graph(g: Graph, s, t, eps, rng) -> Graph:
    """The noise-edge s-t mechanism's noised graph, built by ``Graph``; g itself at an infinite budget.

    Draws in the mechanism's order: for each vertex other than s and t,
    in vertex order, the noise on its edge to s, then to t. The
    validating constructor stacks each draw onto any existing weight
    after it and drops pairs that sum to 0.0.
    """
    if eps.is_noiseless:
        return g
    mean = 1.0 / eps.value
    additions = []
    for v in g.vertices:
        if v != s and v != t:
            additions.append((v, s, sample_exponential(mean, rng)))
            additions.append((v, t, sample_exponential(mean, rng)))
    return Graph(g.vertices, list(g.edges()) + additions)


def private_min_st_cut(g: Graph, s, t, eps, rng) -> frozenset:
    """The noise-edge s-t mechanism: the side found in ``noised_graph``."""
    return min_st_cut_exact(noised_graph(g, s, t, eps, rng), s, t).cut.side


def bit_partition_regions(g: Graph, R, round_sides) -> list:
    """Each terminal's region after the isolating cuts' rounds.

    Terminals are identified with 0..|R|-1 in vertex order; round i
    shrinks every terminal's region to its side of ``round_sides[i]``,
    the cut separating the terminals whose bit i is 0 from the rest.
    """
    R = sorted(R)
    regions = [set(g.vertices) for _ in R]
    for i, side in enumerate(round_sides):
        for idx, region in enumerate(regions):
            if (idx >> i) & 1:
                region -= side
            else:
                region &= side
    return regions


def isolating_cuts_per_region(g: Graph, R) -> dict:
    """Isolating cuts by the bit partition, then one exact flow per region.

    Each round's side is an exact S-T cut. Each region's graph, its
    outside contracted into one vertex, then gets its own minimal min
    cut. The reference for the package's single combined cut over all
    regions.
    """
    R = sorted(R)
    round_sides = []
    for i in range((len(R) - 1).bit_length()):
        A = [r for idx, r in enumerate(R) if not (idx >> i) & 1]
        B = [r for idx, r in enumerate(R) if (idx >> i) & 1]
        round_sides.append(private_min_ST_cut(g, A, B, INFINITE, Rng(0)))
    cuts = {}
    for r, region in zip(R, bit_partition_regions(g, R, round_sides)):
        h, t = contract(g, g.vertex_set - region)
        cuts[r] = make_cut_side(g, min_st_cut_exact(h, r, t).cut.side)
    return cuts


def contract_complements(g: Graph, regions) -> tuple:
    """Each of several disjoint regions W with its outside contracted, in one edge scan.

    Every region graph labels the contracted outside max(V) + 1, the
    label returned. An edge inside a region is copied over; an edge
    leaving a region is added to (vertex, outside) in canonical edge
    order. The reference for ``contract(g, V - W)``.
    """
    owner = {v: i for i, region in enumerate(regions) for v in region}
    label = g.vertices[-1] + 1
    weights = [{} for _ in regions]
    for (u, v), w in g._weights.items():
        ru = owner.get(u)
        rv = owner.get(v)
        if ru == rv:
            if ru is not None:
                weights[ru][u, v] = w
            continue
        if ru is not None:
            d = weights[ru]
            d[u, label] = d.get((u, label), 0.0) + w
        if rv is not None:
            d = weights[rv]
            d[v, label] = d.get((v, label), 0.0) + w
    graphs = [
        Graph(sorted(region) + [label], [(u, v, w) for (u, v), w in d.items()])
        for region, d in zip(regions, weights)
    ]
    return graphs, label


def isolating_union(g: Graph, R, regions, params) -> tuple:
    """The graph the isolating cuts' combined cut runs on, built region by region.

    Each region's graph comes from ``contract_complements`` and is
    relabelled in turn from 0: its vertices in vertex order, then its
    contracted outside t. A penalty weight, computed from ``params`` as
    ``private_isolating_cuts`` does, is added between each vertex of
    region-intersect-U and t unless U is empty. Returns (graph, sources, sinks), the
    terminals' and the outsides' new labels.
    """
    R = sorted(R)
    graphs, t = contract_complements(g, regions)
    penalty = 0.0
    if params.U:
        penalty = (
            params.penalty_const
            * (g.n + math.log2(1.0 / params.beta))
            * math.log2(len(R)) ** 2
            / (params.eps.value * len(params.U))
        )
    weights = {}
    sources, sinks = [], []
    next_label = 0
    for r, region, h in zip(R, regions, graphs):
        relabel = {v: next_label + i for i, v in enumerate(h.vertices)}
        next_label += h.n
        for u, v, w in h.edges():
            weights[relabel[u], relabel[v]] = w
        if penalty > 0.0:
            for u in sorted(region & params.U):
                key = (relabel[u], relabel[t])
                weights[key] = weights.get(key, 0.0) + penalty
        sources.append(relabel[r])
        sinks.append(relabel[t])
    union = Graph(range(next_label), [(u, v, w) for (u, v), w in weights.items()])
    return union, sources, sinks


def arc_sums(adj, head, cap, s, t) -> list:
    """(x, c_s, c_t, r) for each vertex x of a flow network other than s and t.

    c_s and c_t are the capacities of x's arcs to s and to t, and r the
    total of its other arcs, each added in the order of x's arc list:
    the sums ``ghtree.private_cuts.bit_round_codes`` reads from an edge
    scan instead of the noised graph's network.
    """
    out = []
    for x, arcs in enumerate(adj):
        if x in (s, t):
            continue
        cs = ct = r = 0.0
        for a in arcs:
            if head[a] == s:
                cs += cap[a]
            elif head[a] == t:
                ct += cap[a]
            else:
                r += cap[a]
        out.append((x, cs, ct, r))
    return out


def residual_distances(adj, head, cap, t) -> list:
    """Residual distance to t of every position of a flow network, -1 where t is out of reach.

    A plain FIFO BFS from t over the arcs with ``cap > 0.0``, followed
    backwards: the arc lists are scanned once for each arc's tail, so
    nothing assumes arcs come in pairs.
    """
    into = [[] for _ in adj]
    for x, arcs in enumerate(adj):
        for a in arcs:
            if cap[a] > 0.0:
                into[head[a]].append(x)
    dist = [-1] * len(adj)
    dist[t] = 0
    queue = deque([t])
    while queue:
        u = queue.popleft()
        for x in into[u]:
            if dist[x] < 0:
                dist[x] = dist[u] + 1
                queue.append(x)
    return dist


def dinic_levels_full_bfs(adj, head, cap, s, t) -> list:
    """The Dinic kernel with a full BFS per phase, the reference for the package's.

    Same arc arrays and the same in-place updates of ``cap`` as
    ``ghtree._maxflow._dinic_levels``, but each phase labels levels from
    s, with a forward BFS over every vertex s reaches, where the kernel
    labels distances to t and stops once it labels s. The DFS follows
    the full level graph, dead ends included, and the augmenting path's
    bottleneck and first saturated arc are found in two scans.
    """
    n = len(adj)
    while True:
        level = [-1] * n
        level[s] = 0
        queue = [s]
        for u in queue:
            lv = level[u] + 1
            for a in adj[u]:
                v = head[a]
                if level[v] < 0 and cap[a] > 0.0:
                    level[v] = lv
                    queue.append(v)
        if level[t] < 0:
            return level
        it = [0] * n
        path = []
        u = s
        while True:
            if u == t:
                delta = min(cap[a] for a in path)
                for a in path:
                    cap[a] -= delta
                    cap[a ^ 1] += delta
                nd = 0
                while nd < len(path) and cap[path[nd]] > 0.0:
                    nd += 1
                del path[nd:]
                u = head[path[-1]] if path else s
                continue
            arcs = adj[u]
            lv = level[u] + 1
            for i in range(it[u], len(arcs)):
                a = arcs[i]
                if cap[a] > 0.0 and level[head[a]] == lv:
                    it[u] = i
                    path.append(a)
                    u = head[a]
                    break
            else:
                if u == s:
                    break
                level[u] = -2
                path.pop()
                u = head[path[-1]] if path else s
                it[u] += 1


class RaisingRng(Rng):
    """A stream that fails on any draw, and whose children do too."""

    def child(self, label: str) -> "RaisingRng":
        return RaisingRng(self.seed)

    def uniform(self) -> float:
        raise AssertionError("a draw was made")

    def integer(self, n: int) -> int:
        raise AssertionError("a draw was made")

    def permutation(self, n: int) -> list[int]:
        raise AssertionError("a draw was made")
