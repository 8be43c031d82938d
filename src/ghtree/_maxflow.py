"""Dinic max-flow on plain Python lists, used for every min-cut call.

A network holds a vertex index, each position's vertex, each
position's arc ids, and the arcs' heads and capacities. A network built
from a graph's edge store numbers its arcs in store order: the k-th
edge becomes arc 2k (u -> v) and arc 2k+1 (v -> u), both with the edge
weight as capacity, so the reverse of arc ``a`` is ``a ^ 1``; position
i holds the i-th vertex and lists its arc ids in increasing order. The
store lists each vertex's edges in canonical order (``graph``'s
docstring), so each arc list is in canonical edge order, and that is
all the kernel reads. The kernel returns the final BFS level list:
positions still reachable from the source in the residual network form
the minimal source-side min cut, which is the tie-break every caller
relies on.

Each phase labels vertices by residual distance to the sink t, and the
DFS from s takes only arcs that lower that distance by one. This
changes no augmentation. A walk along such arcs stays on shortest
residual s-t paths, so they are the arcs of the level graph from s
minus those into vertices that cannot reach t; a DFS over the full
level graph would enter such a vertex, change no capacity and move
past the arc. So the DFS pushes the same paths in the same order and
does the same float arithmetic. The BFS goes level by level. Before it
expands level k it stops, with s at k + 1, if s has a residual arc
into level k. It expands top-down, over each frontier vertex's reverse
arcs, while the frontier holds fewer vertices than are unlabelled,
else bottom-up: each unlabelled position takes the first residual arc
in its list into level k (Beamer, Asanovic and Patterson, SC 2012).
Both label exactly the vertices one residual arc from level k, so the
levels below s's are exact. The DFS reads only them and s, and an
unlabelled vertex of s's level matches no lower level, as a labelled
one would not. A vertex at level 1 takes its arc into t from a map
built once per flow, and is a dead end if that arc is saturated: t is
the only level-0 vertex and a network holds one arc pair per vertex
pair, so that arc is all a scan of its list could find. The last
phase's BFS never labels s and so runs to the end, leaving unlabelled
exactly the empty positions and the vertices that cannot reach t. A
forward BFS from s then labels the reachable set, which lies among
them, so it stops once it has labelled ``dist.count(-1) - empty``
vertices.

The kernel also stops at the push that closes the last residual arc
out of s or into t. An augmenting path is a shortest residual path, so
it never enters s or leaves t. A push raises only the reverses of the
path's arcs, none of which leaves s or enters t, and of the arcs out
of s and into t it lowers only the path's first and last. So a push
can close such an arc but never reopen one, and the kernel counts the
open ones: at the start from s's arc list and the last-hop map, then
after each push from the path's first and last arcs. Once either count
is 0, no augmenting path is left, and the rest of the phase would push
nothing and so change no capacity. So the kernel goes straight to the
forward BFS from s. If no arc out of s is open, that BFS labels s
alone. If no arc into t is open, the next phase's BFS would have
labelled t alone, so the forward BFS stops once it has labelled
``n - 1 - empty`` vertices. The counts are read only after a push, so
a flow that starts with no open arc at s or t still runs its first
BFS, which finds s out of reach.

A graph's network is made on first use and kept on the graph, so every
flow, cut weight and contraction on one graph object share it; each
flow works on its own copy of the capacities, and as graphs are
immutable the network never goes stale. A constructed graph builds it
in one pass over preallocated arrays. A contraction reads the edges at
its blocks from their arc lists (``edges_at``) and leaves its result
the parent's network with a patch that the result's first use applies,
so a result never cut copies nothing. The patch copies the arrays,
empties each block vertex's position, drops the arcs into the blocks
from their neighbours' lists, puts the labels after all other
positions and appends the new edges, each at a label, as arc pairs in
canonical key order; if over half the arcs would then be dead, the
result builds fresh instead. Positions follow vertex order, as labels
exceed every vertex, and each vertex lists its arcs in canonical edge
order: its kept arcs in their old order, then the new ones, whose keys
hold a label. So Dinic pushes the same flows, and its last BFS leaves
the empty positions out of its stop count. A cut weight is the
``math.fsum`` of the crossing arcs' capacities at the smaller of the
side and its complement: the exact sum rounded once, so it depends on
the side alone, not on arc ids, network kind or the side walked.

``min_cut_source_side`` is the one caller of Dinic. The s-t mechanism,
and each round of the isolating cuts, cuts a noised graph: the input
with the round's blocks contracted into s and t and noise added onto
each other vertex's edges to them. ``private_cuts.bit_round_codes``
builds it only when ``_decided_side`` cannot take the side from sums
read in one scan of the input's edges: c_s(x) and c_t(x), the
capacities of x's arcs to s and to t in the noised graph's network (0
where it has none), and r(x), the total of its other arcs in the order
of x's arc list, on the symmetric start capacities. If every vertex x
other than s and t with a positive arc has |c_s - c_t| > r, then s plus
the vertices with c_s > c_t is the source side Dinic finds:

- It is the only minimum cut, up to vertices with no positive arc.
  Moving a vertex with c_s > c_t to s's side changes a cut by at most
  c_t + r - c_s < 0, and the other way round likewise.
- Flow from s into a vertex with c_s > c_t leaves it to t or over its
  other arcs, so it is at most c_t + r < c_s and the arc from s keeps
  residual capacity. Likewise at most c_s + r < c_t flows into a vertex
  with c_t > c_s, so its arc to t keeps residual capacity.
- So when Dinic stops, s reaches each s-leaning vertex over its own
  arc, and each t-leaning vertex reaches t over its own. Every arc from
  s or an s-leaning vertex into a t-leaning vertex or t is saturated,
  or an augmenting path would remain, so s reaches exactly the
  s-leaning vertices. The final BFS labels s with 0, them with 1 and
  nothing else, so the side is read off without a flow.

The kernel works in floats, so the check asks for a margin, relative to
a vertex's total capacity W = c_s + c_t + r: |c_s - c_t| - r must
exceed 16 u V^3 W, where u = 2^-53 and V counts s, t and the vertices
with a positive arc. Dinic makes K < V^3 pushes: each saturates an arc
of its phase's level graph, which stays saturated for the phase, one
arc pair joins two vertices, and there are fewer than V phases. A push
rounds cap[a] - d and cap[a ^ 1] + d, each within u of its nonnegative
result. So while K u < 1/16, as a passing check implies, an arc pair's
sum, 2w at the start, stays within 2.2 K u w of it, and a vertex's
total capacity, W at the start, within 4.4 K u W, as each push through
the vertex rounds two of its arcs. Capacities stay nonnegative, so in
exact arithmetic cap[s -> x] = 2 c_s - cap[x -> s] >= 2 c_s - W =
c_s - c_t - r, and cap[x -> t] >= W - 2 c_s - 2 r = c_t - c_s - r. In
floats these bounds lose at most 6.6 K u W, and the check's own sums
round by at most 2 V u W; 16 V^3 u W covers both. A vertex with no
positive arc is never reached and carries no flow. The check stops at
the first vertex with |c_s - c_t| <= r.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    from .graph import Graph

# Read by bench/run.py for its "backend" field; the kernel is never jitted.
USING_NUMBA = False

# A decided vertex's margin must exceed this times V^3 times its total capacity (module docstring).
_SLACK = 16 * 2.0**-53

# Vertex index, each position's vertex (None if empty), per-position arc ids, arc heads and initial capacities.
_Network = tuple[dict[int, int], list[int | None], list[list[int]], list[int], list[float]]


def _residual_levels(adj: list[list[int]], head: list[int], cap: list[float], s: int, t: int) -> list[int]:
    """Residual distance to t by level, ending at s's (module docstring); -1 where unlabelled."""
    n = len(adj)
    dist = [-1] * n
    dist[t] = 0
    frontier = [t]
    left = n - 1  # unlabelled positions, empty ones included
    k = 0
    while frontier:
        for a in adj[s]:
            if dist[head[a]] == k and cap[a] > 0.0:
                dist[s] = k + 1
                return dist
        nxt = []
        if len(frontier) < left:
            # Top-down: head[a] reaches u over a ^ 1.
            for u in frontier:
                for a in adj[u]:
                    v = head[a]
                    if dist[v] < 0 and cap[a ^ 1] > 0.0:
                        dist[v] = k + 1
                        nxt.append(v)
        else:
            # Bottom-up: each unlabelled position takes its first residual arc into level k.
            for v in range(n):
                if dist[v] < 0:
                    for a in adj[v]:
                        if dist[head[a]] == k and cap[a] > 0.0:
                            dist[v] = k + 1
                            nxt.append(v)
                            break
        left -= len(nxt)
        frontier = nxt
        k += 1
    return dist


def _dinic_levels(adj: list[list[int]], head: list[int], cap: list[float], s: int, t: int, empty: int) -> list[int]:
    """Levels of the final forward BFS from s, -1 where s does not reach.

    ``empty`` counts the positions that hold no vertex, which no BFS reaches.
    """
    n = len(adj)
    # Each vertex's one arc into t, for the DFS's last hop.
    last_hop = {head[a]: a ^ 1 for a in adj[t]}
    # Residual arcs into t and out of s: a push can close them, never reopen one.
    open_t = sum(cap[a] > 0.0 for a in last_hop.values())
    open_s = sum(cap[a] > 0.0 for a in adj[s])
    while True:
        dist = _residual_levels(adj, head, cap, s, t)
        if dist[s] < 0:
            # That BFS ran to completion; s reaches only vertices it left unlabelled.
            limit = dist.count(-1) - empty
            break
        it = [0] * n
        path: list[int] = []
        u = s
        while True:
            lv = dist[u] - 1
            if lv:
                arcs = adj[u]
            else:
                # The last hop: t is the only level-0 vertex, and u has one arc into it.
                a = last_hop[u]
                if cap[a] > 0.0:
                    path.append(a)
                    # The first arc of least capacity is the first one saturated:
                    # x - y == 0.0 exactly when x == y, for finite floats.
                    nd = 0
                    delta = cap[path[0]]
                    for i in range(1, len(path)):
                        if cap[path[i]] < delta:
                            delta = cap[path[i]]
                            nd = i
                    for a in path:
                        cap[a] -= delta
                        cap[a ^ 1] += delta
                    if cap[a] == 0.0:  # the last hop
                        open_t -= 1
                    if cap[path[0]] == 0.0:
                        open_s -= 1
                    if not (open_s and open_t):
                        break  # no augmenting path is left
                    del path[nd:]
                    u = head[path[-1]] if path else s
                    continue
                arcs = ()  # that arc is saturated: a dead end
            for i in range(it[u], len(arcs)):
                a = arcs[i]
                if dist[head[a]] == lv and cap[a] > 0.0:
                    it[u] = i
                    path.append(a)
                    u = head[a]
                    break
            else:
                if u == s:
                    break
                dist[u] = -2
                path.pop()
                u = head[path[-1]] if path else s
                it[u] += 1
        if not (open_s and open_t):
            # No augmenting path is left (module docstring).
            limit = n - 1 - empty
            break
    level = [-1] * n
    level[s] = 0
    queue = [s]
    for u in queue:  # FIFO: the loop also visits vertices appended during it
        lv = level[u] + 1
        for a in adj[u]:
            v = head[a]
            if level[v] < 0 and cap[a] > 0.0:
                level[v] = lv
                queue.append(v)
        if len(queue) == limit:
            break
    return level


def _decided_side(sums: Iterable[tuple[int, float, float, float]]) -> list[int] | None:
    """The vertices that lean to s when the arcs to s and t decide every side (module docstring), else None.

    ``sums`` gives (x, c_s, c_t, r) for every vertex x other than s and t.
    """
    side = []
    worst = 1.0
    active = 2  # s, t and every other vertex with a positive arc
    for x, cs, ct, r in sums:
        margin = abs(cs - ct) - r
        if margin <= 0.0:
            if cs or ct or r:
                return None
            continue  # no positive arc: no flow reaches x
        active += 1
        worst = min(worst, margin / (cs + ct + r))
        if cs > ct:
            side.append(x)
    return side if worst > _SLACK * active**3 else None


def _network(g: Graph) -> _Network:
    """The flow network of g, built or patched on first use and kept in the graph's ``_net`` slot."""
    net = g._net
    if net is None:
        index = {v: i for i, v in enumerate(g.vertices)}
        adj: list[list[int]] = [[] for _ in index]
        head = [0] * (2 * g.m)
        cap = [0.0] * len(head)
        cap[::2] = cap[1::2] = list(g._weights.values())
        a = 0
        for u, v in g._weights:
            iu, iv = index[u], index[v]
            adj[iu].append(a)
            adj[iv].append(a + 1)
            head[a], head[a + 1] = iv, iu
            a += 2
        net = g._net = (index, list(g.vertices), adj, head, cap)
    elif len(net) == 3:  # a contraction's pending patch (patch_network)
        net = g._net = _patched(g, *net)
    return net


def patch_network(g: Graph, h: Graph, blocks: Iterable[int], new: list[tuple[tuple[int, int], float]]) -> None:
    """Leave h, g with ``blocks`` contracted, g's network and the patch its first use applies (module docstring).

    ``new`` holds h's edges at the labels, as (key, weight) in canonical key order.
    """
    net = _network(g)
    if len(net[3]) + 2 * len(new) <= 4 * h.m:
        h._net = (net, blocks, new)


def _patched(h: Graph, net: _Network, blocks: Iterable[int], new: list[tuple[tuple[int, int], float]]) -> _Network:
    index, verts, adj, head, cap = net
    index, verts, adj, head, cap = index.copy(), verts[:], adj[:], head[:], cap[:]
    gone = {index.pop(v) for v in blocks}
    for x in {head[a] for i in gone for a in adj[i]} - gone:
        adj[x] = [a for a in adj[x] if head[a] not in gone]
    for i in gone:
        verts[i] = None
        adj[i] = []
    for v in h.vertices[len(index) :]:  # the labels
        index[v] = len(adj)
        verts.append(v)
        adj.append([])
    for (u, v), w in new:
        iu, iv = index[u], index[v]
        adj[iu].append(len(head))
        adj[iv].append(len(head) + 1)
        head += (iv, iu)
        cap += (w, w)
    return index, verts, adj, head, cap


def edges_at(g: Graph, vertices: Iterable[int]) -> list[tuple[int, int, float]]:
    """(v, x, w) for each edge {v, x} of g at each of ``vertices`` in turn, each vertex's edges in canonical order."""
    index, verts, adj, head, cap = _network(g)
    return [(v, verts[head[a]], cap[a]) for v in vertices for a in adj[index[v]]]


def boundary_weight(g: Graph, side: set[int] | frozenset[int]) -> float:
    """Weight of the edges leaving ``side``, a subset of g's vertices, exactly rounded.

    Walks the arcs of the smaller of ``side`` and its complement, so each
    crossing edge is met once, from its end in the walked set. ``math.fsum``
    rounds the exact total once, so equal sides give equal bits whatever
    the arc order, the network or the side walked.
    """
    index, _, adj, head, cap = _network(g)
    walked = side if 2 * len(side) <= g.n else g.vertex_set - side
    inside = {index[v] for v in walked}
    return math.fsum([cap[a] for i in inside for a in adj[i] if head[a] not in inside])


def min_cut_source_side(g: Graph, s: int, t: int) -> frozenset[int]:
    """Minimal side of a minimum s-t cut that contains s.

    Returns the vertices reachable from s in Dinic's final residual
    network. Deterministic for a given graph: each vertex's arc order is
    its edges' canonical order.
    """
    index, verts, adj, head, cap = _network(g)
    level = _dinic_levels(adj, head, cap[:], index[s], index[t], len(adj) - len(index))
    return frozenset(v for v, lv in zip(verts, level) if lv >= 0)
