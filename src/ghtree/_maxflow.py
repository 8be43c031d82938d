"""Dinic max-flow on plain Python lists, used for every exact min-cut call.

Arcs are numbered from the graph's edge store, in canonical edge
order: its k-th edge becomes arc 2k (u -> v) and arc 2k+1 (v -> u),
both with the edge weight as capacity, so the reverse of arc ``a`` is
``a ^ 1``; each vertex lists its arc ids in increasing order. The
kernel returns the final BFS level list: vertices still reachable from
the source in the residual network form the minimal source-side min
cut, which is the tie-break every caller relies on.

A phase's BFS stops after scanning the vertex that labels the sink t,
and every other vertex it put on t's level is unlabelled again. This
changes no augmentation. Levels below t's are complete when t is
reached, and in a full level graph a vertex on t's level other than t,
or beyond it, reaches t by no path of increasing levels: the DFS would
enter it, find a dead end and change no capacity. So the DFS looks at
the same arcs in the same order, pushes the same paths and does the
same float arithmetic. The last BFS, which finds t unreachable, runs to
completion, so the returned reachable set is unchanged as well.

A graph's network is built on first use and kept on the graph, so
every flow and every cut weight on one graph object share it; each flow
works on its own copy of the capacities. Graphs are immutable, so the
network never goes stale. A cut weight walks the arc lists of the
smaller of the side and its complement, and adds the crossing arcs'
capacities in arc order, which is canonical edge order.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .graph import Graph

# Read by bench/run.py for its "backend" field; the kernel is never jitted.
USING_NUMBA = False

# Vertex index, per-vertex arc ids, arc heads and initial capacities.
_Network = tuple[dict[int, int], list[list[int]], list[int], list[float]]


def _dinic_levels(adj: list[list[int]], head: list[int], cap: list[float], s: int, t: int) -> list[int]:
    n = len(adj)
    while True:
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
            if level[t] >= 0:
                break
        else:
            return level
        # Unlabel the rest of t's level, so the DFS never enters those dead ends.
        lt = level[t]
        for v in reversed(queue):
            if level[v] != lt:
                break
            level[v] = -1
        level[t] = lt
        it = [0] * n
        path: list[int] = []
        u = s
        while True:
            if u == t:
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


def _network(g: Graph) -> _Network:
    """The flow network of g, built on first use and kept in the graph's ``_net`` slot."""
    net = g._net
    if net is not None:
        return net
    index = {v: i for i, v in enumerate(g.vertices)}
    adj: list[list[int]] = [[] for _ in index]
    head: list[int] = []
    cap: list[float] = []
    for (u, v), w in g._weights.items():
        iu, iv = index[u], index[v]
        adj[iu].append(len(head))
        adj[iv].append(len(head) + 1)
        head += (iv, iu)
        cap += (w, w)
    net = g._net = (index, adj, head, cap)
    return net


def boundary_weight(g: Graph, side: set[int] | frozenset[int]) -> float:
    """Weight of the edges leaving ``side``, a subset of g's vertices.

    Walks the arcs of the smaller of ``side`` and its complement. Each
    crossing edge k is met once, as arc 2k or 2k+1, so the sorted arcs
    add the weights from 0.0 in canonical edge order.
    """
    index, adj, head, cap = _network(g)
    walked = side if 2 * len(side) <= g.n else g.vertex_set - side
    inside = {index[v] for v in walked}
    crossing = sorted(a for i in inside for a in adj[i] if head[a] not in inside)
    total = 0.0
    for a in crossing:  # not sum(), which compensates from Python 3.12 on
        total += cap[a]
    return total


def min_cut_source_side(g: Graph, s: int, t: int) -> frozenset[int]:
    """Minimal side of a minimum s-t cut that contains s.

    Runs Dinic to completion and returns the vertices reachable from s
    in the final residual network. Deterministic for a given graph: the
    arc order is derived from the canonical edge order.
    """
    index, adj, head, cap = _network(g)
    level = _dinic_levels(adj, head, cap[:], index[s], index[t])
    return frozenset(v for v, lv in zip(g.vertices, level) if lv >= 0)
