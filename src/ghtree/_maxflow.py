"""Dinic max-flow on plain Python lists, used for every exact min-cut call.

The k-th edge of ``g.edges()`` becomes arc 2k (u -> v) and arc 2k+1
(v -> u), both with the edge weight as capacity, so the reverse of arc
``a`` is ``a ^ 1``; each vertex lists its arc ids in increasing order.
The kernel returns the final BFS level list: vertices still reachable
from the source in the residual network form the minimal source-side
min cut, which is the tie-break every caller relies on.
"""

from __future__ import annotations

from .graph import Graph

# Read by bench/run.py for its "backend" field; the kernel is never jitted.
USING_NUMBA = False


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
        if level[t] < 0:
            return level
        it = [0] * n
        path: list[int] = []
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


def min_cut_source_side(g: Graph, s: int, t: int) -> frozenset[int]:
    """Minimal side of a minimum s-t cut that contains s.

    Runs Dinic to completion and returns the vertices reachable from s
    in the final residual network. Deterministic for a given graph: the
    arc order is derived from the sorted edge list.
    """
    verts = g.vertices
    index = {v: i for i, v in enumerate(verts)}
    adj: list[list[int]] = [[] for _ in verts]
    head: list[int] = []
    cap: list[float] = []
    for u, v, w in g.edges():
        iu, iv = index[u], index[v]
        adj[iu].append(len(head))
        adj[iv].append(len(head) + 1)
        head += (iv, iu)
        cap += (w, w)
    level = _dinic_levels(adj, head, cap, index[s], index[t])
    return frozenset(v for v, lv in zip(verts, level) if lv >= 0)
