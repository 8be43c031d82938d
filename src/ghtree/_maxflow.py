"""Dinic max-flow on flat arrays, used for every exact min-cut call.

The kernel works on CSR arc arrays and is compiled with numba exactly
when numba imports; otherwise the same code runs interpreted, with
identical arithmetic, just slower. The kernel returns the final BFS
level array: vertices still reachable from the source in the residual
network form the minimal source-side min cut, which is the tie-break
every caller relies on.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph


def _dinic_levels(csr_ptr, csr_arc, arc_dst, arc_cap, s, t):
    n = csr_ptr.shape[0] - 1
    level = np.empty(n, dtype=np.int64)
    queue = np.empty(n, dtype=np.int64)
    iters = np.empty(n, dtype=np.int64)
    path_arcs = np.empty(n, dtype=np.int64)
    while True:
        for i in range(n):
            level[i] = -1
        level[s] = 0
        queue[0] = s
        qh, qt = 0, 1
        while qh < qt:
            u = queue[qh]
            qh += 1
            for ptr in range(csr_ptr[u], csr_ptr[u + 1]):
                a = csr_arc[ptr]
                v = arc_dst[a]
                if level[v] < 0 and arc_cap[a] > 0.0:
                    level[v] = level[u] + 1
                    queue[qt] = v
                    qt += 1
        if level[t] < 0:
            return level
        for i in range(n):
            iters[i] = csr_ptr[i]
        depth = 0
        u = s
        while True:
            if u == t:
                delta = np.inf
                for d in range(depth):
                    c = arc_cap[path_arcs[d]]
                    if c < delta:
                        delta = c
                for d in range(depth):
                    a = path_arcs[d]
                    arc_cap[a] -= delta
                    arc_cap[a ^ 1] += delta
                nd = 0
                while nd < depth and arc_cap[path_arcs[nd]] > 0.0:
                    nd += 1
                depth = nd
                u = s if nd == 0 else arc_dst[path_arcs[nd - 1]]
                continue
            advanced = False
            while iters[u] < csr_ptr[u + 1]:
                a = csr_arc[iters[u]]
                v = arc_dst[a]
                if arc_cap[a] > 0.0 and level[v] == level[u] + 1:
                    path_arcs[depth] = a
                    depth += 1
                    u = v
                    advanced = True
                    break
                iters[u] += 1
            if not advanced:
                if u == s:
                    break
                level[u] = -2
                depth -= 1
                u = s if depth == 0 else arc_dst[path_arcs[depth - 1]]
                iters[u] += 1


try:
    import numba

    _dinic_levels = numba.njit(cache=True, nogil=True)(_dinic_levels)
    USING_NUMBA = True
except ImportError:
    USING_NUMBA = False


def _build_arrays(g: Graph) -> tuple[dict[int, int], np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    index = {v: i for i, v in enumerate(g.vertices)}
    edges = list(g.edges())
    m2 = 2 * len(edges)
    arc_dst = np.empty(m2, dtype=np.int64)
    arc_cap = np.empty(m2, dtype=np.float64)
    tails = np.empty(m2, dtype=np.int64)
    for k, (u, v, w) in enumerate(edges):
        iu, iv = index[u], index[v]
        arc_dst[2 * k] = iv
        arc_cap[2 * k] = w
        tails[2 * k] = iu
        arc_dst[2 * k + 1] = iu
        arc_cap[2 * k + 1] = w
        tails[2 * k + 1] = iv
    n = g.n
    counts = np.bincount(tails, minlength=n) if m2 else np.zeros(n, dtype=np.int64)
    csr_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=csr_ptr[1:])
    csr_arc = np.empty(m2, dtype=np.int64)
    fill = csr_ptr[:-1].copy()
    for a in range(m2):
        u = tails[a]
        csr_arc[fill[u]] = a
        fill[u] += 1
    return index, csr_ptr, csr_arc, arc_dst, arc_cap


def min_cut_source_side(g: Graph, s: int, t: int) -> frozenset[int]:
    """Minimal side of a minimum s-t cut that contains s.

    Runs Dinic to completion and returns the vertices reachable from s
    in the final residual network. Deterministic for a given graph: the
    arc order is derived from the sorted edge list.
    """
    index, csr_ptr, csr_arc, arc_dst, arc_cap = _build_arrays(g)
    level = _dinic_levels(csr_ptr, csr_arc, arc_dst, arc_cap, index[s], index[t])
    verts = g.vertices
    return frozenset(verts[i] for i in range(g.n) if level[i] >= 0)
