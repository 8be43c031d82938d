"""Seeded instance generators for experiments and tests.

Every generator is a pure function of its parameters and the seed, and
always emits contiguous 0-based vertex ids so instances can be saved
to graph files directly. Random families are connected by
construction.
"""

from __future__ import annotations

from typing import Mapping

from .dp import Rng
from .graph import Graph


def erdos_renyi_weighted(n: int, p: float, seed: int, wmin: float = 0.5, wmax: float = 1.5) -> Graph:
    """Connected random graph: a shuffled spanning path plus G(n, p) extras.

    Weights are uniform on [wmin, wmax), drawn per selected pair in
    canonical pair order.
    """
    if n < 2:
        raise ValueError("need at least two vertices")
    if not 0.0 <= p <= 1.0:
        raise ValueError("edge probability must lie in [0, 1]")
    if not 0.0 < wmin <= wmax:
        raise ValueError("need 0 < wmin <= wmax")
    rng = Rng(seed).child("erdos-renyi-weighted")
    perm = rng.child("path").permutation(n)
    pairs = {tuple(sorted((perm[i], perm[i + 1]))) for i in range(n - 1)}
    extra_rng = rng.child("extra")
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in pairs and extra_rng.uniform() < p:
                pairs.add((u, v))
    weight_rng = rng.child("weights")
    edges = [(u, v, wmin + (wmax - wmin) * weight_rng.uniform()) for u, v in sorted(pairs)]
    return Graph(range(n), edges)


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least three vertices")
    edges = [(i, (i + 1) % n, 1.0) for i in range(n)]
    return Graph(range(n), edges)


def path(n: int) -> Graph:
    if n < 2:
        raise ValueError("a path needs at least two vertices")
    edges = [(i, i + 1, 1.0) for i in range(n - 1)]
    return Graph(range(n), edges)


def dumbbell(clique: int, intra: float = 10.0, bridge: float = 1.0) -> Graph:
    """Two complete blocks of ``clique`` vertices joined by one bridge.

    Block edges weigh ``intra``; the bridge connects vertex clique-1 to
    vertex clique and weighs ``bridge``.
    """
    if clique < 2:
        raise ValueError("blocks need at least two vertices")
    if intra <= 0.0 or bridge <= 0.0:
        raise ValueError("weights must be positive")
    edges = []
    for base in (0, clique):
        for i in range(clique):
            for j in range(i + 1, clique):
                edges.append((base + i, base + j, intra))
    edges.append((clique - 1, clique, bridge))
    return Graph(range(2 * clique), edges)


def grid(rows: int, cols: int) -> Graph:
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise ValueError("grid needs at least two vertices")
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1, 1.0))
            if r + 1 < rows:
                edges.append((v, v + cols, 1.0))
    return Graph(range(rows * cols), edges)


def planted_community(n: int, seed: int, p: float = 0.9, bridge: float = 1.0) -> Graph:
    """Two dense unit-weight blocks joined by one bridge edge.

    Each block carries a spanning cycle plus G(h, p) extras, all weight
    1; the bridge joins vertex 0 to vertex n//2 with weight ``bridge``.
    """
    if n < 4:
        raise ValueError("need at least four vertices")
    if not 0.0 <= p <= 1.0:
        raise ValueError("edge probability must lie in [0, 1]")
    if bridge <= 0.0:
        raise ValueError("bridge weight must be positive")
    rng = Rng(seed).child("planted-community")
    half = n // 2
    pairs: set[tuple[int, int]] = set()
    for lo, hi in ((0, half), (half, n)):
        size = hi - lo
        if size >= 3:
            for i in range(size):
                a = lo + i
                b = lo + (i + 1) % size
                pairs.add(tuple(sorted((a, b))))
        else:
            pairs.add((lo, hi - 1))
        block_rng = rng.child(f"block.{lo}")
        for u in range(lo, hi):
            for v in range(u + 1, hi):
                if (u, v) not in pairs and block_rng.uniform() < p:
                    pairs.add((u, v))
    edges = [(u, v, 1.0) for u, v in sorted(pairs)]
    edges.append((0, half, bridge))
    return Graph(range(n), edges)


_KINDS = {
    "erdos-renyi-weighted": (erdos_renyi_weighted, ("n", "p", "wmin", "wmax"), True),
    "cycle": (cycle, ("n",), False),
    "path": (path, ("n",), False),
    "dumbbell": (dumbbell, ("clique", "intra", "bridge"), False),
    "grid": (grid, ("rows", "cols"), False),
    "planted-community": (planted_community, ("n", "p", "bridge"), True),
}

_INT_PARAMS = {"n", "clique", "rows", "cols"}


def generate(kind: str, params: Mapping[str, float], seed: int) -> Graph:
    """Build an instance by generator name; unused keys and fractional or infinite sizes are rejected."""
    if kind not in _KINDS:
        raise ValueError(f"unknown generator {kind!r}; known: {', '.join(sorted(_KINDS))}")
    fn, allowed, seeded = _KINDS[kind]
    unknown = sorted(set(params) - set(allowed))
    if unknown:
        raise ValueError(f"generator {kind!r} does not take parameters {unknown}")
    kwargs = {}
    for key, value in params.items():
        value = float(value)
        if key in _INT_PARAMS:
            if not value.is_integer():
                raise ValueError(f"generator parameter {key} must be a whole number, got {value!r}")
            value = int(value)
        kwargs[key] = value
    if seeded:
        kwargs["seed"] = int(seed)
    return fn(**kwargs)
