"""Hypothesis strategies shared across test modules."""

from __future__ import annotations

from hypothesis import strategies as st

from ghtree import Graph

# Quarter-integer weights are exact in binary floating point, so equality
# assertions against brute-force sums stay bitwise meaningful.
grid_weights = st.integers(1, 12).map(lambda k: k / 4.0)


@st.composite
def connected_graphs(draw, min_n: int = 2, max_n: int = 8, weights=grid_weights):
    """Connected weighted graph: random spanning tree plus extra edges."""
    n = draw(st.integers(min_n, max_n))
    edges: dict[tuple[int, int], float] = {}
    for v in range(1, n):
        u = draw(st.integers(0, v - 1))
        edges[(u, v)] = draw(weights)
    extra = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=10,
        )
    )
    for a, b in extra:
        if a == b:
            continue
        key = (min(a, b), max(a, b))
        if key not in edges:
            edges[key] = draw(weights)
    return Graph(range(n), [(u, v, w) for (u, v), w in edges.items()])


@st.composite
def graphs_with_pair(draw, min_n: int = 2, max_n: int = 8, weights=grid_weights):
    """Connected graph plus a distinct ordered vertex pair."""
    g = draw(connected_graphs(min_n=min_n, max_n=max_n, weights=weights))
    s = draw(st.sampled_from(g.vertices))
    t = draw(st.sampled_from([v for v in g.vertices if v != s]))
    return g, s, t


@st.composite
def graphs_with_terminals(draw, min_n: int = 3, max_n: int = 8, min_r: int = 2, weights=grid_weights):
    """Connected graph plus a terminal subset of size at least min_r."""
    g = draw(connected_graphs(min_n=min_n, max_n=max_n, weights=weights))
    r = draw(st.integers(min_r, g.n))
    terminals = draw(
        st.permutations(list(g.vertices)).map(lambda p: tuple(sorted(p[:r])))
    )
    return g, terminals


# Thirds are inexact in binary floating point, so the bits of a sum of
# them depend on the order in which it is added up.
third_weights = st.integers(1, 12).map(lambda k: k / 3.0)

# Free floats carry arbitrary low-order bits.
float_weights = st.floats(1e-3, 1e3)

# Grid weights and thirds give bottleneck ties; free floats give arbitrary bits.
kernel_weights = st.one_of(grid_weights, third_weights, float_weights)

# Weights whose sums round differently in different orders: 1 + 2^-53 rounds to 1, 10^16 + 1 to 10^16.
rounding_weights = st.one_of(kernel_weights, st.sampled_from([1.0, 2.0**-53, 1e16]))


@st.composite
def graphs_with_disjoint_blocks(draw, max_blocks: int = 4):
    """Graph with weights in thirds, plus 2..max_blocks disjoint blocks of 1..4 vertices.

    Two of the blocks have at least two vertices each, and every pair
    between those two is an edge, so contracting both sums edges that
    join two multi-vertex blocks. Blocks come in random order and never
    cover every vertex with one block.
    """
    sizes = [draw(st.integers(2, 4)), draw(st.integers(2, 4))]
    sizes += draw(st.lists(st.integers(1, 4), max_size=max_blocks - 2))
    n = sum(sizes) + draw(st.integers(0, 3))
    order = draw(st.permutations(range(n)))
    blocks, start = [], 0
    for size in sizes:
        blocks.append(sorted(order[start : start + size]))
        start += size
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = set(draw(st.lists(st.sampled_from(pairs), unique=True, max_size=3 * n)))
    chosen |= {(min(a, b), max(a, b)) for a in blocks[0] for b in blocks[1]}
    edges = [(u, v, draw(third_weights)) for u, v in sorted(chosen)]
    return Graph(range(n), edges), draw(st.permutations(blocks))
