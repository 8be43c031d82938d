"""Instance generators: shapes, determinism, parameter handling."""

from __future__ import annotations

import math

import pytest

import oracles
from ghtree import Graph, generate, min_st_cut_exact


def is_connected(g: Graph) -> bool:
    start = g.vertices[0]
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v, _ in oracles.adjacency(g, u):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == g.n


class TestDispatch:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown generator"):
            generate("nope", {}, 0)

    def test_unknown_parameter(self):
        with pytest.raises(ValueError, match="does not take"):
            generate("cycle", {"n": 5, "p": 0.5}, 0)

    def test_integer_parameters_coerce_from_floats(self):
        g = generate("cycle", {"n": 5.0}, 0)
        assert g.n == 5

    @pytest.mark.parametrize(
        "kind, params, key",
        [
            ("cycle", {"n": 6.9}, "n"),
            ("erdos-renyi-weighted", {"n": math.inf, "p": 0.5}, "n"),
            ("path", {"n": math.nan}, "n"),
            ("dumbbell", {"clique": 2.5}, "clique"),
            ("grid", {"rows": 2, "cols": -math.inf}, "cols"),
        ],
    )
    def test_integer_parameters_reject_fractions_and_nonfinite_values(self, kind, params, key):
        with pytest.raises(ValueError, match=f"parameter {key} must be a whole number"):
            generate(kind, params, 0)

    def test_unseeded_kinds_ignore_the_seed(self):
        assert generate("cycle", {"n": 6}, 0) == generate("cycle", {"n": 6}, 99)


class TestErdosRenyi:
    def test_connected_and_sized(self):
        for seed in range(10):
            g = generate("erdos-renyi-weighted", {"n": 20, "p": 0.1}, seed)
            assert g.n == 20
            assert is_connected(g)

    def test_weights_in_range(self):
        g = generate("erdos-renyi-weighted", {"n": 25, "p": 0.3}, 3)
        for _, _, w in g.edges():
            assert 0.5 <= w < 1.5

    def test_custom_weight_range(self):
        g = generate("erdos-renyi-weighted", {"n": 10, "p": 0.5, "wmin": 2.0, "wmax": 3.0}, 1)
        for _, _, w in g.edges():
            assert 2.0 <= w < 3.0

    def test_p_zero_gives_spanning_path(self):
        g = generate("erdos-renyi-weighted", {"n": 12, "p": 0.0}, 5)
        assert g.m == 11
        assert is_connected(g)

    def test_p_one_gives_complete_graph(self):
        g = generate("erdos-renyi-weighted", {"n": 8, "p": 1.0}, 5)
        assert g.m == 28

    def test_seed_determinism_and_variation(self):
        a = generate("erdos-renyi-weighted", {"n": 15, "p": 0.3}, 7)
        b = generate("erdos-renyi-weighted", {"n": 15, "p": 0.3}, 7)
        c = generate("erdos-renyi-weighted", {"n": 15, "p": 0.3}, 8)
        assert a == b
        assert a != c

    def test_validation(self):
        with pytest.raises(ValueError):
            generate("erdos-renyi-weighted", {"n": 1, "p": 0.5}, 0)
        with pytest.raises(ValueError):
            generate("erdos-renyi-weighted", {"n": 5, "p": 1.5}, 0)
        with pytest.raises(ValueError):
            generate("erdos-renyi-weighted", {"n": 5, "p": 0.5, "wmin": 0.0}, 0)


class TestFixedFamilies:
    def test_cycle(self):
        g = generate("cycle", {"n": 6}, 0)
        assert g.m == 6
        assert all(w == 1.0 for _, _, w in g.edges())
        assert min_st_cut_exact(g, 0, 3).value == 2.0
        with pytest.raises(ValueError):
            generate("cycle", {"n": 2}, 0)

    def test_path(self):
        g = generate("path", {"n": 5}, 0)
        assert g.m == 4
        assert min_st_cut_exact(g, 0, 4).value == 1.0
        with pytest.raises(ValueError):
            generate("path", {"n": 1}, 0)

    def test_dumbbell(self):
        g = generate("dumbbell", {"clique": 3}, 0)
        assert g.n == 6
        assert g.weight(2, 3) == 1.0
        assert g.weight(0, 1) == 10.0
        assert min_st_cut_exact(g, 0, 5).value == 1.0
        with pytest.raises(ValueError):
            generate("dumbbell", {"clique": 1}, 0)

    def test_grid(self):
        g = generate("grid", {"rows": 3, "cols": 4}, 0)
        assert g.n == 12
        assert g.m == 3 * 3 + 2 * 4
        assert is_connected(g)
        with pytest.raises(ValueError):
            generate("grid", {"rows": 1, "cols": 1}, 0)

    def test_planted_community(self):
        g = generate("planted-community", {"n": 12}, 4)
        assert g.n == 12
        assert is_connected(g)
        assert g.weight(0, 6) == 1.0
        assert min_st_cut_exact(g, 0, 6).value >= 1.0
        assert generate("planted-community", {"n": 12}, 4) == g
        with pytest.raises(ValueError):
            generate("planted-community", {"n": 3}, 0)
