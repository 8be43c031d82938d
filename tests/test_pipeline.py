"""Carving step, private recursion, and the end-to-end tree builder."""

from __future__ import annotations

import math
from itertools import combinations

import pytest
from hypothesis import given, settings

import oracles
import strategies
from ghtree import (
    INFINITE,
    Epsilon,
    GHTreeAbort,
    Graph,
    PrivacyLedger,
    Rng,
    StepParams,
    cut_weight,
    final_gh_tree,
    generate,
    gh_tree_step,
    gomory_hu_exact,
    min_edge_on_path,
    min_st_cut_exact,
)
from ghtree.pipeline import _gh_rec
from ghtree.private_cuts import DEFAULT_C1, DEFAULT_C2, DEFAULT_PENALTY_CONST


def dumbbell6() -> Graph:
    edges = [(0, 1, 2.0), (0, 2, 2.0), (1, 2, 2.0),
             (3, 4, 2.0), (3, 5, 2.0), (4, 5, 2.0), (2, 3, 1.0)]
    return Graph(range(6), edges)


def step_params(eps, beta=0.001) -> StepParams:
    return StepParams(eps=eps, beta=beta)


NONFINITE = (math.nan, math.inf, -math.inf)


def path_graph(n: int) -> Graph:
    return Graph(range(n), [(i, i + 1, 1.0) for i in range(n - 1)])


def level_entries(ledger: PrivacyLedger) -> list:
    return [e for e in ledger.entries if e.name.startswith("gh_tree.level.")]


class TestRecursionParams:
    """The recursion's depth cap and constants, as final_gh_tree sets them."""

    def test_depth_cap_formula(self):
        # Each level is charged at scale 2 t_max / (eps / 2).
        led = PrivacyLedger(Epsilon(1.0))
        final_gh_tree(path_graph(50), Epsilon(1.0), Rng(0), led)
        assert {e.scale for e in level_entries(led)} == {2.0 * 128 / 0.5}
        led = PrivacyLedger(Epsilon(1.0))
        final_gh_tree(path_graph(2), Epsilon(1.0), Rng(0), led, c_depth=1.0)
        assert {e.scale for e in level_entries(led)} == {2.0 * 1 / 0.5}

    def test_validation(self):
        with pytest.raises(ValueError, match="two vertices"):
            final_gh_tree(Graph([0]), Epsilon(1.0), Rng(0))
        for name in ("c_depth", "c1", "c2", "penalty_const"):
            with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
                final_gh_tree(dumbbell6(), Epsilon(1.0), Rng(0), **{name: 0.0})

    @pytest.mark.parametrize("value", NONFINITE)
    @pytest.mark.parametrize("name", ["c_depth", "c1", "c2", "penalty_const"])
    def test_nonfinite_constant_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            final_gh_tree(dumbbell6(), Epsilon(1.0), Rng(0), **{name: value})


class TestStepParams:
    def test_positional_and_keyword_construction_with_defaults(self):
        params = StepParams(Epsilon(1.0), 0.5)
        assert (params.c1, params.c2, params.penalty_const) == (DEFAULT_C1, DEFAULT_C2, DEFAULT_PENALTY_CONST)
        assert params == StepParams(eps=Epsilon(1.0), beta=0.5, c1=DEFAULT_C1, c2=DEFAULT_C2)
        assert StepParams(Epsilon(1.0), 0.5, 1.0, 2.0, 3.0) == StepParams(
            Epsilon(1.0), 0.5, penalty_const=3.0, c2=2.0, c1=1.0
        )

    @pytest.mark.parametrize("beta", [0.0, 1.0, math.nan])
    def test_beta_message(self, beta):
        with pytest.raises(ValueError, match=rf"^beta must lie in \(0, 1\), got {beta!r}$"):
            StepParams(Epsilon(1.0), beta)

    def test_equal_fields_equal_objects_and_hashes(self):
        a, b = StepParams(Epsilon(1.0), 0.5), StepParams(Epsilon(1), 0.5)
        assert a == b and hash(a) == hash(b)
        assert a != StepParams(Epsilon(1.0), 0.25)

    def test_fields_cannot_be_assigned(self):
        params = StepParams(Epsilon(1.0), 0.5)
        with pytest.raises(AttributeError):
            params.beta = 0.25
        assert params.beta == 0.5

    @pytest.mark.parametrize("value", NONFINITE)
    @pytest.mark.parametrize("name", ["c1", "c2", "penalty_const"])
    def test_nonfinite_constant_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            StepParams(eps=Epsilon(1.0), beta=0.5, **{name: value})


class TestStep:
    def test_validation(self):
        g = dumbbell6()
        p = step_params(Epsilon(1.0))
        with pytest.raises(ValueError, match="pivot"):
            gh_tree_step(g, 9, [0, 1], p, Rng(0))
        with pytest.raises(ValueError, match="two terminals"):
            gh_tree_step(g, 0, [0], p, Rng(0))
        with pytest.raises(ValueError):
            gh_tree_step(g, 0, [0, 99], p, Rng(0))

    @given(strategies.connected_graphs(min_n=3, max_n=8))
    @settings(max_examples=40, deadline=None)
    def test_noiseless_accepts_only_pivot_optimal_sides(self, g):
        s = g.vertices[0]
        out = gh_tree_step(g, s, g.vertices, step_params(INFINITE), Rng(1))
        k = g.n
        for v in out.R_star:
            side = out.sets[v].side
            assert v in side and s not in side
            assert len(side & set(g.vertices)) <= 0.9 * k
            # Zero allowance: acceptance forces the side to be optimal.
            lam = min_st_cut_exact(g, s, v).value
            assert out.sets[v].value == pytest.approx(lam, abs=1e-9)
            assert cut_weight(g, side) == pytest.approx(lam, abs=1e-9)
        for a, b in combinations(out.R_star, 2):
            assert not out.sets[a].side & out.sets[b].side
        want_d = frozenset().union(
            *(out.sets[v].side & set(g.vertices) for v in out.R_star)
        ) if out.R_star else frozenset()
        assert out.D == want_d

    def test_noisy_step_structure(self):
        for seed in range(5):
            g = generate("erdos-renyi-weighted", {"n": 14, "p": 0.3}, seed)
            s = g.vertices[0]
            out = gh_tree_step(g, s, g.vertices, step_params(Epsilon(1.0)), Rng(seed))
            for v in out.R_star:
                side = out.sets[v].side
                assert v in side and s not in side
                assert len(side & set(g.vertices)) <= 0.9 * g.n
            for a, b in combinations(out.R_star, 2):
                assert not out.sets[a].side & out.sets[b].side

    def test_ledger_charges_exactly_eps(self):
        g = generate("erdos-renyi-weighted", {"n": 10, "p": 0.4}, 3)
        eps = Epsilon(1.0)
        led = PrivacyLedger(eps)
        gh_tree_step(g, g.vertices[0], g.vertices, step_params(eps), Rng(7), led)
        assert led.total() == pytest.approx(1.0, rel=1e-9)
        by_name = {}
        for e in led.entries:
            by_name.setdefault(e.name.split(".")[1], 0.0)
            by_name[e.name.split(".")[1]] += e.cost
        assert by_name["pivot_values"] == pytest.approx(0.25)
        assert by_name["isolating_cuts"] == pytest.approx(0.5)
        assert by_name["cut_weights"] == pytest.approx(0.25)

    def test_degenerate_rounds_still_charge_their_slots(self):
        # Two terminals: later rounds almost surely thin R below 2 but the
        # ledger must still account for every scheduled slot.
        g = dumbbell6()
        eps = Epsilon(1.0)
        led = PrivacyLedger(eps)
        gh_tree_step(g, 0, [0, 5], step_params(eps), Rng(11), led)
        assert led.total() == pytest.approx(1.0, rel=1e-9)

    def test_step_reproduces(self):
        g = dumbbell6()
        a = gh_tree_step(g, 0, g.vertices, step_params(Epsilon(0.5)), Rng(13))
        b = gh_tree_step(g, 0, g.vertices, step_params(Epsilon(0.5)), Rng(13))
        assert a.D == b.D and a.R_star == b.R_star


def tree_values(tree, pairs):
    return {pair: min_edge_on_path(tree, *pair)[2] for pair in pairs}


class TestGhTree:
    """The private recursion, through final_gh_tree or one frame of it."""

    @given(strategies.connected_graphs(min_n=2, max_n=8))
    @settings(max_examples=30, deadline=None)
    def test_noiseless_terminal_values_are_exact(self, g):
        tree = final_gh_tree(g, INFINITE, Rng(0))
        assert tree.node_set == g.vertex_set
        for u, v in combinations(g.vertices, 2):
            assert min_edge_on_path(tree, u, v)[2] == pytest.approx(
                oracles.brute_min_st_value(g, u, v), abs=1e-9
            )

    def test_steiner_terminal_subset(self):
        g = dumbbell6()
        params = StepParams(eps=INFINITE, beta=1.0 / g.n**3)
        t_max = math.ceil(4.0 * math.log2(g.n) ** 2)
        tree = _gh_rec(g, [0, 3, 5], 0, Rng(2), t_max, params, 0.0, set())
        assert tree.node_set == {0, 3, 5}
        assert set(tree.f) == g.vertex_set
        assert min_edge_on_path(tree, 0, 3)[2] == pytest.approx(1.0)
        assert min_edge_on_path(tree, 3, 5)[2] == pytest.approx(4.0)

    def test_abort_when_entering_too_deep(self):
        g = dumbbell6()
        params = StepParams(eps=Epsilon(1.0), beta=1.0 / g.n**3)
        with pytest.raises(GHTreeAbort) as exc:
            _gh_rec(g, list(g.vertices), 5, Rng(3), 1, params, 0.0, set())
        assert exc.value.depth == 5
        assert exc.value.t_max == 1
        assert exc.value.seed == 3

    def test_ledger_charges_per_level(self):
        g = generate("erdos-renyi-weighted", {"n": 12, "p": 0.4}, 1)
        eps = Epsilon(2.0)
        led = PrivacyLedger(eps)
        final_gh_tree(g, eps, Rng(5), led)
        levels = level_entries(led)
        assert levels
        t_max = math.ceil(4.0 * math.log2(g.n) ** 2)
        for e in levels:
            assert e.cost == pytest.approx(eps.value / (4.0 * t_max))
        assert led.within_budget()


class TestFinalTree:
    def test_two_vertex_graph(self):
        g = Graph(range(2), [(0, 1, 3.0)])
        tree = final_gh_tree(g, INFINITE, Rng(0))
        assert tree.nodes == (0, 1)
        assert tree.edges == ((0, 1, 3.0),)

    def test_single_vertex_rejected(self):
        with pytest.raises(ValueError):
            final_gh_tree(Graph([0]), INFINITE, Rng(0))

    @given(strategies.connected_graphs(min_n=2, max_n=8))
    @settings(max_examples=25, deadline=None)
    def test_noiseless_matches_exact_tree_values(self, g):
        tree = final_gh_tree(g, INFINITE, Rng(4))
        exact = gomory_hu_exact(g)
        for u, v in combinations(g.vertices, 2):
            assert min_edge_on_path(tree, u, v)[2] == pytest.approx(
                min_edge_on_path(exact, u, v)[2], abs=1e-9
            )

    def test_noisy_tree_shape_and_determinism(self):
        g = generate("erdos-renyi-weighted", {"n": 16, "p": 0.3}, 2)
        t1 = final_gh_tree(g, Epsilon(1.0), Rng(6))
        t2 = final_gh_tree(g, Epsilon(1.0), Rng(6))
        assert t1 == t2
        assert t1.node_set == g.vertex_set
        assert set(t1.f) == g.vertex_set
        assert all(w >= 0.0 for _, _, w in t1.edges)

    def test_ledger_stays_within_budget(self):
        g = generate("erdos-renyi-weighted", {"n": 14, "p": 0.3}, 8)
        eps = Epsilon(2.0)
        led = PrivacyLedger(eps)
        final_gh_tree(g, eps, Rng(8), led)
        names = {e.name for e in led.entries}
        assert "final.edge_weights" in names
        weights_cost = sum(
            e.cost for e in led.entries if e.name == "final.edge_weights"
        )
        assert weights_cost == pytest.approx(eps.value / 2.0)
        assert led.within_budget()

    # Budget and weights trade one for one: every noise scale is a
    # weight over eps, so at a power-of-two factor c every float the
    # build computes on c*G at eps/c is c times its value on G at eps.
    @pytest.mark.parametrize("c", [2.0**-2, 2.0**3, 2.0**10])
    @pytest.mark.parametrize("seed", [0, 2])
    @pytest.mark.parametrize(
        "kind, params, eps, constants",
        [
            pytest.param("erdos-renyi-weighted", {"n": 30, "p": 0.2}, 1.0, {}, id="er30"),
            pytest.param(
                "dumbbell", {"clique": 10}, 1e3, {"c_depth": 0.25, "c1": 0.05, "c2": 0.05}, id="dumbbell10-descending"
            ),
        ],
    )
    def test_scaling_weights_equals_scaling_eps(self, kind, params, eps, constants, seed, c):
        g = generate(kind, params, 0)
        scaled = Graph(g.vertices, [(u, v, c * w) for u, v, w in g.edges()])
        tree = final_gh_tree(g, Epsilon(eps), Rng(seed), **constants)
        got = final_gh_tree(scaled, Epsilon(eps / c), Rng(seed), **constants)
        assert got.nodes == tree.nodes
        assert got.f == tree.f
        assert [(u, v, w.hex()) for u, v, w in got.edges] == [(u, v, (c * w).hex()) for u, v, w in tree.edges]

    def test_descending_builds_rarely_abort_at_default_depth(self):
        # At eps = 1e6 the default constants let every build descend, so
        # the depth cap is checked on builds that recurse, not on depth-0 stars.
        g = generate("dumbbell", {"clique": 10}, 0)
        eps = Epsilon(1e6)
        aborts = 0
        for seed in range(100):
            ledger = PrivacyLedger(eps)
            try:
                final_gh_tree(g, eps, Rng(seed), ledger)
            except GHTreeAbort:
                aborts += 1
            assert "gh_tree.level.1" in {e.name for e in ledger.entries}, f"seed {seed} did not descend"
        assert aborts <= 2

    def test_abort_propagates_with_seed(self):
        # Near-zero threshold constants make acceptance a coin flip, so
        # coverage stalls and the depth cap of 1 is exceeded.
        g = generate("erdos-renyi-weighted", {"n": 12, "p": 0.3}, 0)
        with pytest.raises(GHTreeAbort) as exc:
            final_gh_tree(g, Epsilon(0.5), Rng(0), c_depth=0.01, c1=1e-9, c2=1e-9)
        assert exc.value.seed == 0
        assert exc.value.t_max == 1
        assert exc.value.depth == 2
