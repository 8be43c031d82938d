"""Private cut mechanisms: noiseless collapse, structure, budget accounting."""

from __future__ import annotations

import math
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import strategies
from ghtree import (
    INFINITE,
    Epsilon,
    Graph,
    IsoCutParams,
    PrivacyLedger,
    Rng,
    cut_weight,
    final_gh_tree,
    generate,
    isolating_cuts_exact,
    min_st_cut_exact,
    private_cuts,
    private_isolating_cuts,
    private_min_ST_cut,
    private_min_st_cut,
    sample_exponential,
    save_tree,
)
from ghtree import _maxflow, exact


def dumbbell6() -> Graph:
    edges = [(0, 1, 2.0), (0, 2, 2.0), (1, 2, 2.0),
             (3, 4, 2.0), (3, 5, 2.0), (4, 5, 2.0), (2, 3, 1.0)]
    return Graph(range(6), edges)


class TestPrivateStCut:
    @given(strategies.graphs_with_pair())
    @settings(max_examples=60, deadline=None)
    def test_noiseless_equals_exact(self, gst):
        # Quarter-integer weights sum exactly, so values compare by equality.
        g, s, t = gst
        got = private_min_st_cut(g, s, t, INFINITE, Rng(0))
        assert cut_weight(g, got) == oracles.brute_min_st_value(g, s, t)
        assert got == oracles.brute_minimal_ST_side(g, [s], [t])

    def test_noiseless_consumes_no_randomness(self):
        rng = Rng(5)
        private_min_st_cut(dumbbell6(), 0, 5, INFINITE, rng)
        assert rng.uniform() == Rng(5).uniform()

    def test_no_positive_draw_builds_no_graph(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a noised graph was built")

        g = generate("erdos-renyi-weighted", {"n": 12, "p": 0.5}, 3)
        # Undecided without noise, this cut runs on a copy of g.
        assert private_min_st_cut(g, 0, 9, INFINITE, Rng(0)) == min_st_cut_exact(g, 0, 9).cut.side
        # Vertex 2 leans to s = 0 and vertex 3 to t = 1 by more than their edge weighs, which decides the cut.
        decided = Graph(range(4), [(0, 2, 5.0), (1, 3, 5.0), (2, 3, 1.0)])
        pair = Graph(range(2), [(0, 1, 1.5)])
        monkeypatch.setattr(Graph, "_trusted", refuse)
        assert private_min_st_cut(decided, 0, 1, INFINITE, Rng(0)) == {0, 2}
        # No vertex besides s and t: nothing is drawn at any budget.
        assert private_min_st_cut(pair, 0, 1, Epsilon(1.0), Rng(0)) == {0}

    def test_noised_cut_builds_no_graph_and_no_other_network(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a noised graph was built")

        g = generate("erdos-renyi-weighted", {"n": 12, "p": 0.5}, 3)
        calls = [(0, 9, 0), (4, 1, 1), (11, 6, 2)]
        # At eps = 1 the noise decides none of these calls, so each cuts its noised graph.
        for s, t, seed in calls:
            assert private_min_st_cut(g, s, t, Epsilon(1.0), Rng(seed)) == oracles.private_min_st_cut(
                g, s, t, Epsilon(1.0), Rng(seed)
            )
        # At eps = 1e-3 it decides all three.
        eps = Epsilon(1e-3)
        want = [oracles.private_min_st_cut(g, s, t, eps, Rng(seed)) for s, t, seed in calls]
        net = _maxflow._network(g)
        real_network = _maxflow._network
        asked = []
        monkeypatch.setattr(Graph, "__init__", refuse)
        monkeypatch.setattr(Graph, "_trusted", refuse)
        monkeypatch.setattr(_maxflow, "_network", lambda h: asked.append(h) or real_network(h))
        got = [private_min_st_cut(g, s, t, eps, Rng(seed)) for s, t, seed in calls]
        assert got == want
        # A decided call reads no network, not even the one g keeps.
        assert asked == []
        assert g._net is net

    @given(strategies.graphs_with_pair())
    @settings(max_examples=60, deadline=None)
    def test_noisy_side_separates_and_value_is_true_weight(self, gst):
        g, s, t = gst
        side = private_min_st_cut(g, s, t, Epsilon(1.0), Rng(17))
        assert s in side and t not in side
        # A true weight of any separating side is at least the min cut.
        assert cut_weight(g, side) >= min_st_cut_exact(g, s, t).value - 1e-9

    def test_noisy_runs_reproduce(self):
        g = dumbbell6()
        a = private_min_st_cut(g, 0, 5, Epsilon(0.5), Rng(3))
        b = private_min_st_cut(g, 0, 5, Epsilon(0.5), Rng(3))
        assert a == b

    def test_ledger_records_noise_mean(self):
        led = PrivacyLedger(Epsilon(2.0))
        private_min_st_cut(dumbbell6(), 0, 5, Epsilon(2.0), Rng(0), led)
        (entry,) = led.entries
        assert entry.name == "private_st_cut"
        assert entry.scale == 0.5
        assert led.total() == pytest.approx(2.0)

    def test_validation(self):
        g = dumbbell6()
        with pytest.raises(ValueError):
            private_min_st_cut(g, 0, 0, Epsilon(1.0), Rng(0))
        with pytest.raises(ValueError):
            private_min_st_cut(g, 0, 99, Epsilon(1.0), Rng(0))


class ZeroRng:
    """A stream whose every uniform is 0.0, so every exponential draw is zero."""

    def uniform(self) -> float:
        return 0.0


class TestNoisedInstance:
    """The noised graph equals the one the validating constructor builds."""

    @given(strategies.graphs_with_pair(), st.sampled_from([0.25, 1.0, 8.0]), st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_matches_validating_construction(self, gst, eps, seed):
        g, s, t = gst
        got = private_min_st_cut(g, s, t, Epsilon(eps), Rng(seed))
        assert got == oracles.private_min_st_cut(g, s, t, Epsilon(eps), Rng(seed))

    def test_noise_stacks_onto_edges_to_s_and_t(self):
        # 1-0 and 2-0 are edges to s = 0; 2-3, 4-3 and 5-3 are edges to t = 3.
        g = Graph(range(6), [(0, 1, 1 / 3), (0, 2, 2 / 3), (2, 3, 1 / 3), (3, 4, 1.0), (3, 5, 1 / 3), (1, 4, 2 / 3)])
        for seed in range(20):
            rng, ref_rng = Rng(seed), Rng(seed)
            got = private_min_st_cut(g, 0, 3, Epsilon(2.0), rng)
            assert got == oracles.private_min_st_cut(g, 0, 3, Epsilon(2.0), ref_rng)
            assert rng.uniform() == ref_rng.uniform()

    def test_zero_draws_add_no_edges(self):
        g = dumbbell6()
        got = private_min_st_cut(g, 0, 5, Epsilon(1.0), ZeroRng())
        assert got == oracles.private_min_st_cut(g, 0, 5, Epsilon(1.0), ZeroRng())
        assert got == min_st_cut_exact(g, 0, 5).cut.side


class TestDrawNoise:
    """A round's draws come from one sampler call, in single-draw order."""

    @pytest.fixture
    def sizes(self, monkeypatch):
        sizes, real = [], private_cuts.sample_exponential

        def spy(mean, rng, size=None):
            sizes.append(size)
            return real(mean, rng, size)

        monkeypatch.setattr(private_cuts, "sample_exponential", spy)
        return sizes

    @pytest.mark.parametrize("count", [0, 1, 4])
    @pytest.mark.parametrize("mean", [0.0, 2.5])
    def test_pairs_are_sequential_draws_s_first(self, sizes, count, mean):
        rng, ref = Rng(9), Rng(9)
        got = private_cuts._draw_noise(count, mean, rng)
        want = [(sample_exponential(mean, ref), sample_exponential(mean, ref)) for _ in range(count)]
        assert [(a.hex(), b.hex()) for a, b in got] == [(a.hex(), b.hex()) for a, b in want]
        assert rng.uniform() == ref.uniform()
        assert sizes == ([2 * count] if count else [])

    def test_st_cut_draws_in_one_call(self, sizes):
        g = generate("erdos-renyi-weighted", {"n": 12, "p": 0.3}, 1)
        private_min_st_cut(g, 0, 5, Epsilon(1.0), Rng(3))
        assert sizes == [2 * (g.n - 2)]


class TestPrivateSTCut:
    def test_singleton_call_is_bitwise_the_st_mechanism(self):
        g = dumbbell6()
        for seed in range(10):
            grouped = private_min_ST_cut(g, [0], [5], Epsilon(0.7), Rng(seed))
            plain = private_min_st_cut(g, 0, 5, Epsilon(0.7), Rng(seed))
            assert grouped == plain

    def test_noiseless_equals_exact_on_groups(self):
        g = dumbbell6()
        got = private_min_ST_cut(g, [0, 1], [4, 5], INFINITE, Rng(0))
        assert cut_weight(g, got) == oracles.brute_min_ST_value(g, [0, 1], [4, 5]) == 1.0
        assert got == oracles.brute_minimal_ST_side(g, [0, 1], [4, 5]) == {0, 1, 2}

    @given(strategies.graphs_with_terminals(min_n=4, min_r=4))
    @settings(max_examples=40, deadline=None)
    def test_noisy_group_side_structure(self, gt):
        g, terminals = gt
        S = list(terminals[:2])
        T = list(terminals[2:])
        side = private_min_ST_cut(g, S, T, Epsilon(1.0), Rng(23))
        assert set(S) <= side <= g.vertex_set
        assert not set(T) & side

    def test_validation(self):
        g = dumbbell6()
        with pytest.raises(ValueError):
            private_min_ST_cut(g, [], [1], Epsilon(1.0), Rng(0))
        with pytest.raises(ValueError):
            private_min_ST_cut(g, [0, 1], [1], Epsilon(1.0), Rng(0))


class TestIsoParams:
    def test_beta_bounds(self):
        with pytest.raises(ValueError):
            IsoCutParams(eps=Epsilon(1.0), beta=0.0, U=frozenset())
        with pytest.raises(ValueError):
            IsoCutParams(eps=Epsilon(1.0), beta=1.0, U=frozenset())

    def test_penalty_const_positive(self):
        with pytest.raises(ValueError):
            IsoCutParams(eps=Epsilon(1.0), beta=0.5, U=frozenset(), penalty_const=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_penalty_const_finite(self, value):
        with pytest.raises(ValueError, match="penalty_const must be positive and finite"):
            IsoCutParams(eps=Epsilon(1.0), beta=0.5, U=frozenset(), penalty_const=value)

    def test_positional_and_keyword_construction_coerce_the_universe(self):
        params = IsoCutParams(Epsilon(1.0), 0.5, [2, 1, 2])
        assert params.U == frozenset({1, 2}) and type(params.U) is frozenset
        assert params.penalty_const == private_cuts.DEFAULT_PENALTY_CONST
        assert params == IsoCutParams(eps=Epsilon(1.0), beta=0.5, U=frozenset({1, 2}), penalty_const=4.0)

    @pytest.mark.parametrize("beta", [0.0, 1.0, -0.5])
    def test_beta_message(self, beta):
        with pytest.raises(ValueError, match=rf"^beta must lie in \(0, 1\), got {beta!r}$"):
            IsoCutParams(Epsilon(1.0), beta, frozenset())

    def test_equal_fields_equal_objects_and_hashes(self):
        a, b = IsoCutParams(Epsilon(1.0), 0.5, {1, 2}), IsoCutParams(Epsilon(1.0), 0.5, (2, 1))
        assert a == b and hash(a) == hash(b)
        assert a != IsoCutParams(Epsilon(1.0), 0.5, {1})

    def test_fields_cannot_be_assigned(self):
        params = IsoCutParams(Epsilon(1.0), 0.5, {1})
        with pytest.raises(AttributeError):
            params.U = frozenset({1, 2})
        assert params.U == frozenset({1})


def iso_params(eps, g, beta=0.01) -> IsoCutParams:
    return IsoCutParams(eps=eps, beta=beta, U=frozenset(g.vertices))


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


@st.composite
def spread_terminal_graphs(draw, empty_universe: bool):
    """A graph on spread-out labels 3v + 1, two or more terminals, and a penalty universe.

    Weights are thirds or free floats, so sums depend on their order.
    The universe is empty, or a random nonempty vertex subset.
    """
    weights = st.one_of(strategies.third_weights, strategies.float_weights)
    g, terminals = draw(strategies.graphs_with_terminals(min_n=3, max_n=10, weights=weights))
    label = {v: 3 * v + 1 for v in g.vertices}
    h = Graph(label.values(), [(label[u], label[v], w) for u, v, w in g.edges()])
    U = frozenset() if empty_universe else draw(st.sets(st.sampled_from(h.vertices), min_size=1))
    return h, [label[r] for r in terminals], U


def spy_isolating_cuts(g, R, params, rng, ledger=None):
    """Run the isolating cuts; return the rounds' vertex codes and every S-T cut call as (graph, S, T, side).

    The rounds' codes come from the first ``bit_round_codes`` call; the
    combined cut's s-t mechanism makes the second.
    """
    codes, calls = [], []
    real_codes, real_cut = private_cuts.bit_round_codes, private_cuts.private_min_ST_cut

    def codes_spy(*args):
        codes.append(real_codes(*args))
        return codes[-1]

    def cut_spy(h, S, T, *rest):
        side = real_cut(h, S, T, *rest)
        calls.append((h, list(S), list(T), side))
        return side

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(private_cuts, "bit_round_codes", codes_spy)
        mp.setattr(private_cuts, "private_min_ST_cut", cut_spy)
        private_isolating_cuts(g, R, params, rng, ledger)
    assert len(codes) == 2
    return codes[0], calls


def round_sides(g, R, codes) -> list[frozenset]:
    """Round i's side: the vertices whose code has bit i clear."""
    return [
        frozenset(v for v, code in zip(g.vertices, codes) if not code >> i & 1)
        for i in range((len(R) - 1).bit_length())
    ]


@st.composite
def spread_graphs_with_r(draw, size):
    """A graph on spread-out labels 3v + 1 with thirds or free weights, and ``size`` terminals, or all vertices at None."""
    weights = st.one_of(strategies.third_weights, strategies.float_weights)
    g = draw(strategies.connected_graphs(min_n=max(size or 3, 3), max_n=max(size or 0, 10), weights=weights))
    label = {v: 3 * v + 1 for v in g.vertices}
    h = Graph(label.values(), [(label[u], label[v], w) for u, v, w in g.edges()])
    R = draw(st.permutations(h.vertices).map(lambda p: sorted(p[: size or h.n])))
    return h, R


def record_flows(mp: pytest.MonkeyPatch, graphs: list, rule: bool = True) -> tuple[list, list]:
    """Record every decision of the rule and every kernel run; with ``rule`` False the rule decides nothing.

    Returns the decisions, each as (the sums it read, as (x, c_s, c_t,
    r) tuples, and whether it decided), and the kernel runs, each as
    (arc lists, heads, start and final capacities, s, t, the vertex at
    each position of the network it cut). Each call of the s-t mechanism
    appends (its graph, the number of decisions recorded before it) to
    ``graphs``.
    """
    decisions, flows, cut = [], [], []
    real_rule, real_kernel = private_cuts._decided_side, _maxflow._dinic_levels
    real_source_side, real_cut = private_cuts.min_cut_source_side, private_cuts.private_min_st_cut

    def rule_spy(sums):
        sums = list(sums)
        side = real_rule(sums) if rule else None
        decisions.append((sums, side is not None))
        return side

    def kernel_spy(adj, head, cap, s, t, empty):
        start = cap[:]
        level = real_kernel(adj, head, cap, s, t, empty)
        flows.append((adj, head, start, cap, s, t, cut[-1]._net[1]))
        return level

    mp.setattr(private_cuts, "_decided_side", rule_spy)
    mp.setattr(_maxflow, "_dinic_levels", kernel_spy)
    mp.setattr(private_cuts, "min_cut_source_side", lambda h, *args: cut.append(h) or real_source_side(h, *args))
    mp.setattr(private_cuts, "private_min_st_cut", lambda h, *args: graphs.append((h, len(decisions))) or real_cut(h, *args))
    return decisions, flows


def flow_rows(flow) -> tuple:
    """Each vertex's arcs of positive capacity, in list order, as (head, start, final capacity), by the cut graph's vertex labels; and s, t."""
    adj, head, start, cap, s, t, vertices = flow
    label = vertices.__getitem__
    rows = {}
    for u, arcs in enumerate(adj):
        row = [(label(head[a]), start[a].hex(), cap[a].hex()) for a in arcs if start[a] > 0.0]
        if row:
            rows[label(u)] = row
    return rows, label(s), label(t)


def hex_sums(sums, label) -> dict:
    """Each vertex's (c_s, c_t, r) as hex strings, by vertex label."""
    return {label(x): (cs.hex(), ct.hex(), r.hex()) for x, cs, ct, r in sums}


class TestBitRounds:
    """Each isolating-cut round, from the shared edge scan or its noised graph, against the private S-T cut it stands for."""

    @pytest.mark.parametrize("eps", [Epsilon(1.0), INFINITE], ids=["eps1", "infinite"])
    @pytest.mark.parametrize("size", [2, 3, 5, 9, None], ids=["r2", "r3", "r5", "r9", "rn"])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**16))
    def test_each_round_is_the_private_ST_cut(self, eps, size, data, seed):
        self.check_rounds(True, eps, size, data, seed)

    @pytest.mark.parametrize("eps", [Epsilon(1.0), INFINITE], ids=["eps1", "infinite"])
    @pytest.mark.parametrize("size", [2, 3, 5, 9, None], ids=["r2", "r3", "r5", "r9", "rn"])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**16))
    def test_each_round_is_the_private_ST_cut_with_the_rule_off(self, eps, size, data, seed):
        # Every round runs Dinic, so every round's flow is checked.
        self.check_rounds(False, eps, size, data, seed)

    @staticmethod
    def check_rounds(rule, eps, size, data, seed):
        g, R = data.draw(spread_graphs_with_r(size))
        params = IsoCutParams(eps=eps, beta=0.01, U=frozenset(g.vertices))
        ledger = PrivacyLedger(eps)
        combined = []
        with pytest.MonkeyPatch.context() as mp:
            decisions, flows = record_flows(mp, combined, rule)
            codes, calls = spy_isolating_cuts(g, R, params, Rng(seed), ledger)
        assert len(calls) == 1  # only the combined cut
        ((_, rounds_decided),) = combined
        sides = round_sides(g, R, codes)
        assert rounds_decided == len(sides)  # one decision per round, then the combined cut's
        round_flows = iter(flows)  # the undecided rounds' flows come first, in round order
        fresh = g.vertices[-1] + 1
        eps_call = eps.split(math.log2(len(R)) + 2.0)
        ref_ledger = PrivacyLedger(eps)
        for i, side in enumerate(sides):
            A = [r for idx, r in enumerate(R) if not idx >> i & 1]
            B = [r for idx, r in enumerate(R) if idx >> i & 1]
            graphs = []
            with pytest.MonkeyPatch.context() as mp:
                ref_decisions, ref_flows = record_flows(mp, graphs, rule)
                want = private_min_ST_cut(g, A, B, eps_call, Rng(seed).child(f"round.{i}"), ref_ledger)
            assert side == want
            ((h, before),) = graphs
            assert before == 0
            s = A[0] if len(A) == 1 else fresh
            t = B[0] if len(B) == 1 else fresh + (len(A) > 1)
            # Every outside vertex's c_s, c_t and r, bitwise those of the noised, contracted graph's network.
            noised = oracles.noised_graph(h, s, t, eps_call, Rng(seed).child(f"round.{i}"))
            index, verts, adj, head, cap = _maxflow._network(noised)
            # At an infinite budget that is h, whose network contraction patched: skip its empty positions.
            ref_sums = [row for row in oracles.arc_sums(adj, head, cap, index[s], index[t]) if verts[row[0]] is not None]
            sums, decided = decisions[i]
            assert hex_sums(sums, lambda x: x) == hex_sums(ref_sums, verts.__getitem__)
            ((_, ref_decided),) = ref_decisions
            assert decided == ref_decided
            if not decided:
                # Same arcs in the same order with the same capacities, before and after the flow.
                (ref_flow,) = ref_flows
                assert flow_rows(next(round_flows)) == flow_rows(ref_flow)
        assert ledger.entries[:-1] == ref_ledger.entries
        assert ledger.entries[-1].name == "private_st_cut"


class TestCombinedGraph:
    """The union the combined cut runs on, against relabelled per-region contractions."""

    @pytest.mark.parametrize("empty_universe", [True, False])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**16))
    def test_equals_relabelled_region_graphs(self, empty_universe, data, seed):
        g, R, U = data.draw(spread_terminal_graphs(empty_universe))
        params = IsoCutParams(eps=Epsilon(1.0), beta=0.01, U=U)
        codes, calls = spy_isolating_cuts(g, R, params, Rng(seed))
        ((combined, sources, sinks, _),) = calls
        regions = oracles.bit_partition_regions(g, R, round_sides(g, R, codes))
        ref, ref_sources, ref_sinks = oracles.isolating_union(g, R, regions, params)
        assert combined.vertices == ref.vertices
        assert [(u, v, w.hex()) for u, v, w in combined.edges()] == [(u, v, w.hex()) for u, v, w in ref.edges()]
        assert (sources, sinks) == (ref_sources, ref_sinks)


class TestPrivateIsolatingCuts:
    @given(
        strategies.graphs_with_terminals(
            min_n=3, max_n=12, min_r=2, weights=st.one_of(strategies.third_weights, strategies.float_weights)
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_noiseless_matches_exact_per_terminal(self, gt):
        g, terminals = gt
        want = oracles.isolating_cuts_per_region(g, terminals)
        got = private_isolating_cuts(g, terminals, iso_params(INFINITE, g), Rng(0))
        assert got.cuts == want
        assert isolating_cuts_exact(g, terminals) == want

    def test_exact_forms_draw_nothing(self, monkeypatch):
        g = generate("erdos-renyi-weighted", {"n": 12, "p": 0.5}, 3)
        R = [0, 3, 5, 6, 9]
        with pytest.raises(AssertionError, match="a draw was made"):
            private_isolating_cuts(g, R, iso_params(Epsilon(1.0), g), RaisingRng(0))
        monkeypatch.setattr(private_cuts, "Rng", RaisingRng)
        assert isolating_cuts_exact(g, R) == oracles.isolating_cuts_per_region(g, R)
        side = private_min_ST_cut(g, [0, 1], [5, 6], INFINITE, RaisingRng(0))
        assert cut_weight(g, side) == pytest.approx(oracles.brute_min_ST_value(g, [0, 1], [5, 6]), abs=1e-9)

    def test_exact_call_count_and_budget(self):
        eps = Epsilon(1.0)
        for size in range(2, 11):
            g = generate("erdos-renyi-weighted", {"n": 12, "p": 0.5}, size)
            R = list(g.vertices[:size])
            led = PrivacyLedger(eps)
            private_isolating_cuts(g, R, iso_params(eps, g), Rng(size), led)
            calls = [e for e in led.entries if e.name == "private_st_cut"]
            assert len(calls) == math.floor(math.log2(size - 1)) + 2
            assert led.total() <= eps.value + 1e-12
            assert led.within_budget()

    @given(strategies.graphs_with_terminals(min_n=4, max_n=8, min_r=3))
    @settings(max_examples=40, deadline=None)
    def test_noisy_outputs_are_disjoint_isolating_sides(self, gt):
        g, terminals = gt
        got = private_isolating_cuts(g, terminals, iso_params(Epsilon(1.0), g), Rng(41))
        for r, cs in got.cuts.items():
            assert cs.side & set(terminals) == {r}
            assert cs.value == cut_weight(g, cs.side)
        for a, b in combinations(terminals, 2):
            assert not got.cuts[a].side & got.cuts[b].side

    def test_noisy_reproduces(self):
        g = dumbbell6()
        p = iso_params(Epsilon(0.5), g)
        a = private_isolating_cuts(g, [0, 3], p, Rng(9))
        b = private_isolating_cuts(g, [0, 3], p, Rng(9))
        assert a.cuts == b.cuts

    def test_empty_universe_skips_penalty(self):
        g = dumbbell6()
        p = IsoCutParams(eps=Epsilon(1.0), beta=0.01, U=frozenset())
        got = private_isolating_cuts(g, [0, 3], p, Rng(2))
        assert set(got.cuts) == {0, 3}

    def test_validation(self):
        g = dumbbell6()
        with pytest.raises(ValueError):
            private_isolating_cuts(g, [0], iso_params(Epsilon(1.0), g), Rng(0))
        with pytest.raises(ValueError):
            private_isolating_cuts(g, [0, 99], iso_params(Epsilon(1.0), g), Rng(0))
        bad = IsoCutParams(eps=Epsilon(1.0), beta=0.1, U=frozenset({99}))
        with pytest.raises(ValueError):
            private_isolating_cuts(g, [0, 3], bad, Rng(0))

    def test_overflowing_penalty_rejected(self):
        # At eps=1e-307 the noise means are finite but the penalty is not.
        g = dumbbell6()
        params = IsoCutParams(eps=Epsilon(1e-307), beta=0.01, U=frozenset({0}))
        with pytest.raises(ValueError, match="penalty weight overflows"):
            private_isolating_cuts(g, [0, 5], params, Rng(0))


def labelled(kinds: list, kind: str, real):
    """``real``, with ``kind`` pushed onto ``kinds`` for the length of each call."""

    def spy(*args):
        kinds.append(kind)
        try:
            return real(*args)
        finally:
            kinds.pop()

    return spy


def count_decided_flows(mp: pytest.MonkeyPatch) -> Counter:
    """Count every flow with something to decide as (kind, decided): kind "pivot", "combined" or "round".

    A flow has something to decide when a vertex besides s and t has a
    positive arc; the combined cut of an R = V isolating cut, contracted
    to s and t, has not. Pivot flows come through ``exact``, which runs
    Dinic without the rule, so none should be counted; the combined cut
    comes through the s-t mechanism, ``private_cuts.private_min_st_cut``,
    and the rounds from ``bit_round_codes`` directly.
    """
    counts: Counter = Counter()
    kinds: list[str] = []
    real_rule = private_cuts._decided_side

    def rule_spy(sums):
        sums = list(sums)
        side = real_rule(sums)
        if any(cs or ct or r for _, cs, ct, r in sums):
            counts[kinds[-1] if kinds else "round", side is not None] += 1
        return side

    mp.setattr(private_cuts, "_decided_side", rule_spy)
    mp.setattr(exact, "min_cut_source_side", labelled(kinds, "pivot", exact.min_cut_source_side))
    mp.setattr(private_cuts, "private_min_st_cut", labelled(kinds, "combined", private_cuts.private_min_st_cut))
    return counts


INSTANCES = {
    "er40": ("erdos-renyi-weighted", {"n": 40, "p": 0.2}),
    "planted24": ("planted-community", {"n": 24}),
    "dumbbell6": ("dumbbell", {"clique": 6}),
}


def build_bytes(g: Graph, eps: Epsilon, seed: int, tmp_path) -> bytes:
    """A private tree's file, its ledger and isolating cuts on two terminal sets, as bytes."""
    ledger = PrivacyLedger(eps)
    save_tree(final_gh_tree(g, eps, Rng(seed), ledger), str(tmp_path / "tree.txt"))
    out = [(tmp_path / "tree.txt").read_text()]
    out += [f"{e.name} {e.sensitivity!r} {e.scale!r} {e.count}\n" for e in ledger.entries]
    for R in (g.vertices[::3], g.vertices):
        ledger = PrivacyLedger(eps)
        res = private_isolating_cuts(g, R, iso_params(eps, g), Rng(seed), ledger)
        out += [f"{r} {sorted(c.side)} {c.value!r}\n" for r, c in sorted(res.cuts.items())]
        out += [f"{e.name} {e.sensitivity!r} {e.scale!r} {e.count}\n" for e in ledger.entries]
    return "".join(out).encode()


# The (instance, budget, seed) builds in which the rule decides no flow with something to decide:
# on er40 without noise, every round and combined cut there needs Dinic.
NOTHING_DECIDED = {("er40", "infinite", 1), ("er40", "infinite", 2)}


class TestDecidedFlows:
    """The rule in ``_maxflow._decided_side`` that skips Dinic when the noise decides every vertex's side."""

    def test_rule_takes_the_noised_flows_and_no_pivot_flow(self):
        g = generate("erdos-renyi-weighted", {"n": 30, "p": 0.2}, 0)
        with pytest.MonkeyPatch.context() as mp:
            counts = count_decided_flows(mp)
            for seed in range(3):
                final_gh_tree(g, Epsilon(1.0), Rng(seed))
        noised = sum(n for (kind, _), n in counts.items() if kind != "pivot")
        decided = counts["round", True] + counts["combined", True]
        assert counts["round", True] > 0 and counts["combined", True] > 0
        assert decided >= 0.9 * noised
        assert counts["pivot", False] == counts["pivot", True] == 0

    @pytest.mark.parametrize("eps", [Epsilon(1.0), Epsilon(1e3), INFINITE], ids=["eps1", "eps1e3", "infinite"])
    @pytest.mark.parametrize("label", sorted(INSTANCES))
    def test_outputs_equal_with_the_rule_off(self, label, eps, tmp_path):
        g = generate(*INSTANCES[label], 0)
        budget = "infinite" if eps.is_noiseless else repr(eps.value)
        for seed in range(3):
            with pytest.MonkeyPatch.context() as mp:
                counts = count_decided_flows(mp)
                default = build_bytes(g, eps, seed, tmp_path)
            with pytest.MonkeyPatch.context() as mp:
                # Every flow, pivot, round or combined, falls back to Dinic.
                mp.setattr(private_cuts, "_decided_side", lambda sums: None)
                assert build_bytes(g, eps, seed, tmp_path) == default
            decided = sum(n for (_, taken), n in counts.items() if taken)
            assert (decided == 0) == ((label, budget, seed) in NOTHING_DECIDED)


def network_work(mp: pytest.MonkeyPatch) -> tuple[Counter, list]:
    """Count, as rounds run, the decisions taken and missed, networks built and Dinic runs; list the graphs cut.

    Each graph an undecided round cuts is listed as (graph, s, t).
    """
    work: Counter = Counter()
    cuts: list = []
    real_rule, real_network, real_kernel = private_cuts._decided_side, _maxflow._network, _maxflow._dinic_levels
    real_source_side = private_cuts.min_cut_source_side

    def rule_spy(sums):
        side = real_rule(sums)
        work["decided" if side is not None else "undecided"] += 1
        return side

    def network_spy(h):
        work["networks"] += h._net is None
        return real_network(h)

    def kernel_spy(*args):
        work["flows"] += 1
        return real_kernel(*args)

    mp.setattr(private_cuts, "_decided_side", rule_spy)
    mp.setattr(_maxflow, "_network", network_spy)
    mp.setattr(_maxflow, "_dinic_levels", kernel_spy)
    mp.setattr(private_cuts, "min_cut_source_side", lambda h, s, t: cuts.append((h, s, t)) or real_source_side(h, s, t))
    return work, cuts


def replay_rounds(g: Graph, eps: Epsilon, seed: int) -> list:
    """Every ``bit_round_codes`` call of a private build, as (kind, graph, R, noise, codes); kind "st" or "rounds"."""
    calls, kinds = [], []
    real_codes = private_cuts.bit_round_codes

    def codes_spy(h, R, noise):
        codes = real_codes(h, R, noise)
        calls.append((kinds[-1] if kinds else "rounds", h, list(R), noise, codes))
        return codes

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(private_cuts, "bit_round_codes", codes_spy)
        mp.setattr(private_cuts, "private_min_st_cut", labelled(kinds, "st", private_cuts.private_min_st_cut))
        final_gh_tree(g, eps, Rng(seed))
    return calls


class TestDecidedRoundsBuildNothing:
    """A round the sums decide builds no network and runs no flow; an undecided one cuts one noised graph."""

    @pytest.mark.parametrize("label", sorted(INSTANCES))
    def test_decided_calls_build_no_network(self, label):
        g = generate(*INSTANCES[label], 0)
        decided = Counter()
        for kind, h, R, noise, codes in replay_rounds(g, Epsilon(1.0), 0):
            fresh = Graph(h.vertices, h.edges())
            with pytest.MonkeyPatch.context() as mp:
                work, cuts = network_work(mp)
                assert private_cuts.bit_round_codes(fresh, R, noise) == codes
            assert work["decided"] + work["undecided"] == len(noise)
            if not work["undecided"]:
                decided[kind] += 1
                assert work["networks"] == work["flows"] == len(cuts) == 0
                assert fresh._net is None
        # Both the s-t mechanism and the isolating cuts' rounds have calls whose every round is decided.
        assert decided["st"] > 0 and decided["rounds"] > 0

    @pytest.mark.parametrize("size, rounds", [(2, 1), (3, 2), (5, 3), (9, 4)])
    def test_each_undecided_round_cuts_one_noised_graph(self, size, rounds):
        g = generate("erdos-renyi-weighted", {"n": 30, "p": 0.2}, 0)
        R = list(g.vertices[::3][:size])
        noise = [private_cuts._draw_noise(g.n - size, 1.0, Rng(i)) for i in range(rounds)]
        want = private_cuts.bit_round_codes(g, R, noise)
        fresh = Graph(g.vertices, g.edges())
        with pytest.MonkeyPatch.context() as mp:
            work, cuts = network_work(mp)
            mp.setattr(private_cuts, "_decided_side", lambda sums: None)
            assert private_cuts.bit_round_codes(fresh, R, noise) == want
        assert work["flows"] == len(cuts) == rounds
        # One network per noised graph, and g's, which contraction reads, once there are blocks to contract.
        assert work["networks"] == rounds + (size > 2)
        outside = [v for v in g.vertices if v not in R]
        label = g.vertices[-1] + 1
        for i, (h, s, t) in enumerate(cuts):
            A = [r for k, r in enumerate(R) if not k >> i & 1]
            B = [r for k, r in enumerate(R) if k >> i & 1]
            # A one-terminal block keeps its terminal; a block of several gets a fresh label, A's first.
            assert s == (A[0] if len(A) == 1 else label)
            assert t == (B[0] if len(B) == 1 else label + (len(A) > 1))
            ends = [block[0] for block in (A, B) if len(block) == 1]
            assert h.vertices == (*sorted(outside + ends), *range(label, label + (len(A) > 1) + (len(B) > 1)))
