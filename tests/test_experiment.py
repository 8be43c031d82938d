"""Experiment harness: sweeps, error measurement, CSV output, config files."""

from __future__ import annotations

import copy
import math
import statistics
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghtree import (
    INFINITE,
    Epsilon,
    ExperimentConfig,
    ExperimentReport,
    ExperimentRow,
    Graph,
    Rng,
    SteinerTree,
    StepParams,
    contract,
    final_gh_tree,
    generate,
    gh_tree_step,
    load_graph,
    min_st_cut_exact,
    parse_config,
    run_experiment,
    save_graph,
    tree_query,
    write_csv,
)
from ghtree import exact, experiment
from ghtree.experiment import CSV_HEADER, AbortRecord, _instance, _median, _pair_answers
from ghtree.exact import gomory_hu_exact
from ghtree.steiner import _path_minima
from oracles import min_edge_on_path
from strategies import connected_graphs


def small_config(**overrides) -> ExperimentConfig:
    base = dict(
        generator="erdos-renyi-weighted",
        params={"n": 10, "p": 0.4},
        eps=(1.0,),
        seeds=(0, 1),
        mode="private",
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_needs_exactly_one_source(self):
        with pytest.raises(ValueError, match="exactly one"):
            ExperimentConfig(generator="cycle", input_path="g.txt")
        with pytest.raises(ValueError, match="exactly one"):
            ExperimentConfig()

    def test_mode_validated(self):
        with pytest.raises(ValueError, match="mode"):
            small_config(mode="fancy")

    def test_seeds_and_eps_validated(self):
        with pytest.raises(ValueError):
            small_config(seeds=())
        with pytest.raises(ValueError):
            small_config(eps=())
        with pytest.raises(ValueError):
            small_config(eps=(0.0,))
        with pytest.raises(ValueError):
            small_config(eps=(math.nan,))

    @pytest.mark.parametrize("seed", [-3, -1, 2**64])
    @pytest.mark.parametrize("mode", ["private", "exact-baseline"])
    def test_seeds_must_fit_rng(self, mode, seed):
        # Rng takes seeds in [0, 2**64); the exact baseline draws nothing, so only the config can catch them.
        with pytest.raises(ValueError, match=r"seeds must lie in \[0, 2\*\*64\)"):
            small_config(seeds=(0, seed), mode=mode)
        small_config(seeds=(0, 2**64 - 1), mode=mode)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0])
    @pytest.mark.parametrize("name", ["c1", "c2", "c_depth", "penalty_const"])
    def test_constants_must_be_positive_and_finite(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            small_config(**{name: value})

    def test_positional_and_keyword_construction_with_defaults(self):
        config = ExperimentConfig("cycle")
        assert config == ExperimentConfig(
            generator="cycle",
            params={},
            input_path=None,
            eps=(1.0,),
            seeds=(0,),
            mode="private",
            c1=4.0,
            c2=4.0,
            c_depth=4.0,
            penalty_const=4.0,
            out=None,
        )
        assert config.params is not ExperimentConfig("cycle").params
        positional = ExperimentConfig(None, {"n": 3}, "g.txt", (2.0,), (5,), "exact-baseline", 1.0, 2.0, 3.0, 5.0, "o")
        assert positional == ExperimentConfig(
            out="o",
            penalty_const=5.0,
            c_depth=3.0,
            c2=2.0,
            c1=1.0,
            mode="exact-baseline",
            seeds=(5,),
            eps=(2.0,),
            input_path="g.txt",
            params={"n": 3},
        )

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(seeds=()), "need at least one seed"),
            (dict(eps=()), "need at least one eps value"),
            (dict(eps=(1.0, -2.0)), r"eps values must be positive, got -2\.0"),
            (dict(mode="fancy"), r"mode must be one of \('private', 'exact-baseline'\), got 'fancy'"),
        ],
    )
    def test_validation_messages(self, overrides, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            small_config(**overrides)

    def test_equal_fields_equal_objects(self):
        assert small_config() == small_config() == copy.deepcopy(small_config())
        assert small_config() != small_config(seeds=(0,))
        # Like the frozen dataclass it replaced, hashing hashes every field, and params is a dict.
        with pytest.raises(TypeError, match="dict"):
            hash(small_config())

    def test_fields_cannot_be_assigned(self):
        config = small_config()
        with pytest.raises(AttributeError):
            config.eps = (2.0,)
        assert config.eps == (1.0,)


class TestRun:
    def test_noiseless_mode_has_zero_errors(self):
        report = run_experiment(small_config(eps=(math.inf,), seeds=(0, 1, 2)))
        assert len(report.rows) == 3 * (10 * 9 // 2)
        for row in report.rows:
            assert row.eps == "inf"
            assert abs(row.side_error) <= 1e-9
            assert abs(row.value_error) <= 1e-9
        assert report.max_side_error == pytest.approx(0.0, abs=1e-9)

    def test_exact_baseline_reports_exact_values(self):
        report = run_experiment(small_config(mode="exact-baseline"))
        for row in report.rows:
            assert row.eps == "exact"
            assert row.tree_value == row.lambda_exact
            assert row.side_error == pytest.approx(0.0, abs=1e-9)

    def test_private_mode_structure(self):
        report = run_experiment(small_config(eps=(0.5, 2.0)))
        pairs = 10 * 9 // 2
        assert len(report.rows) == 2 * 2 * pairs
        labels = {row.eps for row in report.rows}
        assert labels == {"0.5", "2.0"}
        for row in report.rows:
            assert row.side_error >= -1e-9
            assert row.side_true_weight == pytest.approx(
                row.lambda_exact + row.side_error, abs=1e-9
            )
        assert report.max_side_error == max(r.side_error for r in report.rows)
        by_cell = report.max_side_error_by_cell()
        assert set(by_cell) == {(s, e) for s in (0, 1) for e in ("0.5", "2.0")}

    def test_median_side_error_is_the_median(self):
        report = run_experiment(small_config(eps=(0.5, 2.0)))
        side_errors = [row.side_error for row in report.rows]
        assert report.median_side_error.hex() == statistics.median(side_errors).hex()

    @pytest.mark.parametrize(
        "values",
        [[0.3], [0.1, 0.7, 0.2], [0.1, 0.7, 0.2, 1e-300], [1.0, 2.0], [-0.0, 0.0, 5e-324, 1.7976931348623157e308]],
    )
    def test_median_matches_statistics(self, values):
        assert _median(values).hex() == statistics.median(values).hex()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1))
    def test_median_matches_statistics_on_any_list(self, values):
        assert _median(values).hex() == statistics.median(values).hex()

    def test_reports_compare_by_fields_and_are_unhashable(self):
        report = ExperimentReport([], [AbortRecord(0, "1.0", 3)], None, None, 0.5)
        same = ExperimentReport(
            rows=[],
            aborts=[AbortRecord(seed=0, eps="1.0", depth=3)],
            max_side_error=None,
            median_side_error=None,
            wall_time_s=0.5,
        )
        assert report == same
        assert report != ExperimentReport([], [], None, None, 0.5)
        with pytest.raises(TypeError):
            hash(report)

    def test_file_instance_source(self, tmp_path):
        g = Graph(range(4), [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0), (3, 0, 2.0)])
        path = str(tmp_path / "g.txt")
        save_graph(g, path)
        report = run_experiment(
            ExperimentConfig(input_path=path, eps=(math.inf,), seeds=(0,))
        )
        assert len(report.rows) == 6
        assert report.max_side_error == pytest.approx(0.0, abs=1e-9)

    def test_aborted_cells_recorded_and_skipped(self):
        config = small_config(
            params={"n": 12, "p": 0.3},
            eps=(0.5,),
            seeds=(0,),
            c_depth=0.01,
            c1=1e-9,
            c2=1e-9,
        )
        report = run_experiment(config)
        assert len(report.aborts) == 1
        assert report.aborts[0].seed == 0
        assert report.aborts[0].eps == "0.5"
        assert report.rows == []
        assert report.max_side_error is None


def count_flows(monkeypatch) -> list:
    """Record every exact max-flow, as its (s, t), in a list that the caller reads."""
    calls = []
    real = exact.min_cut_source_side

    def spy(g, s, t):
        calls.append((s, t))
        return real(g, s, t)

    monkeypatch.setattr(exact, "min_cut_source_side", spy)
    return calls


class TestSharedPivotValues:
    """A seed's eps cells share its graph's exact pivot values; no other graph keeps them."""

    EPS = (0.5, 1.0, 2.0, 4.0)

    def test_eps_cells_run_the_flows_of_one_cell(self, monkeypatch):
        # Default constants give a depth-0 star in every cell, so every pivot flow runs on the seed's own graph.
        calls = count_flows(monkeypatch)
        fields = dict(params={"n": 16, "p": 0.3}, seeds=(0, 1))
        config = small_config(**fields)
        report = run_experiment(small_config(**fields, eps=self.EPS))
        sweep_flows = len(calls)
        del calls[:]
        run_experiment(config)
        assert sweep_flows == len(calls)
        for value in self.EPS:
            single = run_experiment(small_config(**fields, eps=(value,)))
            assert [r for r in report.rows if r.eps == repr(value)] == single.rows

    def test_consecutive_builds_each_run_every_pivot_flow(self, monkeypatch):
        calls = count_flows(monkeypatch)
        g = generate("erdos-renyi-weighted", {"n": 16, "p": 0.3}, 0)
        counts = []
        for _ in range(2):
            del calls[:]
            final_gh_tree(g, Epsilon(1.0), Rng(0))
            counts.append(len(calls))
        assert counts == [g.n - 1, g.n - 1]
        assert g._pivot_values is None

    def test_step_fills_the_memo_with_exact_values(self):
        g = generate("erdos-renyi-weighted", {"n": 12, "p": 0.4}, 0)
        params = StepParams(eps=Epsilon(1.0), beta=0.01)
        plain = gh_tree_step(g, 3, g.vertices, params, Rng(0))
        g._pivot_values = {}
        assert gh_tree_step(g, 3, g.vertices, params, Rng(0)) == plain
        assert g._pivot_values == {(3, v): min_st_cut_exact(g, 3, v).value for v in g.vertices if v != 3}
        assert gh_tree_step(g, 3, g.vertices, params, Rng(0)) == plain

    def test_memo_is_ignored_by_equality_and_hashing(self):
        g = generate("erdos-renyi-weighted", {"n": 8, "p": 0.5}, 0)
        h = generate("erdos-renyi-weighted", {"n": 8, "p": 0.5}, 0)
        g._pivot_values = {(0, 1): 1.0}
        assert g == h and hash(g) == hash(h)

    def test_no_other_graph_carries_a_memo(self, tmp_path):
        g = generate("erdos-renyi-weighted", {"n": 8, "p": 0.5}, 0)
        path = str(tmp_path / "g.txt")
        save_graph(g, path)
        graphs = [g, load_graph(path), contract(g, [0, 1])[0], Graph(range(3), [(0, 1, 1.0)])]
        assert [h._pivot_values for h in graphs] == [None] * 4


@st.composite
def graphs_with_trees(draw):
    """Connected graph plus two random spanning trees on its vertices.

    Tree weights come from {0.0, 1.0, 2.0}, so tied path minima are common.
    """
    g = draw(connected_graphs(min_n=2, max_n=8))
    weight = st.sampled_from([0.0, 1.0, 2.0])

    def spanning_tree():
        order = draw(st.permutations(list(g.vertices)))
        edges = [
            (order[i], order[draw(st.integers(0, i - 1))], draw(weight))
            for i in range(1, len(order))
        ]
        return SteinerTree(g.vertices, edges)

    return g, spanning_tree(), spanning_tree()


def per_pair_answers(g, exact_tree, tree):
    """The harness's answers recomputed with one tree_query per pair.

    The exact values are the reference walk's path minima, independent
    of the walk ``_pair_answers`` and ``tree_query`` share.
    """
    out = []
    for i, s in enumerate(g.vertices):
        for t in g.vertices[i + 1 :]:
            value, cut = tree_query(tree, g, s, t)
            out.append((s, t, min_edge_on_path(exact_tree, s, t)[2], value, cut.value))
    return out


class TestPairAnswers:
    @settings(max_examples=200, deadline=None)
    @given(graphs_with_trees())
    def test_matches_tree_query_per_pair(self, case):
        g, exact_tree, tree = case
        exact_minima = [_path_minima(exact_tree, s) for s in g.vertices]
        assert list(_pair_answers(g, exact_minima, tree)) == per_pair_answers(g, exact_tree, tree)

    @pytest.mark.parametrize(
        "overrides",
        [
            pytest.param({"eps": (math.inf,)}, id="noiseless"),
            pytest.param({"mode": "exact-baseline"}, id="exact-baseline"),
        ],
    )
    def test_rows_match_tree_query_loop(self, overrides):
        config = small_config(params={"n": 12, "p": 0.3}, seeds=(0,), **overrides)
        report = run_experiment(config)
        g = _instance(config, 0)
        exact_tree = gomory_hu_exact(g)
        tree = exact_tree if config.mode == "exact-baseline" else final_gh_tree(g, INFINITE, Rng(0))
        expected = per_pair_answers(g, exact_tree, tree)
        got = [
            (r.pair_s, r.pair_t, r.lambda_exact, r.tree_value, r.side_true_weight)
            for r in report.rows
        ]
        assert got == expected
        for r in report.rows:
            assert r.side_error == r.side_true_weight - r.lambda_exact
            assert r.value_error == r.tree_value - r.lambda_exact

    def test_exact_tree_walked_once_per_source(self, monkeypatch):
        # The eps cells of a seed share one path-minimum walk of the exact tree from each vertex.
        trees, walks = [], Counter()
        real_exact, real_walk = experiment.gomory_hu_exact, experiment._path_minima

        def exact_spy(g):
            trees.append(real_exact(g))
            return trees[-1]

        def walk_spy(tree, s):
            walks[id(tree), s] += 1
            return real_walk(tree, s)

        monkeypatch.setattr(experiment, "gomory_hu_exact", exact_spy)
        monkeypatch.setattr(experiment, "_path_minima", walk_spy)
        run_experiment(small_config(eps=(0.5, 1.0, 2.0)))
        assert len(trees) == 2
        for tree in trees:
            assert [walks[id(tree), s] for s in tree.nodes] == [1] * len(tree.nodes)


class TestCsv:
    def test_write_and_determinism(self, tmp_path):
        report = run_experiment(small_config())
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        write_csv(report, p1)
        report2 = run_experiment(small_config())
        write_csv(report2, p2)
        b1, b2 = open(p1, "rb").read(), open(p2, "rb").read()
        assert b1 == b2
        text = b1.decode()
        assert text.splitlines()[0] == CSV_HEADER
        assert len(text.splitlines()) == len(report.rows) + 1

    def test_values_round_trip_through_repr(self, tmp_path):
        report = run_experiment(small_config(seeds=(3,)))
        path = str(tmp_path / "r.csv")
        write_csv(report, path)
        lines = open(path).read().splitlines()[1:]
        for row, line in zip(report.rows, lines):
            cells = line.split(",")
            assert float(cells[4]) == row.lambda_exact
            assert float(cells[5]) == row.tree_value
            assert float(cells[8]) == row.value_error


    def test_text_is_each_value_repr(self, tmp_path):
        # Zeros of both signs in every memoised column, in both orders,
        # values repeated within and across columns, a subnormal and
        # 17-digit floats.
        rows = [
            ExperimentRow(0, 1, 5, "1.0", -0.0, 0.0, 2.5, 2.5, 0.0),
            ExperimentRow(0, 2, 5, "1.0", 0.0, -0.0, 2.5, 2.5, -0.0),
            ExperimentRow(1, 2, 5, "1.0", 5e-324, 0.1 + 0.2, -0.0, -1.0, 0.1 + 0.2),
            ExperimentRow(0, 1, 6, "exact", 1e16, 1e16, 0.0, 1.2345678901234567, 5e-324),
            ExperimentRow(0, 2, 6, "exact", 5e-324, 2.5, 1.2345678901234567, -0.0, 0.0),
        ]
        report = ExperimentReport(rows, [], None, None, 0.0)
        path = tmp_path / "pinned.csv"
        write_csv(report, str(path))
        assert path.read_bytes() == (
            b"pair_s,pair_t,seed,eps,lambda_exact,tree_value,side_true_weight,side_error,value_error\n"
            b"0,1,5,1.0,-0.0,0.0,2.5,2.5,0.0\n"
            b"0,2,5,1.0,0.0,-0.0,2.5,2.5,-0.0\n"
            b"1,2,5,1.0,5e-324,0.30000000000000004,-0.0,-1.0,0.30000000000000004\n"
            b"0,1,6,exact,1e+16,1e+16,0.0,1.2345678901234567,5e-324\n"
            b"0,2,6,exact,5e-324,2.5,1.2345678901234567,-0.0,0.0\n"
        )
        assert not (tmp_path / "pinned.csv.tmp").exists()


class TestRowType:
    def test_fields(self):
        assert ExperimentRow._fields == (
            "pair_s",
            "pair_t",
            "seed",
            "eps",
            "lambda_exact",
            "tree_value",
            "side_true_weight",
            "side_error",
            "value_error",
        )

    def test_rows_are_the_pair_answers_in_sweep_order(self):
        config = small_config(seeds=(3,), eps=(2.0,))
        report = run_experiment(config)
        g = _instance(config, 3)
        exact_tree = gomory_hu_exact(g)
        tree = final_gh_tree(g, Epsilon(2.0), Rng(3))
        exact_minima = [_path_minima(exact_tree, s) for s in g.vertices]
        expected = [
            ExperimentRow(
                pair_s=s,
                pair_t=t,
                seed=3,
                eps="2.0",
                lambda_exact=exact_value,
                tree_value=tree_value,
                side_true_weight=side_value,
                side_error=side_value - exact_value,
                value_error=tree_value - exact_value,
            )
            for s, t, exact_value, tree_value, side_value in _pair_answers(g, exact_minima, tree)
        ]
        assert report.rows == expected


class TestParseConfig:
    def test_full_file(self, tmp_path):
        p = tmp_path / "exp.conf"
        p.write_text(
            "# sweep\n"
            "generator = erdos-renyi-weighted\n"
            "n = 50       # instance size\n"
            "p = 0.2\n"
            "eps = 0.5, 1, 2, 4\n"
            "seeds = 0..3, 10\n"
            "mode = private\n"
            "c_depth = 3.5\n"
            "out = results.csv\n"
        )
        config = parse_config(str(p))
        assert config.generator == "erdos-renyi-weighted"
        assert config.params == {"n": 50.0, "p": 0.2}
        assert config.eps == (0.5, 1.0, 2.0, 4.0)
        assert config.seeds == (0, 1, 2, 3, 10)
        assert config.c_depth == 3.5
        assert config.out == "results.csv"

    def test_input_file_source(self, tmp_path):
        p = tmp_path / "exp.conf"
        p.write_text("input = graphs/g.txt\nseeds = 1\n")
        config = parse_config(str(p))
        assert config.input_path == "graphs/g.txt"
        assert config.generator is None

    def test_env_constants_apply_and_file_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GHTREE_C1", "7.5")
        monkeypatch.setenv("GHTREE_C_DEPTH", "9.0")
        p = tmp_path / "exp.conf"
        p.write_text("generator = cycle\nn = 6\nc_depth = 2.0\n")
        config = parse_config(str(p))
        assert config.c1 == 7.5
        assert config.c_depth == 2.0

    def test_parse_errors_carry_line_numbers(self, tmp_path):
        p = tmp_path / "exp.conf"
        p.write_text("generator = cycle\nseeds = x\n")
        with pytest.raises(ValueError, match="line 2"):
            parse_config(str(p))
        p.write_text("generator = cycle\nnot a pair\n")
        with pytest.raises(ValueError, match="line 2"):
            parse_config(str(p))

    def test_unknown_key_must_be_numeric(self, tmp_path):
        p = tmp_path / "exp.conf"
        p.write_text("generator = cycle\nflavor = mint\n")
        with pytest.raises(ValueError, match="unknown key"):
            parse_config(str(p))
