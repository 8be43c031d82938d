"""End-to-end passes through the command line verbs."""

from __future__ import annotations

import pytest

from ghtree import cut_weight, generate, gomory_hu_exact, load_tree, save_graph
from ghtree.cli import main
from ghtree.experiment import CSV_HEADER
from ghtree.steiner import min_edge_on_path
from oracles import brute_min_st_value


@pytest.fixture
def graph_file(tmp_path):
    g = generate("erdos-renyi-weighted", {"n": 8, "p": 0.5}, 0)
    path = str(tmp_path / "g.txt")
    save_graph(g, path)
    return path, g


class TestExactVerb:
    def test_builds_tree_file(self, graph_file, tmp_path, capsys):
        path, g = graph_file
        out = str(tmp_path / "t.txt")
        assert main(["exact", "--input", path, "--out", out]) == 0
        assert f"wrote exact tree with 8 nodes to {out}" in capsys.readouterr().out
        tree = load_tree(out)
        assert tree.nodes == tuple(range(8))


class TestBuildVerb:
    def test_noiseless_build_matches_exact(self, graph_file, tmp_path, capsys):
        path, g = graph_file
        out = str(tmp_path / "t.txt")
        code = main(["build", "--input", path, "--eps", "inf", "--seed", "0", "--out", out])
        assert code == 0
        tree = load_tree(out)
        for s in range(8):
            for t in range(s + 1, 8):
                value = min_edge_on_path(tree, s, t)[2]
                assert value == pytest.approx(brute_min_st_value(g, s, t), abs=1e-9)

    def test_private_build_is_deterministic(self, graph_file, tmp_path):
        path, _ = graph_file
        out1, out2 = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
        assert main(["build", "--input", path, "--eps", "1.0", "--seed", "3", "--out", out1]) == 0
        assert main(["build", "--input", path, "--eps", "1.0", "--seed", "3", "--out", out2]) == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()

    def test_build_past_the_cap_exits_0(self, tmp_path, capsys, monkeypatch):
        # These constants make frames start past the depth cap.
        monkeypatch.setenv("GHTREE_C_DEPTH", "0.01")
        monkeypatch.setenv("GHTREE_C1", "1e-9")
        monkeypatch.setenv("GHTREE_C2", "1e-9")
        g = generate("erdos-renyi-weighted", {"n": 12, "p": 0.3}, 0)
        path = str(tmp_path / "g.txt")
        save_graph(g, path)
        out = str(tmp_path / "t.txt")
        code = main(["build", "--input", path, "--eps", "0.5", "--seed", "0", "--out", out])
        assert code == 0
        assert capsys.readouterr().err == ""
        tree = load_tree(out)
        assert tree.node_set == g.vertex_set
        assert set(tree.f) == g.vertex_set

    def test_negative_infinite_eps_exits_1(self, graph_file, tmp_path, capsys):
        path, _ = graph_file
        out = tmp_path / "t.txt"
        code = main(["build", "--input", path, "--eps=-inf", "--seed", "0", "--out", str(out)])
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "env, value",
        [("GHTREE_C1", "nan"), ("GHTREE_PENALTY_CONST", "nan"), ("GHTREE_C_DEPTH", "inf")],
    )
    def test_nonfinite_constant_exits_1(self, graph_file, tmp_path, capsys, monkeypatch, env, value):
        monkeypatch.setenv(env, value)
        path, _ = graph_file
        out = tmp_path / "t.txt"
        code = main(["build", "--input", path, "--eps", "1", "--seed", "0", "--out", str(out)])
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_input_exits_1(self, tmp_path, capsys):
        code = main(
            ["build", "--input", str(tmp_path / "none.txt"), "--eps", "1", "--seed", "0",
             "--out", str(tmp_path / "t.txt")]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestOneVertexGraph:
    """A `p 1 0` file is a valid graph, and every verb that reads one succeeds."""

    @pytest.fixture
    def one_vertex_file(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("p 1 0\n")
        return str(path)

    def test_build_and_exact_write_the_same_tree(self, one_vertex_file, tmp_path):
        built, exact = str(tmp_path / "b.txt"), str(tmp_path / "e.txt")
        assert main(["build", "--input", one_vertex_file, "--eps", "1", "--seed", "0", "--out", built]) == 0
        assert main(["exact", "--input", one_vertex_file, "--out", exact]) == 0
        assert open(built, "rb").read() == open(exact, "rb").read()
        assert load_tree(built).nodes == (0,)

    def test_bench_writes_no_rows(self, one_vertex_file, tmp_path, capsys):
        conf = tmp_path / "exp.conf"
        conf.write_text(f"input = {one_vertex_file}\neps = 1, inf\nseeds = 0..1\n")
        out = tmp_path / "r.csv"
        assert main(["bench", "--config", str(conf), "--out", str(out)]) == 0
        assert "rows 0" in capsys.readouterr().out
        assert out.read_text().splitlines() == [CSV_HEADER]


class TestQueryVerb:
    def test_query_output(self, graph_file, tmp_path, capsys):
        path, g = graph_file
        out = str(tmp_path / "t.txt")
        main(["exact", "--input", path, "--out", out])
        capsys.readouterr()
        assert main(["query", "--tree", out, "--graph", path, "-s", "0", "-t", "5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        value = min_edge_on_path(gomory_hu_exact(g), 0, 5)[2]
        assert lines[0] == f"value {value!r}"
        assert value == pytest.approx(brute_min_st_value(g, 0, 5), rel=0, abs=1e-12)
        side = set(map(int, lines[1].split()[1:]))
        assert (0 in side) != (5 in side)
        assert lines[2].startswith(f"side_true_weight {cut_weight(g, side)!r}")
        assert "not private" in lines[2]

    def test_same_endpoints_exit_1(self, graph_file, tmp_path, capsys):
        path, _ = graph_file
        out = str(tmp_path / "t.txt")
        main(["exact", "--input", path, "--out", out])
        assert main(["query", "--tree", out, "--graph", path, "-s", "2", "-t", "2"]) == 1
        assert "error:" in capsys.readouterr().err


class TestKcutVerb:
    def test_parts_partition_vertices(self, graph_file, tmp_path, capsys):
        path, g = graph_file
        out = str(tmp_path / "t.txt")
        main(["exact", "--input", path, "--out", out])
        capsys.readouterr()
        assert main(["kcut", "--tree", out, "--graph", path, "-k", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("value ")
        parts = [set(map(int, line.split()[2:])) for line in lines[1:]]
        assert len(parts) == 3
        seen = set()
        for part in parts:
            assert part and not (part & seen)
            seen |= part
        assert seen == set(range(8))

    def test_k_out_of_range_exits_1(self, graph_file, tmp_path, capsys):
        path, _ = graph_file
        out = str(tmp_path / "t.txt")
        main(["exact", "--input", path, "--out", out])
        assert main(["kcut", "--tree", out, "--graph", path, "-k", "9"]) == 1
        assert "error:" in capsys.readouterr().err


class TestBenchVerb:
    def test_sweep_writes_csv(self, tmp_path, capsys):
        conf = tmp_path / "exp.conf"
        conf.write_text(
            "generator = erdos-renyi-weighted\nn = 8\np = 0.5\n"
            "eps = inf\nseeds = 0..1\n"
        )
        out = str(tmp_path / "r.csv")
        assert main(["bench", "--config", str(conf), "--out", out]) == 0
        stdout = capsys.readouterr().out
        assert "rows 56" in stdout
        assert "aborts 0" in stdout
        assert f"wrote {out}" in stdout
        assert len(open(out).read().splitlines()) == 57

    def test_config_out_used_when_flag_absent(self, tmp_path, capsys):
        out = str(tmp_path / "r.csv")
        conf = tmp_path / "exp.conf"
        conf.write_text(
            f"generator = cycle\nn = 5\neps = inf\nseeds = 0\nout = {out}\n"
        )
        assert main(["bench", "--config", str(conf)]) == 0
        assert f"wrote {out}" in capsys.readouterr().out

    @pytest.mark.parametrize("n", ["inf", "6.9"])
    def test_non_integral_vertex_count_exits_1(self, tmp_path, capsys, n):
        conf = tmp_path / "exp.conf"
        conf.write_text(f"generator = cycle\nn = {n}\neps = inf\nseeds = 0\n")
        assert main(["bench", "--config", str(conf), "--out", str(tmp_path / "r.csv")]) == 1
        assert "error: generator parameter n must be a whole number" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("mode", ["private", "exact-baseline"])
    def test_negative_seed_exits_1(self, tmp_path, capsys, mode):
        conf = tmp_path / "exp.conf"
        conf.write_text(f"generator = cycle\nn = 5\neps = 1\nseeds = -3\nmode = {mode}\n")
        assert main(["bench", "--config", str(conf), "--out", str(tmp_path / "r.csv")]) == 1
        assert "error: seeds must lie in [0, 2**64), got -3" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    def test_no_output_path_exits_1(self, tmp_path, capsys):
        conf = tmp_path / "exp.conf"
        conf.write_text("generator = cycle\nn = 5\neps = 1\nseeds = 0\n")
        assert main(["bench", "--config", str(conf)]) == 1
        assert "no output path" in capsys.readouterr().err
