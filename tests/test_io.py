"""Graph and tree file round trips and format diagnostics."""

from __future__ import annotations

import os

import pytest

from ghtree import (
    Graph,
    GraphFormatError,
    SteinerTree,
    generate,
    gomory_hu_exact,
    load_graph,
    load_tree,
    save_graph,
    save_tree,
)


def dumbbell6() -> Graph:
    edges = [(0, 1, 2.0), (0, 2, 2.0), (1, 2, 2.0),
             (3, 4, 2.0), (3, 5, 2.0), (4, 5, 2.0), (2, 3, 1.0)]
    return Graph(range(6), edges)


class TestGraphFiles:
    def test_round_trip(self, tmp_path):
        g = dumbbell6()
        p = str(tmp_path / "g.txt")
        save_graph(g, p)
        assert load_graph(p) == g

    def test_round_trip_preserves_full_float_precision(self, tmp_path):
        g = Graph(range(2), [(0, 1, 1.0 / 3.0)])
        p = str(tmp_path / "g.txt")
        save_graph(g, p)
        assert load_graph(p).weight(0, 1) == 1.0 / 3.0

    def test_round_trip_random_instances(self, tmp_path):
        for seed in range(5):
            g = generate("erdos-renyi-weighted", {"n": 15, "p": 0.3}, seed)
            p = str(tmp_path / f"g{seed}.txt")
            save_graph(g, p)
            assert load_graph(p) == g

    def test_save_is_byte_deterministic(self, tmp_path):
        g = dumbbell6()
        p1, p2 = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
        save_graph(g, p1)
        save_graph(g, p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_save_leaves_no_temp_file(self, tmp_path):
        p = str(tmp_path / "g.txt")
        save_graph(dumbbell6(), p)
        assert not os.path.exists(p + ".tmp")

    def test_duplicate_edges_merge_on_load(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("p 2 2\ne 0 1 2.0\ne 0 1 2.0\n")
        g = load_graph(str(p))
        assert g.weight(0, 1) == 4.0
        assert g.m == 1

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("# a graph\n\np 2 1\n# the edge\ne 0 1 1.5\n")
        assert load_graph(str(p)).weight(0, 1) == 1.5

    def test_save_requires_contiguous_ids(self, tmp_path):
        g = Graph([1, 2], [(1, 2, 1.0)])
        with pytest.raises(ValueError, match="contiguous"):
            save_graph(g, str(tmp_path / "g.txt"))

    @pytest.mark.parametrize(
        "content,match",
        [
            ("e 0 1 1.0\n", "edge before p header"),
            ("p 2 1\np 2 1\ne 0 1 1.0\n", "duplicate p header"),
            ("p 2\ne 0 1 1.0\n", "expected 'p <n> <m>'"),
            ("p 2 1\ne 0 1\n", "expected 'e <u> <v> <w>'"),
            ("p x 1\n", "must be an integer"),
            ("p 2 1\ne 0 1 abc\n", "must be a number"),
            ("p 2 1\nq 0 1 1.0\n", "unknown record"),
            ("", "missing p header"),
            ("p 0 0\n", "invalid sizes"),
            ("p 2 -1\n", "invalid sizes"),
            ("p 2 1\ne 0 5 1.0\n", "outside"),
            ("p 2 1\ne 0 0 1.0\n", "self-loop"),
            ("p 2 1\ne 0 1 0.0\n", "positive"),
            ("p 2 1\ne 0 1 inf\n", "finite"),
            ("p 2 2\ne 0 1 1.0\n", "declares 2 edges"),
        ],
    )
    def test_structural_errors(self, tmp_path, content, match):
        p = tmp_path / "g.txt"
        p.write_text(content)
        with pytest.raises(GraphFormatError, match=match):
            load_graph(str(p))

    @pytest.mark.parametrize(
        "content,match",
        [
            ("p 2 1\ne 0 5 1.0\n", "outside"),
            ("p 2 1\ne 0 0 1.0\n", "self-loop"),
            ("p 2 1\ne 0 1 0.0\n", "positive"),
            ("p 2 1\ne 0 1 -2.0\n", "positive"),
            ("p 2 2\ne 0 1 1.0\n", "declares 2 edges"),
        ],
    )
    def test_value_errors(self, tmp_path, content, match):
        p = tmp_path / "g.txt"
        p.write_text(content)
        with pytest.raises(ValueError, match=match):
            load_graph(str(p))

    def test_error_messages_carry_line_numbers(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("# comment\np 2 1\ne 0 9 1.0\n")
        with pytest.raises(ValueError, match="line 3"):
            load_graph(str(p))


class TestTreeFiles:
    def test_round_trip_with_nontrivial_map(self, tmp_path):
        # A Steiner tree of dumbbell6 over {0, 3, 5}: vertices 1 and 2 map to 0, vertex 4 to 5.
        tree = SteinerTree([0, 3, 5], [(0, 3, 1.0), (3, 5, 4.0)], {0: 0, 1: 0, 2: 0, 3: 3, 4: 5, 5: 5})
        p = str(tmp_path / "t.txt")
        save_tree(tree, p)
        assert load_tree(p) == tree

    def test_round_trip_zero_weight_edge(self, tmp_path):
        tree = SteinerTree([0, 1], [(0, 1, 0.0)])
        p = str(tmp_path / "t.txt")
        save_tree(tree, p)
        got = load_tree(p)
        assert got.edges == ((0, 1, 0.0),)

    def test_nodes_are_map_fixed_points(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("t 3\nb 0 0\nb 1 0\nb 2 2\ne 0 2 1.5\n")
        tree = load_tree(str(p))
        assert tree.nodes == (0, 2)
        assert tree.preimage([0]) == {0, 1}

    @pytest.mark.parametrize(
        "content,match",
        [
            ("b 0 0\n", "mapping before t header"),
            ("e 0 1 1.0\n", "edge before t header"),
            ("t 1\nt 1\nb 0 0\n", "duplicate t header"),
            ("", "missing t header"),
            ("t 0\n", "invalid vertex count"),
            ("t 2\nb 0 0\nb 0 0\n", "duplicate mapping"),
            ("t 2\nb 0 0\n", "declares 2 mapped"),
            ("t 2\nb 0 0\nb 1 1\ne 0 1 -1.0\n", "nonnegative"),
            ("t 2\nb 0 0\nb 1 1\n", "spanning tree"),
            ("t 2\nb 0 0\nb 1 0\ne 0 1 1.0\n", "outside the node set"),
            ("t 2\nb 0 0\nb 1 5\n", "non-terminal"),
        ],
    )
    def test_structural_errors(self, tmp_path, content, match):
        p = tmp_path / "t.txt"
        p.write_text(content)
        with pytest.raises(GraphFormatError, match=match):
            load_tree(str(p))

    @pytest.mark.parametrize(
        "content,match",
        [
            ("t 2\nb 0 0\nb 0 0\n", "duplicate mapping"),
            ("t 2\nb 0 0\n", "declares 2 mapped"),
            ("t 2\nb 0 0\nb 1 1\ne 0 1 -1.0\n", "nonnegative"),
        ],
    )
    def test_value_errors(self, tmp_path, content, match):
        p = tmp_path / "t.txt"
        p.write_text(content)
        with pytest.raises(ValueError, match=match):
            load_tree(str(p))

    def test_save_is_byte_deterministic(self, tmp_path):
        tree = gomory_hu_exact(dumbbell6())
        p1, p2 = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
        save_tree(tree, p1)
        save_tree(tree, p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()
