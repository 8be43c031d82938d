"""One flow network builder, one entry to the kernel, one BFS and few readers of the edge store.

``_maxflow`` is the only module that turns a graph into arc arrays,
``min_cut_source_side`` the only function that runs the Dinic kernel
(``_dinic_levels``), on the network a graph keeps, ``_dinic_levels``
the only function that runs the phase BFS (``_residual_levels``), and
only ``graph``, ``_maxflow`` and ``private_cuts`` read a graph's edge
store (``._weights``) directly; every other module goes through the
``Graph`` methods and the cut primitives. This scan keeps a second
network builder, kernel caller, BFS or edge-store reader from creeping
back into ``src/ghtree``.

A module builds arc arrays if it binds the name ``head`` or ``cap``
(the kernel's arc heads and capacities) or computes a reverse arc as
``a ^ 1``. A function runs a BFS if it makes a level list, a list of
-1s (``[-1] * n``); only the phase BFS and ``_dinic_levels``, whose
last phase labels what s reaches, make one.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "ghtree"
EDGE_STORE_READERS = {"graph.py", "_maxflow.py", "private_cuts.py"}
NETWORK_BUILDERS = {"_maxflow.py"}
ARC_ARRAY_NAMES = {"head", "cap"}
KERNEL = "_dinic_levels"
LEVELS = "_residual_levels"


def edge_store_reads(tree: ast.Module) -> list[int]:
    return sorted(
        {node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == "_weights"}
    )


def arc_array_builds(tree: ast.Module) -> list[int]:
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) and node.id in ARC_ARRAY_NAMES:
            lines.append(node.lineno)
        elif isinstance(node, ast.arg) and node.arg in ARC_ARRAY_NAMES:
            lines.append(node.lineno)
        elif (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.BitXor)
            and isinstance(node.right, ast.Constant)
            and node.right.value == 1
        ):
            lines.append(node.lineno)
    return sorted(set(lines))


def callers(tree: ast.Module, name: str) -> set[str]:
    """Names of the functions that refer to ``name``; "<module>" for a reference outside any function."""
    found = set()

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if getattr(child, "id", None) == name or getattr(child, "attr", None) == name:
                found.add(where)
            visit(child, where)

    visit(tree, "<module>")
    return found


def level_lists(tree: ast.Module) -> set[str]:
    """Names of the functions that make a list of -1s, as a BFS makes its level list."""
    found = set()
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult) and ast.unparse(node.left) == "[-1]":
                    found.add(fn.name)
    return found


MODULES = sorted(SRC.glob("*.py"))


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), str(path))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_graph_layer_reads_the_edge_store(path):
    if path.name not in EDGE_STORE_READERS:
        assert edge_store_reads(parse(path)) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_flow_kernel_builds_arc_arrays(path):
    if path.name not in NETWORK_BUILDERS:
        assert arc_array_builds(parse(path)) == []


def test_the_flow_kernel_is_recognised():
    assert arc_array_builds(parse(SRC / "_maxflow.py"))
    assert edge_store_reads(parse(SRC / "_maxflow.py"))


def test_only_min_cut_source_side_runs_the_kernel():
    found = {(path.name, name) for path in MODULES for name in callers(parse(path), KERNEL)}
    assert found == {("_maxflow.py", "min_cut_source_side")}


def test_only_the_kernel_runs_the_phase_bfs():
    found = {(path.name, name) for path in MODULES for name in callers(parse(path), LEVELS)}
    assert found == {("_maxflow.py", KERNEL)}


def test_no_second_bfs():
    found = {(path.name, name) for path in MODULES for name in level_lists(parse(path))}
    assert found == {("_maxflow.py", LEVELS), ("_maxflow.py", KERNEL)}


def test_scan_flags_a_second_kernel_caller():
    tree = ast.parse("def run(net):\n    return _maxflow._dinic_levels(*net)\nkernel = _dinic_levels\n")
    assert callers(tree, KERNEL) == {"run", "<module>"}


def test_scan_flags_a_second_bfs():
    tree = ast.parse(
        "def _bfs(adj, head, cap, root):\n"
        "    level = [-1] * len(adj)\n"
        "    level[root] = 0\n"
        "    for u in (queue := [root]):\n"
        "        for a in adj[u]:\n"
        "            if level[head[a]] < 0 and cap[a] > 0.0:\n"
        "                level[head[a]] = level[u] + 1\n"
        "                queue.append(head[a])\n"
        "    return level\n"
        "def levels(g):\n"
        "    return _bfs(*g)\n"
        "def unset(n):\n"
        "    return [0] * n, [-2] * n, [[-1]] * n\n"
    )
    assert level_lists(tree) == {"_bfs"}
    assert callers(tree, "_bfs") == {"levels"}


def test_scan_flags_a_second_builder():
    tree = ast.parse(
        "def network(g):\n"
        "    head, cap = [], []\n"
        "    for (u, v), w in g._weights.items():\n"
        "        head += (v, u)\n"
        "        cap += (w, w)\n"
        "    return head, cap\n"
        "def push(cap, a, d):\n"
        "    cap[a ^ 1] += d\n"
    )
    assert edge_store_reads(tree) == [3]
    assert arc_array_builds(tree) == [2, 4, 5, 7, 8]
