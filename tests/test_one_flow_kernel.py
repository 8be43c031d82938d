"""One flow network builder, one entry to the kernel and few readers of the edge store.

``_maxflow`` is the only module that turns a graph into arc arrays,
``min_cut_source_side`` the only function that runs the Dinic kernel
(``_dinic_levels``), on the network a graph keeps, and only ``graph``,
``_maxflow`` and ``private_cuts`` read a graph's edge store
(``._weights``) directly; every other module goes through the ``Graph``
methods and the cut primitives. This scan keeps a second network
builder, kernel caller or edge-store reader from creeping back into
``src/ghtree``.

A module builds arc arrays if it binds the name ``head`` or ``cap``
(the kernel's arc heads and capacities) or computes a reverse arc as
``a ^ 1``.
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


def kernel_callers(tree: ast.Module) -> set[str]:
    """Names of the functions that refer to ``_dinic_levels``; "<module>" for a reference outside any function."""
    callers = set()

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if getattr(child, "id", None) == KERNEL or getattr(child, "attr", None) == KERNEL:
                callers.add(where)
            visit(child, where)

    visit(tree, "<module>")
    return callers


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
    callers = {(path.name, name) for path in MODULES for name in kernel_callers(parse(path))}
    assert callers == {("_maxflow.py", "min_cut_source_side")}


def test_scan_flags_a_second_kernel_caller():
    tree = ast.parse("def run(net):\n    return _maxflow._dinic_levels(*net)\nkernel = _dinic_levels\n")
    assert kernel_callers(tree) == {"run", "<module>"}


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
