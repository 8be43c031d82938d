"""One flow network builder and few readers of the edge store.

``_maxflow`` is the only module that turns a graph into arc arrays, and
only ``graph``, ``_maxflow`` and ``private_cuts`` read a graph's edge
store (``._weights``) directly; every other module goes through the
``Graph`` methods and the cut primitives. This scan keeps a second
network builder or edge-store reader from creeping back into
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
