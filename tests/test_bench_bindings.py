"""The benchmark's bindings to the package still resolve.

``bench/`` reaches ghtree by name: the tracer rebinds the functions in
``tracing.TARGETS``, each workload lists the layers a traced run must
reach, and ``run.py`` and ``workloads.py`` read package attributes at
call time. A renamed or deleted function would otherwise fail only a
benchmark run, since ``bench/test_bench.py`` is not collected here. The
bench modules are imported, never changed.
"""

from __future__ import annotations

import ast
import importlib
import sys
from pathlib import Path

import pytest

import ghtree

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import tracing
import workloads


@pytest.mark.parametrize("target", tracing.TARGETS, ids=lambda t: t[0])
def test_traced_target_is_a_callable(target):
    _, module, attr, _ = target
    assert callable(getattr(importlib.import_module(module), attr, None))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_expected_layers_are_traced_layers(name):
    assert set(workloads.WORKLOADS[name].expected_layers) <= set(tracing.LAYERS)


def test_backend_flag_exists():
    assert isinstance(ghtree._maxflow.USING_NUMBA, bool)


def package_attributes(path: Path) -> set[str]:
    """Every dotted name ``ghtree.x.y`` the module's code reads."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id == "ghtree" and parts:
            names.add(".".join(reversed(parts)))
    return names


@pytest.mark.parametrize("script", ["run.py", "workloads.py"])
def test_package_attributes_read_by_the_bench_exist(script):
    for dotted in sorted(package_attributes(BENCH / script)):
        obj = ghtree
        for part in dotted.split("."):
            assert hasattr(obj, part), f"ghtree.{dotted}"
            obj = getattr(obj, part)
