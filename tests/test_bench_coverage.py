"""Each workload's package calls still reach every layer it expects.

A traced benchmark run fails its binding-coverage check when no call
reaches one of the workload's ``expected_layers``. Here the package
calls each workload makes in its set-up, operation and queries run on
small inputs, under ``tracing.Tracer`` installed as a traced run
installs it, so a refactor that stops reaching a gated layer fails in
the test suite rather than only in a benchmark run. The bench modules
are imported, never changed.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

import ghtree
import ghtree.cli  # imported before any tracing, as the benchmark does, so its bindings are rebound too

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import tracing
import workloads

ER30 = ("erdos-renyi-weighted", {"n": 30, "p": 0.2})
EPS = ghtree.Epsilon(1.0)


def private_build(tmp: Path) -> None:
    g = ghtree.generate(*ER30, 0)
    tree = ghtree.final_gh_tree(g, EPS, ghtree.Rng(0), ghtree.PrivacyLedger(EPS))
    ghtree.save_tree(tree, str(tmp / "private.tree"))
    ghtree.tree_query(tree, g, 0, 1)


def sweep(tmp: Path) -> None:
    kind, params = ER30
    lines = [f"generator = {kind}", *(f"{key} = {value}" for key, value in params.items())]
    lines += ["eps = 1.0", "seeds = 0", "mode = private"]
    (tmp / "sweep.conf").write_text("\n".join(lines) + "\n")
    argv = ["bench", "--config", str(tmp / "sweep.conf"), "--out", str(tmp / "sweep.csv")]
    assert ghtree.cli.main(argv) == 0
    g = ghtree.generate(kind, params, 0)
    ghtree.tree_query(ghtree.final_gh_tree(g, EPS, ghtree.Rng(0)), g, 0, 1)


def exact_apps(tmp: Path) -> None:
    ghtree.save_graph(ghtree.generate(*ER30, 0), str(tmp / "exact-input.graph"))
    g = ghtree.load_graph(str(tmp / "exact-input.graph"))
    ghtree.save_tree(ghtree.gomory_hu_exact(g), str(tmp / "exact.tree"))
    tree = ghtree.load_tree(str(tmp / "exact.tree"))
    ghtree.tree_query(tree, g, 0, 1)
    ghtree.global_min_cut(tree, g)
    ghtree.min_k_cut(tree, g, 3)


CALLS = {"private-build": private_build, "sweep": sweep, "exact-apps": exact_apps}


def test_every_workload_has_calls():
    assert set(CALLS) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_workload_calls_reach_every_expected_layer(name, tmp_path):
    tracer = tracing.Tracer(trace_id=name)
    tracer.install()
    try:
        CALLS[name](tmp_path)
    finally:
        tracer.uninstall()
    missed = [layer for layer in workloads.WORKLOADS[name].expected_layers if tracer.calls[layer] == 0]
    assert missed == []
