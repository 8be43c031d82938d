"""Byte-identity pins: sha256 digests of fixed-seed outputs.

Every digest below was recorded from the code before a refactor that
must not change output. A failing digest means the trees, ledgers,
cut sides or CSV bytes for a fixed seed changed; a change that does
this on purpose must say why and re-record the digest.

To print the current digests: ``python3 tests/test_golden.py``.
"""

from __future__ import annotations

import hashlib

import pytest

from ghtree import (
    INFINITE,
    Epsilon,
    ExperimentConfig,
    IsoCutParams,
    PrivacyLedger,
    Rng,
    cut_weight,
    final_gh_tree,
    generate,
    gomory_hu_exact,
    isolating_cuts_exact,
    private_isolating_cuts,
    private_min_ST_cut,
    run_experiment,
    save_tree,
    write_csv,
)

INSTANCES = {
    "er40": ("erdos-renyi-weighted", {"n": 40, "p": 0.2}),
    "planted24": ("planted-community", {"n": 24}),
    "dumbbell6": ("dumbbell", {"clique": 6}),
    "path50": ("path", {"n": 50}),
    "dumbbell10": ("dumbbell", {"clique": 10}),
    # exact-apps' instance: every contraction of its exact tree has a one-vertex block.
    "er200": ("erdos-renyi-weighted", {"n": 200, "p": 0.1}),
}

# Smaller constants than the defaults, at which a finite-eps build on
# dumbbell10 at eps=1e3 carves regions and descends: seed 0 to depth 2,
# seed 2 to depth 1.
DESCENDING = {"c_depth": 0.25, "c1": 0.05, "c2": 0.05}


def _graph(label):
    kind, params = INSTANCES[label]
    return generate(kind, params, 0)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _tree_bytes(tree, tmp_path) -> bytes:
    path = tmp_path / "tree.txt"
    save_tree(tree, str(path))
    return path.read_bytes()


def _ledger_bytes(ledger) -> bytes:
    return "".join(f"{e.name} {e.sensitivity!r} {e.scale!r} {e.count}\n" for e in ledger.entries).encode()


def _private_tree(label, tmp_path) -> bytes:
    ledger = PrivacyLedger(Epsilon(1.0))
    tree = final_gh_tree(_graph(label), Epsilon(1.0), Rng(0), ledger)
    return _tree_bytes(tree, tmp_path) + b"--\n" + _ledger_bytes(ledger)


def _descending_tree(seed, tmp_path) -> bytes:
    ledger = PrivacyLedger(Epsilon(1e3))
    tree = final_gh_tree(_graph("dumbbell10"), Epsilon(1e3), Rng(seed), ledger, **DESCENDING)
    return _tree_bytes(tree, tmp_path) + b"--\n" + _ledger_bytes(ledger)


def _cut_line(side, value) -> str:
    return " ".join(str(v) for v in sorted(side)) + f" | {value!r}\n"


def _nested_tree(label, seed, tmp_path) -> bytes:
    """A noiseless build whose recursion descends into carved sides holding several terminals."""
    return _tree_bytes(final_gh_tree(_graph(label), INFINITE, Rng(seed)), tmp_path)


def _st_cuts(tmp_path) -> bytes:
    """Exact and private S-T cuts for seeded random disjoint S, T on ER n=40."""
    g = _graph("er40")
    pick = Rng(0).child("pairs")
    out = []
    for i in range(12):
        order = [g.vertices[j] for j in pick.permutation(g.n)]
        a, b = 1 + pick.integer(4), 1 + pick.integer(4)
        S, T = order[:a], order[a : a + b]
        exact = private_min_ST_cut(g, S, T, INFINITE, Rng(0))
        out.append(_cut_line(exact, cut_weight(g, exact)))
        ledger = PrivacyLedger(Epsilon(1.0))
        cut = private_min_ST_cut(g, S, T, Epsilon(1.0), Rng(i), ledger)
        out.append(_cut_line(cut, cut_weight(g, cut)))
        out.append(_ledger_bytes(ledger).decode())
    return "".join(out).encode()


def _isolating_cuts(tmp_path) -> bytes:
    g = _graph("planted24")
    R = [0, 3, 5, 11, 12, 17, 23]
    out = [_cut_line(c.side, c.value) for _, c in sorted(isolating_cuts_exact(g, R).items())]
    params = IsoCutParams(eps=Epsilon(1.0), beta=0.01, U=frozenset(g.vertices))
    res = private_isolating_cuts(g, R, params, Rng(0))
    out.extend(_cut_line(c.side, c.value) for _, c in sorted(res.cuts.items()))
    return "".join(out).encode()


SWEEPS = {
    "sweep_er12": ExperimentConfig(
        generator="erdos-renyi-weighted", params={"n": 12, "p": 0.3}, eps=(1.0, 4.0), seeds=(0, 1)
    ),
    # Every eps cell of a seed shares its depth-0 pivot values; deeper frames run on contracted graphs.
    "sweep_descending_dumbbell10": ExperimentConfig(
        generator="dumbbell", params={"clique": 10}, eps=(1e3, 1e4), seeds=(0, 2), **DESCENDING
    ),
}


def _sweep_csv(name, tmp_path) -> bytes:
    config = SWEEPS[name]
    path = tmp_path / "sweep.csv"
    write_csv(run_experiment(config), str(path))
    return path.read_bytes()


PRODUCERS = {
    "private_er40": lambda tmp: _private_tree("er40", tmp),
    "private_planted24": lambda tmp: _private_tree("planted24", tmp),
    "private_dumbbell6": lambda tmp: _private_tree("dumbbell6", tmp),
    "noiseless_er40": lambda tmp: _tree_bytes(final_gh_tree(_graph("er40"), INFINITE, Rng(0)), tmp),
    "exact_er40": lambda tmp: _tree_bytes(gomory_hu_exact(_graph("er40")), tmp),
    "exact_er200": lambda tmp: _tree_bytes(gomory_hu_exact(_graph("er200")), tmp),
    "nested_path50": lambda tmp: _nested_tree("path50", 0, tmp),
    "nested_planted24": lambda tmp: _nested_tree("planted24", 5, tmp),
    "st_cuts_er40": _st_cuts,
    "isolating_cuts_planted24": _isolating_cuts,
    "sweep_er12": lambda tmp: _sweep_csv("sweep_er12", tmp),
    "descending_dumbbell10_seed0": lambda tmp: _descending_tree(0, tmp),
    "descending_dumbbell10_seed2": lambda tmp: _descending_tree(2, tmp),
    "sweep_descending_dumbbell10": lambda tmp: _sweep_csv("sweep_descending_dumbbell10", tmp),
}

GOLDEN = {
    "descending_dumbbell10_seed0": "88def3fec85073ab4e1e581383150450a15fe6338bf046082c455b0ed452337e",
    "descending_dumbbell10_seed2": "edafef35a0c9ef57bae086f697533dbe6e25d2b19c79a8c406f8ce2c5ca286cc",
    "exact_er200": "b3db36355a18b648b296fdd82e1d080d0a7cd89e0809d306aeae878c2328622f",
    "exact_er40": "784db2cfdd4757f2b28e03791bf477dc3b936f8fd511dfc1030ce9360d0061d9",
    "isolating_cuts_planted24": "2adbaa46c578db6967f2762c9ffed6f8b814699be6c2ad674f38d8eade49d9eb",
    "nested_path50": "ee47580b1f5cdf60040c5197dfe9d3ae888e646f60cd7864c72bb705d42637d1",
    "nested_planted24": "dec99e1f370da89abd1c7ed68ec6da6477ac30258f1db8f4336d595b3329086e",
    "noiseless_er40": "784db2cfdd4757f2b28e03791bf477dc3b936f8fd511dfc1030ce9360d0061d9",
    "private_dumbbell6": "72fd9d818c545cf7412f24c1c003f93c4e3ada8a07681632d9f3553256d9654a",
    "private_er40": "d840bca2effff8284d27c0f3f1bff2ac93c99df68c84fdcdf4226a99106ebc80",
    "private_planted24": "c7f0608c1cf3fe0c7edccf5fed970f4c986f67a479998fddd8f6fb70a37c2efb",
    "st_cuts_er40": "b24d9c14065ecc3716a4e9e2f534802ffce5bfadea348317554ac8d2970a9338",
    "sweep_descending_dumbbell10": "0a1214274b338399d0d4c85f2b18ef58c8b5d1fc60f3f6e3bc363449063db77e",
    "sweep_er12": "0928d9a15d1568cc985bcac1a6cc8ec6729a4cdea92f43a2a5fb7d10fd36b044",
}


@pytest.mark.parametrize("name", sorted(PRODUCERS))
def test_output_is_byte_identical(name, tmp_path):
    assert _sha(PRODUCERS[name](tmp_path)) == GOLDEN[name]


if __name__ == "__main__":
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(PRODUCERS):
            print(f'    "{name}": "{_sha(PRODUCERS[name](pathlib.Path(tmp)))}",')
