"""Experiment harness: sweep seeds and budgets, measure tree error.

For every (seed, eps) cell the harness builds a private tree, then for
every vertex pair compares the tree's answer against the exact
Gomory-Hu value: side_error is the true weight of the returned side
minus the exact min cut (never negative), value_error is the noisy
reported value minus the exact min cut (signed). Every cell yields a
tree, so every cell writes a row for each of the n(n-1)/2 pairs. CSV
output is byte-deterministic for a fixed config.

The answers are the ones ``tree_query`` gives, without a query per
pair: a tree has only n-1 distinct edge cuts, so ``steiner`` weighs
each tree edge's side once, and its path-minimum walk, the one
``min_edge_on_path`` runs, goes once from each source to every other
node. The exact values come from the same walk over the exact tree,
once per seed. Evaluation costs O(n*m + n^2) per cell; past the walks,
each pair costs one positional row tuple and one CSV line, whose three
per-edge values are formatted once per distinct value. Every cell of a
seed draws the same depth-0 pivot on the same graph, so the seed's
graph keeps its exact pivot values (``Graph._pivot_values``) and the
depth-0 step's n-1 max-flows run once per seed, not once per cell.
"""

from __future__ import annotations

import math
import os
import time
from typing import Iterator, Mapping, NamedTuple

from .dp import Epsilon, Rng, _Frozen
from .exact import gomory_hu_exact
from .generators import generate
from .graph import Graph
from .io import _write_lines, load_graph
from .pipeline import final_gh_tree
from .private_cuts import DEFAULT_C1, DEFAULT_C2, DEFAULT_C_DEPTH, DEFAULT_PENALTY_CONST
from .private_cuts import _check_constants
from .steiner import SteinerTree, _edge_cut_weights, _path_minima

CSV_HEADER = "pair_s,pair_t,seed,eps,lambda_exact,tree_value,side_true_weight,side_error,value_error"

MODES = ("private", "exact-baseline")

_ENV_CONSTANTS = (
    ("c1", "GHTREE_C1"),
    ("c2", "GHTREE_C2"),
    ("c_depth", "GHTREE_C_DEPTH"),
    ("penalty_const", "GHTREE_PENALTY_CONST"),
)


def env_constants() -> dict[str, float]:
    """Constant overrides taken from GHTREE_* environment variables."""
    out: dict[str, float] = {}
    for key, env in _ENV_CONSTANTS:
        raw = os.environ.get(env)
        if raw is not None and raw != "":
            out[key] = float(raw)
    return out


class ExperimentConfig(_Frozen):
    """One sweep: an instance source, budget grid, seed list, and mode.

    ``params`` defaults to a fresh empty dict.
    """

    __slots__ = (
        "generator", "params", "input_path", "eps", "seeds", "mode", "c1", "c2", "c_depth", "penalty_const", "out"
    )

    def __init__(
        self,
        generator: str | None = None,
        params: Mapping[str, float] | None = None,
        input_path: str | None = None,
        eps: tuple[float, ...] = (1.0,),
        seeds: tuple[int, ...] = (0,),
        mode: str = "private",
        c1: float = DEFAULT_C1,
        c2: float = DEFAULT_C2,
        c_depth: float = DEFAULT_C_DEPTH,
        penalty_const: float = DEFAULT_PENALTY_CONST,
        out: str | None = None,
    ):
        params = {} if params is None else params
        self._set(generator, params, input_path, eps, seeds, mode, c1, c2, c_depth, penalty_const, out)
        if (self.generator is None) == (self.input_path is None):
            raise ValueError("config needs exactly one of generator or input")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not self.seeds:
            raise ValueError("need at least one seed")
        for seed in self.seeds:
            if not 0 <= seed < 2**64:
                raise ValueError(f"seeds must lie in [0, 2**64), got {seed!r}")
        if not self.eps:
            raise ValueError("need at least one eps value")
        for e in self.eps:
            if math.isnan(e) or e <= 0.0:
                raise ValueError(f"eps values must be positive, got {e!r}")
        _check_constants(
            c1=self.c1, c2=self.c2, c_depth=self.c_depth, penalty_const=self.penalty_const
        )


class ExperimentRow(NamedTuple):
    pair_s: int
    pair_t: int
    seed: int
    eps: str
    lambda_exact: float
    tree_value: float
    side_true_weight: float
    side_error: float
    value_error: float


class ExperimentReport:
    """A sweep's rows, in sweep order, and the summary of their side errors.

    ``aborts`` is always empty, since every build yields a tree. It stays
    for the readers of a report that predate that: acceptance criterion
    06 asserts it is empty, and the bench verb prints its length on an
    ``aborts`` line, which the benchmark harness parses to count the
    CSV's rows.
    """

    aborts = ()

    def __init__(
        self,
        rows: list[ExperimentRow],
        max_side_error: float | None,
        median_side_error: float | None,
        wall_time_s: float,
    ):
        self.rows = rows
        self.max_side_error = max_side_error
        self.median_side_error = median_side_error
        self.wall_time_s = wall_time_s

    def __eq__(self, other):
        return vars(self) == vars(other) if other.__class__ is self.__class__ else NotImplemented

    def max_side_error_by_cell(self) -> dict[tuple[int, str], float]:
        """Worst all-pairs side error per (seed, eps) cell."""
        out: dict[tuple[int, str], float] = {}
        for row in self.rows:
            key = (row.seed, row.eps)
            if key not in out or row.side_error > out[key]:
                out[key] = row.side_error
        return out


def _median(values: list[float]) -> float:
    """``statistics.median`` of a nonempty list: the middle sorted value, or the mean of the middle two."""
    data = sorted(values)
    mid = len(data) // 2
    return data[mid] if len(data) % 2 else (data[mid - 1] + data[mid]) / 2


def _eps_label(value: float) -> str:
    return repr(float(value))


def _instance(config: ExperimentConfig, seed: int) -> Graph:
    if config.generator is not None:
        return generate(config.generator, config.params, seed)
    return load_graph(config.input_path)


def _pair_answers(
    g: Graph, exact_minima: list[dict], tree: SteinerTree
) -> Iterator[tuple[int, int, float, float, float]]:
    """(s, t, lambda_exact, tree_value, side_true_weight) for every pair.

    Pairs come in sweep order: s ascending, then every later t. The
    tree's answers equal ``tree_query(tree, g, s, t)``'s value and side
    weight, and lambda_exact is the exact tree's path minimum, read from
    ``exact_minima``, its ``_path_minima`` from each vertex in turn.
    """
    cuts = _edge_cut_weights(tree, g)
    vertices = g.vertices
    for i, (s, exact_min) in enumerate(zip(vertices, exact_minima)):
        tree_min = _path_minima(tree, s)
        for t in vertices[i + 1 :]:
            a, b, value = tree_min[t]
            yield s, t, exact_min[t][2], value, cuts[(a, b)]


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run the sweep: a tree per (seed, eps) cell, a row per vertex pair of each."""
    start = time.perf_counter()
    rows: list[ExperimentRow] = []
    for seed in config.seeds:
        g = _instance(config, seed)
        exact_tree = gomory_hu_exact(g)
        cells: list[tuple[str, SteinerTree]] = []
        if config.mode == "exact-baseline":
            cells.append(("exact", exact_tree))
        else:
            g._pivot_values = {}
            for value in config.eps:
                label = _eps_label(value)
                # Same stream family for every eps cell: paired (common random
                # numbers) runs keep error curves comparable seed by seed.
                tree = final_gh_tree(
                    g,
                    Epsilon(value),
                    Rng(seed),
                    c_depth=config.c_depth,
                    c1=config.c1,
                    c2=config.c2,
                    penalty_const=config.penalty_const,
                )
                cells.append((label, tree))
        exact_minima = [_path_minima(exact_tree, s) for s in g.vertices]
        for label, tree in cells:
            for s, t, exact_value, tree_value, side_value in _pair_answers(g, exact_minima, tree):
                rows.append(
                    ExperimentRow(
                        s,
                        t,
                        seed,
                        label,
                        exact_value,
                        tree_value,
                        side_value,
                        side_value - exact_value,
                        tree_value - exact_value,
                    )
                )
    wall = time.perf_counter() - start
    side_errors = [r.side_error for r in rows]
    return ExperimentReport(
        rows=rows,
        max_side_error=max(side_errors) if side_errors else None,
        median_side_error=_median(side_errors) if side_errors else None,
        wall_time_s=wall,
    )


class _ReprMemo(dict):
    """``repr`` of each float looked up, kept for every nonzero value.

    Zeros are never kept: 0.0 and -0.0 are equal keys with different text.
    """

    def __missing__(self, x: float) -> str:
        text = repr(x)
        if x:
            self[x] = text
        return text


def write_csv(report: ExperimentReport, path: str) -> None:
    """Rows only, in sweep order; identical configs give identical bytes.

    Every value is written as its ``repr``. The three per-edge values
    repeat across a cell's pairs, at most n-1 distinct values each, so
    their text is formatted once per value.
    """
    memo = _ReprMemo()
    lines = [CSV_HEADER]
    for s, t, seed, eps, exact, value, side, side_error, value_error in report.rows:
        lines.append(
            f"{s},{t},{seed},{eps},{memo[exact]},{memo[value]},{memo[side]},{side_error!r},{value_error!r}"
        )
    _write_lines(path, lines)


_SCALAR_KEYS = {"generator", "input", "mode", "out"}
_FLOAT_KEYS = {"c1", "c2", "c_depth", "penalty_const"}


def _parse_seed_list(raw: str, lineno: int) -> tuple[int, ...]:
    seeds: list[int] = []
    for piece in raw.split(","):
        piece = piece.strip()
        if ".." in piece:
            lo_s, hi_s = piece.split("..", 1)
            try:
                lo, hi = int(lo_s), int(hi_s)
            except ValueError:
                raise ValueError(f"line {lineno}: bad seed range {piece!r}") from None
            if hi < lo:
                raise ValueError(f"line {lineno}: empty seed range {piece!r}")
            seeds.extend(range(lo, hi + 1))
        elif piece:
            try:
                seeds.append(int(piece))
            except ValueError:
                raise ValueError(f"line {lineno}: bad seed {piece!r}") from None
    if not seeds:
        raise ValueError(f"line {lineno}: no seeds given")
    return tuple(seeds)


def _parse_eps_list(raw: str, lineno: int) -> tuple[float, ...]:
    values: list[float] = []
    for piece in raw.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            values.append(float(piece))
        except ValueError:
            raise ValueError(f"line {lineno}: bad eps value {piece!r}") from None
    if not values:
        raise ValueError(f"line {lineno}: no eps values given")
    return tuple(values)


def parse_config(path: str) -> ExperimentConfig:
    """Read a key = value config file.

    Unknown keys become generator parameters. Environment constant
    overrides apply first, explicit file keys win. Example:

        generator = erdos-renyi-weighted
        n = 50
        p = 0.2
        eps = 0.5, 1, 2, 4
        seeds = 0..19
        mode = private
        out = results.csv
    """
    fields: dict[str, object] = dict(env_constants())
    params: dict[str, float] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"line {lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if not key or not value:
                raise ValueError(f"line {lineno}: expected 'key = value'")
            if key in _SCALAR_KEYS:
                fields["input_path" if key == "input" else key] = value
            elif key in _FLOAT_KEYS:
                try:
                    fields[key] = float(value)
                except ValueError:
                    raise ValueError(f"line {lineno}: bad number for {key}") from None
            elif key == "seeds":
                fields["seeds"] = _parse_seed_list(value, lineno)
            elif key == "eps":
                fields["eps"] = _parse_eps_list(value, lineno)
            else:
                try:
                    params[key] = float(value)
                except ValueError:
                    raise ValueError(
                        f"line {lineno}: unknown key {key!r} with non-numeric value"
                    ) from None
    return ExperimentConfig(params=params, **fields)
