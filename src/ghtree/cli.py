"""Command line front end.

Verbs: build a private tree, query or k-cut an existing tree against
its graph, build the exact tree, or run a benchmark sweep from a
config file. Exit codes: 0 success, 1 validation or format errors,
2 recursion abort.
"""

from __future__ import annotations

import argparse
import sys

from .applications import min_k_cut, tree_query
from .dp import Epsilon, Rng
from .exact import gomory_hu_exact
from .experiment import env_constants, parse_config, run_experiment, write_csv
from .io import load_graph, load_tree, save_tree
from .pipeline import GHTreeAbort, final_gh_tree


def _cmd_build(args: argparse.Namespace) -> int:
    g = load_graph(args.input)
    tree = final_gh_tree(g, Epsilon(float(args.eps)), Rng(args.seed), **env_constants())
    save_tree(tree, args.out)
    print(f"wrote tree with {len(tree.nodes)} nodes to {args.out}")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    tree = load_tree(args.tree)
    g = load_graph(args.graph)
    value, cut = tree_query(tree, g, args.s, args.t)
    print(f"value {value!r}")
    print("side " + " ".join(str(v) for v in sorted(cut.side)))
    print(f"side_true_weight {cut.value!r} (recomputed from the graph; not private)")
    return 0


def _cmd_kcut(args: argparse.Namespace) -> int:
    tree = load_tree(args.tree)
    g = load_graph(args.graph)
    solution = min_k_cut(tree, g, args.k)
    print(f"value {solution.value!r}")
    for i, part in enumerate(solution.parts):
        print(f"part {i} " + " ".join(str(v) for v in sorted(part)))
    return 0


def _cmd_exact(args: argparse.Namespace) -> int:
    g = load_graph(args.input)
    tree = gomory_hu_exact(g)
    save_tree(tree, args.out)
    print(f"wrote exact tree with {len(tree.nodes)} nodes to {args.out}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    config = parse_config(args.config)
    out = args.out or config.out
    if out is None:
        print("no output path: pass --out or set out in the config", file=sys.stderr)
        return 1
    report = run_experiment(config)
    write_csv(report, out)
    print(f"rows {len(report.rows)}")
    print(f"aborts {len(report.aborts)}")
    print(f"max_side_error {report.max_side_error!r}")
    print(f"median_side_error {report.median_side_error!r}")
    print(f"wall_time_s {report.wall_time_s:.3f}")
    print(f"wrote {out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ghtree",
        description="Differentially private approximate Gomory-Hu trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build a private tree from a graph file")
    p.add_argument("--input", required=True, help="graph file")
    p.add_argument("--eps", required=True, help="privacy budget, a positive float or 'inf'")
    p.add_argument("--seed", required=True, type=int, help="random seed")
    p.add_argument("--out", required=True, help="tree file to write")
    p.set_defaults(fn=_cmd_build)

    p = sub.add_parser("query", help="min s-t cut from a tree file")
    p.add_argument("--tree", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("-s", required=True, type=int)
    p.add_argument("-t", required=True, type=int)
    p.set_defaults(fn=_cmd_query)

    p = sub.add_parser("kcut", help="min k-cut from a tree file")
    p.add_argument("--tree", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("-k", required=True, type=int)
    p.set_defaults(fn=_cmd_kcut)

    p = sub.add_parser("exact", help="build the exact Gomory-Hu tree")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_exact)

    p = sub.add_parser("bench", help="run an experiment sweep from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="CSV path, overrides the config's out")
    p.set_defaults(fn=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except GHTreeAbort as abort:
        print(f"abort: {abort}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
