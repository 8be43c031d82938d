"""Plain-text graph and tree files.

Graph files: a `p <n> <m>` header, then m lines `e <u> <v> <w>` with
0-based vertex ids in [0, n) and strictly positive weights. Blank
lines and lines starting with `#` are ignored. Duplicate edges merge
by summation on load.

Tree files: a `t <n>` header, one `b <vertex> <terminal>` line per
mapped vertex, then tree edges `e <u> <v> <w>` with weights >= 0
(noise clamping legitimately produces zero-weight tree edges). The
tree's nodes are the terminals, i.e. the fixed points of the map.

Both writers emit sorted lines with repr() floats, so save/load is an
identity and equal objects produce byte-identical files.
"""

from __future__ import annotations

import math
import os

from .graph import Graph
from .steiner import SteinerTree


class GraphFormatError(ValueError):
    """A structurally malformed graph or tree file."""


def _significant_lines(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            yield lineno, line.split()


def _parse_int(tok: str, lineno: int, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise GraphFormatError(f"line {lineno}: {what} must be an integer, got {tok!r}") from None


def _parse_float(tok: str, lineno: int, what: str) -> float:
    try:
        return float(tok)
    except ValueError:
        raise GraphFormatError(f"line {lineno}: {what} must be a number, got {tok!r}") from None


def load_graph(path: str) -> Graph:
    """Read a graph file, merging duplicate edges by summation."""
    n = None
    m = None
    edges: list[tuple[int, int, float]] = []
    for lineno, toks in _significant_lines(path):
        tag = toks[0]
        if tag == "p":
            if n is not None:
                raise GraphFormatError(f"line {lineno}: duplicate p header")
            if len(toks) != 3:
                raise GraphFormatError(f"line {lineno}: expected 'p <n> <m>'")
            n = _parse_int(toks[1], lineno, "vertex count")
            m = _parse_int(toks[2], lineno, "edge count")
            if n < 1 or m < 0:
                raise GraphFormatError(f"line {lineno}: invalid sizes n={n}, m={m}")
        elif tag == "e":
            if n is None:
                raise GraphFormatError(f"line {lineno}: edge before p header")
            if len(toks) != 4:
                raise GraphFormatError(f"line {lineno}: expected 'e <u> <v> <w>'")
            u = _parse_int(toks[1], lineno, "endpoint")
            v = _parse_int(toks[2], lineno, "endpoint")
            w = _parse_float(toks[3], lineno, "weight")
            if not 0 <= u < n or not 0 <= v < n:
                raise GraphFormatError(f"line {lineno}: endpoint outside [0, {n})")
            if u == v:
                raise GraphFormatError(f"line {lineno}: self-loop on vertex {u}")
            if not 0.0 < w < math.inf:
                raise GraphFormatError(f"line {lineno}: edge weight must be positive and finite, got {w!r}")
            edges.append((u, v, w))
        else:
            raise GraphFormatError(f"line {lineno}: unknown record type {tag!r}")
    if n is None:
        raise GraphFormatError("missing p header")
    if len(edges) != m:
        raise GraphFormatError(f"header declares {m} edges but file has {len(edges)}")
    return Graph(range(n), edges)


def save_graph(g: Graph, path: str) -> None:
    """Write a graph file; vertices must be exactly 0..n-1."""
    if g.vertices != tuple(range(g.n)):
        raise ValueError("graph files require contiguous 0-based vertex ids")
    lines = [f"p {g.n} {g.m}"]
    lines.extend(f"e {u} {v} {w!r}" for u, v, w in g.edges())
    _write_lines(path, lines)


def load_tree(path: str) -> SteinerTree:
    """Read a tree file; terminals are the fixed points of the map."""
    n = None
    fmap: dict[int, int] = {}
    edges: list[tuple[int, int, float]] = []
    for lineno, toks in _significant_lines(path):
        tag = toks[0]
        if tag == "t":
            if n is not None:
                raise GraphFormatError(f"line {lineno}: duplicate t header")
            if len(toks) != 2:
                raise GraphFormatError(f"line {lineno}: expected 't <n>'")
            n = _parse_int(toks[1], lineno, "vertex count")
            if n < 1:
                raise GraphFormatError(f"line {lineno}: invalid vertex count {n}")
        elif tag == "b":
            if n is None:
                raise GraphFormatError(f"line {lineno}: mapping before t header")
            if len(toks) != 3:
                raise GraphFormatError(f"line {lineno}: expected 'b <vertex> <terminal>'")
            v = _parse_int(toks[1], lineno, "vertex")
            t = _parse_int(toks[2], lineno, "terminal")
            if v in fmap:
                raise GraphFormatError(f"line {lineno}: duplicate mapping for vertex {v}")
            fmap[v] = t
        elif tag == "e":
            if n is None:
                raise GraphFormatError(f"line {lineno}: edge before t header")
            if len(toks) != 4:
                raise GraphFormatError(f"line {lineno}: expected 'e <u> <v> <w>'")
            u = _parse_int(toks[1], lineno, "endpoint")
            v = _parse_int(toks[2], lineno, "endpoint")
            w = _parse_float(toks[3], lineno, "weight")
            if w < 0.0:
                raise GraphFormatError(f"line {lineno}: tree edge weight must be nonnegative")
            edges.append((u, v, w))
        else:
            raise GraphFormatError(f"line {lineno}: unknown record type {tag!r}")
    if n is None:
        raise GraphFormatError("missing t header")
    if len(fmap) != n:
        raise GraphFormatError(f"header declares {n} mapped vertices but file has {len(fmap)}")
    nodes = sorted(v for v, t in fmap.items() if v == t)
    try:
        return SteinerTree(nodes, edges, fmap)
    except ValueError as err:
        raise GraphFormatError(str(err)) from err


def save_tree(tree: SteinerTree, path: str) -> None:
    lines = [f"t {len(tree.f)}"]
    lines.extend(f"b {v} {t}" for v, t in sorted(tree.f.items()))
    lines.extend(f"e {u} {v} {w!r}" for u, v, w in tree.edges)
    _write_lines(path, lines)


def _write_lines(path: str, lines: list[str]) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    os.replace(tmp, path)
