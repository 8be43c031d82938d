"""Outside-in span tracing around ghtree's layer functions.

Modules in the package bind names with ``from .x import y``, so one
function object sits under several module attributes: ``cut_weight`` is
reachable from ``graph``, ``exact``, ``private_cuts``, ``applications``
and the package root. Wrapping only the defining module would silently
miss the calls made through the other names. ``Tracer.install`` therefore
rebinds every ``ghtree.*`` module attribute that *is* the original
function object, and wraps ``Graph.__init__`` once on the class.
``Tracer.uninstall`` puts the originals back, so an untraced run executes
the package with no wrapper in any call path.

Spans stay in memory as (name, start, end, parent) tuples and are
written out once, at the end of the run. A layer's self time is its
span duration minus the time covered by its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import Counter


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _graph_edges(args, kwargs, result):
    return {"graph.Graph.edges": args[0].m}


def _cut_weight_edges(args, kwargs, result):
    g = _arg(args, kwargs, 0, "g")
    side = _arg(args, kwargs, 1, "side")
    return {"graph.cut_weight.edges": g.m if 0 < len(side) < g.n else 0}


def _maxflow_arcs(args, kwargs, result):
    return {"maxflow.min_cut.arcs": 2 * _arg(args, kwargs, 0, "g").m}


def _iso_cuts(args, kwargs, result):
    return {"private_cuts.isolating_cuts.cuts": len(result.cuts)}


def _step_work(args, kwargs, result):
    return {
        "pipeline.step.terminals": len(set(_arg(args, kwargs, 2, "U"))),
        "pipeline.step.carved": len(result.D),
        "pipeline.step.selected": len(result.R_star),
    }


def _draws(metric, scale_arg):
    """Draws made by a sampler: none at scale 0, else one or ``size``."""

    def work(args, kwargs, result):
        scale = _arg(args, kwargs, 0, scale_arg)
        size = args[2] if len(args) > 2 else kwargs.get("size")
        return {metric: 0 if scale == 0.0 else (1 if size is None else int(size))}

    return work


# (layer metric name, defining module, attribute, work-count function)
TARGETS = (
    ("maxflow.min_cut", "ghtree._maxflow", "min_cut_source_side", _maxflow_arcs),
    ("graph.contract", "ghtree.graph", "contract", None),
    ("graph.cut_weight", "ghtree.graph", "cut_weight", _cut_weight_edges),
    ("exact.min_st_cut", "ghtree.exact", "min_st_cut_exact", None),
    ("exact.gomory_hu", "ghtree.exact", "gomory_hu_exact", None),
    ("private_cuts.min_st_cut", "ghtree.private_cuts", "private_min_st_cut", None),
    ("private_cuts.min_ST_cut", "ghtree.private_cuts", "private_min_ST_cut", None),
    ("private_cuts.isolating_cuts", "ghtree.private_cuts", "private_isolating_cuts", _iso_cuts),
    ("pipeline.final", "ghtree.pipeline", "final_gh_tree", None),
    ("pipeline.step", "ghtree.pipeline", "gh_tree_step", _step_work),
    ("dp.laplace", "ghtree.dp", "sample_laplace", _draws("dp.laplace.draws", "b")),
    ("dp.exponential", "ghtree.dp", "sample_exponential", _draws("dp.exponential.draws", "mean")),
    ("steiner.combine", "ghtree.steiner", "combine_steiner", None),
    ("steiner.min_edge_on_path", "ghtree.steiner", "min_edge_on_path", None),
    ("steiner.component_nodes", "ghtree.steiner", "component_nodes", None),
    ("applications.tree_query", "ghtree.applications", "tree_query", None),
    ("applications.min_k_cut", "ghtree.applications", "min_k_cut", None),
    ("applications.global_min_cut", "ghtree.applications", "global_min_cut", None),
    ("experiment.run_experiment", "ghtree.experiment", "run_experiment", None),
    ("experiment.write_csv", "ghtree.experiment", "write_csv", None),
    ("io.load_graph", "ghtree.io", "load_graph", None),
    ("io.save_tree", "ghtree.io", "save_tree", None),
    ("io.load_tree", "ghtree.io", "load_tree", None),
    ("generators.generate", "ghtree.generators", "generate", None),
)
GRAPH_INIT = "graph.Graph"
LAYERS = (GRAPH_INIT,) + tuple(t[0] for t in TARGETS)
WORK_COUNTS = (
    "maxflow.min_cut.arcs",
    "graph.Graph.edges",
    "graph.cut_weight.edges",
    "private_cuts.isolating_cuts.cuts",
    "pipeline.step.terminals",
    "pipeline.step.carved",
    "pipeline.step.selected",
    "dp.laplace.draws",
    "dp.exponential.draws",
)


class Tracer:
    """Span and counter registry for one workload run.

    ``calls``, ``self_s`` and ``counts`` accumulate across everything
    traced while installed; ``spans`` keeps every span for the trace
    file. Not reentrant across threads: the benchmark is single-threaded.
    """

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[tuple[str, float, float, int]] = []
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []
        self._saved: list[tuple[object, str, object]] = []

    def _enter(self) -> int:
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append([index, 0.0])
        return index

    def _exit(self, name: str, index: int, start: float, end: float) -> None:
        _, child = self._stack.pop()
        duration = end - start
        parent = self._stack[-1][0] if self._stack else -1
        self.spans[index] = (name, start, end, parent)
        self.calls[name] += 1
        self.self_s[name] += duration - child
        if self._stack:
            self._stack[-1][1] += duration

    def wrap(self, name, fn, work=None):
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._enter()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, index, start, clock())
            if work is not None:
                self.counts.update(work(args, kwargs, result))
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A benchmark-side span, such as one phase of the run."""
        index = self._enter()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._exit(name, index, start, time.perf_counter())

    def install(self) -> None:
        """Rebind every ghtree module attribute that is a traced function."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in sorted(sys.modules.items()) if key == "ghtree" or key.startswith("ghtree.")]
        for name, module_name, attr, work in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self.wrap(name, original, work)
            for module in modules:
                for key in [k for k, v in vars(module).items() if v is original]:
                    self._saved.append((module, key, original))
                    setattr(module, key, wrapper)
        graph_cls = sys.modules["ghtree.graph"].Graph
        self._saved.append((graph_cls, "__init__", graph_cls.__init__))
        graph_cls.__init__ = self.wrap(GRAPH_INIT, graph_cls.__init__, _graph_edges)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    def totals(self) -> tuple[Counter, Counter, Counter]:
        """Copies of calls, self time and work counts accumulated so far."""
        return Counter(self.calls), Counter(self.self_s), Counter(self.counts)

    def write(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent) in enumerate(self.spans):
                record = {"trace": self.trace_id, "span": index, "name": name, "start": start, "end": end, "parent": parent}
                fh.write(json.dumps(record) + "\n")
