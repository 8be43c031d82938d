"""The benchmark's workloads.

Each workload has four parts:

- ``setup`` makes the inputs from the seed and writes the input files;
- ``op`` is the timed operation, repeated for the length of the run; it
  returns the ``speed.Mark`` pair around its timed region;
- ``read`` answers seeded pair queries against the trees the workload
  holds, timing each query on its own;
- ``check`` verifies outputs that need the exact answer.

Every ghtree function is reached through a package attribute at call
time (``ghtree.final_gh_tree``, never a name bound here), so that a
traced run sees the calls the benchmark makes. Failed output checks are
collected, not raised, so one failure does not hide the next.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import statistics
import time

import ghtree
import ghtree.cli
from speed import Mark, SpeedClock

QUERIES = 2000
EPS = 1.0
REL_TOL = 1e-9
ER200 = ("erdos-renyi-weighted", {"n": 200, "p": 0.1})

# Layers every traced run of a workload must reach (binding coverage).
BUILD_LAYERS = (
    "maxflow.min_cut",
    "graph.Graph",
    "graph.contract",
    "graph.cut_weight",
    "exact.min_st_cut",
    "private_cuts.min_st_cut",
    "private_cuts.min_ST_cut",
    "private_cuts.isolating_cuts",
    "pipeline.final",
    "pipeline.step",
    "dp.laplace",
    "dp.exponential",
    "steiner.combine",
)
QUERY_LAYERS = ("applications.tree_query", "steiner.min_edge_on_path", "steiner.component_nodes")


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


class Workload:
    """Shared bookkeeping: operation counts, failures, digests, queries."""

    name = ""
    expected_layers: tuple[str, ...] = ()

    def __init__(self, seed: int, out_dir: str, clock: SpeedClock):
        self.seed = seed
        self.out_dir = out_dir
        self.clock = clock
        self.attempted = 0
        self.failed_ops: set[int] = set()
        self.problems: list[str] = []
        self.digests: dict[str, str] | None = None
        self.quality = (0.0, 0.0)

    def path(self, filename: str) -> str:
        return os.path.join(self.out_dir, filename)

    def begin(self) -> None:
        """Start one operation; later failed expectations count against it."""
        self.attempted += 1

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.failed_ops.add(self.attempted)
            if len(self.problems) < 20:
                self.problems.append(message)

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    def record_digests(self, filenames: list[str]) -> None:
        """Hash the op's output files; every repetition must match the first."""
        digests = {f: sha256_file(self.path(f)) for f in filenames}
        self.begin()
        if self.digests is None:
            self.digests = digests
        self.expect(digests == self.digests, f"outputs differ between repetitions: {digests} vs {self.digests}")

    def read(self) -> list[float]:
        """Time QUERIES seeded tree_query calls; returns CPU seconds each.

        Probe time that falls inside a query is taken out of it.
        """
        targets = [(tree, g, list(tree.nodes)) for tree, g in self.query_targets()]
        rng = random.Random(f"{self.name}/{self.seed}/queries")
        clock = self.clock
        latencies = []
        for i in range(QUERIES):
            k = i % len(targets)
            tree, g, nodes = targets[k]
            s, t = sorted(rng.sample(nodes, 2))
            self.begin()
            probe_s = clock.probe_s
            start = time.process_time()
            value, cut = ghtree.tree_query(tree, g, s, t)
            latencies.append(time.process_time() - start - (clock.probe_s - probe_s))
            self.expect(s in cut.side and t not in cut.side and value >= 0.0, f"query ({s}, {t}) returned a bad cut")
            self.check_query(k, s, t, value, cut)
        return latencies

    def check_query(self, k, s, t, value, cut) -> None:
        pass

    def measure_quality(self, rows) -> None:
        """Record side_error max and median |value_error|; side_error >= 0."""
        rows = list(rows)
        self.begin()
        self.expect(bool(rows), "no rows to measure error on")
        side_errors = [side for side, _ in rows]
        self.expect(min(side_errors, default=0.0) >= -1e-9, f"negative side_error {min(side_errors, default=0.0)!r}")
        if rows:
            self.quality = (max(side_errors), statistics.median(abs(value) for _, value in rows))


class PrivateBuild(Workload):
    """final_gh_tree at eps=1 with a ledger on the ROADMAP's three instances."""

    name = "private-build"
    expected_layers = BUILD_LAYERS + QUERY_LAYERS + ("io.save_tree", "generators.generate")
    instances = (
        ("er200",) + ER200,
        ("planted60", "planted-community", {"n": 60}),
        ("dumbbell20", "dumbbell", {"clique": 20}),
    )

    def setup(self) -> None:
        self.graphs = {label: ghtree.generate(kind, params, self.seed) for label, kind, params in self.instances}

    def op(self) -> tuple[Mark, Mark]:
        built = {}
        start = self.clock.mark()
        for label, g in self.graphs.items():
            ledger = ghtree.PrivacyLedger(ghtree.Epsilon(EPS))
            built[label] = (ghtree.final_gh_tree(g, ghtree.Epsilon(EPS), ghtree.Rng(self.seed), ledger), ledger)
        end = self.clock.mark()
        for label, (tree, ledger) in built.items():
            vertices = self.graphs[label].vertex_set
            self.begin()
            self.expect(tree.node_set == vertices, f"{label}: tree does not span the graph")
            self.expect(set(tree.f) == vertices, f"{label}: vertex map is not total")
            self.expect(all(w >= 0.0 for _, _, w in tree.edges), f"{label}: negative tree edge weight")
            self.expect(ledger.within_budget(), f"{label}: privacy ledger over budget")
            ghtree.save_tree(tree, self.path(f"private-{label}.tree"))
        self.record_digests([f"private-{label}.tree" for label in built])
        self.trees = {label: tree for label, (tree, _) in built.items()}
        return start, end

    def query_targets(self):
        return [(self.trees["er200"], self.graphs["er200"])]

    def check(self) -> None:
        # Error against the exact tree on the two structured instances,
        # whose exact trees are cheap; the ER instance is too large.
        rows = []
        for label in ("planted60", "dumbbell20"):
            g, tree = self.graphs[label], self.trees[label]
            exact = ghtree.gomory_hu_exact(g)
            for i, s in enumerate(g.vertices):
                for t in g.vertices[i + 1 :]:
                    lam = ghtree.min_edge_on_path(exact, s, t)[2]
                    value, cut = ghtree.tree_query(tree, g, s, t)
                    rows.append((cut.value - lam, value - lam))
        self.measure_quality(rows)


class Sweep(Workload):
    """The user's `ghtree bench` verb: ER n=50 p=0.2, four eps, three seeds."""

    name = "sweep"
    expected_layers = BUILD_LAYERS + QUERY_LAYERS + (
        "exact.gomory_hu",
        "experiment.run_experiment",
        "experiment.write_csv",
        "generators.generate",
    )
    generator = ("erdos-renyi-weighted", {"n": 50, "p": 0.2})
    eps = (0.5, 1.0, 2.0, 4.0)

    def setup(self) -> None:
        self.targets = None
        self.seeds = [3 * self.seed + i for i in range(3)]
        kind, params = self.generator
        lines = [f"generator = {kind}"]
        lines += [f"{key} = {value}" for key, value in params.items()]
        lines += [
            "eps = " + ", ".join(str(e) for e in self.eps),
            "seeds = " + ", ".join(str(s) for s in self.seeds),
            "mode = private",
            # Pinned so GHTREE_* variables in the environment cannot change the run.
            "c1 = 4.0",
            "c2 = 4.0",
            "c_depth = 4.0",
            "penalty_const = 4.0",
        ]
        with open(self.path("sweep.conf"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

    def op(self) -> tuple[Mark, Mark]:
        stdout = io.StringIO()
        start = self.clock.mark()
        with contextlib.redirect_stdout(stdout):
            code = ghtree.cli.main(["bench", "--config", self.path("sweep.conf"), "--out", self.path("sweep.csv")])
        end = self.clock.mark()
        self.begin()
        self.expect(code == 0, f"bench verb exited {code}")
        report = dict(line.split(" ", 1) for line in stdout.getvalue().splitlines() if " " in line)
        self.aborts = int(report.get("aborts", "-1"))
        self.expect(self.aborts >= 0, "bench verb printed no abort count")
        self.record_digests(["sweep.csv"])
        return start, end

    def _rows(self) -> list[list[str]]:
        with open(self.path("sweep.csv"), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        self.begin()
        self.expect(lines[:1] == [ghtree.experiment.CSV_HEADER], "unexpected CSV header")
        return [line.split(",") for line in lines[1:]]

    def query_targets(self):
        # The sweep's own cells at eps=1, one per seed, rebuilt once so
        # their answers can be compared with the CSV row by row. Queries
        # take turns over the three trees, so that no one tree's shape
        # sets the latency.
        if self.targets is None:
            kind, params = self.generator
            rows = self._rows()
            self.targets, self.cells = [], []
            for seed in self.seeds:
                g = ghtree.generate(kind, params, seed)
                self.targets.append((ghtree.final_gh_tree(g, ghtree.Epsilon(EPS), ghtree.Rng(seed)), g))
                cell = [r for r in rows if r[2] == str(seed) and r[3] == repr(EPS)]
                self.cells.append({(int(r[0]), int(r[1])): (float(r[5]), float(r[6])) for r in cell})
        return self.targets

    def check_query(self, k, s, t, value, cut) -> None:
        ok = self.cells[k].get((s, t)) == (value, cut.value)
        self.expect(ok, f"query ({s}, {t}) on seed {self.seeds[k]} disagrees with the sweep CSV")

    def check(self) -> None:
        rows = self._rows()
        n = self.generator[1]["n"]
        expected = n * (n - 1) // 2 * (len(self.seeds) * len(self.eps) - self.aborts)
        self.begin()
        self.expect(len(rows) == expected, f"CSV has {len(rows)} rows, expected {expected}")
        self.measure_quality((float(r[7]), float(r[8])) for r in rows)


class ExactApps(Workload):
    """Exact tree from a graph file, a file round trip, then the read side."""

    name = "exact-apps"
    expected_layers = QUERY_LAYERS + (
        "maxflow.min_cut",
        "graph.Graph",
        "graph.contract",
        "graph.cut_weight",
        "exact.min_st_cut",
        "exact.gomory_hu",
        "steiner.combine",
        "io.load_graph",
        "io.save_tree",
        "io.load_tree",
        "applications.global_min_cut",
        "applications.min_k_cut",
        "generators.generate",
    )
    check_pairs = 20
    kcut_range = range(2, 11)

    def setup(self) -> None:
        kind, params = ER200
        ghtree.save_graph(ghtree.generate(kind, params, self.seed), self.path("exact-input.graph"))

    def op(self) -> tuple[Mark, Mark]:
        start = self.clock.mark()
        g = ghtree.load_graph(self.path("exact-input.graph"))
        tree = ghtree.gomory_hu_exact(g)
        ghtree.save_tree(tree, self.path("exact.tree"))
        loaded = ghtree.load_tree(self.path("exact.tree"))
        end = self.clock.mark()
        self.begin()
        self.expect(loaded == tree, "tree changed in a save/load round trip")
        self.record_digests(["exact.tree"])
        self.graph, self.tree = g, loaded
        return start, end

    def query_targets(self):
        return [(self.tree, self.graph)]

    def check_query(self, k, s, t, value, cut) -> None:
        self.expect(_close(cut.value, value), f"query ({s}, {t}): induced cut {cut.value!r} != path minimum {value!r}")

    def read(self) -> list[float]:
        latencies = super().read()
        tree, g = self.tree, self.graph
        self.begin()
        value, cut = ghtree.global_min_cut(tree, g)
        lightest = min(w for _, _, w in tree.edges)
        self.expect(value == lightest and _close(cut.value, value), "global min cut is not the lightest tree edge")
        for k in self.kcut_range:
            self.begin()
            solution = ghtree.min_k_cut(tree, g, k)
            covered = sorted(v for part in solution.parts for v in part)
            self.expect(len(solution.parts) == k and covered == list(g.vertices), f"min_k_cut(k={k}) is not a k-partition")
            self.expect(solution.value >= value - REL_TOL * max(1.0, value), f"min_k_cut(k={k}) is below the min cut")
        return latencies

    def check(self) -> None:
        rng = random.Random(f"{self.name}/{self.seed}/check")
        rows = []
        for _ in range(self.check_pairs):
            s, t = sorted(rng.sample(list(self.graph.vertices), 2))
            lam = ghtree.min_st_cut_exact(self.graph, s, t).value
            value, cut = ghtree.tree_query(self.tree, self.graph, s, t)
            self.begin()
            self.expect(_close(value, lam), f"pair ({s}, {t}): tree says {value!r}, max-flow says {lam!r}")
            rows.append((cut.value - lam, value - lam))
        self.measure_quality(rows)


WORKLOADS = {w.name: w for w in (PrivateBuild, Sweep, ExactApps)}
