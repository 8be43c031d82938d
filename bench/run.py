"""Run one benchmark workload in this process and print its metrics.

    python3 bench/run.py --workload private-build --seed 0 --seconds 20 --trace 0

Run it from the repository root; the package is imported from ./src and
nowhere else. One workload runs per process, single-threaded. With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it reports the per-layer metrics from a run traced by ``tracing.Tracer``.
End-to-end times are process CPU times scaled to a fixed machine speed by
``speed.SpeedClock``; the record keeps the plain wall times too. The
last line of stdout is the result as one JSON object. A fuller
record (environment, digests of every output file, repetition times,
problems found) goes to ``.bench_out/<workload>/seed<seed>-trace<t>/``.
bench/README.md lists the metrics and what each workload is for.
"""

from __future__ import annotations

import os

# Single-threaded numerics; set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import time

PROCESS_START = (time.perf_counter(), time.process_time())

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

from speed import Mark, SpeedClock

SETUP_REPS = 5
# Fresh interpreters that time importing the package the way this
# process's own import is timed; with it they give setup_s's import part
# as a median.
IMPORT_REPS = 4
IMPORT_CHILD = (
    "import time; start = time.process_time(); import sys; sys.path.insert(0, 'src'); "
    "import ghtree, ghtree.cli; print(time.process_time() - start)"
)
QUERY_ROUNDS_PER_OP = 3
OUT_DIR = ".bench_out"


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def _git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _environment(root: Path, seed: int) -> dict:
    import numpy

    import ghtree._maxflow

    return {
        "backend": "numba" if ghtree._maxflow.USING_NUMBA else "interpreted",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(root),
        "seed": seed,
    }


def _percentile(sorted_values, q: float):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _untraced(wl, clock: SpeedClock, seconds: float, imports: tuple[Mark, Mark]) -> tuple[dict, dict]:
    children = []
    for _ in range(IMPORT_REPS):
        start = clock.mark()
        child = subprocess.run([sys.executable, "-c", IMPORT_CHILD], capture_output=True, text=True, check=True)
        children.append((start, clock.mark(), float(child.stdout)))
    setups = []
    for _ in range(SETUP_REPS):
        start = clock.mark()
        wl.setup()
        setups.append((start, clock.mark()))
    # Alternate the operation with query rounds until another cycle would
    # overrun the run, so both sample the machine across the whole run.
    ops, rounds = [], []
    loop_start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        ops.append(wl.op())
        for _ in range(QUERY_ROUNDS_PER_OP):
            start = clock.mark()
            latencies = wl.read()
            rounds.append((start, clock.mark(), latencies))
        now = time.perf_counter()
        if now - loop_start + (now - cycle_start) > seconds:
            break
    clock.stop()
    wl.check()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    import_times = [clock.scaled(*imports)] + [cpu * clock.factor(a, b) for a, b, cpu in children]
    setup_times = [clock.scaled(a, b) for a, b in setups]
    op_times = [clock.scaled(a, b) for a, b in ops]
    factors = [clock.factor(a, b) for a, b, _ in rounds]
    # Each query's latency is its median over the rounds.
    scaled = [[x * f for x in latencies] for f, (_, _, latencies) in zip(factors, rounds)]
    latencies = sorted(statistics.median(per_query) for per_query in zip(*scaled))
    metrics = {
        "setup_s": _metric(statistics.median(import_times) + statistics.median(setup_times), "s"),
        "op_s": _metric(statistics.median(op_times), "s"),
        "query_mean_us": _metric(statistics.fmean(latencies) * 1e6, "us"),
        "query_p99_us": _metric(_percentile(latencies, 0.99) * 1e6, "us"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }
    detail = {
        "import_times_s": import_times,
        "setup_times_s": setup_times,
        "op_times_s": op_times,
        "query_rounds": len(rounds),
        "wall": {
            "import_s": imports[1].wall - imports[0].wall,
            "setup_times_s": [b.wall - a.wall for a, b in setups],
            "op_times_s": [b.wall - a.wall for a, b in ops],
        },
        "speed": {
            "probes": len(clock.probes),
            "probe_s": clock.probe_s,
            "op_factors": [clock.factor(a, b) for a, b in ops],
            "query_round_factors": factors,
        },
    }
    return metrics, detail


def _traced(wl, clock: SpeedClock, seconds: float, out: Path) -> tuple[dict, dict]:
    from tracing import LAYERS, WORK_COUNTS, Tracer

    tracer = Tracer(trace_id=f"{wl.name}/{wl.seed}")

    def traced_phase(name, fn):
        before = tracer.totals()
        tracer.install()
        try:
            with tracer.span(name):
                result = fn()
        finally:
            tracer.uninstall()
        after = tracer.totals()
        return result, tuple(a - b for a, b in zip(after, before))

    _, setup_part = traced_phase("phase.setup", wl.setup)
    plain, traced, op_parts = [], [], []
    loop_start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        plain.append(clock.scaled(*wl.op()))
        marks, part = traced_phase("phase.op", wl.op)
        traced.append(clock.scaled(*marks))
        op_parts.append(part)
        now = time.perf_counter()
        if now - loop_start + (now - cycle_start) > seconds:
            break
    _, read_part = traced_phase("phase.read", wl.read)
    wl.check()
    tracer.write(str(out / "spans.jsonl"))

    calls, self_s, counts = (s + o + r for s, o, r in zip(setup_part, op_parts[0], read_part))
    wl.begin()
    same = all((p[0], p[2]) == (op_parts[0][0], op_parts[0][2]) for p in op_parts)
    wl.expect(same, "call or work counts differ between traced repetitions")
    for layer in wl.expected_layers:
        wl.begin()
        wl.expect(calls[layer] >= 1, f"binding coverage: no call reached {layer}")

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = _metric(calls[layer], "count")
        metrics[f"{layer}.self_s"] = _metric(self_s[layer], "s")
    for name in WORK_COUNTS:
        metrics[name] = _metric(counts[name], "count")
    cuts = counts["private_cuts.isolating_cuts.cuts"]
    metrics["pipeline.step.selected_ratio"] = _metric(counts["pipeline.step.selected"] / cuts if cuts else 0.0, "ratio")
    metrics["trace.overhead_s"] = _metric(statistics.median(traced) - statistics.median(plain), "s")
    metrics["quality.side_error_max"] = _metric(wl.quality[0], "weight")
    metrics["quality.value_error_median"] = _metric(wl.quality[1], "weight")
    detail = {"untraced_op_s": plain, "traced_op_s": traced, "spans": len(tracer.spans)}
    return metrics, detail


def main(argv=None) -> int:
    args = _parse_args(argv)
    clock = SpeedClock()
    root = Path.cwd()
    src = root / "src"
    if not (src / "ghtree" / "__init__.py").is_file():
        print(f"error: no ghtree sources under {src}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import ghtree
    import ghtree.cli  # imported before any tracing so its bindings are rebound too

    imports = (Mark(*PROCESS_START, 0.0, 0), clock.mark())
    if Path(ghtree.__file__).resolve().parent != (src / "ghtree").resolve():
        print(f"error: imported ghtree from {ghtree.__file__}, not from {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    out = root / OUT_DIR / args.workload / f"seed{args.seed}-trace{args.trace}"
    out.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, str(out), clock)
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds}
    record["environment"] = _environment(root, args.seed)
    # The clock runs only in untraced runs; a traced run's times are CPU times.
    if not args.trace:
        clock.start()
    try:
        if args.trace:
            metrics, detail = _traced(wl, clock, args.seconds, out)
        else:
            metrics, detail = _untraced(wl, clock, args.seconds, imports)
    except Exception:
        traceback.print_exc()
        wl.begin()
        wl.expect(False, "exception: " + traceback.format_exc(limit=1).strip().splitlines()[-1])
        metrics, detail = {}, {}
    finally:
        clock.stop()
    record.update(detail)
    record["digests"] = wl.digests
    record["quality"] = {"side_error_max": wl.quality[0], "value_error_median": wl.quality[1]}
    record["problems"] = wl.problems
    result = {"correct": wl.failed == 0, "attempted": wl.attempted, "failed": wl.failed, "metrics": metrics}
    record["result"] = result
    with open(out / "result.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for problem in wl.problems:
        print(f"problem: {problem}", file=sys.stderr)
    print("environment " + json.dumps(record["environment"]))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
