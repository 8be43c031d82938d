"""Checks on the benchmark itself.

    python3 -m pytest bench/test_bench.py

Each workload runs four times at one seed, each in a fresh process with
a single repetition: untraced twice, then traced twice. The runs must
write byte-identical trees and CSVs. Tracing must leave them unchanged,
which also shows it does not disturb the random stream. The two traced
runs must agree on every call and work count. The speed clock's
scaling is checked on made-up probe times.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from speed import PROBE_NOMINAL_S, Mark, SpeedClock

ROOT = Path(__file__).resolve().parents[1]
SEED = 7
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_UNITS = {"count", "ratio", "weight"}


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)


def _result(workload: str, trace: int) -> tuple[dict, dict]:
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    record = json.loads((ROOT / ".bench_out" / workload / f"seed{SEED}-trace{trace}" / "result.json").read_text())
    return result, record


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_outputs_repeat_and_tracing_changes_nothing(workload):
    plain, first = _result(workload, 0)
    _, second = _result(workload, 0)
    traced, traced_record = _result(workload, 1)
    traced_again, _ = _result(workload, 1)

    assert first["digests"] and first["digests"] == second["digests"]
    assert traced_record["digests"] == first["digests"]
    assert set(plain["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    counts = [name for name, m in traced["metrics"].items() if m["unit"] in COUNT_UNITS]
    assert counts
    for name in counts:
        assert traced["metrics"][name] == traced_again["metrics"][name], name


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(SPEC["workloads"][0]["name"], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_speed_clock_scales_by_the_probes():
    clock = SpeedClock()
    a, b = clock.mark(), clock.mark()
    assert clock.scaled(a, b) == b.cpu - a.cpu  # never started: CPU time
    clock.probes = [2 * PROBE_NOMINAL_S] * 40 + [1.0] * 10
    # 10 probes inside; the 40 used reach out to both sides, and the
    # slowest 20% of them, the preempted ones, are left out.
    a, b = Mark(0.0, 0.0, 0.0, 20), Mark(9.0, 1.5, 0.5, 30)
    assert clock.factor(a, b) == pytest.approx(0.5)
    assert clock.scaled(a, b) == pytest.approx(0.5)
