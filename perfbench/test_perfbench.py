"""Tests of the benchmark itself, run from the repository root with

    python3 -m pytest perfbench -q

The traced runs take about a minute in all: each workload runs twice on
the golden seed with a one-second budget.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402,F401  (puts src/ on sys.path)
import workloads  # noqa: E402

import cantorlab as cl  # noqa: E402


def _bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(worker.GOLDEN_SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_json_lists_every_metric_and_workload():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["unit"] for m in spec["end_to_end"]] == [u for _, u in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [tuple(m) for m in tracing.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) \
        == list(workloads.WORKLOADS)


def test_replay_writes_the_same_csv_as_run_experiment(tmp_path):
    for name in ("example-II", "regimeC-ternary", "vdc-cantor-factorial", "qadic-delange"):
        d = cl.preset(name).to_dict()
        if d["grid"] is not None:
            d["grid"] = dict(d["grid"], w=2.0 ** -12)
        d.update(ns=[300, 5000], ladder=None, out=str(tmp_path / "a.csv"),
                 trace_out=str(tmp_path / "a-cf.csv"))
        cl.run_experiment(cl.ExperimentConfig.from_dict(d))
        want = [(tmp_path / f).read_bytes() for f in ("a.csv", "a-cf.csv")]
        tr = tracing.Tracer()
        workloads.replay_run_experiment(cl.ExperimentConfig.from_dict(d), tr)
        assert [(tmp_path / f).read_bytes() for f in ("a.csv", "a-cf.csv")] == want, name
        _, calls = tr.self_times()
        assert calls["window_bounds.optimize_window"] == 2


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat_exactly_and_replay_matches(workload):
    counted = [n for n, _, _ in tracing.PER_LAYER
               if n in tracing.COUNTS or n.endswith(".calls")]
    seen = []
    for _ in range(2):
        p = _bench(workload, 1)
        assert p.returncode == 0, p.stderr
        last = json.loads(p.stdout.strip().splitlines()[-1])
        assert last["correct"] and last["failed"] == 0, p.stdout
        assert set(last["metrics"]) == {n for n, _, _ in tracing.PER_LAYER}
        detail = json.loads((ROOT / ".bench_out" / workload /
                             "result-seed0-trace1.json").read_text())
        assert detail["golden_checked"]
        if workload != "limit-routes":
            # every traced replay was compared with its untraced CSV bytes
            assert detail["csv_repeats"] > 0
        seen.append({n: last["metrics"][n]["value"] for n in counted})
    assert seen[0] == seen[1]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    p = _bench("lab-small", 0, cwd=tmp_path)
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout
