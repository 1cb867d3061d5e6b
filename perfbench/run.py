"""Benchmark of cantorlab, driven from outside through its public API.

Run from the repository root:

    python3 perfbench/run.py --workload grid-ladder --seed 1 --seconds 30 --trace 0

Each run makes the workload's inputs from the seed and, in one
single-threaded worker process, runs one untimed settling pass of its ops
and then times passes of them for --seconds.  It checks every op's output
and prints a summary followed, on the last line, by one JSON object
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones below; with --trace 1 the worker first
times untraced passes for half the budget and then traced replays for the
other half, and the metrics are the per-layer ones (tracing.PER_LAYER).

Every time below is in reference seconds: a measured time scaled by
REF_NOMINAL_S over the fastest time of worker.reference_work, a fixed loop
that uses no cantorlab code and runs worker.REF_REPS times after every
pass.  A shared host's speed drifts by a fifth over minutes; the reference
loop drifts with it, so the scaled times drift far less, while a change to
cantorlab moves them as much as it moves the raw times.  The summary prints the
scale factor; the detailed result keeps every raw time.  The per-layer
times of --trace 1 are raw seconds.

setup_s is the median, over SETUP_REPEATS fresh interpreters, of the time
from process start to "ready": imports, input generation and one warm-up
op per op type.  Each op is timed at its fastest pass of the run, which
filters out the bursts in which other tenants of the host slow the
process down.  run_s is the sum of these times over one pass's ops, i.e.
the time to certified results for the seed's fixed amount of work;
op_p50_s and op_p90_s are their median and 90th percentile over the ops
of a pass.  peak_rss_mb is the worker's ru_maxrss.  Ops that raise or fail
a check count in "failed"; the summary prints their ratio as fail_ratio.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

WORKLOADS = ("grid-ladder", "limit-routes", "lab-small")
END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("op_p50_s", "s"), ("op_p90_s", "s"),
              ("peak_rss_mb", "MB"))
SETUP_REPEATS = 9
REF_NOMINAL_S = 2.2e-3      # reference loop time that a reference second stands for
DEADLINE_S = 170.0          # every run ends well within the 180 s a run may take
OUT_DIR = ".bench_out"      # CSV files, spans and detailed results, under the root

# the benchmark's own process environment: one BLAS/OpenMP thread
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
          "BLIS_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
          "VECLIB_MAXIMUM_THREADS": "1", "PYTHONDONTWRITEBYTECODE": "1",
          "PYTHONHASHSEED": "0"}


class WorkerError(RuntimeError):
    pass


def _worker(cmd: list[str], env: dict, deadline: float) -> tuple[float, str]:
    """(seconds from start to "ready", last stdout line) of one worker process."""
    left = deadline - time.monotonic()
    if left <= 0:
        raise WorkerError("out of time before starting a worker")
    t0 = time.perf_counter()
    ready = None
    last = ""
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True) as proc:
        watchdog = threading.Timer(left, proc.kill)
        watchdog.start()
        try:
            for line in proc.stdout:
                if ready is None and line.strip() == "ready":
                    ready = time.perf_counter() - t0
                elif line.strip():
                    last = line
            code = proc.wait()
        finally:
            watchdog.cancel()
            proc.kill()
            proc.wait()
    if code != 0 or ready is None:
        raise WorkerError(f"worker exited with code {code} ({' '.join(cmd[2:])})")
    return ready, last


def _summary(workload: str, seed: int, res: dict, metrics: dict, setup: list) -> str:
    att, fail = res["attempted"], res["failed"]
    passes, scale = len(res["op_s"]), res["scale"]
    best = [scale * t for t in res["best_s"]]
    lines = [f"cantorlab benchmark: workload {workload}, seed {seed}, "
             f"{passes} untraced passes of {res['ops_per_pass']} ops"]
    notes = {"setup_s": f"median of {len(setup)} set-ups",
             "run_s": f"sum of {len(best)} ops, each its fastest of {passes} passes"}
    if "op_p90_s" in metrics:
        p90 = metrics["op_p90_s"]["value"]
        notes["op_p50_s"] = f"over {len(best)} ops"
        notes["op_p90_s"] = f"{sum(t > p90 for t in best)} ops beyond it"
    for name, m in metrics.items():
        lines.append(f"  {name:38s} {m['value']:14.6g} {m['unit']:6s} {notes.get(name, '')}")
    lines.append(f"  {'fail_ratio':38s} {fail / att:14.6g} {'ratio':6s} {fail} of {att} ops")
    lines.append(f"  {'(time scale)':38s} {scale:14.6g} {'ratio':6s} reference loop "
                 f"{min(res['ref_s']):.6g} s, fastest of {len(res['ref_s'])}")
    lines.append("machine " + json.dumps(res["machine"], sort_keys=True))
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="cantorlab benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    deadline = time.monotonic() + DEADLINE_S
    root = Path.cwd()
    if not (root / "src" / "cantorlab" / "__init__.py").is_file():
        print("perfbench: no src/cantorlab under the current directory; "
              "run from the repository root", file=sys.stderr)
        return 2
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(Path(__file__).resolve().parent / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(root / OUT_DIR)]
    try:
        setup = [_worker(cmd + ["--mode", "setup"], env, deadline)[0]
                 for _ in range(SETUP_REPEATS - 1)]
        ready, last = _worker(cmd + ["--mode", "run"], env, deadline)
        setup.append(ready)
        res = json.loads(last)
    except (WorkerError, json.JSONDecodeError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    scale = res["scale"] = REF_NOMINAL_S / min(res["ref_s"])
    if args.trace:
        metrics = res["per_layer"]
    else:
        best = [scale * t for t in res["best_s"]]
        values = {"setup_s": scale * statistics.median(setup),
                  "run_s": sum(best),
                  "op_p50_s": statistics.median(best),
                  "op_p90_s": statistics.quantiles(best, n=10, method="inclusive")[8],
                  "peak_rss_mb": res["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    res["setup_s"] = setup
    out = root / OUT_DIR / args.workload / f"result-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(dict(res, metrics=metrics), indent=1))

    print(_summary(args.workload, args.seed, res, metrics, setup))
    for p in res["problems"]:
        print("  FAILED " + p.splitlines()[0])
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
