"""One benchmark process: set up a workload, run its passes, check them.

run.py starts this file in a fresh interpreter, so that set-up time covers
interpreter start, imports, input generation and one warm-up op per op
type.  The process prints "ready" once set up.  In setup mode it then
exits; in run mode it runs passes of the workload's ops for the time
budget and prints one JSON line with the raw timings, the failures and,
when traced, the per-layer metrics.  In golden mode it runs one pass and
writes each op's fingerprint to golden.json (the record for GOLDEN_SEED).

    python3 perfbench/worker.py --workload lab-small --seed 0 --mode golden
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import cantorlab  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

GOLDEN = HERE / "golden.json"
GOLDEN_SEED = 0
ENVELOPE_RTOL = 1e-9    # rounding allowance when an envelope is compared with the record
REF_REPS = 20           # reference loops after each pass

_REF_DATA = np.random.default_rng(12345).random(1 << 16)


def reference_work() -> float:
    """A fixed loop that uses no cantorlab code: Python arithmetic and numpy
    sort, cumsum and search on an array that fits in cache.

    A shared host's speed drifts by a fifth over minutes as other tenants
    come and go.  Timed beside the ops, this loop tracks the drift, and
    run.py scales the op times by it (see run.REF_NOMINAL_S).
    """
    s = 0
    for i in range(20000):
        s += i * i
    a = np.sort(_REF_DATA)
    return s + float(np.cumsum(a)[-1]) + int(np.searchsorted(a, _REF_DATA[:4096]).sum())


def time_reference(reps: int) -> list[float]:
    out = []
    for _ in range(reps):
        t0 = time.perf_counter()
        reference_work()
        out.append(time.perf_counter() - t0)
    return out


def machine_context() -> dict:
    """CPU, caches, library versions and thread settings of this process."""
    ctx = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
           "python": platform.python_version(), "numpy": np.__version__,
           "cantorlab": cantorlab.__version__}
    try:
        import scipy
        ctx["scipy"] = scipy.__version__
    except ImportError:
        ctx["scipy"] = None
    import importlib.util
    ctx["numba"] = importlib.util.find_spec("numba") is not None
    try:
        with open("/proc/cpuinfo") as fh:
            ctx["cpu"] = next((ln.split(":", 1)[1].strip() for ln in fh
                               if ln.startswith("model name")), platform.processor())
    except OSError:
        ctx["cpu"] = platform.processor()
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    ctx["caches"] = caches
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        ctx["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        ctx["blas"] = None
    ctx["threads"] = {k: os.environ.get(k) for k in
                      ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    return ctx


def _normal(obj):
    """The value as it reads back from JSON (tuples become lists)."""
    return json.loads(json.dumps(obj))


class Runner:
    """Runs passes over the ops and counts every op that raises or fails a check."""

    def __init__(self, ops, golden):
        self.ops = ops
        self.golden = golden
        self.first_digest: dict[int, str] = {}
        self.csv_repeats = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _fail(self, i: int, msgs: list[str]) -> None:
        self.failed += 1
        for m in msgs:
            line = f"op {i} ({self.ops[i].label}): {m}"
            print(line, file=sys.stderr)
            if len(self.problems) < 50:
                self.problems.append(line)

    def _against_record(self, i: int, out) -> list[str]:
        msgs = []
        if out.digest is not None:
            if i not in self.first_digest:
                self.first_digest[i] = out.digest
            else:
                self.csv_repeats += 1
                if out.digest != self.first_digest[i]:
                    msgs.append("CSV bytes differ from the first run of the same input")
        if self.golden is not None:
            rec = self.golden[i]
            if rec["kind"] != self.ops[i].kind:
                return msgs + [f"golden record holds a {rec['kind']} op here"]
            if _normal(out.exact) != rec["exact"]:
                msgs.append(f"exact values changed: {_normal(out.exact)} != {rec['exact']}")
            for k, v in out.envelope.items():
                if not v <= rec["envelope"][k] * (1.0 + ENVELOPE_RTOL):
                    msgs.append(f"envelope {k} widened: {v!r} > {rec['envelope'][k]!r}")
        return msgs

    def run_op(self, i: int, tr):
        """(duration, outcome) of one op; the outcome is None when it raised."""
        op = self.ops[i]
        self.attempted += 1
        tr.begin_op(i)
        t0 = time.perf_counter()
        try:
            with tr.span(tracing.ROOT):
                res = op.call(tr)
            dt = time.perf_counter() - t0
            out = op.inspect(res)
        except Exception:
            self._fail(i, [traceback.format_exc()])
            return time.perf_counter() - t0, None
        msgs = out.problems + self._against_record(i, out)
        if msgs:
            self._fail(i, msgs)
        return dt, out

    def one_pass(self, tr) -> tuple[list[float], dict, dict, list]:
        """(op durations, computed counts, widest envelopes, outcomes) of one pass."""
        durations, counts, widest, outcomes = [], {}, {}, []
        for i in range(len(self.ops)):
            dt, out = self.run_op(i, tr)
            durations.append(dt)
            outcomes.append(out)
            if out is None:
                continue
            for k, v in out.counts.items():
                counts[k] = counts.get(k, 0) + v
            for k, v in out.widest.items():
                widest[k] = max(widest.get(k, v), v)
        return durations, counts, widest, outcomes

    def passes(self, budget: float, tr) -> dict:
        """Passes until the next one would overrun the budget (at least one)."""
        start = time.perf_counter()
        op_s, ref_s, counts, widest = [], [], None, {}
        while True:
            t0 = time.perf_counter()
            durations, c, w, _ = self.one_pass(tr)
            op_s.append(durations)
            ref_s.extend(time_reference(REF_REPS))
            if counts is None:
                counts = c
            elif c != counts:
                self.failed += 1
                self.problems.append(f"computed counts changed between passes: {c} != {counts}")
            for k, v in w.items():
                widest[k] = max(widest.get(k, v), v)
            now = time.perf_counter()
            if now - start + (now - t0) > budget:
                break
        return {"op_s": op_s, "best_s": best_times(op_s), "ref_s": ref_s,
                "counts": counts, "widest": widest}


def best_times(op_s: list[list[float]]) -> list[float]:
    """Each op's fastest time over the passes (op_s[pass][op]).

    On a shared host other tenants slow a process in bursts of a fraction
    of a second; an op's fastest pass is the one that ran clear of them,
    and it varies far less from run to run than the op's median does.
    """
    return [min(col) for col in zip(*op_s)]


def _load_golden(workload: str, seed: int):
    if seed != GOLDEN_SEED or not GOLDEN.is_file():
        return None
    return json.loads(GOLDEN.read_text())["workloads"].get(workload)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=GOLDEN_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "run", "golden"), default="run")
    ap.add_argument("--out-dir", default=".bench_out")
    args = ap.parse_args(argv)

    out_dir = Path(args.out_dir) / args.workload
    ops, warm = workloads.build(args.workload, args.seed, out_dir)
    for op in warm:
        # a failing warm-up is reported here; the timed passes count the failures
        try:
            problems = op.inspect(op.call(tracing.NULL_TRACER)).problems
        except Exception:
            problems = [traceback.format_exc()]
        for p in problems:
            print(f"warm-up {op.label}: {p}", file=sys.stderr)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    if args.mode == "golden":
        if args.seed != GOLDEN_SEED:
            print(f"the golden record is for seed {GOLDEN_SEED}", file=sys.stderr)
            return 2
        runner = Runner(ops, None)
        _, _, _, outcomes = runner.one_pass(tracing.NULL_TRACER)
        if runner.failed:
            return 1
        record = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {
            "seed": GOLDEN_SEED, "workloads": {}}
        record["workloads"][args.workload] = [
            {"kind": op.kind, "label": op.label, "exact": _normal(o.exact),
             "envelope": o.envelope} for op, o in zip(ops, outcomes)]
        GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        return 0

    golden = _load_golden(args.workload, args.seed)
    if golden is not None and len(golden) != len(ops):
        print("golden record does not match the workload's op list", file=sys.stderr)
        return 1
    runner = Runner(ops, golden)
    result = {"ops_per_pass": len(ops), "op_kinds": [op.kind for op in ops],
              "machine": machine_context()}
    # The first pass in a process pays for first-touch allocation of the large
    # arrays; it is checked like any other but not timed.  Every input thus
    # runs at least twice, so the CSV repeat check always applies.
    runner.one_pass(tracing.NULL_TRACER)
    time_reference(REF_REPS)
    if args.trace == 0:
        plain = runner.passes(args.seconds, tracing.NULL_TRACER)
        result.update(op_s=plain["op_s"], best_s=plain["best_s"], ref_s=plain["ref_s"])
    else:
        plain = runner.passes(args.seconds / 2.0, tracing.NULL_TRACER)
        tr = tracing.Tracer()
        traced = runner.passes(args.seconds / 2.0, tr)
        result["per_layer"] = tracing.layer_metrics(
            tr, len(traced["op_s"]), traced["counts"], traced["widest"],
            sum(traced["best_s"]), sum(plain["best_s"]))
        result.update(op_s=plain["op_s"], best_s=plain["best_s"], ref_s=plain["ref_s"],
                      traced_op_s=traced["op_s"], counts=traced["counts"])
        tr.dump(out_dir / f"spans-seed{args.seed}.json")
    result.update(attempted=runner.attempted, failed=runner.failed,
                  problems=runner.problems, golden_checked=golden is not None,
                  csv_repeats=runner.csv_repeats,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
