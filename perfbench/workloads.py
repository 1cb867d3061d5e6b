"""Seeded inputs, timed operations and output checks for the workloads.

An operation ("op") is one timed call into cantorlab's public API.  Each
workload turns a seed into a fixed list of ops (one pass) plus one small
warm-up op per op type.  The seed draws sizes and windows inside fixed
strata, so every seed asks for about the same amount of work and the run
time stays comparable across seeds.

- grid-ladder: run_experiment on the grid-referenced presets example-II
  and regimeC-ternary on 64x coarser grids, K >> N (empirical grid
  distances, window_sup).
- limit-routes: limitlaw called directly (convolution at half the fine
  pitch, dense CF inversion, truncated CF product); no empirical distance
  runs.
- lab-small: many short mixed calls, where per-call Python overhead and
  Markov sampling dominate; its coarse-grid op has K << N.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import cantorlab as cl
from cantorlab.experiments import ExperimentConfig, build_reference

WORKLOADS = ("grid-ladder", "limit-routes", "lab-small")

INVERT_T_MAX = 2048.0
INVERT_N_T = 1 << 16
ORACLE_PITCH = 2.0 ** -12      # conv grid that the inversion ops are checked against
INVERT_OPS = 5                 # inversion ops per family
INVERT_POINTS = 16             # xs per inversion op


@dataclass
class Outcome:
    """What an op's output tells: its failed checks and its fingerprint."""

    problems: list = field(default_factory=list)
    exact: dict = field(default_factory=dict)      # must equal the golden record
    envelope: dict = field(default_factory=dict)   # must not exceed it
    counts: dict = field(default_factory=dict)     # computed work, see tracing.COUNTS
    widest: dict = field(default_factory=dict)     # recorded envelopes, see tracing.WIDEST
    digest: str | None = None                      # sha256 of the CSV bytes


@dataclass
class Op:
    kind: str
    label: str
    call: Callable[[Any], Any]          # call(tracer) -> result; the timed part
    inspect: Callable[[Any], Outcome]   # checks the result; untimed


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _knots(x0: float, x1: float, w: float) -> int:
    return int(math.floor((x1 - x0) / w)) + 1


def _strata(rng: random.Random, lo: float, hi: float, k: int) -> list[float]:
    """k draws, one uniform in each of k equal slices of [lo, hi)."""
    step = (hi - lo) / k
    return [lo + step * (i + rng.random()) for i in range(k)]


def _grid_outcome(out: Outcome, g) -> None:
    slack = g.vertical_slack()
    out.envelope.update(eps_x=g.eps_x, eps_p=g.eps_p, vertical_slack=slack)
    out.counts["limitlaw.conv_knots"] = int(g.cum.size)
    out.widest["limitlaw.conv_vertical_slack"] = slack
    if not (math.isfinite(g.eps_x) and math.isfinite(g.eps_p)):
        out.problems.append(f"grid envelope not finite: {g!r}")
    if np.any(np.diff(g.cum) < 0.0) or g.cum[0] < 0.0 or g.cum[-1] > 1.0 + 1e-12:
        out.problems.append("grid CDF leaves [0, 1] or decreases")


# -- run_experiment ------------------------------------------------------------


def replay_run_experiment(config: ExperimentConfig, tr) -> list[dict]:
    """run_experiment stage by stage through the same public calls, in spans.

    It mirrors experiments.run_experiment and its per-row helper; the
    benchmark checks that its CSV bytes equal the untraced op's.
    """
    with tr.span("experiments.run_experiment"):
        dmap = cl.DigitMap(config.map)
        base = cl.build_base(config.base)
        heights = config.heights()
        grid = config.reference["kind"] == "grid"
        with tr.span("limitlaw.limit_cdf_conv" if grid else "experiments.build_reference"):
            ref = build_reference(config, dmap, base)
        regime = config.regime
        if regime == "auto":
            with tr.span("window_bounds.resolve_regime"):
                regime = cl.resolve_regime(dmap, base, cl.length(base, max(heights)),
                                           config.rho_inf)
        rate = config.rate_family
        rows = []
        for n in heights:
            with tr.span("window_bounds.optimize_window"):
                h_star, t_star, report = cl.optimize_window(
                    dmap, base, n, regime, rho_inf=config.rho_inf, ref=ref)
            with tr.span("empirical.value_vector"):
                values = cl.value_vector(dmap, base, n)
            with tr.span("empirical.sort"):
                ecdf = cl.EmpiricalCDF(values)
            with tr.span("empirical.kolmogorov"):
                dk = cl.kolmogorov(ecdf, ref)
            dk_lo, dk_hi = (dk.lo, dk.hi) if isinstance(dk, cl.Interval) else (dk, dk)
            with tr.span("empirical.wasserstein1"):
                w1 = cl.wasserstein1(ecdf, ref)
            dstar = None
            if dmap.family == "radical-inverse":
                with tr.span("empirical.value_vector"):
                    values = cl.value_vector(dmap, base, n)
                with tr.span("empirical.star_discrepancy"):
                    dstar = cl.star_discrepancy(values)
            pred = None
            if rate is not None:
                with tr.span("window_bounds.predicted_rate"):
                    pred = cl.predicted_rate(rate["family"], n, alpha=rate.get("alpha"),
                                             beta=rate.get("beta"), q=rate.get("q", 2))
            rows.append({"N": n, "L": report.L, "h_star": h_star, "T_star": t_star,
                         "regime": report.regime, "bridge": report.bridge,
                         "tau1": report.tau1, "tau2": report.tau2_h, "qf": report.qf_term,
                         "g": report.g_term, "total": report.total, "dk_lo": dk_lo,
                         "dk_hi": dk_hi, "w1": w1, "dstar": dstar, "predicted_rate": pred,
                         "conditional": report.conditional})
        with tr.span("experiments.rows_to_csv"):
            text = cl.rows_to_csv(rows)
        if config.out:
            with open(config.out, "w") as fh:
                fh.write(text)
        if config.trace_out:
            with tr.span("experiments.write_cf_trace"):
                cl.write_cf_trace(dmap, base, config.trace_out)
    return rows


def _experiment_op(kind: str, d: dict, out_dir: Path, op_id: int, cf_trace: bool) -> Op:
    d = dict(d, out=str(out_dir / f"op{op_id:03d}.csv"), ladder=None,
             trace_out=str(out_dir / f"op{op_id:03d}-cf.csv") if cf_trace else None)
    config = ExperimentConfig.from_dict(d)
    ref = config.reference
    grid = ref["kind"] == "grid"
    knots = _knots(config.grid["x0"], config.grid["x1"], config.grid["w"]) if grid else 0
    unit_uniform = ref["kind"] == "uniform" and ref["lo"] == 0.0 and ref["hi"] == 1.0

    def call(tr):
        if tr.active:
            return replay_run_experiment(config, tr)
        return cl.run_experiment(config)

    def inspect(rows) -> Outcome:
        csv = Path(config.out).read_bytes()
        out = Outcome(digest=_sha(csv + (Path(config.trace_out).read_bytes()
                                         if config.trace_out else b"")))
        if csv.decode() != cl.rows_to_csv(rows):
            out.problems.append("CSV file differs from the returned rows")
        if [r["N"] for r in rows] != list(config.ns):
            out.problems.append("rows do not follow the requested heights")
        values = candidates = 0
        for r in rows:
            if not r["dk_lo"] <= r["dk_hi"]:
                out.problems.append(f"N={r['N']}: dk_lo {r['dk_lo']} > dk_hi {r['dk_hi']}")
            if r["conditional"]:
                out.problems.append(f"N={r['N']}: row is conditional")
            if not r["dk_lo"] <= 10.0 * r["total"]:
                out.problems.append(f"N={r['N']}: d_K {r['dk_lo']} above 10x the bound")
            if r["dstar"] is not None and unit_uniform and r["dk_lo"] != r["dstar"]:
                out.problems.append(f"N={r['N']}: d_K {r['dk_lo']!r} != D* {r['dstar']!r}")
            # value_vector runs a second time for D*; regime B has no T search
            values += r["N"] * (2 if r["dstar"] is not None else 1)
            candidates += r["L"] * (1 if r["regime"] == "B" else len(cl.T_GRID))
        out.exact = {"rows": [[r[c] for c in ("N", "L", "h_star", "T_star", "regime",
                                               "dk_lo", "dk_hi", "dstar")] for r in rows],
                     "csv_sha256": _sha(csv)}
        out.envelope = {"dk_width": max(r["dk_hi"] - r["dk_lo"] for r in rows)}
        out.counts.update({"empirical.values": values,
                           "window_bounds.candidates": candidates,
                           "empirical.ref_knots_scanned": 2 * knots * len(rows),
                           "limitlaw.conv_knots": knots,
                           "experiments.rows": len(rows),
                           "experiments.csv_bytes": len(csv)})
        return out

    return Op(kind, f"{config.name} ns={list(config.ns)}", call, inspect)


# -- grid-ladder -----------------------------------------------------------------


# The presets' own grids (4.2M and 3.4M knots) make each op seconds of
# streaming through 30 MB arrays, and the time of such streaming drifts
# with the load of the other tenants of a shared host far more than the
# reference loop (worker.reference_work) does.  The grids here are 64x
# coarser (64K and 53K knots, which fit in a core's L2 cache) and the
# ladders stop at 2^11, which keeps K >> N (K/N >= 26) and the op mix:
# grid distances and window_sup lead, as on the presets' own grids.
GRID_LADDER_W = {"example-II": 2.0 ** -15, "regimeC-ternary": 2.0 ** -14}
GRID_LADDER_TOP = 1 << 11
LADDERS_PER_PRESET = 4


def _grid_ladder(rng: random.Random, out_dir: Path):
    ops, warm = [], []
    # each ladder draws one height per stratum of log2 N in [8, 11) and ends
    # at the common top height, whose arrays set the peak memory
    for name, w in GRID_LADDER_W.items():
        d = cl.preset(name).to_dict()
        grid = dict(d["grid"], w=w)
        for _ in range(LADDERS_PER_PRESET):
            ns = sorted({int(2.0 ** e) for e in _strata(rng, 8.0, 11.0, 3)} | {GRID_LADDER_TOP})
            ops.append(_experiment_op(f"run_experiment:{name}", dict(d, ns=ns, grid=grid),
                                      out_dir, len(ops), cf_trace=False))
        small = dict(d, ns=[300], grid=dict(d["grid"], w=2.0 ** -12))
        warm.append(_experiment_op(f"run_experiment:{name}", small, out_dir,
                                   100 + len(warm), cf_trace=False))
    return ops, warm


# -- limit-routes ------------------------------------------------------------------


def _conv_op(kind, dmap, base, x0, x1, w, oracle=None) -> Op:
    def call(tr):
        with tr.span("limitlaw.limit_cdf_conv"):
            return cl.limit_cdf_conv(dmap, base, x0, x1, w)

    def inspect(g) -> Outcome:
        out = Outcome()
        _grid_outcome(out, g)
        out.exact = {"knots": int(g.cum.size)}
        if oracle is not None:
            xs = g.x0 + g.w * np.arange(g.cum.size)
            gap = float(np.max(np.abs(g.cum - oracle(xs))))
            if not gap <= g.vertical_slack():
                out.problems.append(f"gap {gap} to the exact limit above slack "
                                    f"{g.vertical_slack()}")
        return out

    return Op(kind, f"{kind} [{x0!r}, {x1!r}] w={w!r}", call, inspect)


def _invert_op(kind, dmap, base, grid, idx, rho, n_t) -> Op:
    xs = grid.x0 + grid.w * idx
    want = grid.cum[idx]
    budget_grid = grid.vertical_slack()
    q_hint = rho / INVERT_T_MAX

    def call(tr):
        with tr.span("limitlaw.limit_cdf_invert"):
            return cl.limit_cdf_invert(dmap, base, xs, t_max=INVERT_T_MAX, n_t=n_t,
                                       q_hint=q_hint)

    def inspect(inv) -> Outcome:
        out = Outcome(envelope={"invert_envelope": inv.envelope})
        out.counts["limitlaw.invert_cells"] = int(xs.size) * n_t
        out.widest["limitlaw.invert_envelope"] = inv.envelope
        if inv.conditional:
            out.problems.append("inversion flagged conditional despite q_hint")
        gap = float(np.max(np.abs(want - inv.values)))
        if not gap <= budget_grid + inv.envelope:
            out.problems.append(f"conv-vs-invert gap {gap} above the summed envelopes "
                                f"{budget_grid + inv.envelope}")
        if np.any(inv.values < 0.0) or np.any(inv.values > 1.0) or np.any(np.diff(inv.values) < 0):
            out.problems.append("inverted CDF leaves [0, 1] or decreases")
        return out

    return Op(kind, f"{kind} n_x={xs.size} x=[{xs[0]!r}, {xs[-1]!r}]", call, inspect)


def _cf_op(kind, dmap, base, ts, limit_cf) -> Op:
    def call(tr):
        with tr.span("limitlaw.cf_truncated"):
            return cl.cf_truncated(dmap, base, ts)

    def inspect(res) -> Outcome:
        phi, err, depth = res
        out = Outcome(exact={"depth": depth}, envelope={"truncation_bound": err})
        out.counts["limitlaw.cf_depth"] = depth
        gap = float(np.max(np.abs(phi - limit_cf(ts))))
        if not gap <= err + 1e-9:
            out.problems.append(f"CF gap {gap} to the exact limit above {err} + 1e-9")
        return out

    return Op(kind, f"{kind} n_t={ts.size}", call, inspect)


def _uniform_cf(lo: float, hi: float):
    # characteristic function of the uniform law on [lo, hi], t > 0
    def phi(t):
        return (np.exp(1j * t * hi) - np.exp(1j * t * lo)) / (1j * t * (hi - lo))
    return phi


def _limit_routes(rng: random.Random, out_dir: Path):
    b2 = cl.build_base({"kind": "constant", "q": 2})
    b3 = cl.build_base({"kind": "constant", "q": 3})
    b4 = cl.build_base({"kind": "constant", "q": 4})
    skew = cl.DigitMap.skewed_polyweight()
    geo = cl.DigitMap.geometric(0.5, (0.0, 1.0))      # limit law: uniform on [0, 2]
    ri = cl.DigitMap.radical_inverse()                # uniform on [0, 1]
    st = cl.DigitMap.symmetric_ternary()              # uniform on [-1.5, 1.5]
    # conv pitches are 2x coarser than the families' fine pitch (2^-16 and
    # 2^-21) and each inversion op takes INVERT_POINTS xs, so that a pass is a
    # few seconds and every op runs in several passes of a run
    ops = [
        _conv_op("limit_cdf_conv:skewed-q4", skew, b4, -0.25 * rng.random(),
                 5.5 + 0.25 * rng.random(), 2.0 ** -15),
        _conv_op("limit_cdf_conv:geometric", geo, b2, -0.05 * rng.random(),
                 2.0 + 0.05 * rng.random(), 2.0 ** -20,
                 oracle=lambda x: np.clip(x / 2.0, 0.0, 1.0)),
    ]
    warm = [
        _conv_op("limit_cdf_conv:skewed-q4", skew, b4, 0.0, 5.5, 2.0 ** -10),
        _conv_op("limit_cdf_conv:geometric", geo, b2, 0.0, 2.0, 2.0 ** -12),
    ]
    # INVERT_OPS inversion ops per family of INVERT_POINTS xs each; the seed
    # draws each op's window of equispaced oracle knots
    for name, dmap, base, x0, x1, rho in (("radical-inverse", ri, b2, 0.0, 1.0, 1.0),
                                          ("symmetric-ternary", st, b3, -1.6, 1.6, 1.0 / 3.0)):
        grid = cl.limit_cdf_conv(dmap, base, x0, x1, ORACLE_PITCH)
        k = grid.cum.size
        for _ in range(INVERT_OPS):
            stride = 1 + rng.randrange((k - 1) // INVERT_POINTS)
            start = rng.randrange(k - stride * (INVERT_POINTS - 1))
            idx = start + stride * np.arange(INVERT_POINTS)
            ops.append(_invert_op(f"limit_cdf_invert:{name}", dmap, base, grid, idx, rho,
                                  INVERT_N_T))
        warm.append(_invert_op(f"limit_cdf_invert:{name}", dmap, base, grid,
                               idx[:8], rho, 1 << 10))
    ts = np.linspace(0.0, INVERT_T_MAX, INVERT_N_T + 1)[1:]
    for name, dmap, base, lo, hi in (("radical-inverse-q2", ri, b2, 0.0, 1.0),
                                     ("symmetric-ternary", st, b3, -1.5, 1.5),
                                     ("geometric", geo, b2, 0.0, 2.0)):
        ops.append(_cf_op(f"cf_truncated:{name}", dmap, base, ts, _uniform_cf(lo, hi)))
        warm.append(_cf_op(f"cf_truncated:{name}", dmap, base, ts[:1024],
                           _uniform_cf(lo, hi)))
    return ops, warm


# -- lab-small ----------------------------------------------------------------------

FACTORIAL = {"kind": "affine", "c": 1, "d": 2}


def _coarse_grid_op(name, dmap, base, x0, x1, n) -> Op:
    w = 2.0 ** -10

    def call(tr):
        with tr.span("limitlaw.limit_cdf_conv"):
            g = cl.limit_cdf_conv(dmap, base, x0, x1, w)
        with tr.span("empirical.value_vector"):
            values = cl.value_vector(dmap, base, n)
        with tr.span("empirical.sort"):
            ecdf = cl.EmpiricalCDF(values)
        with tr.span("empirical.kolmogorov"):
            dk = cl.kolmogorov(ecdf, g)
        with tr.span("empirical.wasserstein1"):
            w1 = cl.wasserstein1(ecdf, g)
        return g, dk, w1

    def inspect(res) -> Outcome:
        g, dk, w1 = res
        out = Outcome(exact={"dk_lo": dk.lo, "dk_hi": dk.hi})
        _grid_outcome(out, g)
        k = int(g.cum.size)
        out.counts.update({"empirical.values": n, "empirical.ref_knots_scanned": 2 * k})
        if not 0.0 <= dk.lo <= dk.hi <= 1.0:
            out.problems.append(f"d_K interval {dk} malformed")
        if not w1 >= 0.0:
            out.problems.append(f"W1 {w1} negative")
        return out

    return Op(f"coarse-grid:{name}", f"coarse-grid:{name} N={n}", call, inspect)


def _sweep_op(kind, desc, base_desc) -> Op:
    dmap = cl.DigitMap(desc)
    base = cl.build_base(base_desc)

    if kind == "digit_stats":
        def call(tr):
            out = []
            for j in range(64):
                with tr.span("qadditive.digit_stats"):
                    out.append(cl.digit_stats(dmap, base, j))
            return out

        def inspect(stats) -> Outcome:
            out = Outcome()
            for st in stats:
                if not (st.s2 >= 0.0 and abs(st.mu3) <= st.omega * st.s2 * (1 + 1e-12) + 1e-300):
                    out.problems.append(f"level {st.j}: moments inconsistent {st}")
            return out
    else:
        def call(tr):
            with tr.span("qadditive.ew_diagnose"):
                return cl.ew_diagnose(dmap, base, j_max=64)

        def inspect(rep) -> Outcome:
            out = Outcome(exact={"verdict": rep.verdict})
            if rep.verdict != "converges" or not rep.analytic:
                out.problems.append(f"diagnostic says {rep.verdict}: {rep.reason}")
            return out

    return Op(kind, f"{kind} {desc} base={base_desc}", call, inspect)


def _optimize_op(desc, base_desc, ref_lo, ref_hi, regime, n) -> Op:
    dmap = cl.DigitMap(desc)
    base = cl.build_base(base_desc)
    ref = cl.UniformCDF(ref_lo, ref_hi)

    def call(tr):
        with tr.span("window_bounds.optimize_window"):
            return cl.optimize_window(dmap, base, n, regime, ref=ref)

    def inspect(res) -> Outcome:
        h, t, rep = res
        out = Outcome(exact={"h_star": h, "T_star": t})
        out.counts["window_bounds.candidates"] = rep.L * len(cl.T_GRID)
        if not (1 <= h <= rep.L and t in cl.T_GRID and rep.N == n and rep.regime == regime):
            out.problems.append(f"optimum (h={h}, T={t}) outside the search space")
        if rep.conditional or not (math.isfinite(rep.total) and rep.total > 0.0):
            out.problems.append(f"bound total {rep.total} not certified")
        return out

    return Op("optimize_window", f"optimize_window {desc['family']} N={n} {regime}",
              call, inspect)


def _chain(lam: float):
    p = (1.0 - lam) / 2.0
    return [[1.0 - p, p], [p, 1.0 - p]]      # second eigenvalue 1 - 2p = lam


def _markov_op(kind, lam, samples, seed, h=None, beta=None) -> Op:
    P = _chain(lam)
    r_max = 8
    if kind == "covariance_decay":
        dmap = cl.DigitMap.geometric(1.0, (-1.0, 1.0))

        def call(tr):
            with tr.span("markov_digits.build_chain"):
                chain = cl.build_chain(P)
            with tr.span("markov_digits.covariance_decay"):
                return cl.covariance_decay(chain, dmap, r_max=r_max, samples=samples,
                                           seed=seed)

        def inspect(dec) -> Outcome:
            out = Outcome()
            out.counts["markov_digits.digits_sampled"] = dec.n_paths * (r_max + 16)
            want = math.log(lam)
            if not abs(dec.slope - want) <= 0.15 * abs(want):
                out.problems.append(f"covariance slope {dec.slope} not within 15% of "
                                    f"ln lambda = {want}")
            return out
    else:
        dmap = cl.DigitMap.geometric(beta, (-1.0, 1.0))

        def call(tr):
            with tr.span("markov_digits.build_chain"):
                chain = cl.build_chain(P)
            with tr.span("markov_digits.window_variance"):
                return cl.window_variance(chain, dmap, L=20, h=h, samples=samples, seed=seed)

        def inspect(wv) -> Outcome:
            out = Outcome()
            out.counts["markov_digits.digits_sampled"] = wv.n_paths * h
            if not 0.0 <= wv.ratio <= 5.0:
                out.problems.append(f"window variance ratio {wv.ratio} outside [0, 5]")
            return out

    return Op(kind, f"{kind} lambda={lam:.4f} samples={samples} seed={seed}", call, inspect)


def _round_trip_op(ints: list[int]) -> Op:
    base = cl.build_base(FACTORIAL)

    def call(tr):
        out = []
        for n in ints:
            with tr.span("mixed_radix.expand"):
                digits = cl.expand(base, n).digits
            with tr.span("mixed_radix.compress"):
                back = cl.compress(base, digits)
            out.append((digits, back))
        return out

    def inspect(res) -> Outcome:
        out = Outcome(exact={"digits_sha256": _sha(repr([d for d, _ in res]).encode())})
        bad = sum(back != n for (_, back), n in zip(res, ints))
        if bad:
            out.problems.append(f"{bad} of {len(ints)} integers did not round-trip")
        return out

    return Op("expand/compress", f"expand/compress {len(ints)} ints", call, inspect)


def _lab_small(rng: random.Random, out_dir: Path):
    ops: list[Op] = []
    warm: list[Op] = []
    unit = {"kind": "uniform", "lo": 0.0, "hi": 1.0}

    # The op counts put the median op among the Markov and ladder ops and the
    # 90th percentile among the coarse-grid ops: pure-Python ops such as the
    # round trips slow down far more than numpy-bound ones when the host is
    # busy, more than the reference loop does, which made a median among
    # them unsteady.

    # 24 uniform-reference ladders of three heights; the k-th heights of all
    # ladders are stratified over the k-th third of log2 N in [8, 17]
    bases = ({"kind": "constant", "q": 2}, {"kind": "periodic", "pattern": [2, 3]},
             FACTORIAL)
    heights = list(zip(*(_strata(rng, lo, lo + 3.0, 24) for lo in (8.0, 11.0, 14.0))))
    for i in range(24):
        base = bases[i % 3]
        if base["kind"] == "constant":
            base = {"kind": "constant", "q": rng.choice((2, 3, 5))}
        ns = sorted({int(2.0 ** e) for e in heights[i]})
        d = {"name": f"ladder-{base['kind']}", "base": base,
             "map": {"family": "radical-inverse"}, "reference": unit, "ns": ns,
             "regime": "B", "rho_inf": 1.0}
        ops.append(_experiment_op("run_experiment:uniform", d, out_dir, len(ops),
                                  cf_trace=base["kind"] == "constant"))
        if i == 0:
            warm.append(_experiment_op("run_experiment:uniform", dict(d, ns=[64]), out_dir,
                                       900, cf_trace=True))

    # 24 coarse-grid distance ops, K << N
    families = (("geometric", cl.DigitMap.geometric(0.5, (0.0, 1.0)), 2, 0.0, 2.0),
                ("symmetric-ternary", cl.DigitMap.symmetric_ternary(), 3, -1.625, 1.625))
    for i, e in enumerate(_strata(rng, 16.0, 18.0, 24)):
        name, dmap, q, x0, x1 = families[i % 2]
        base = cl.build_base({"kind": "constant", "q": q})
        ops.append(_coarse_grid_op(name, dmap, base, x0, x1, int(2.0 ** e)))
        if i < 2:
            warm.append(_coarse_grid_op(name, dmap, base, x0, x1, 1024))

    # 16 digit sweeps to j = 64, alternating digit_stats and ew_diagnose
    for i in range(16):
        kind = ("digit_stats", "ew_diagnose")[i % 2]
        family = (i // 2) % 4
        if family == 0:
            desc = {"family": "polynomial", "alpha": 1.2 + 1.3 * rng.random(),
                    "g": [0.0, 0.5 + 1.5 * rng.random()]}
            base = {"kind": "constant", "q": 2}
        elif family == 1:
            desc = {"family": "geometric", "beta": 0.3 + 0.5 * rng.random(),
                    "g": [0.0, 1.0, 1.0 + rng.random()]}
            base = {"kind": "constant", "q": 3}
        elif family == 2:
            desc = {"family": "radical-inverse"}
            base = FACTORIAL
        else:
            desc = {"family": "skewed-polyweight"}
            base = {"kind": "periodic", "pattern": [2, 3]}
        ops.append(_sweep_op(kind, desc, base))
        if i < 2:
            warm.append(_sweep_op(kind, desc, base))

    # 16 window optimizations against a uniform reference
    targets = (({"family": "radical-inverse"}, None, 0.0, 1.0, "A"),
               ({"family": "geometric", "beta": 0.5, "g": [0.0, 1.0]},
                {"kind": "constant", "q": 2}, 0.0, 2.0, "A"),
               ({"family": "symmetric-ternary"}, {"kind": "constant", "q": 3},
                -1.5, 1.5, "C"))
    for i, e in enumerate(_strata(rng, 10.0, 20.0, 16)):
        desc, base, lo, hi, regime = targets[i % 3]
        if base is None:
            base = {"kind": "constant", "q": rng.choice((2, 3, 5))}
        ops.append(_optimize_op(desc, base, lo, hi, regime, int(2.0 ** e)))
        if i == 0:
            warm.append(_optimize_op(desc, base, lo, hi, regime, 1024))

    # 24 Markov-chain ops, alternating covariance decay and window variance;
    # sample counts (and window heights) are stratified over each kind's ops.
    # With beta = 1/2 the window variance stays near 2.5x the independent
    # budget at lambda = 0.85, well inside the 5x that check 11 allows.
    samples = [_strata(rng, 1e5, 2e5, 12), _strata(rng, 1e5, 2e5, 12)]
    windows = _strata(rng, 1.0, 21.0, 12)
    for i in range(24):
        lam = 0.7 + 0.15 * rng.random()
        n = int(samples[i % 2][i // 2])
        seed = rng.randrange(1 << 32)
        if i % 2 == 0:
            op = _markov_op("covariance_decay", lam, n, seed)
        else:
            op = _markov_op("window_variance", lam, n, seed, h=int(windows[i // 2]),
                            beta=0.5)
        ops.append(op)
        if i < 2:
            warm.append(_markov_op(op.kind, lam, 20_000, seed, h=4, beta=0.5))

    # 16 mixed-radix round trips of 200 62-bit integers on the factorial base
    for i in range(16):
        ints = [rng.getrandbits(62) | (1 << 61) for _ in range(200)]
        ops.append(_round_trip_op(ints))
        if i == 0:
            warm.append(_round_trip_op(ints[:8]))
    return ops, warm


def build(workload: str, seed: int, out_dir: Path) -> tuple[list[Op], list[Op]]:
    """(ops of one pass, warm-up ops) for a workload and seed."""
    rng = random.Random(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    if workload == "grid-ladder":
        return _grid_ladder(rng, out_dir)
    if workload == "limit-routes":
        return _limit_routes(rng, out_dir)
    if workload == "lab-small":
        return _lab_small(rng, out_dir)
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
