"""Command-line front-end.

Results go to standard output (or --out files); progress and diagnostics
go to standard error.  Exit codes, the same for every subcommand: 0
success, 2 invalid configuration or arguments, 3 resource cap exceeded,
4 experiment produced only conditional rows (no certified tail was
available).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys

import numpy as np

from .empirical import (distances, empirical_cdf, row_star_discrepancy, smoothing_report,
                        star_discrepancy)
from .errors import CantorLabError, ConfigError, ResourceLimit, check_bytes
from .experiments import (ExperimentConfig, PRESET_NAMES, csv_text, preset,
                          reference_from_spec, rows_to_csv, run_experiment)
from .limitlaw import SPLIT_MIN, cf_truncated, limit_cdf_conv, limit_cdf_invert, thread_parts
from .markov_digits import build_chain, covariance_decay, window_variance
from .mixed_radix import build_base, compress, expand
from .qadditive import DigitMap, digit_stats, evaluate, ew_diagnose
from .window_bounds import optimize_window, total_bound

log = logging.getLogger("cantorlab")

# bytes per CSV row of cf and limit: its float and complex arrays and its
# line while the text is joined (tracemalloc reads about 335 for cf)
ROW_BYTES = 448


def _parse_json(text: str, what: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(what, f"not valid JSON: {e}") from e


def _build_pair(args):
    base = build_base(_parse_json(args.base, "--base"))
    dmap = DigitMap(_parse_json(args.map, "--map"))
    return dmap, base


def _emit(text: str, out) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
        log.info("wrote %s", out)
    else:
        sys.stdout.write(text)


# -- subcommands -----------------------------------------------------------


def _cmd_expand(args) -> int:
    base = build_base(_parse_json(args.base, "--base"))
    for n in args.n:
        e = expand(base, n)
        back = compress(base, e.digits)
        if back != n:
            raise CantorLabError(f"round trip failed: {n} compressed back to {back}")
        print(f"{n} -> digits {list(e.digits)} (level count {len(e.digits)}, "
              f"top level {e.length})")
    return 0


def _cmd_eval(args) -> int:
    dmap, base = _build_pair(args)
    for n in args.n:
        print(f"f({n}) = {evaluate(dmap, base, n)!r}")
    return 0


def _cmd_stats(args) -> int:
    dmap, base = _build_pair(args)
    stats = (digit_stats(dmap, base, j) for j in range(args.levels))
    _emit(csv_text(("j", "m", "s2", "omega", "mu3"),
                   ((st.j, st.m, st.s2, st.omega, st.mu3) for st in stats)), args.out)
    return 0


def _cmd_ewcheck(args) -> int:
    dmap, base = _build_pair(args)
    rep = ew_diagnose(dmap, base, j_max=args.j_max)
    print(f"verdict: {rep.verdict} ({'analytic' if rep.analytic else 'heuristic'})")
    print(f"reason:  {rep.reason}")
    print(f"mean partial sums (last 5): {[round(v, 9) for v in rep.mean_partials[-5:]]}")
    print(f"var  partial sums (last 5): {[round(v, 9) for v in rep.var_partials[-5:]]}")
    return 0


def _cmd_cf(args) -> int:
    dmap, base = _build_pair(args)
    check_bytes(ROW_BYTES * args.n, f"cf at {args.n} points")
    ts = np.linspace(args.t_min, args.t_max, args.n)
    phi, err, depth = cf_truncated(dmap, base, ts, depth=args.depth)
    log.info("depth %d, truncation bound %.3g over |t| <= %.3g, parts of t: %d", depth, err,
             max(abs(args.t_min), abs(args.t_max)), len(thread_parts(ts.size, SPLIT_MIN)))
    _emit(csv_text(("t", "re_phi", "im_phi", "abs_phi"),
                   ((t, p.real, p.imag, abs(p)) for t, p in zip(ts, phi))), args.out)
    return 0


def _cmd_limit(args) -> int:
    dmap, base = _build_pair(args)
    if args.route == "conv":
        if args.max_rows < 1:
            raise ConfigError("--max-rows", f"must be >= 1, got {args.max_rows}")
        grid = limit_cdf_conv(dmap, base, args.x0, args.x1, args.w, depth=args.depth)
        # the rows are built while the grid's knots are still held
        stride = max(1, grid.cum.size // args.max_rows)
        check_bytes(8 * grid.cum.size + ROW_BYTES * -(-grid.cum.size // stride),
                    f"CSV rows of {grid.cum.size} knots at stride {stride}")
        log.info("grid: %d knots, eps_x=%.3g, eps_p=%.3g; depth %d, %d lattice knots, "
                 "fold windows: %d on %d threads", grid.cum.size, grid.eps_x, grid.eps_p,
                 grid.depth, grid.lattice, grid.fold_runs, len(thread_parts(grid.fold_runs, 1)))
        xs = grid.x0 + grid.w * np.arange(0, grid.cum.size, stride)
        vals = grid.cum[::stride]
    else:
        check_bytes(ROW_BYTES * args.n_x, f"inversion at {args.n_x} points")
        xs = np.linspace(args.x0, args.x1, args.n_x)
        inv = limit_cdf_invert(dmap, base, xs, t_max=args.t_max, n_t=args.n_t,
                               depth=args.depth, q_hint=args.q_hint)
        log.info("inversion envelope %.3g (pieces %s)%s; depth %d%s, %d level groups, %d real",
                 inv.envelope, {k: round(v, 6) for k, v in inv.pieces.items()},
                 " [conditional: no window hint]" if inv.conditional else "", inv.depth,
                 " (DEPTH_CAP, truncation bound still above CF_TOL)" if inv.capped else "",
                 inv.groups, inv.real_groups)
        vals = inv.values
    _emit(csv_text(("x", "F"), zip(xs, vals)), args.out)
    return 0


def _cmd_empirical(args) -> int:
    dmap, base = _build_pair(args)
    ecdf = empirical_cdf(dmap, base, args.n)
    ref = reference_from_spec(args.ref, dmap, base)
    dk, w1 = distances(ecdf, ref)
    print(f"d_K in [{dk.lo!r}, {dk.hi!r}]")
    print(f"W1 = {w1!r}")
    if args.smoothing_rho is not None:
        rep = smoothing_report(dk.hi, w1, args.smoothing_rho)
        print(f"smoothing: d_K={rep.dk!r} <= 2 sqrt(rho W1) = {rep.optimized_bound!r}"
              f" -> {'ok' if rep.optimized_ok else 'VIOLATED'}")
    if dmap.family == "radical-inverse":
        print(f"D*_n = {row_star_discrepancy(ecdf, ref, dk)!r}")
    return 0


def _cmd_bound(args) -> int:
    dmap, base = _build_pair(args)
    ref = reference_from_spec(args.ref, dmap, base) if args.ref else None
    rep = total_bound(dmap, base, args.n, args.window, args.t, args.regime,
                      rho_inf=args.rho_inf, ref=ref)
    print(json.dumps(rep.to_dict(), indent=2, sort_keys=True))
    return 0


def _cmd_optimize(args) -> int:
    dmap, base = _build_pair(args)
    ref = reference_from_spec(args.ref, dmap, base) if args.ref else None
    h, t, rep = optimize_window(dmap, base, args.n, args.regime,
                                rho_inf=args.rho_inf, ref=ref)
    log.info("optimum h*=%d, T*=%g", h, t)
    print(json.dumps(rep.to_dict(), indent=2, sort_keys=True))
    return 0


def _cmd_discrepancy(args) -> int:
    dmap, base = _build_pair(args)
    for n in args.n:
        print(f"N={n}  D*_N = {star_discrepancy(empirical_cdf(dmap, base, n))!r}")
    return 0


def _cmd_markov(args) -> int:
    chain = build_chain(_parse_json(args.p, "--p"))
    dmap = DigitMap(_parse_json(args.map, "--map"))
    print(f"alphabet {chain.a}, lambda = {chain.lam!r}, "
          f"pi = {[round(float(v), 12) for v in chain.pi]}")
    if args.mode == "decay":
        rep = covariance_decay(chain, dmap, args.r_max, args.samples, args.seed)
        print(f"fitted slope {rep.slope!r} +- {rep.half_width!r} "
              f"over lags {list(rep.used_lags)} ({rep.n_paths} paths)")
        _emit(csv_text(("r", "cov", "se"), zip(rep.lags, rep.cov, rep.se)), args.out)
    else:
        rep = window_variance(chain, dmap, args.big_l, args.window,
                              args.samples, args.seed)
        print(f"Var(R) = {rep.var_hat!r} +- {rep.se!r}; "
              f"tau2+lambda^h = {rep.tau2_pi + rep.lam_pow!r}; "
              f"ratio = {rep.ratio!r}")
    return 0


def _cmd_experiment(args) -> int:
    if args.preset:
        config = preset(args.preset)
    elif args.config:
        with open(args.config) as fh:
            config = ExperimentConfig.from_json(fh.read())
    else:
        raise ConfigError("experiment", "need --preset or --config")
    config = dataclasses.replace(config, out=args.out or config.out,
                                 trace_out=args.trace_out or config.trace_out)
    log.info("running %s over N = %s", config.name, config.heights())
    rows = run_experiment(config)
    if not config.out:
        sys.stdout.write(rows_to_csv(rows))
    if rows and all(r["conditional"] for r in rows):
        log.warning("all rows conditional: no certified tail bound was available")
        return 4
    return 0


def _cmd_preset_list(args) -> int:
    for name in PRESET_NAMES:
        cfg = preset(name)
        print(f"{name:22s} base={cfg.base} map={cfg.map['family']} "
              f"regime={cfg.regime} N={cfg.heights()[0]}..{cfg.heights()[-1]}")
    return 0


# -- parser ------------------------------------------------------------------


def _add_pair_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--base", default='{"kind": "constant", "q": 2}',
                   help="base descriptor as JSON")
    p.add_argument("--map", default='{"family": "radical-inverse"}',
                   help="digit map descriptor as JSON")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cantorlab",
        description="Numerical laboratory for digitwise-additive functions "
                    "over mixed-radix bases")
    ap.add_argument("--verbose", action="store_true", help="debug logging")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="mixed-radix digits of N (round-trip checked)")
    p.add_argument("n", nargs="+", type=int)
    p.add_argument("--base", default='{"kind": "constant", "q": 2}')
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("eval", help="evaluate the digit map at N")
    p.add_argument("n", nargs="+", type=int)
    _add_pair_flags(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("stats", help="per-level digit statistics as CSV")
    _add_pair_flags(p)
    p.add_argument("--levels", type=int, default=20)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("ewcheck", help="limit-law convergence diagnostic")
    _add_pair_flags(p)
    p.add_argument("--j-max", type=int, default=64)
    p.set_defaults(func=_cmd_ewcheck)

    p = sub.add_parser("cf", help="truncated characteristic-function product")
    _add_pair_flags(p)
    p.add_argument("--t-min", type=float, default=-10.0)
    p.add_argument("--t-max", type=float, default=10.0)
    p.add_argument("--n", type=int, default=201)
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_cf)

    p = sub.add_parser("limit", help="limit CDF by convolution or inversion")
    _add_pair_flags(p)
    p.add_argument("--route", choices=("conv", "invert"), default="conv")
    p.add_argument("--x0", type=float, required=True)
    p.add_argument("--x1", type=float, required=True)
    p.add_argument("--w", type=float, default=2.0 ** -16, help="conv grid pitch")
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--t-max", type=float, default=2048.0)
    p.add_argument("--n-t", type=int, default=1 << 17)
    p.add_argument("--n-x", type=int, default=513, help="inversion points")
    p.add_argument("--q-hint", type=float, default=None,
                   help="concentration bound of the law at width 1/t_max")
    p.add_argument("--max-rows", type=int, default=2048, help="CSV row cap (conv)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_limit)

    p = sub.add_parser("empirical", help="distances of the height-N empirical law")
    _add_pair_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ref", default="uniform:0:1",
                   help="uniform:lo:hi | point:c | grid:x0:x1:w[:depth]")
    p.add_argument("--smoothing-rho", type=float, default=None,
                   help="density sup for the smoothing-inequality check")
    p.set_defaults(func=_cmd_empirical)

    p = sub.add_parser("bound", help="window bound report at fixed (h, T)")
    _add_pair_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--window", type=int, required=True, metavar="H")
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--regime", choices=("A", "B", "C"), required=True)
    p.add_argument("--rho-inf", type=float, default=None)
    p.add_argument("--ref", default=None)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("optimize", help="best (h, T) for the window bound")
    _add_pair_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--regime", choices=("A", "B", "C"), required=True)
    p.add_argument("--rho-inf", type=float, default=None)
    p.add_argument("--ref", default=None)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("discrepancy", help="exact star discrepancy of the value set")
    _add_pair_flags(p)
    p.add_argument("n", nargs="+", type=int)
    p.set_defaults(func=_cmd_discrepancy)

    p = sub.add_parser("markov", help="dependent-digit chain diagnostics")
    p.add_argument("--p", required=True, help="transition matrix as JSON rows")
    p.add_argument("--map", default='{"family": "geometric", "beta": 1.0, '
                                    '"g": [-1.0, 1.0]}')
    p.add_argument("--mode", choices=("decay", "window"), default="decay")
    p.add_argument("--r-max", type=int, default=12)
    p.add_argument("--samples", type=int, default=1000000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--big-l", type=int, default=32, metavar="L")
    p.add_argument("--window", type=int, default=8, metavar="H")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_markov)

    p = sub.add_parser("experiment", help="run a preset or config over its N ladder")
    p.add_argument("--preset", choices=PRESET_NAMES)
    p.add_argument("--config", help="path to a config JSON")
    p.add_argument("--out", help="CSV output path (default: stdout)")
    p.add_argument("--trace-out", help="CF trace path override")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("preset-list", help="list built-in experiment presets")
    p.set_defaults(func=_cmd_preset_list)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(message)s",
                        level=logging.DEBUG if args.verbose else logging.INFO)
    try:
        return args.func(args)
    except ResourceLimit as e:
        log.error("resource cap: %s", e)
        return 3
    except ConfigError as e:
        log.error("config error: %s", e)
        return 2
    except OverflowError as e:
        log.error("a value left float range: %s", e)
        return 2
    except (CantorLabError, ValueError, OSError) as e:
        log.error("%s", e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
