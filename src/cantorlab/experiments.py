"""Batch experiments: config schema, named presets, and the N-ladder runner.

A config pins base, digit map, heights, regime, reference law and grid
parameters; running it produces one CSV row per height with the fixed
column schema

    N, L, h_star, T_star, regime, bridge, tau1, tau2, qf, g, total,
    dk_lo, dk_hi, w1, dstar, predicted_rate

Nothing in a run is random: identical config gives byte-identical CSV.
"""

from __future__ import annotations

import copy
import json
import sys
from dataclasses import asdict, dataclass, fields
from typing import Optional

import numpy as np

from .empirical import (EmpiricalCDF, UniformCDF, distances, empirical_cdf,
                        row_star_discrepancy)
from .errors import ConfigError, UnknownPreset
from .limitlaw import cf_truncated, limit_cdf_conv
from .mixed_radix import CantorBase, build_base, length
from .qadditive import DigitMap
from .window_bounds import check_rate_family, optimize_window, predicted_rate, resolve_regime

CSV_COLUMNS = ("N", "L", "h_star", "T_star", "regime", "bridge", "tau1", "tau2",
               "qf", "g", "total", "dk_lo", "dk_hi", "w1", "dstar",
               "predicted_rate")

# numeric fields of each reference kind in --ref order; a grid's sit in "grid"
_REFERENCE_FIELDS = {"uniform": ("lo", "hi"), "point": ("c",), "grid": ("x0", "x1", "w")}


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one experiment run."""

    name: str
    base: dict
    map: dict
    reference: dict
    ns: Optional[tuple[int, ...]] = None
    ladder: Optional[dict] = None
    regime: str = "auto"
    rho_inf: Optional[float] = None
    grid: Optional[dict] = None
    out: Optional[str] = None
    trace_out: Optional[str] = None
    rate_family: Optional[dict] = None

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        d = asdict(self)
        if d["ns"] is not None:
            d["ns"] = list(d["ns"])
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        return _validate_config(d)

    @staticmethod
    def from_json(text: str) -> "ExperimentConfig":
        try:
            d = json.loads(text)
        except json.JSONDecodeError as e:
            raise ConfigError("<root>", f"not valid JSON: {e}") from e
        return _validate_config(d)

    # -- resolution ---------------------------------------------------------

    def heights(self) -> list[int]:
        if self.ns is not None:
            return list(self.ns)
        lad = self.ladder
        out, n = [], lad["start"]
        while n <= lad["stop"]:
            out.append(n)
            n *= lad["factor"]
        return out


def _validate_config(d: dict) -> ExperimentConfig:
    if not isinstance(d, dict):
        raise ConfigError("<root>", f"config must be an object, got {type(d).__name__}")
    _refuse_unknown(d, {f.name for f in fields(ExperimentConfig)})
    name = d.get("name", "experiment")
    if not isinstance(name, str) or not name:
        raise ConfigError("name", "must be a nonempty string")
    for req in ("base", "map", "reference"):
        if not isinstance(d.get(req), dict):
            raise ConfigError(req, "required object field")
    try:
        build_base(d["base"])
    except Exception as e:
        raise ConfigError("base", str(e))
    try:
        DigitMap(d["map"])
    except Exception as e:
        raise ConfigError("map", str(e))

    for k in ("ladder", "grid", "rate_family"):
        if d.get(k) is not None and not isinstance(d[k], dict):
            raise ConfigError(k, f"must be an object or null, got {d[k]!r}")
    ref, grid = d["reference"], d.get("grid")
    _check_reference(ref, grid)

    ns = d.get("ns")
    ladder = d.get("ladder")
    if (ns is None) == (ladder is None):
        raise ConfigError("ns", "exactly one of 'ns' and 'ladder' must be given")
    if ns is not None:
        if not (isinstance(ns, list) and ns and all(isinstance(n, int) and n >= 2 for n in ns)):
            raise ConfigError("ns", "must be a nonempty list of integers >= 2")
        ns = tuple(ns)
    if ladder is not None:
        _refuse_unknown(ladder, ("start", "stop", "factor"), "ladder.")
        for k in ("start", "stop", "factor"):
            v = ladder.get(k)
            if not isinstance(v, int) or v < (2 if k != "stop" else ladder.get("start", 2)):
                raise ConfigError(f"ladder.{k}",
                                  f"must be an integer >= 2 (and stop >= start), got {v!r}")

    regime = d.get("regime", "auto")
    if regime not in ("auto", "A", "B", "C"):
        raise ConfigError("regime", f"must be auto, A, B or C, got {regime!r}")
    rho_inf = d.get("rho_inf")
    if rho_inf is not None and not (_finite(rho_inf) and rho_inf > 0):
        raise ConfigError("rho_inf", f"must be a positive finite number, got {rho_inf!r}")

    for k in ("out", "trace_out"):
        if d.get(k) is not None and not isinstance(d[k], str):
            raise ConfigError(k, "must be a path string or null")

    rate = d.get("rate_family")
    if rate is not None:
        _refuse_unknown(rate, ("family", "alpha", "beta", "q"), "rate_family.")
        try:
            check_rate_family(rate.get("family"), rate.get("alpha"), rate.get("beta"),
                              rate.get("q", 2))
        except ValueError as e:
            raise ConfigError("rate_family", str(e)) from None

    return ExperimentConfig(
        name=name, base=dict(d["base"]), map=dict(d["map"]),
        reference=dict(ref), ns=ns,
        ladder=dict(ladder) if ladder is not None else None,
        regime=regime,
        rho_inf=float(rho_inf) if rho_inf is not None else None,
        grid=dict(grid) if grid is not None else None,
        out=d.get("out"), trace_out=d.get("trace_out"),
        rate_family=dict(rate) if rate is not None else None)


def _refuse_unknown(obj: dict, allowed, where: str = "") -> None:
    """ConfigError naming the first key of obj that allowed does not hold."""
    for k in obj:
        if k not in allowed:
            raise ConfigError(where + k, "unknown config field")


def _finite(v) -> bool:
    """A JSON number within float range; true and false are no numbers here."""
    return not isinstance(v, bool) and isinstance(v, (int, float)) and abs(v) <= sys.float_info.max


def _check_reference(ref: dict, grid: Optional[dict]) -> None:
    """ConfigError unless ref is {"kind": "uniform", "lo", "hi"} or
    {"kind": "point", "c"} with no grid, or {"kind": "grid"} with grid =
    {"x0", "x1", "w"[, "depth"]}: no other field, every number finite."""
    kind = ref.get("kind")
    if kind not in _REFERENCE_FIELDS:
        raise ConfigError("reference.kind", f"must be uniform, point or grid, got {kind!r}")
    where, obj = ("grid", grid) if kind == "grid" else ("reference", ref)
    if not isinstance(obj, dict):
        raise ConfigError("grid", "required when reference.kind is 'grid'")
    if kind != "grid" and grid is not None:
        raise ConfigError("grid", f"a {kind} reference reads no grid")
    _refuse_unknown(ref, ("kind",) + (() if kind == "grid" else _REFERENCE_FIELDS[kind]),
                    "reference.")
    if kind == "grid":
        _refuse_unknown(grid, _REFERENCE_FIELDS["grid"] + ("depth",), "grid.")
    for k in _REFERENCE_FIELDS[kind]:
        v = obj.get(k)
        if not _finite(v):
            raise ConfigError(f"{where}.{k}", f"must be a finite number, got {v!r}")
    if kind == "uniform" and not ref["hi"] > ref["lo"]:
        raise ConfigError("reference.hi", "must exceed reference.lo")
    if kind == "grid":
        if not grid["x1"] > grid["x0"]:
            raise ConfigError("grid.x1", "must exceed grid.x0")
        if not grid["w"] > 0:
            raise ConfigError("grid.w", "must be positive")
        depth = grid.get("depth")
        if depth is not None and (type(depth) is not int or depth < 1):   # a bool is no depth
            raise ConfigError("grid.depth", f"must be a positive integer or null, got {depth!r}")


def reference_from_spec(spec: str, dmap: DigitMap, base: CantorBase):
    """The reference law of a uniform:lo:hi | point:c | grid:x0:x1:w[:depth]
    string, checked and built like a config's reference/grid objects."""
    kind, *fields = spec.split(":")
    names = _REFERENCE_FIELDS.get(kind, ()) + (("depth",) if kind == "grid" else ())
    try:
        if kind not in _REFERENCE_FIELDS or not len(names) - 1 <= len(fields) <= len(names):
            raise ValueError
        nums = {k: int(v) if k == "depth" else float(v) for k, v in zip(names, fields)}
    except ValueError:
        raise ConfigError("--ref", f"expected uniform:lo:hi, point:c or "
                                   f"grid:x0:x1:w[:depth] with numbers, got {spec!r}") from None
    ref, grid = ({"kind": "grid"}, nums) if kind == "grid" else (dict(nums, kind=kind), None)
    _check_reference(ref, grid)
    return _make_reference(ref, grid, dmap, base)


def _make_reference(ref: dict, grid: Optional[dict], dmap: DigitMap, base: CantorBase):
    kind = ref["kind"]
    if kind == "uniform":
        return UniformCDF(ref["lo"], ref["hi"])
    if kind == "point":
        return EmpiricalCDF([ref["c"]])
    return limit_cdf_conv(dmap, base, grid["x0"], grid["x1"], grid["w"], depth=grid.get("depth"))


# -- presets -------------------------------------------------------------------


_PRESETS = {
    "vdc-q2": {
        "base": {"kind": "constant", "q": 2},
        "map": {"family": "radical-inverse"},
        "reference": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
        "ladder": {"start": 16, "stop": 65536, "factor": 2},
        "regime": "B", "rho_inf": 1.0},
    "vdc-cantor-factorial": {
        "base": {"kind": "affine", "c": 1, "d": 2},
        "map": {"family": "radical-inverse"},
        "reference": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
        "ladder": {"start": 16, "stop": 65536, "factor": 2},
        "regime": "B", "rho_inf": 1.0},
    "regimeB-binary": {
        "base": {"kind": "constant", "q": 2},
        "map": {"family": "radical-inverse"},
        "reference": {"kind": "grid"},
        "grid": {"x0": 0.0, "x1": 1.0, "w": 2.0 ** -20, "depth": None},
        "ladder": {"start": 256, "stop": 1048576, "factor": 4},
        "regime": "B", "rho_inf": 1.0},
    "regimeC-ternary": {
        "base": {"kind": "constant", "q": 3},
        "map": {"family": "symmetric-ternary"},
        "reference": {"kind": "grid"},
        "grid": {"x0": -1.625, "x1": 1.625, "w": 2.0 ** -20, "depth": None},
        "ladder": {"start": 256, "stop": 1048576, "factor": 4},
        "regime": "auto"},
    "regimeA-skewed": {
        "base": {"kind": "constant", "q": 4},
        "map": {"family": "skewed-polyweight"},
        "reference": {"kind": "grid"},
        "grid": {"x0": 0.0, "x1": 5.5, "w": 2.0 ** -16, "depth": None},
        "ladder": {"start": 256, "stop": 1048576, "factor": 4},
        "regime": "auto"},
    "example-I": {
        "base": {"kind": "constant", "q": 2},
        "map": {"family": "polynomial", "alpha": 1.5, "g": [0.0, 1.0]},
        "reference": {"kind": "grid"},
        "grid": {"x0": 0.0, "x1": 3.75, "w": 2.0 ** -14, "depth": None},
        "ladder": {"start": 256, "stop": 1048576, "factor": 4},
        "regime": "A",
        "rate_family": {"family": "example-I", "alpha": 1.5, "q": 2}},
    "example-II": {
        "base": {"kind": "constant", "q": 2},
        "map": {"family": "geometric", "beta": 0.5, "g": [0.0, 1.0]},
        "reference": {"kind": "grid"},
        "grid": {"x0": 0.0, "x1": 2.0, "w": 2.0 ** -21, "depth": None},
        "ladder": {"start": 256, "stop": 1048576, "factor": 2},
        "regime": "A",
        "rate_family": {"family": "example-II", "beta": 0.5, "q": 2}},
    "qadic-delange": {
        "base": {"kind": "constant", "q": 5},
        "map": {"family": "radical-inverse"},
        "reference": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
        "ladder": {"start": 25, "stop": 390625, "factor": 5},
        "regime": "B", "rho_inf": 1.0,
        "trace_out": "qadic-delange-cf.csv"},
    "zero-map": {
        "base": {"kind": "constant", "q": 2},
        "map": {"family": "geometric", "beta": 0.5, "g": [0.0, 0.0]},
        "reference": {"kind": "point", "c": 0.0},
        "ladder": {"start": 16, "stop": 4096, "factor": 4},
        "regime": "B", "rho_inf": 1.0},
}

PRESET_NAMES = tuple(_PRESETS)


def preset(name: str) -> ExperimentConfig:
    """A fully specified, ready-to-run configuration by name."""
    if name not in _PRESETS:
        raise UnknownPreset(f"no preset named {name!r}; known: {', '.join(PRESET_NAMES)}")
    return _validate_config(dict(copy.deepcopy(_PRESETS[name]), name=name))


# -- running --------------------------------------------------------------------


def build_reference(config: ExperimentConfig, dmap: DigitMap, base: CantorBase):
    return _make_reference(config.reference, config.grid, dmap, base)


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def _one_row(dmap, base, ref, regime, rho_inf, rate, n) -> dict:
    h_star, t_star, report = optimize_window(dmap, base, n, regime,
                                             rho_inf=rho_inf, ref=ref)
    ecdf = empirical_cdf(dmap, base, n)
    dk, w1 = distances(ecdf, ref)
    dstar = row_star_discrepancy(ecdf, ref, dk) if dmap.family == "radical-inverse" else None
    pred = None if rate is None else predicted_rate(N=n, **rate)
    return {"N": n, "L": report.L, "h_star": h_star, "T_star": t_star,
            "regime": report.regime, "bridge": report.bridge,
            "tau1": report.tau1, "tau2": report.tau2_h, "qf": report.qf_term,
            "g": report.g_term, "total": report.total, "dk_lo": dk.lo,
            "dk_hi": dk.hi, "w1": w1, "dstar": dstar, "predicted_rate": pred,
            "conditional": report.conditional}


def csv_text(header, rows) -> str:
    """CSV text of a header line and one line per row, each cell by _fmt."""
    return "".join(",".join(map(_fmt, r)) + "\n" for r in [header, *rows])


def rows_to_csv(rows: list[dict]) -> str:
    return csv_text(CSV_COLUMNS, ([row[c] for c in CSV_COLUMNS] for row in rows))


def _cf_trace_csv(ts: np.ndarray, phi: np.ndarray, err: float, depth: int) -> str:
    """csv_text of the rows (t, Re phi, Im phi, |phi|, err, depth), built from
    Python floats and complexes: their reprs are _fmt's, and Python's abs of
    a complex is hypot, as numpy's is."""
    tail = f",{_fmt(err)},{_fmt(depth)}\n"
    rows = (f"{t!r},{p.real!r},{p.imag!r},{abs(p)!r}{tail}"
            for t, p in zip(ts.tolist(), phi.tolist()))
    return "t,re_phi,im_phi,abs_phi,truncation_bound,depth\n" + "".join(rows)


def write_cf_trace(dmap: DigitMap, base: CantorBase, path: str) -> None:
    """CSV trace of the truncated per-digit product at 201 even t in [-10, 10]."""
    ts = np.linspace(-10.0, 10.0, 201)
    with open(path, "w") as fh:
        fh.write(_cf_trace_csv(ts, *cf_truncated(dmap, base, ts)))


def run_experiment(config: ExperimentConfig) -> list[dict]:
    """All ladder rows, ordered by height; writes CSV/trace when configured.

    The returned rows carry a trailing 'conditional' flag (not a CSV
    column) so callers can distinguish certified from conditional output.
    """
    dmap = DigitMap(config.map)
    base = build_base(config.base)
    heights = config.heights()
    ref = build_reference(config, dmap, base)
    regime = config.regime
    if regime == "auto":
        regime = resolve_regime(dmap, base, length(base, max(heights)), config.rho_inf)

    rows = [_one_row(dmap, base, ref, regime, config.rho_inf, config.rate_family, n)
            for n in heights]

    if config.out:
        with open(config.out, "w") as fh:
            fh.write(rows_to_csv(rows))
    if config.trace_out:
        write_cf_trace(dmap, base, config.trace_out)
    return rows
