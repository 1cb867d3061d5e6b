"""Experiment configs, presets, CSV output, and the command line."""

import hashlib
import json
import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cantorlab
from cantorlab import (
    CSV_COLUMNS,
    ConfigError,
    ExperimentConfig,
    PRESET_NAMES,
    UnknownPreset,
    preset,
    rows_to_csv,
    run_experiment,
)
from cantorlab import experiments, limitlaw
from cantorlab.cli import ROW_BYTES, main
from cantorlab.experiments import _cf_trace_csv, csv_text
from cantorlab.limitlaw import SPLIT_MIN, thread_parts


def _minimal_config(**over) -> dict:
    d = {
        "name": "tiny",
        "base": {"kind": "constant", "q": 2},
        "map": {"family": "geometric", "beta": 0.5, "g": [0.0, 1.0]},
        "reference": {"kind": "uniform", "lo": 0.0, "hi": 2.0},
        "ns": [16, 64],
        "regime": "B",
        "rho_inf": 1.0,
    }
    d.update(over)
    return d


# -- config validation and serialization ---------------------------------------


def test_config_json_round_trip_is_bit_exact():
    cfg = ExperimentConfig.from_dict(_minimal_config())
    again = ExperimentConfig.from_json(cfg.to_json())
    assert again == cfg
    assert json.loads(cfg.to_json()) == json.loads(again.to_json())


def test_all_presets_validate_and_round_trip():
    for name in PRESET_NAMES:
        cfg = preset(name)
        assert cfg.name == name
        assert ExperimentConfig.from_json(cfg.to_json()) == cfg
        assert len(cfg.heights()) >= 3
    with pytest.raises(UnknownPreset):
        preset("no-such-preset")
    # each call hands out its own copy of the preset table's entry
    mine = preset("example-II")
    mine.map["g"].append(7.0)
    mine.grid["w"] = 1.0
    again = preset("example-II")
    assert again.map["g"] == [0.0, 1.0] and again.grid["w"] == 2.0 ** -21


def test_heights_ladder_and_ns():
    cfg = ExperimentConfig.from_dict(_minimal_config())
    assert cfg.heights() == [16, 64]
    lad = ExperimentConfig.from_dict(_minimal_config(
        ns=None, ladder={"start": 16, "stop": 256, "factor": 4}))
    assert lad.heights() == [16, 64, 256]


@pytest.mark.parametrize("mutate, path_hint", [
    ({"surprise": 1}, "surprise"),
    ({"name": ""}, "name"),
    ({"ns": None}, "ns"),                                    # neither ns nor ladder
    ({"ns": [16], "ladder": {"start": 2, "stop": 4, "factor": 2}}, "ladder"),
    ({"regime": "Z"}, "regime"),
    ({"ns": [0]}, "ns"),
    ({"seed": -1}, "seed"),
    ({"base": {"kind": "constant", "q": 1}}, "base"),
    ({"map": {"family": "nope"}}, "map"),
    ({"reference": {"kind": "gaussian"}}, "reference"),
    ({"reference": {"kind": "grid"}}, "grid"),               # grid ref needs a grid
    ({"reference": {"kind": "grid"},
      "grid": {"x0": 1.0, "x1": 0.0, "w": 0.1}}, "grid"),
    ({"reference": {"kind": "grid"},
      "grid": {"x0": 0.0, "x1": 1.0, "w": 0.1, "depth": 0}}, "depth"),
    ({"rate_family": {"family": "example-I", "alpha": 1.0}}, "alpha"),
    ({"rate_family": {"family": "example-II", "beta": 1.0}}, "beta"),
    ({"ladder": 5, "ns": None}, "ladder"),
    ({"rate_family": 3}, "rate_family"),
    ({"seed": 0}, "seed"),                                   # runs have no seed
    ({"rho_inf": True}, "rho_inf"),                          # a bool is no number
    ({"rho_inf": math.inf}, "rho_inf"),
    ({"rho_inf": 10 ** 400}, "rho_inf"),                     # beyond float range
    ({"reference": {"kind": "uniform", "lo": 0, "hi": 10 ** 400}}, "reference.hi"),
    ({"reference": {"kind": "grid"},
      "grid": {"x0": 0.0, "x1": 1.0, "w": 0.1, "depth": True}}, "depth"),
    # nested objects refuse unknown fields as the root does
    ({"reference": {"kind": "grid"},
      "grid": {"x0": 0.0, "x1": 1.0, "w": 0.1, "depht": 3}}, "grid.depht"),
    ({"reference": {"kind": "uniform", "lo": 0.0, "hi": 1.0, "c": 0.5}}, "reference.c"),
    ({"grid": {"x0": 0.0, "x1": 1.0, "w": 0.1, "depht": 3}}, "grid"),   # read by no one
    ({"reference": {"kind": "grid", "w": 0.1},
      "grid": {"x0": 0.0, "x1": 1.0, "w": 0.1}}, "reference.w"),
    ({"ns": None, "ladder": {"start": 16, "stop": 64, "factor": 2, "step": 3}}, "ladder.step"),
    ({"rate_family": {"family": "example-II", "beta": 0.5, "bta": 0.9}}, "rate_family.bta"),
    ({"rate_family": {"family": "example-I", "alpha": math.inf}}, "alpha"),
    ({"rate_family": {"family": "example-I", "alpha": 1.5, "q": True}}, "q"),
    ({"rate_family": {"family": "example-I", "alpha": 1.5, "q": 2.0}}, "q"),
    ({"rate_family": {"family": "example-III"}}, "rate_family"),
])
def test_config_rejections(mutate, path_hint):
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig.from_dict(_minimal_config(**mutate))
    assert path_hint in str(exc.value)


# -- rows and CSV -----------------------------------------------------------------


def test_zero_map_rows_are_exact():
    cfg = preset("zero-map")
    rows = run_experiment(cfg)
    assert [r["N"] for r in rows] == cfg.heights()
    for r in rows:
        assert r["regime"] == "B"
        assert r["dk_lo"] == 0.0 and r["dk_hi"] == 0.0
        assert r["w1"] == 0.0
        assert r["dstar"] is None                 # not a radical-inverse map
        assert r["total"] > 0.0                   # the bridge never vanishes
        assert not r["conditional"]


def test_rows_to_csv_schema_and_float_round_trip():
    cfg = preset("zero-map")
    rows = run_experiment(cfg)
    text = rows_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + len(rows)
    first = lines[1].split(",")
    assert len(first) == len(CSV_COLUMNS)
    assert int(first[0]) == rows[0]["N"]
    # repr-formatted floats parse back bit-identically
    col = CSV_COLUMNS.index("total")
    assert float(first[col]) == rows[0]["total"]
    assert first[CSV_COLUMNS.index("dstar")] == ""


def test_run_experiment_writes_outputs(tmp_path):
    out = tmp_path / "rows.csv"
    trace = tmp_path / "cf.csv"
    d = _minimal_config(out=str(out), trace_out=str(trace))
    rows = run_experiment(ExperimentConfig.from_dict(d))
    got = out.read_text().strip().split("\n")
    assert got[0] == ",".join(CSV_COLUMNS)
    assert len(got) == 1 + len(rows)
    tr = trace.read_text().strip().split("\n")
    assert tr[0] == "t,re_phi,im_phi,abs_phi,truncation_bound,depth"
    assert len(tr) == 1 + 201
    t0, re0, im0, a0, err0, depth0 = tr[1 + 100].split(",")   # t = 0 midpoint
    assert float(t0) == 0.0
    assert float(re0) == 1.0 and float(im0) == 0.0            # phi(0) = 1
    assert float(err0) <= 1e-12
    assert int(depth0) >= 1


def _cf_trace_oracle(ts, phi, err, depth) -> str:
    """The trace writer as it was: _fmt on numpy scalars, cell by cell."""
    return csv_text(("t", "re_phi", "im_phi", "abs_phi", "truncation_bound", "depth"),
                    ((t, p.real, p.imag, abs(p), err, depth) for t, p in zip(ts, phi)))


def test_cf_trace_matches_cell_by_cell_writer(tmp_path):
    # t = +-0.0 and tiny, phi of every preset's map, and complexes with
    # -0.0, subnormal, huge and non-finite parts, byte for byte
    rng = np.random.default_rng(7)
    ts = np.concatenate((np.linspace(-10.0, 10.0, 201), [0.0, -0.0, 5e-324, -1e-300],
                         rng.uniform(-3e3, 3e3, 200)))
    for name in PRESET_NAMES:
        cfg = preset(name)
        dmap, base = cantorlab.DigitMap(cfg.map), cantorlab.build_base(cfg.base)
        phi, err, depth = cantorlab.cf_truncated(dmap, base, ts)
        assert _cf_trace_csv(ts, phi, err, depth) == _cf_trace_oracle(ts, phi, err, depth)
        path = tmp_path / f"{name}.csv"
        experiments.write_cf_trace(dmap, base, str(path))
        grid = np.linspace(-10.0, 10.0, 201)
        want = _cf_trace_oracle(grid, *cantorlab.cf_truncated(dmap, base, grid))
        assert path.read_text() == want
    parts = np.concatenate((rng.standard_normal(500) * 10.0 ** rng.integers(-320, 300, 500),
                            [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, np.inf, -np.inf, np.nan]))
    z = np.empty(2000, dtype=complex)
    z.real, z.imag = parts[rng.integers(0, parts.size, (2, 2000))]
    zt = parts[rng.integers(0, parts.size, 2000)]
    for err, depth in ((1e-13, 7), (np.float64(0.0), np.int64(3))):
        assert _cf_trace_csv(zt, z, err, depth) == _cf_trace_oracle(zt, z, err, depth)


def test_vdc_q2_rows_reproduce_known_discrepancy():
    rows = run_experiment(preset("vdc-q2"))
    for r in rows:
        assert r["dstar"] == 2.0 ** -(r["N"].bit_length() - 1) \
            or r["N"] & (r["N"] - 1)              # exact at powers of two
        assert r["dk_lo"] == r["dk_hi"] == r["dstar"]


def test_rows_read_distances_off_one_table_bit_for_bit():
    # a grid of 129 knots against N = 64 .. 4096 crosses to the knot counts
    # at N = 8K; each row's d_K and W1 are the floats of
    # kolmogorov and wasserstein1 called alone, and against U[0, 1] its D*
    # is that of star_discrepancy
    from cantorlab import (DigitMap, build_base, empirical_cdf, kolmogorov,
                           star_discrepancy, wasserstein1)
    from cantorlab.experiments import build_reference

    def bits(v):
        return np.float64(v).view(np.int64)

    grid = ExperimentConfig.from_dict(_minimal_config(
        reference={"kind": "grid"}, grid={"x0": 0.0, "x1": 2.0, "w": 2.0 ** -6},
        ns=[64, 256, 512, 516, 1024, 1032, 4096], regime="A", rho_inf=None))
    vdc = ExperimentConfig.from_dict(_minimal_config(
        map={"family": "radical-inverse"}, reference={"kind": "uniform", "lo": 0.0, "hi": 1.0},
        ns=[5, 64, 1000]))
    for cfg in (grid, vdc):
        dmap, base = DigitMap(cfg.map), build_base(cfg.base)
        ref = build_reference(cfg, dmap, base)
        for row in run_experiment(cfg):
            ecdf = empirical_cdf(dmap, base, row["N"])
            dk = kolmogorov(ecdf, ref)
            assert (bits(row["dk_lo"]), bits(row["dk_hi"])) == (bits(dk.lo), bits(dk.hi))
            assert bits(row["w1"]) == bits(wasserstein1(ecdf, ref))
            if cfg is vdc:
                assert bits(row["dstar"]) == bits(star_discrepancy(ecdf))


def test_dstar_from_dk_keeps_the_unit_interval_check(monkeypatch):
    # against U[0, 1] a radical-inverse row takes D* from d_K, but a value
    # outside [0, 1] is still refused as star_discrepancy refuses it
    from cantorlab import EmpiricalCDF, PointOutOfRange, experiments

    monkeypatch.setattr(experiments, "empirical_cdf", lambda *a: EmpiricalCDF([0.25, 1.5]))
    cfg = ExperimentConfig.from_dict(_minimal_config(
        map={"family": "radical-inverse"}, reference={"kind": "uniform", "lo": 0.0, "hi": 1.0}))
    with pytest.raises(PointOutOfRange):
        run_experiment(cfg)


def test_preset_csvs_match_golden_digests(preset_rows):
    # sha256 of each preset's experiment CSV: exact outputs may not drift
    # by a byte
    path = Path(__file__).with_name("golden_presets.json")
    golden = json.loads(path.read_text())["csv_sha256"]
    assert sorted(golden) == sorted(PRESET_NAMES)
    got = {name: hashlib.sha256(rows_to_csv(preset_rows(name)).encode()).hexdigest()
           for name in PRESET_NAMES}
    assert got == golden


# -- command line ------------------------------------------------------------------


def test_cli_preset_list(capsys):
    assert main(["preset-list"]) == 0
    out = capsys.readouterr().out
    for name in PRESET_NAMES:
        assert name in out


def test_cli_expand_round_trip(capsys):
    assert main(["expand", "100", "--base",
                 '{"kind": "periodic", "pattern": [2, 3]}']) == 0
    assert "[0, 2, 0, 2, 0, 1]" in capsys.readouterr().out


def test_cli_eval_and_stats(capsys, tmp_path):
    assert main(["eval", "7", "--map",
                 '{"family": "geometric", "beta": 0.5, "g": [0.0, 1.0]}']) == 0
    assert "f(7) = 1.75" in capsys.readouterr().out
    out = tmp_path / "stats.csv"
    assert main(["stats", "--levels", "4", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "j,m,s2,omega,mu3"
    assert len(lines) == 5
    assert float(lines[1].split(",")[1]) == 0.25     # vdc level-0 mean


def test_cli_empirical_star_discrepancy(capsys):
    assert main(["empirical", "--n", "1024", "--smoothing-rho", "1.0"]) == 0
    out = capsys.readouterr().out
    assert "D*_n = 0.0009765625" in out              # exact 2^-10
    assert "ok" in out


def test_cli_empirical_reads_one_distances_call(monkeypatch, capsys):
    # the smoothing line and D* against the default U[0, 1] reuse the
    # printed d_K and W1: one distances call, and d_K computed once
    from cantorlab import cli, empirical

    calls = []

    def counting(name, fn):
        def call(*args):
            calls.append(name)
            return fn(*args)
        return call

    for mod in (cli, empirical):
        monkeypatch.setattr(mod, "distances", counting("distances", empirical.distances))
    monkeypatch.setattr(empirical, "kolmogorov", counting("kolmogorov", empirical.kolmogorov))
    assert main(["empirical", "--n", "1024", "--smoothing-rho", "1.0"]) == 0
    assert calls == ["distances", "kolmogorov"]
    assert capsys.readouterr().out == (
        "d_K in [0.0009765625, 0.0009765625]\nW1 = 0.00048828125\n"
        "smoothing: d_K=0.0009765625 <= 2 sqrt(rho W1) = 0.04419417382415922 -> ok\n"
        "D*_n = 0.0009765625\n")


def test_cli_bound_and_optimize_json(capsys):
    assert main(["bound", "--n", "4096", "--window", "4", "--regime", "B",
                 "--rho-inf", "1.0"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["regime"] == "B" and rep["h"] == 4
    assert main(["optimize", "--n", "4096", "--regime", "B",
                 "--rho-inf", "1.0"]) == 0
    rep2 = json.loads(capsys.readouterr().out)
    assert rep2["total"] <= rep["total"]


def test_cli_exit_codes(tmp_path, capsys):
    # unparseable JSON descriptor
    assert main(["eval", "3", "--map", "{nope"]) == 2
    # resource cap: conv lattice far beyond the knot budget
    assert main(["limit", "--x0", "0", "--x1", "1", "--w", "1e-12",
                 "--depth", "5"]) == 3
    # config file with an unknown field
    bad = tmp_path / "bad.json"
    for field in ("surprise", "seed"):
        bad.write_text(json.dumps(_minimal_config(**{field: 1})))
        assert main(["experiment", "--config", str(bad)]) == 2
    # ... or with an unknown field in a nested object
    bad.write_text(json.dumps(_minimal_config(
        reference={"kind": "grid"}, grid={"x0": 0.0, "x1": 2.0, "w": 0.25, "depht": 3})))
    assert main(["experiment", "--config", str(bad)]) == 2
    # experiment has no --seed flag
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "--preset", "zero-map", "--seed", "1"])
    assert exc.value.code == 2
    # bad reference spec
    assert main(["empirical", "--n", "64", "--ref", "gaussian:0:1"]) == 2
    # inversion with a negative or NaN window hint, an infinite t-range or
    # NaN evaluation points; then the CF product at non-finite t (np.linspace
    # warns on the NaN endpoints before the library refuses them)
    invert = ["limit", "--route", "invert", "--x1", "1", "--n-x", "5", "--n-t", "256"]
    with np.errstate(invalid="ignore"):
        for bad in (["--x0", "0", "--q-hint", "-1"], ["--x0", "0", "--q-hint", "nan"],
                    ["--x0", "0", "--t-max", "inf"], ["--x0", "0", "--t-max", "nan"],
                    ["--x0", "nan"]):
            assert main(invert + bad) == 2
        for t_max in ("nan", "inf"):
            assert main(["cf", "--t-max", t_max, "--n", "5"]) == 2
    capsys.readouterr()


def _package_env() -> dict:
    src = str(Path(cantorlab.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def _assert_cli_error(argv, code):
    # run as a real process: the exit code and stderr are what a shell sees
    proc = subprocess.run([sys.executable, "-m", "cantorlab.cli", *argv],
                          capture_output=True, text=True, env=_package_env(), timeout=60)
    assert proc.returncode == code, (proc.stdout, proc.stderr)
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("ERROR ")
    return proc.stderr


@pytest.mark.parametrize("argv", [
    ["expand", "--base", '{"kind": "table", "table": 5}', "5"],
    ["expand", "--base", '{"kind": "periodic", "pattern": 7}', "5"],
    ["eval", "3", "--map", '{"family": "polynomial", "alpha": 1.5, "g": 3}'],
    ["eval", "3", "--map", '{"family": "geometric", "beta": 1e999, "g": [0, 1]}'],
    ["eval", "3", "--map", '{"family": "geometric", "beta": 0.5, "g": [0, NaN]}'],
], ids=["table-not-a-list", "pattern-not-a-list", "polynomial-g-not-a-list",
        "geometric-beta-infinite", "geometric-g-nan"])
def test_cli_malformed_descriptor_exits_2(argv):
    _assert_cli_error(argv, 2)


@pytest.mark.parametrize("argv", [
    ["bound", "--n", "4096", "--window", "4", "--regime", "A", "--t", "nan",
     "--ref", "uniform:0:2", "--map", '{"family": "geometric", "beta": 0.5, "g": [0, 1]}'],
    # regime B ignores T, yet the report carries it
    ["bound", "--n", "4096", "--window", "3", "--regime", "B", "--rho-inf", "1", "--t", "nan"],
    ["bound", "--n", "4096", "--window", "3", "--regime", "B", "--rho-inf", "1", "--t", "-5"],
    ["empirical", "--n", "64", "--ref", "uniform:0:1", "--smoothing-rho", "nan"],
    ["limit", "--x0", "0", "--x1", "1", "--max-rows", "0"],
    ["limit", "--x0", "0", "--x1", "1", "--max-rows", "-1"],
    ["markov", "--p", "[[0.9, 0.1], [0.1, 0.9]]", "--samples", "-5"],
    ["markov", "--p", "[[0.9, 0.1], [0.1, 0.9]]", "--samples", "0", "--mode", "window"],
], ids=["bound-t-nan", "bound-b-t-nan", "bound-b-t-negative", "empirical-smoothing-rho-nan",
        "limit-max-rows-0", "limit-max-rows-negative", "markov-samples-negative",
        "markov-window-samples-0"])
def test_cli_nan_float_flag_exits_2(argv):
    # and a row cap below 1, which would divide by zero or emit every knot,
    # and a Markov sample count below 1, which would still run two paths
    _assert_cli_error(argv, 2)


@pytest.mark.parametrize("spec", ["grid:0:1e300:0.001", "grid:0:1:1e-320"],
                         ids=["window-1e303-knots", "pitch-subnormal"])
def test_cli_conv_window_over_cap_exits_3(spec):
    # refused by the byte cap before the knot window or lattice is allocated
    _assert_cli_error(["empirical", "--n", "16", "--ref", spec], 3)


@pytest.mark.parametrize("argv", [
    ["limit", "--route", "invert", "--x0", "0", "--x1", "1", "--n-x", "2",
     "--n-t", "1099511627776"],
    ["limit", "--route", "invert", "--x0", "0", "--x1", "1", "--n-x", "1099511627776",
     "--n-t", "64"],
    ["cf", "--n", "1099511627776"],
    # 2^22 + 1 CSV rows of a window 4096 times wider than the law's lattice
    ["limit", "--x0", "0", "--x1", "4096", "--w", "0.0009765625", "--max-rows", "100000000"],
    ["markov", "--p", "[[0.9, 0.1], [0.1, 0.9]]", "--samples", "1099511627776"],
    ["markov", "--p", "[[0.9, 0.1], [0.1, 0.9]]", "--samples", "1099511627776",
     "--mode", "window"],
    ["empirical", "--n", "1099511627776"],
    ["cf", "--depth", "10000000"],
    ["limit", "--x0", "0", "--x1", "1", "--depth", "10000000"],
], ids=["invert-n-t-2^40", "invert-n-x-2^40", "cf-n-2^40", "limit-conv-rows-2^22",
        "markov-decay-samples-2^40", "markov-window-samples-2^40", "empirical-n-2^40",
        "cf-depth-10^7", "limit-conv-depth-10^7"])
def test_cli_inversion_over_cap_exits_3(argv):
    # refused by the byte budget, or above DEPTH_CAP, before the nodes,
    # points, rows, digits, values or listed levels are allocated
    _assert_cli_error(argv, 3)


def test_cli_rows_peak_memory_within_byte_charge(tmp_path, charges, peak_of):
    # cf is charged ROW_BYTES per point, the largest row peak, and beside
    # it only cf_truncated's own 64 bytes a point; limit's stages (its
    # route, then the rows beside the grid's knots) do not overlap, so each
    # call stays within its largest charge
    out = str(tmp_path / "out.csv")
    peak, code = peak_of(main, ["cf", "--n", "20000", "--out", out])
    assert code == 0 and charges == [ROW_BYTES * 20000, 64 * 20000]
    assert peak <= charges[0] <= 1.5 * peak
    for route, rows in ((["--route", "conv", "--w", "1.52587890625e-05", "--max-rows", "100000"],
                         (8 + ROW_BYTES) * 65537),
                        (["--route", "invert", "--n-x", "20000", "--n-t", "64"],
                         ROW_BYTES * 20000)):
        charges.clear()
        peak, code = peak_of(main, ["limit", "--x0", "0", "--x1", "1", *route, "--out", out])
        assert code == 0 and rows in charges
        assert peak <= max(charges)


def test_cli_limit_invert_logs_depth_and_groups(caplog, tmp_path):
    # the inversion's log line names the depth, the level groups and how
    # many ran in real arithmetic, and says when DEPTH_CAP stopped the depth
    out = str(tmp_path / "inv.csv")
    args = ["limit", "--route", "invert", "--x0", "0", "--x1", "1", "--n-x", "3", "--n-t", "64",
            "--out", out]
    with caplog.at_level(logging.INFO, logger="cantorlab"):
        assert main(args) == 0
        assert main(args + ["--map", '{"family": "skewed-polyweight"}',
                            "--base", '{"kind": "constant", "q": 4}']) == 0
    assert "; depth 50, 13 level groups, 13 real" in caplog.text
    assert ("; depth 4096 (DEPTH_CAP, truncation bound still above CF_TOL), 2048 level groups, "
            "0 real") in caplog.text


def test_cli_limit_conv_logs_depth_lattice_and_fold_runs(caplog, monkeypatch, tmp_path):
    # the convolution's grid line names the depth, the lattice knots, the
    # windows its fold was cut into and the threads they were dealt to: one
    # on one for a lattice below two CHUNK runs, four on two for skewed-q4 at
    # pitch 2^-15 with the mask read as two CPUs, three on one with one CPU
    monkeypatch.setattr(limitlaw, "_cpus", lambda: 2)
    out = str(tmp_path / "conv.csv")
    with caplog.at_level(logging.INFO, logger="cantorlab"):
        assert main(["limit", "--route", "conv", "--x0", "0", "--x1", "1", "--w", str(2.0 ** -10),
                     "--out", out]) == 0
        assert main(["limit", "--route", "conv", "--map", '{"family": "skewed-polyweight"}',
                     "--base", '{"kind": "constant", "q": 4}', "--x0", "0", "--x1", "5.5",
                     "--w", str(2.0 ** -15), "--out", out]) == 0
        monkeypatch.setattr(limitlaw, "_cpus", lambda: 1)
        assert main(["limit", "--route", "conv", "--map", '{"family": "skewed-polyweight"}',
                     "--base", '{"kind": "constant", "q": 4}', "--x0", "0", "--x1", "5.5",
                     "--w", str(2.0 ** -15), "--out", out]) == 0
    assert "; depth 14, 1024 lattice knots, fold windows: 1 on 1 threads" in caplog.text
    assert "; depth 365, 173184 lattice knots, fold windows: 4 on 2 threads" in caplog.text
    assert "; depth 365, 173184 lattice knots, fold windows: 3 on 1 threads" in caplog.text


def test_cli_cf_logs_depth_bound_and_parts(caplog, tmp_path):
    # the cf log line names the depth, the bound and how many runs of t
    # cf_truncated split across threads, as thread_parts counts them
    out = str(tmp_path / "cf.csv")
    with caplog.at_level(logging.INFO, logger="cantorlab"):
        for n in (201, 4 * SPLIT_MIN):
            assert main(["cf", "--n", str(n), "--depth", "3", "--out", out]) == 0
            assert (f"depth 3, truncation bound 0.885 over |t| <= 10, parts of t: "
                    f"{len(thread_parts(n, SPLIT_MIN))}") in caplog.text
    assert "parts of t: 1" in caplog.text


def test_cli_conv_window_beyond_lattice_hull_exits_2():
    # floor(x0 / w) = 1e19 leaves int64; the window misses the law's mass
    # [0, 2] and is refused as too small before the fold runs
    err = _assert_cli_error(["empirical", "--n", "16",
                             "--ref", "grid:1e13:10000000000000.002:1e-6",
                             "--map", '{"family": "geometric", "beta": 0.5, "g": [0, 1]}'], 2)
    assert "misses the lattice hull" in err


@pytest.mark.parametrize("spec, reference, grid", [
    ("grid:0:inf:0.001", {"kind": "grid"}, {"x0": 0.0, "x1": math.inf, "w": 0.001}),
    ("uniform:0:inf", {"kind": "uniform", "lo": 0.0, "hi": math.inf}, None),
    ("point:nan", {"kind": "point", "c": math.nan}, None),
    ("uniform:-inf:1", {"kind": "uniform", "lo": -math.inf, "hi": 1.0}, None),
    ("grid:0:1:nan", {"kind": "grid"}, {"x0": 0.0, "x1": 1.0, "w": math.nan}),
], ids=["grid-x1-inf", "uniform-hi-inf", "point-c-nan", "uniform-lo-inf", "grid-w-nan"])
def test_cli_non_finite_reference_exits_2(spec, reference, grid, tmp_path):
    # the same bad reference as a --ref string and as config objects
    assert main(["empirical", "--n", "16", "--ref", spec]) == 2
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_minimal_config(reference=reference, grid=grid)))
    assert main(["experiment", "--config", str(path)]) == 2


def test_cli_experiment_conditional_exit(tmp_path, capsys):
    # a bare table has no certified tail: every row is conditional -> 4
    cfg = _minimal_config(
        map={"family": "custom-table", "values": [[0.0, 1.0]] * 8},
        reference={"kind": "uniform", "lo": 0.0, "hi": 8.0},
        regime="A", rho_inf=None, ns=[16, 64])
    path = tmp_path / "cond.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "cond.csv"
    assert main(["experiment", "--config", str(path), "--out", str(out)]) == 4
    capsys.readouterr()


def test_cli_experiment_preset_to_file(tmp_path, capsys):
    out = tmp_path / "zero.csv"
    assert main(["experiment", "--preset", "zero-map", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) > 3
    capsys.readouterr()


# refuses every scipy import, then runs the argv lists given on the command
# line (as JSON) and reports their exit codes and any scipy module loaded
_WITHOUT_SCIPY = """
import json, sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, NoScipy())
from cantorlab.cli import main

codes = [main(argv) for argv in json.loads(sys.argv[1])]
loaded = sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
print(json.dumps({"codes": codes, "scipy": loaded}))
"""


def test_package_runs_without_scipy(tmp_path):
    # scipy is a test oracle only: a grid preset and every --ref kind run without it
    refs = ("uniform:0:1", "point:0.5", f"grid:0:1:{2.0 ** -10}")
    runs = [["experiment", "--preset", "regimeC-ternary", "--out", str(tmp_path / "c.csv")]]
    runs += [["empirical", "--n", "256", "--ref", r] for r in refs]
    runs += [["optimize", "--n", "256", "--regime", "A", "--ref", r] for r in refs]
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, json.dumps(runs)],
                          capture_output=True, text=True, env=_package_env(),
                          cwd=tmp_path, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report == {"codes": [0] * len(runs), "scipy": []}
    assert (tmp_path / "c.csv").read_text().count("\n") == 8       # header + 7 rows


# -- descriptor fuzz ----------------------------------------------------------------

# values a JSON descriptor field can take: plausible numbers, out-of-range
# and non-finite numbers, and things that are not numbers at all
_junk = st.one_of(st.none(), st.booleans(), st.text(max_size=2), st.just(10 ** 400),
                  st.floats(allow_nan=True, allow_infinity=True))
_num = st.one_of(st.integers(-2, 7), st.floats(-3.0, 3.0),
                 st.sampled_from([1e300, -1e300, 1e-300]), _junk)
_row = st.one_of(st.lists(_num, max_size=5), _junk)
_sizes = st.one_of(st.lists(st.one_of(st.integers(-1, 6), _junk), max_size=4), _junk)


def _rule(kinds):
    return st.one_of(
        st.fixed_dictionaries({"kind": st.sampled_from(kinds), "q": _num,
                               "pattern": _sizes, "c": _num, "d": _num}),
        st.dictionaries(st.sampled_from(["kind", "q", "c", "d"]), _num, max_size=3),
        _junk)


_base = st.one_of(
    _rule(["constant", "periodic", "affine", "nope"]),
    st.fixed_dictionaries({"kind": st.just("table"), "table": _sizes,
                           "then": _rule(["constant", "periodic", "affine", "table"])}))
_tail = st.one_of(st.fixed_dictionaries({k: _num for k in (
    "mean_coeff", "mean_ratio", "var_coeff", "var_ratio")}), _junk)
_map = st.one_of(
    st.fixed_dictionaries({"family": st.sampled_from(
        ["radical-inverse", "symmetric-ternary", "skewed-polyweight", "nope"])}),
    st.fixed_dictionaries({"family": st.sampled_from(["polynomial", "geometric"]),
                           "alpha": _num, "beta": _num, "g": _row}),
    st.fixed_dictionaries({"family": st.just("custom-table"),
                           "values": st.one_of(st.lists(_row, max_size=4), _junk),
                           "tail": _tail}),
    _junk)


_B2 = {"kind": "constant", "q": 2}


@settings(max_examples=150, deadline=None, derandomize=True)
@example(cmd=["eval"], base=_B2, n=7,      # beta ** j overflows
         dmap={"family": "geometric", "beta": 1e300, "g": [0, 1]})
@example(cmd=["stats", "--levels", "4"], base=_B2, n=0,   # fsum overflows
         dmap={"family": "polynomial", "alpha": 1, "g": [1e308, 1e308]})
@example(cmd=["stats", "--levels", "4"], n=0,      # a level too wide to enumerate
         base={"kind": "constant", "q": 10 ** 400}, dmap={"family": "radical-inverse"})
@given(cmd=st.sampled_from([["expand"], ["eval"], ["stats", "--levels", "4"],
                            ["ewcheck", "--j-max", "8"]]),
       base=_base, dmap=_map, n=st.integers(0, 5000))
def test_cli_descriptor_fuzz_exits_with_documented_codes(cmd, base, dmap, n):
    argv = [*cmd, "--base=" + json.dumps(base)]       # "=": a JSON -1 is no flag
    if cmd[0] != "expand":
        argv.append("--map=" + json.dumps(dmap))
    if cmd[0] in ("expand", "eval"):
        argv.append(str(n))
    assert main(argv) in (0, 2, 3, 4)
