"""Window bounds: components against exact formulas, the optimizer against
an independent exhaustive scan, rates against closed forms."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cantorlab import (
    DigitMap,
    EmpiricalCDF,
    ExperimentConfig,
    GridCDF,
    MissingDensityBound,
    NoTailMeta,
    RegimeUnavailable,
    T_GRID,
    UniformCDF,
    WindowBoundReport,
    build_base,
    concentration,
    digit_stats,
    length,
    limit_cdf_conv,
    optimize_window,
    predicted_rate,
    preset,
    regime_term,
    resolve_regime,
    run_experiment,
    tail_sums,
    tau1,
    tau2,
    total_bound,
    window_size,
)
from cantorlab import experiments
from cantorlab.qadditive import _inv


def test_t_grid_shape():
    assert len(T_GRID) == 81
    assert T_GRID[0] == 2.0 ** 40 and T_GRID[-1] == 2.0 ** -40
    assert all(a > b for a, b in zip(T_GRID, T_GRID[1:]))


def test_window_size_exact(base2, factorial_base):
    assert window_size(base2, 10, 3) == 8
    assert window_size(base2, 10, 10) == 1024
    # a_j = j + 2: the window L=6, h=2 spans a_4 a_5 = 6 * 7
    assert window_size(factorial_base, 6, 2) == 42
    with pytest.raises(ValueError):
        window_size(base2, 10, 0)
    with pytest.raises(ValueError):
        window_size(base2, 10, 11)


def test_tau_accumulators(base2, geo_half):
    want = math.fsum(digit_stats(geo_half, base2, j).s2 for j in range(7, 12))
    assert tau2(geo_half, base2, 12, 5) == want
    mt, vt = tail_sums(geo_half, base2, 12)
    assert tau1(geo_half, base2, 12) == mt + vt
    with pytest.raises(ValueError):
        tau2(geo_half, base2, 12, 0)


def test_regime_term_formulas():
    assert regime_term("B", 0.0, 0.04, rho_inf=2.0) == 2.0 * 0.2
    assert regime_term("A", 8.0, 0.04) == 8.0 * 0.2
    assert regime_term("C", 8.0, 0.04) == 64.0 * 0.04
    with pytest.raises(MissingDensityBound):
        regime_term("B", 1.0, 0.04)
    for bad_t in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            regime_term("A", bad_t, 0.04)
    with pytest.raises(ValueError):
        regime_term("D", 1.0, 0.04)
    # a density bound outside (0, inf), and a negative or NaN window variance
    # in every regime
    for bad_rho in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            regime_term("B", 1.0, 0.25, rho_inf=bad_rho)
    for regime in "ABC":
        for bad_t2 in (-0.25, math.nan):
            with pytest.raises(ValueError):
                regime_term(regime, 1.0, bad_t2, rho_inf=1.0)
    # elementwise: a row of T against a column of tau2
    got = regime_term("C", np.array([8.0, 0.5]), np.array([[0.04], [0.25]]))
    assert np.array_equal(got, [[64.0 * 0.04, 0.25 * 0.04], [64.0 * 0.25, 0.25 * 0.25]])


def test_total_bound_regime_a_assembly(base2, geo_half):
    ref = UniformCDF(0.0, 2.0)
    rep = total_bound(geo_half, base2, 1 << 12, 4, 16.0, "A", ref=ref)
    assert rep.L == 12 and rep.h == 4 and rep.A_Lh == 16
    assert rep.bridge == 1.0 / 16.0
    assert rep.tau2_h == tau2(geo_half, base2, 12, 4)
    assert rep.g_term == 16.0 * math.sqrt(rep.tau2_h)
    assert rep.qf_term == 0.5 * (1.0 / 16.0)       # uniform density 1/2
    t1 = tau1(geo_half, base2, 12)
    assert rep.total == pytest.approx(
        rep.bridge + math.sqrt(t1) + rep.qf_term + 1.0 / 16.0 + rep.g_term,
        rel=1e-14)
    assert not rep.conditional
    d = rep.to_dict()
    assert d["regime"] == "A" and d["N"] == 1 << 12


def test_total_bound_regime_b_drops_smoothing_terms(base2, vdc2):
    rep = total_bound(vdc2, base2, 1000, 3, 1.0, "B", rho_inf=1.0)
    assert rep.qf_term == 0.0
    t1 = tau1(vdc2, base2, rep.L)
    assert rep.total == pytest.approx(
        rep.bridge + math.sqrt(t1) + math.sqrt(rep.tau2_h), rel=1e-14)


def test_total_bound_regime_c_gate(base3, base2, tern, skew):
    ref = limit_cdf_conv(tern, base3, -1.625, 1.625, 2.0 ** -10)
    rep = total_bound(tern, base3, 3 ** 7, 3, 8.0, "C", ref=ref)
    assert rep.g_term == 64.0 * rep.tau2_h
    # nonvanishing third moments refuse regime C
    base4 = build_base({"kind": "constant", "q": 4})
    uref = UniformCDF(0.0, 6.0)
    with pytest.raises(RegimeUnavailable):
        total_bound(skew, base4, 1 << 12, 3, 8.0, "C", ref=uref)


def test_total_bound_conditional_without_tail_meta(base2):
    bare = DigitMap.custom_table([(0.0, 1.0)] * 12)
    ref = UniformCDF(0.0, 12.0)
    rep = total_bound(bare, base2, 1 << 10, 3, 8.0, "A", ref=ref)
    assert rep.conditional and rep.tau1 is None
    assert rep.total == pytest.approx(
        rep.bridge + rep.qf_term + 1.0 / 8.0 + rep.g_term, rel=1e-14)


def test_total_bound_validation(base2, vdc2):
    with pytest.raises(ValueError):
        total_bound(vdc2, base2, 1 << 10, 3, 8.0, "A")       # no reference
    with pytest.raises(MissingDensityBound):
        total_bound(vdc2, base2, 1 << 10, 3, 8.0, "B")
    with pytest.raises(ValueError):
        total_bound(vdc2, base2, 1 << 10, 0, 8.0, "B", rho_inf=1.0)
    with pytest.raises(ValueError):
        total_bound(vdc2, base2, 1 << 10, 3, 8.0, "E", rho_inf=1.0)


def _brute_optimum(dmap, base, n, regime, rho_inf=None, ref=None):
    """Independent exhaustive scan with the documented tie-break."""
    best = None
    L = length(base, n)
    for h in range(1, L + 1):
        if regime == "B":
            rep = total_bound(dmap, base, n, h, 1.0, "B", rho_inf=rho_inf)
            key = (rep.total, h)
            if best is None or key < best[0]:
                best = (key, h, 1.0, rep)
        else:
            for T in T_GRID:
                rep = total_bound(dmap, base, n, h, T, regime, ref=ref)
                key = (rep.total, h, -T)
                if best is None or key < best[0]:
                    best = (key, h, T, rep)
    return best[1], best[2], best[3]


def test_optimize_window_matches_brute_regime_b(base2, vdc2):
    h, t, rep = optimize_window(vdc2, base2, 1000, "B", rho_inf=1.0)
    bh, bt, brep = _brute_optimum(vdc2, base2, 1000, "B", rho_inf=1.0)
    assert (h, t) == (bh, bt)
    assert rep == brep


def test_optimize_window_matches_brute_regime_a(base2, geo_half):
    ref = limit_cdf_conv(geo_half, base2, -0.25, 2.25, 2.0 ** -12)
    h, t, rep = optimize_window(geo_half, base2, 4096, "A", ref=ref)
    bh, bt, brep = _brute_optimum(geo_half, base2, 4096, "A", ref=ref)
    assert (h, t) == (bh, bt)
    assert rep == brep
    assert rep.T in T_GRID


def test_optimize_window_matches_brute_regime_c(base3, tern):
    ref = limit_cdf_conv(tern, base3, -1.625, 1.625, 2.0 ** -10)
    h, t, rep = optimize_window(tern, base3, 3 ** 8, "C", ref=ref)
    bh, bt, brep = _brute_optimum(tern, base3, 3 ** 8, "C", ref=ref)
    assert (h, t) == (bh, bt)
    assert rep == brep


_MAPS = {
    "q2-geometric": ({"kind": "constant", "q": 2},
                     {"family": "geometric", "beta": 0.5, "g": [0.0, 1.0]}),
    "q2-polynomial": ({"kind": "constant", "q": 2},
                      {"family": "polynomial", "alpha": 1.5, "g": [0.0, 1.0]}),
    "q3-ternary": ({"kind": "constant", "q": 3}, {"family": "symmetric-ternary"}),
    "q4-skewed": ({"kind": "constant", "q": 4}, {"family": "skewed-polyweight"}),
    "factorial-vdc": ({"kind": "affine", "c": 1, "d": 2}, {"family": "radical-inverse"}),
    "q2-bare-table": ({"kind": "constant", "q": 2},
                      {"family": "custom-table", "values": [[0.0, 1.0], [0.5, -0.5]] * 8}),
}


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(sorted(_MAPS)), n=st.integers(16, 3000),
       regime=st.sampled_from("ABC"), rho_inf=st.floats(0.25, 4.0),
       ref=st.one_of(st.builds(lambda lo, span: UniformCDF(lo, lo + span),
                               st.floats(-2.0, 2.0), st.floats(0.5, 16.0)),
                     st.builds(EmpiricalCDF, st.lists(st.floats(-2.0, 2.0),
                                                      min_size=1, max_size=6))))
def test_optimize_window_reports_the_least_total_bound(case, n, regime, rho_inf, ref):
    base_d, map_d = _MAPS[case]
    base, dmap = build_base(base_d), DigitMap(map_d)
    rho = rho_inf if regime == "B" else None
    try:
        h, t, rep = optimize_window(dmap, base, n, regime, rho_inf=rho, ref=ref)
    except RegimeUnavailable:
        with pytest.raises(RegimeUnavailable):
            total_bound(dmap, base, n, 1, 1.0, regime, rho_inf=rho, ref=ref)
        return
    # the optimizer's report is the single-candidate bound at (h*, T*)
    assert (rep.h, rep.T) == (h, t)
    assert rep == total_bound(dmap, base, n, h, t, regime, rho_inf=rho, ref=ref)
    # and no candidate of the search has a smaller total; ties go to the
    # smaller h, then the larger T
    for hh in range(1, rep.L + 1):
        for tt in (1.0,) if regime == "B" else T_GRID:
            other = total_bound(dmap, base, n, hh, tt, regime, rho_inf=rho, ref=ref)
            assert (other.total, hh, -tt) >= (rep.total, h, -t)


def _loop_best_report(dmap, base, N, L, regime, rho_inf, ref, hs, ts):
    """The optimizer as it was before the table search, kept as an oracle:
    one candidate at a time, Q_F(1/T) cached per T, strict < so the first
    of equal totals wins."""
    try:
        t1 = tau1(dmap, base, L)
    except NoTailMeta:
        t1 = None
    sqrt_t1 = math.sqrt(t1) if t1 is not None else 0.0
    low = L - max(hs)
    s2 = [digit_stats(dmap, base, j).s2 for j in range(low, L)]
    qf_cache = {}
    best = None
    for h in hs:
        A = window_size(base, L, h)
        bridge = _inv(1.0, A)
        t2 = math.fsum(s2[L - h - low:])
        for T in ts:
            if regime == "B":
                g = rho_inf * math.sqrt(t2)
                qf = 0.0
                total = bridge + g + sqrt_t1
            else:
                g = T * math.sqrt(t2) if regime == "A" else T * T * t2
                if T not in qf_cache:
                    qf_cache[T] = concentration(ref, 1.0 / T).hi
                qf = qf_cache[T]
                total = bridge + qf + 1.0 / T + g + sqrt_t1
            if best is None or total < best[0]:
                best = (total, h, A, bridge, t2, T, qf, g)
    total, h, A, bridge, t2, T, qf, g = best
    return WindowBoundReport(N=N, L=L, h=h, A_Lh=A, bridge=bridge, tau1=t1,
                             tau2_h=t2, T=T, qf_term=qf, g_term=g, total=total,
                             regime=regime, conditional=t1 is None)


def _assert_same_report(got, want):
    for f in dataclasses.fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert type(a) is type(b), f.name
        if isinstance(b, float):
            assert np.float64(a).view(np.int64) == np.float64(b).view(np.int64), f.name
        else:
            assert a == b, f.name


_ORACLE_CASES = {
    "c2-radical-inverse": ({"kind": "constant", "q": 2}, {"family": "radical-inverse"}),
    "c2-geometric": ({"kind": "constant", "q": 2},
                     {"family": "geometric", "beta": 0.5, "g": [0.0, 1.0]}),
    # beta >= 1: a certified-divergent tail, tau1 = inf and every total inf
    "c2-geometric-divergent": ({"kind": "constant", "q": 2},
                               {"family": "geometric", "beta": 1.0, "g": [0.0, 1.0]}),
    "c2-polynomial": ({"kind": "constant", "q": 2},
                      {"family": "polynomial", "alpha": 1.5, "g": [0.0, 1.0]}),
    # no tail envelope: conditional reports
    "c2-bare-table": ({"kind": "constant", "q": 2},
                      {"family": "custom-table", "values": [[0.0, 1.0]] * 30}),
    "c3-ternary": ({"kind": "constant", "q": 3}, {"family": "symmetric-ternary"}),
    "c3-skewed": ({"kind": "constant", "q": 3}, {"family": "skewed-polyweight"}),
    "p23-radical-inverse": ({"kind": "periodic", "pattern": [2, 3]},
                            {"family": "radical-inverse"}),
    "p23-skewed": ({"kind": "periodic", "pattern": [2, 3]}, {"family": "skewed-polyweight"}),
    "affine-radical-inverse": ({"kind": "affine", "c": 1, "d": 2}, {"family": "radical-inverse"}),
    "affine-skewed": ({"kind": "affine", "c": 1, "d": 2}, {"family": "skewed-polyweight"}),
}


def _coarse_grid(x0, w, k, seed):
    pmf = np.random.default_rng(seed).random(k)
    return GridCDF(x0=x0, w=w, cum=np.cumsum(pmf / pmf.sum()), eps_x=w / 2.0, eps_p=1e-6)


_REFS = st.one_of(
    st.builds(lambda lo, span: UniformCDF(lo, lo + span),
              st.floats(-2.0, 2.0), st.floats(0.5, 16.0)),
    st.builds(EmpiricalCDF, st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=6)),
    st.builds(_coarse_grid, st.floats(-2.0, 0.0), st.sampled_from([2.0 ** -6, 0.01, 0.25]),
              st.integers(1, 400), st.integers(0, 2 ** 32 - 1)))


@settings(max_examples=80, deadline=None)
@given(case=st.sampled_from(sorted(_ORACLE_CASES)), n=st.integers(2, 1 << 20),
       regime=st.sampled_from("ABC"), rho_inf=st.floats(0.25, 4.0), ref=_REFS,
       h=st.integers(1, 64),
       T=st.one_of(st.sampled_from(T_GRID), st.floats(2.0 ** -40, 2.0 ** 40)))
# a bare table in regime C ties h = 1 and h = 2 at T = 1: each total is
# 2.25 = 1/A + Q(1) + 1/T + T^2 tau2, with Q(1) = 0.5 and tau2 = h / 4
@example(case="c2-bare-table", n=1 << 10, regime="C", rho_inf=1.0,
         ref=EmpiricalCDF([0.0, 5.0]), h=2, T=1.0)
# every total is inf (tau1 = inf), so every T column is kept and reads Q_F
@example(case="c2-geometric-divergent", n=1 << 20, regime="A", rho_inf=1.0,
         ref=UniformCDF(0.0, 2.0), h=3, T=8.0)
# T = 2 and T = 1 tie at the least total 2.25 with h = 1; the column of the
# least bound with Q_F = 0 is T = 1, so the winning T = 2 column is another
# column kept for its bound, not the one read first
@example(case="c2-bare-table", n=1 << 15, regime="C", rho_inf=1.0,
         ref=EmpiricalCDF([-2.0, -1.0, 2.0, 4.0]), h=1, T=2.0)
# Q_F(1/T) <= 2^-160 vanishes in every sum, so the column read first has
# its bound equal to best: a bound equal to best must keep its column
@example(case="c2-geometric", n=1 << 16, regime="A", rho_inf=1.0,
         ref=UniformCDF(0.0, 2.0 ** 200), h=5, T=64.0)
# grid references, where 4 and 6 of the 81 T columns read Q_F;
# total_bound's single column is always the one read first
@example(case="c3-ternary", n=3 ** 10, regime="C", rho_inf=1.0,
         ref=_coarse_grid(-1.5, 2.0 ** -6, 200, 7), h=4, T=64.0)
@example(case="c2-geometric", n=1 << 20, regime="A", rho_inf=1.0,
         ref=_coarse_grid(0.0, 2.0 ** -6, 128, 3), h=7, T=128.0)
@example(case="c2-geometric-divergent", n=1 << 20, regime="B", rho_inf=1.0,
         ref=UniformCDF(0.0, 2.0), h=3, T=0.5)
def test_table_search_matches_the_candidate_loop_bitwise(case, n, regime, rho_inf, ref, h, T):
    base_d, map_d = _ORACLE_CASES[case]
    base, dmap = build_base(base_d), DigitMap(map_d)
    rho = rho_inf if regime == "B" else None
    L = length(base, n)
    if L < 1:
        with pytest.raises(ValueError):
            optimize_window(dmap, base, n, regime, rho_inf=rho, ref=ref)
        return
    try:
        _, _, rep = optimize_window(dmap, base, n, regime, rho_inf=rho, ref=ref)
    except RegimeUnavailable:
        assert regime == "C"
        return
    ts = (1.0,) if regime == "B" else T_GRID
    _assert_same_report(rep, _loop_best_report(dmap, base, n, L, regime, rho, ref,
                                               range(1, L + 1), ts))
    h = min(h, L)
    _assert_same_report(total_bound(dmap, base, n, h, T, regime, rho_inf=rho, ref=ref),
                        _loop_best_report(dmap, base, n, L, regime, rho, ref, (h,), (T,)))


def test_ladder_scans_only_the_widths_that_can_win(monkeypatch):
    # example-II's 4-row ladder on a 65,537-knot grid: the optimizer reads Q_F
    # in 2-3 T columns a row, 4 distinct widths in all, and vertical_slack
    # scans one more; reading every column scans 18
    refs, build = [], experiments.build_reference

    def kept(*args):
        refs.append(build(*args))
        return refs[-1]

    monkeypatch.setattr(experiments, "build_reference", kept)
    d = preset("example-II").to_dict()
    d.update(ladder={"start": 256, "stop": 2048, "factor": 2}, grid=dict(d["grid"], w=2.0 ** -15))
    run_experiment(ExperimentConfig.from_dict(d))
    assert refs[0].cum.size == 65537
    assert len(refs[0]._win_cache) <= 5


def test_regime_c_search_reads_each_level_once(base3, tern, monkeypatch):
    # the mu3 check over levels 0 .. L and the tau2 column share one
    # digit_stats call per level
    from cantorlab import window_bounds

    calls = []

    def counted(dmap, base, j):
        calls.append(j)
        return digit_stats(dmap, base, j)

    monkeypatch.setattr(window_bounds, "digit_stats", counted)
    n = 1 << 20
    optimize_window(tern, base3, n, "C", ref=UniformCDF(-1.5, 1.5))
    assert calls == list(range(length(base3, n) + 1))


def test_optimize_window_guards(base2, vdc2, skew):
    with pytest.raises(ValueError):
        optimize_window(vdc2, base2, 1, "B", rho_inf=1.0)     # L = 0
    with pytest.raises(MissingDensityBound):
        optimize_window(vdc2, base2, 1000, "B")
    with pytest.raises(ValueError):
        optimize_window(vdc2, base2, 1000, "A")               # no reference
    base4 = build_base({"kind": "constant", "q": 4})
    with pytest.raises(RegimeUnavailable):
        optimize_window(skew, base4, 1000, "C", ref=UniformCDF(0.0, 6.0))


@pytest.mark.parametrize("rho_inf", [-1.0, 0.0, math.nan, math.inf])
def test_regime_b_needs_a_positive_finite_density_bound(base2, vdc2, rho_inf):
    # a negative bound would shrink g and with it the certified total
    with pytest.raises(ValueError):
        total_bound(vdc2, base2, 4096, 4, 1.0, "B", rho_inf=rho_inf)
    with pytest.raises(ValueError):
        optimize_window(vdc2, base2, 4096, "B", rho_inf=rho_inf)


def test_predicted_rate_closed_forms():
    assert predicted_rate("example-I", 1 << 12, alpha=1.5) \
        == pytest.approx(12.0 ** -0.75 * math.log(12.0) ** 0.25, rel=1e-15)
    # the integer boundary must not fall to float log jitter
    assert predicted_rate("example-I", (1 << 12) - 1, alpha=1.5) \
        == pytest.approx(11.0 ** -0.75 * math.log(11.0) ** 0.25, rel=1e-15)
    assert predicted_rate("example-I", 3 ** 5, alpha=2.0, q=3) \
        == pytest.approx(5.0 ** -1.0 * math.log(5.0) ** 0.25, rel=1e-15)
    # beta = 1/2, q = 2 puts gamma exactly at 1/3
    assert predicted_rate("example-II", 4096, beta=0.5) \
        == pytest.approx(1.0 / 16.0, rel=1e-12)


def _floor_log_loop(q, n):
    """floor(log_q n) as predicted_rate once found it: a float log, then two
    integer guard loops."""
    L = int(math.log(n) / math.log(q))
    while q ** (L + 1) <= n:
        L += 1
    while q ** L > n:
        L -= 1
    return L


@pytest.mark.parametrize("q", [2, 3, 10])
def test_predicted_rate_length_at_every_power(q):
    # example-I's L is mixed_radix.length of a constant base, which agrees
    # with the loop at q^L - 1, q^L and q^L + 1 up to 2^62, where a float log
    # can round across the integer
    L = 2
    while q ** L <= 2 ** 62:
        for n, want in ((q ** L - 1, L - 1), (q ** L, L), (q ** L + 1, L)):
            if n >= q * q:
                assert _floor_log_loop(q, n) == want
                assert predicted_rate("example-I", n, alpha=1.5, q=q) \
                    == want ** -0.75 * math.log(want) ** 0.25
        L += 1


def test_predicted_rate_validation():
    with pytest.raises(ValueError):
        predicted_rate("example-I", 2, alpha=1.5)             # N < q^2
    with pytest.raises(ValueError):
        predicted_rate("example-I", 100, alpha=1.0)
    with pytest.raises(ValueError):
        predicted_rate("example-II", 100, beta=1.0)
    with pytest.raises(ValueError):
        predicted_rate("example-III", 100)
    with pytest.raises(ValueError):
        predicted_rate("example-I", 100, alpha=1.5, q=1)
    # a non-finite alpha has no rate; q is an integer, and a bool is none
    for alpha, q in ((math.inf, 2), (math.nan, 2), (10 ** 400, 2), ("2", 2),
                     (1.5, True), (1.5, 2.0)):
        with pytest.raises(ValueError):
            predicted_rate("example-I", 100, alpha=alpha, q=q)


def test_resolve_regime(base2, base3, geo_half, tern, skew):
    assert resolve_regime(geo_half, base2, 10, rho_inf=1.0) == "B"
    assert resolve_regime(tern, base3, 10) == "C"
    # two-point digit laws are symmetric, so mu3 vanishes as well
    assert resolve_regime(geo_half, base2, 10) == "C"
    base4 = build_base({"kind": "constant", "q": 4})
    assert resolve_regime(skew, base4, 10) == "A"
