"""Limit laws: lattice convolution against exact enumeration, CF products
against closed forms, inversion against the convolution route."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cantorlab import (
    DigitMap,
    EmpiricalCDF,
    GridCDF,
    RangeTooSmall,
    ResourceLimit,
    UniformCDF,
    build_base,
    cf_factor,
    cf_truncated,
    cf_truncation_bound,
    choose_depth,
    concentration,
    digit_stats,
    level_values,
    limit_cdf_conv,
    limit_cdf_invert,
    optimize_window,
    value_vector,
)
from cantorlab.limitlaw import _conv_envelope, _tail_pair


# -- grid semantics ---------------------------------------------------------------


def _toy_grid(eps_x=0.0, eps_p=0.0):
    return GridCDF(x0=1.0, w=0.5, cum=np.array([0.2, 0.2, 0.7, 1.0]),
                   eps_x=eps_x, eps_p=eps_p)


def test_grid_cdf_semantics():
    g = _toy_grid()
    assert g.cdf(0.0) == 0.0
    assert g.cdf(1.0) == 0.2
    assert g.cdf(1.2) == 0.2          # between knots: last knot below
    assert g.cdf(2.0) == 0.7
    assert g.cdf(99.0) == 1.0


@settings(max_examples=200, deadline=None)
@given(x0=st.floats(-10.0, 10.0), w=st.floats(1e-6, 1.0), k=st.integers(0, 5000))
@example(x0=0.1, w=1e-3, k=4999)             # pitches where flooring the quotient
@example(x0=-1.6, w=1.0 / 3000.0, k=4999)    # alone misses 180 and 935 knots
def test_grid_cdf_hits_every_knot(x0, w, k):
    # non-dyadic pitches: the knots are the floats x0 + k w, whatever the
    # quotient (x - x0) / w rounds to
    cum = np.arange(1.0, k + 2.0)
    g = GridCDF(x0=x0, w=w, cum=cum, eps_x=0.0, eps_p=0.0)
    ks = np.arange(k + 1)
    knots = x0 + ks * w
    assert np.array_equal(g.cdf(knots), cum)
    assert g.cdf(x0 + k * w) == cum[k]
    # strictly between two knots cdf reads the lower knot
    mid = x0 + (ks + 0.5) * w
    assert np.array_equal(g.cdf(mid), cum)
    assert g.cdf(np.nextafter(x0, -np.inf)) == 0.0


def test_grid_cdf_validation():
    with pytest.raises(ValueError):
        GridCDF(0.0, 0.0, np.array([1.0]), 0.0, 0.0)
    with pytest.raises(ValueError):
        GridCDF(0.0, 1.0, np.array([]), 0.0, 0.0)
    with pytest.raises(ValueError, match="finite"):
        GridCDF(0.0, 1.0, np.array([0.5, np.nan]), 0.0, 0.0)
    with pytest.raises(ValueError, match="decrease"):
        GridCDF(0.0, 1.0, np.array([0.5, 0.25]), 0.0, 0.0)
    # knots closer than the float spacing near them, or past float range,
    # cannot be told apart: the pitch guard refuses them
    for x0, w, k in ((1e13, 1e-6, 10), (1.0, 1e-13, 3), (1e308, 1e307, 100)):
        with pytest.raises(ValueError, match="resolution"):
            GridCDF(x0, w, np.ones(k), 0.0, 0.0)
    GridCDF(1e13, 16.0, np.ones(10), 0.0, 0.0)


def test_window_sup_matches_brute():
    rng = np.random.default_rng(17)
    pmf = rng.random(40)
    pmf /= pmf.sum()
    g = GridCDF(x0=-2.0, w=0.125, cum=np.cumsum(pmf), eps_x=0.0, eps_p=0.0)
    xs = -2.0 + 0.125 * np.arange(40)
    for r in (0.0, 0.1, 0.125, 0.3, 1.0, 4.9, 100.0):
        # independent O(K^2) scan: closed windows anchored at each knot
        want = 0.0
        for i in range(40):
            mass = pmf[(xs >= xs[i]) & (xs <= xs[i] + r)].sum()
            want = max(want, float(mass))
        assert g.window_sup(r) == pytest.approx(want, abs=1e-15)


def _window_sup_concat(cum, w, r):
    """Q(r) as one array: window ends padded with cum[-1], starts with 0."""
    m = int(math.floor(r / w))
    k = cum.size
    if m >= k - 1:
        return float(cum[-1])
    hi = np.concatenate((cum[m:], np.full(m, cum[-1])))
    lo = np.concatenate(([0.0], cum[:-1]))
    return float(np.max(hi - lo))


@settings(max_examples=200, deadline=None)
@given(k=st.integers(1, 300), w=st.floats(1e-3, 2.0), seed=st.integers(0, 2 ** 32 - 1),
       monotone=st.booleans())
def test_window_sup_matches_concatenation_and_caches_by_knot_count(k, w, seed, monotone):
    rng = np.random.default_rng(seed)
    cum = rng.random(k)
    if not monotone and np.any(np.diff(cum) < 0):
        with pytest.raises(ValueError, match="decrease"):
            GridCDF(x0=0.3, w=w, cum=cum, eps_x=0.0, eps_p=0.0)
    cum = np.cumsum(cum / cum.sum())
    g = GridCDF(x0=0.3, w=w, cum=cum, eps_x=0.0, eps_p=0.0)
    # m = 0, every 0 < m < k - 1, and m >= k - 1, each at a width inside
    # its knot count
    for m in range(0, k + 2):
        for frac in (0.0, 0.5, 0.999):
            r = (m + frac) * w
            want = _window_sup_concat(cum, w, r)
            got = g.window_sup(r)
            assert np.float64(got).view(np.int64) == np.float64(want).view(np.int64), (m, frac)
    assert g.window_sup(math.inf) == cum[-1]
    assert set(g._win_cache) <= set(range(k - 1))
    # widths with the same floor(r / w) share one entry; m >= k - 1 needs none
    fresh = GridCDF(x0=0.3, w=w, cum=cum, eps_x=0.0, eps_p=0.0)
    m = k // 2
    r1, r2 = (m + 0.25) * w, (m + 0.75) * w
    assert math.floor(r1 / w) == math.floor(r2 / w) == m
    fresh.window_sup(r1)
    fresh.window_sup(r2)
    fresh.window_sup((k + 1) * w)
    assert list(fresh._win_cache) == ([m] if m < k - 1 else [])


def test_window_sup_peak_within_byte_charge(charges, peak_of):
    # a cache miss takes one difference per window start, k - m - 1 of them;
    # 8 bytes a knot are charged, which covers numpy's per-call overhead
    # (about 1.2 KB) as well once m is past about 150
    k = 1 << 18
    for m in (k // 64, k // 4):
        g = GridCDF(0.0, 1.0, np.linspace(0.0, 1.0, k), 0.0, 0.0)
        peak, _ = peak_of(g.window_sup, m + 0.5)
        assert charges[-1] == 8 * k
        assert peak <= charges[-1] <= 1.5 * peak, m


def test_vertical_slack_formula():
    g = _toy_grid(eps_x=0.05, eps_p=0.01)
    assert g.vertical_slack() == 3.0 * 0.01 + g.window_sup(0.2)
    assert _toy_grid(eps_x=0.0, eps_p=0.007).vertical_slack() == 0.007


# -- truncation depth --------------------------------------------------------------


def test_choose_depth_consumes_bare_table(base2):
    rows = [(0.0, 2.0 ** -j) for j in range(6)]
    dmap = DigitMap.custom_table(rows)
    assert choose_depth(dmap, base2, w=2.0 ** -12) == 6
    # a coarse lattice refuses to pay for rows it cannot resolve
    assert choose_depth(dmap, base2, w=0.25) < 6


def test_choose_depth_deepens_with_finer_grids(base2, geo_half):
    d_coarse = choose_depth(geo_half, base2, w=2.0 ** -6)
    d_fine = choose_depth(geo_half, base2, w=2.0 ** -20)
    assert d_coarse < d_fine


# -- convolution route ---------------------------------------------------------------


def test_conv_exact_dyadic_enumeration(base2, vdc2):
    # depth-8 values are multiples of 2^-8, the pitch divides them, and the
    # knots are dyadic: the lattice law must match exact enumeration knotwise
    w = 2.0 ** -10
    g = limit_cdf_conv(vdc2, base2, -0.25, 1.25, w, depth=8)
    oracle = EmpiricalCDF(value_vector(vdc2, base2, 256))
    knots = g.x0 + g.w * np.arange(g.cum.size)
    assert np.array_equal(g.cum, oracle.cdf(knots))
    assert g.cum[-1] == 1.0
    # envelope bookkeeping: lattice term, certified tail shift, Chebyshev split
    from cantorlab import tail_sums

    mt, vt = tail_sums(vdc2, base2, 7)
    delta = (2.0 * vt) ** (1.0 / 3.0)
    assert g.eps_x == pytest.approx(9.0 * w / 2.0 + mt + delta, rel=1e-12)
    assert g.eps_p == pytest.approx(vt / delta ** 2 + 1e-15, rel=1e-9)


def test_conv_translation_levels_exact(base2):
    # middle level is constant: every digit shifts alike
    rows = [(0.0, 1.0), (0.5, 0.5), (0.0, 0.25)]
    dmap = DigitMap.custom_table(rows)
    g = limit_cdf_conv(dmap, base2, 0.0, 2.0, 0.25, depth=3)
    oracle = EmpiricalCDF(value_vector(dmap, base2, 8))
    knots = g.x0 + g.w * np.arange(g.cum.size)
    assert np.array_equal(g.cum, oracle.cdf(knots))


def test_conv_negative_translation(base2):
    rows = [(-0.5, -0.5), (0.0, 1.0)]
    dmap = DigitMap.custom_table(rows)
    g = limit_cdf_conv(dmap, base2, -1.0, 1.0, 0.25, depth=2)
    oracle = EmpiricalCDF(value_vector(dmap, base2, 4))
    knots = g.x0 + g.w * np.arange(g.cum.size)
    assert np.array_equal(g.cum, oracle.cdf(knots))


def _two_path_conv(dmap, base, x0, x1, w, depth):
    """(cum, eps_x, eps_p) of limit_cdf_conv by a fold with two paths, each
    with its own sign branches: a level whose digits all round to one shift
    translates the array in place, any other computes one dist * p product
    per digit into a fresh array over the whole lattice.  The requested
    knots are gathered by clipped indices, and RangeTooSmall is raised where
    limit_cdf_conv raises it.  The oracle of the sublattice fold in two
    buffers and of the window read by slices."""
    k_req = int(math.floor((x1 - x0) / w)) + 1
    offsets = [np.array([int(round(v / w)) for v in level_values(dmap, base, j)],
                        dtype=np.int64) for j in range(depth)]
    grid_lo, grid_hi, run_lo, run_hi = 0, 0, 0, 0
    for o in offsets:
        run_lo += int(o.min())
        run_hi += int(o.max())
        grid_lo = min(grid_lo, run_lo)
        grid_hi = max(grid_hi, run_hi)
    size = grid_hi - grid_lo + 1
    if not grid_lo - (k_req - 1) <= x0 / w < grid_hi + 1:
        raise RangeTooSmall("misses the lattice hull")
    dist = np.zeros(size)
    dist[-grid_lo] = 1.0
    for o in offsets:
        if int(o.min()) == int(o.max()):
            s = int(o[0])
            if s > 0:
                dist[s:] = dist[:size - s]
                dist[:s] = 0.0
            elif s < 0:
                dist[:s] = dist[-s:]
                dist[s:] = 0.0
            continue
        new = np.zeros(size)
        p = 1.0 / o.size
        for shift in o:
            s = int(shift)
            if s >= 0:
                new[s:] += dist[:size - s] * p if s else dist * p
            else:
                new[:s] += dist[-s:] * p
        dist = new
    cum_all = np.cumsum(dist)
    total = float(cum_all[-1])
    eps_x, eps_p = _conv_envelope(dmap, base, w, depth)
    eps_p += abs(1.0 - total) + 1e-15
    idx = int(math.floor(x0 / w)) + np.arange(k_req, dtype=np.int64) - grid_lo
    idx_c = np.clip(idx, -1, size - 1)
    cum = np.where(idx_c < 0, 0.0, cum_all[np.maximum(idx_c, 0)])
    if float(cum[0]) + (total - float(cum[-1])) > 0.25:
        raise RangeTooSmall("misses too much of the mass")
    eps_p += total - float(cum[-1])
    return cum, eps_x, eps_p


# the lattice shifts of one level: none, one shared shift (either sign), or
# free shifts with repeats and mixed signs
_LEVEL_SHIFTS = st.one_of(
    st.integers(2, 4).map(lambda a: [0] * a),
    st.tuples(st.integers(2, 4), st.integers(-6, 6).filter(bool)).map(lambda t: [t[1]] * t[0]),
    st.lists(st.integers(-4, 4), min_size=2, max_size=4),
)

# example-II's shape: geometric q = 2 on a dyadic pitch, one shift 2^(19 - j)
# per level, then levels that round to 0
_DYADIC_20 = [[0, 1 << (19 - j)] for j in range(20)] + [[0, 0]] * 3


@settings(max_examples=300, deadline=None)
@given(levels=st.lists(_LEVEL_SHIFTS, min_size=1, max_size=8),
       w=st.sampled_from([0.25, 0.1, 1.0 / 3.0, 2.0 ** -10]),
       pad=st.tuples(st.integers(1, 3), st.integers(1, 3)),
       cut=st.tuples(*[st.one_of(st.just(0), st.integers(1, 130))] * 2),
       twos=st.lists(st.integers(0, 4), min_size=8, max_size=8))
@example(levels=[[0, 0], [3, 3, 3], [-2, -2], [1, 1, -1, 1], [0, 0, 0], [-4, 4, 0],
                 [2, 2, 5, 2], [-1, -3, -1]], w=0.1, pad=(1, 1), cut=(0, 0), twos=[0] * 8)
@example(levels=[[-5, -5], [0, 1, 1], [4, 4, 4, 4], [-2, 3]], w=1.0 / 3.0, pad=(1, 1),
         cut=(0, 0), twos=[0] * 8)
# g = 8, 8, 4 over a translation by 12, then odd shifts drop it to 1
@example(levels=[[0, 8, 24], [-8, 16], [12, 12], [4, -4, 0], [0, 3], [6, -6]],
         w=0.25, pad=(1, 1), cut=(0, 0), twos=[0] * 8)
@example(levels=[[1, 3], [0, 1, 2], [-3, 3], [5, 5, 5], [0, 1]], w=0.1, pad=(1, 1),
         cut=(5, 8), twos=[4, 4, 3, 3, 2, 0, 0, 0])
@example(levels=[[0, 1], [0, 1]], w=0.25, pad=(1, 1), cut=(125, 0),
         twos=[3, 1, 0, 0, 0, 0, 0, 0])
@example(levels=_DYADIC_20, w=2.0 ** -10, pad=(1, 1), cut=(0, 0), twos=[0] * 8)
@example(levels=_DYADIC_20, w=2.0 ** -10, pad=(1, 1), cut=(10, 5), twos=[0] * 8)
def test_conv_fold_matches_two_path_oracle_bitwise(levels, w, pad, cut, twos):
    # values k w on a table base whose digit counts follow the rows.  The
    # first rows' shifts share factors 2^k, non-increasing with the level,
    # so the sublattice stride stays above 1 for a while and then drops.
    # The window reaches pad knots past the lattice hull, less cut percent
    # of the hull on each side: both sides give the same cum, eps_x and
    # eps_p, or both refuse the window
    twos = sorted(twos, reverse=True)
    levels = [[k << twos[i] for k in r] if i < len(twos) else r
              for i, r in enumerate(levels)]
    base = build_base({"kind": "table", "table": [len(r) for r in levels],
                       "then": {"kind": "constant", "q": 2}})
    dmap = DigitMap.custom_table([[k * w for k in r] for r in levels])
    lo_k, hi_k = sum(min(r) for r in levels), sum(max(r) for r in levels)
    span = hi_k - lo_k
    lo_k += span * cut[0] // 100 - pad[0]
    hi_k = max(hi_k - span * cut[1] // 100 + pad[1], lo_k + 1)
    x0, x1 = lo_k * w, hi_k * w
    try:
        cum, eps_x, eps_p = _two_path_conv(dmap, base, x0, x1, w, len(levels))
    except RangeTooSmall:
        with pytest.raises(RangeTooSmall):
            limit_cdf_conv(dmap, base, x0, x1, w, depth=len(levels))
        return
    g = limit_cdf_conv(dmap, base, x0, x1, w, depth=len(levels))
    assert np.array_equal(g.cum.view(np.int64), cum.view(np.int64))
    assert np.array_equal(np.array([g.eps_x, g.eps_p]).view(np.int64),
                          np.array([eps_x, eps_p]).view(np.int64))


def test_conv_envelope_covers_deep_truth(base3, tern):
    # proxy for the true law: full enumeration 12 levels deep, far beyond
    # the depth the pitch justifies; disagreement must fit in the slack
    g = limit_cdf_conv(tern, base3, -1.625, 1.625, 2.0 ** -10)
    proxy = EmpiricalCDF(value_vector(tern, base3, 3 ** 12))
    rng = np.random.default_rng(23)
    xs = rng.uniform(-1.6, 1.6, size=300)
    diff = np.max(np.abs(np.asarray(g.cdf(xs)) - np.asarray(proxy.cdf(xs))))
    # the proxy itself sits within ~3^-12 of the limit in horizontal terms
    assert diff <= g.vertical_slack() + 1e-3


def test_conv_window_guards(base2, vdc2):
    with pytest.raises(RangeTooSmall):
        limit_cdf_conv(vdc2, base2, 0.0, 0.1, 2.0 ** -10)
    # windows beyond the lattice hull [0, 1] are refused before the fold,
    # including one whose anchor floor(x0 / w) leaves int64
    for x0, x1, w in ((1.5, 2.5, 2.0 ** -10), (-3.0, -1.0, 2.0 ** -10),
                      (1e13, 1e13 + 0.002, 1e-6)):
        with pytest.raises(RangeTooSmall, match="misses the lattice hull"):
            limit_cdf_conv(vdc2, base2, x0, x1, w)
    # each byte check trips before its arrays exist: the window (finite,
    # infinite), one level's offsets, then lattice plus window
    for x1, w, depth in ((1.0, 2.0 ** -40, 5), (1e300, 1e-3, 5), (1.0, 1e-320, 5),
                         (2.0 ** -30, 2.0 ** -40, 5), (2.0 ** -20, 2.0 ** -26, 26)):
        with pytest.raises(ResourceLimit):
            limit_cdf_conv(vdc2, base2, 0.0, x1, w, depth=depth)
    with pytest.raises(ValueError):
        limit_cdf_conv(vdc2, base2, 1.0, 0.0, 0.25)
    with pytest.raises(ValueError):
        limit_cdf_conv(vdc2, base2, 0.0, 1.0, 0.25, depth=0)


def test_conv_peak_memory_within_byte_charge(base2, vdc2, geo_half, charges, peak_of):
    # the fold reuses two lattice buffers and the cumsum overwrites one of
    # them; then the window array and one of GridCDF's check masks exist beside
    # it.  The charge sums both stages, 16 bytes per lattice knot and 9 per
    # window knot, so it is within 1.5x the traced peak both for a window as
    # wide as the lattice and for one 64 lattices wide
    for dmap, x1, w in ((geo_half, 2.0, 2.0 ** -16), (vdc2, 64.0, 2.0 ** -12)):
        depth = choose_depth(dmap, base2, w)
        size = 1 + sum(max(round(v / w) for v in level_values(dmap, base2, j))
                       for j in range(depth))
        k_req = int(x1 / w) + 1
        peak, g = peak_of(limit_cdf_conv, dmap, base2, 0.0, x1, w)
        assert g.cum.size == k_req
        assert charges[-1] == 16 * size + 9 * k_req
        assert peak <= charges[-1] <= 1.5 * peak
        if dmap is geo_half:
            # window as wide as the lattice: a fold that allocated per level
            # would reach three lattice arrays
            assert peak < 3 * 8 * size


@pytest.mark.parametrize("q, n_t, n_x", [(2, 1 << 18, 1), (2, 1 << 12, 4096),
                                         (1 << 10, 1 << 12, 1)],
                         ids=["cf-tables", "kernel-tables", "level-tables"])
def test_invert_peak_memory_within_byte_charge(charges, peak_of, vdc2, q, n_t, n_x):
    # each case is dominated by one term of the charge: the rows x cols CF
    # tables, the kernel's rows x chunk tables, or one level's exponential
    # tables (1023 nonzero digit values)
    base = build_base({"kind": "constant", "q": q})
    xs = np.linspace(0.0, 1.0, n_x)
    peak, _ = peak_of(limit_cdf_invert, vdc2, base, xs, n_t=n_t, depth=2)
    assert peak <= max(charges) <= 1.5 * peak


def test_conv_monotone_in_range(base2, geo_half):
    g = limit_cdf_conv(geo_half, base2, -0.25, 2.25, 2.0 ** -12)
    assert np.all(np.diff(g.cum) >= 0.0)
    assert 0.0 <= g.cum[0] and g.cum[-1] <= 1.0 + 1e-12


# -- characteristic function ----------------------------------------------------------


def test_cf_factor_closed_forms(base2, base3, vdc2, tern):
    ts = np.linspace(-9.0, 9.0, 41)
    got = cf_factor(tern, base3, 2, ts)
    want = (1.0 + 2.0 * np.cos(ts / 9.0)) / 3.0
    assert np.max(np.abs(got - want)) <= 1e-15
    got2 = cf_factor(vdc2, base2, 1, ts)
    want2 = (1.0 + np.exp(1j * ts / 4.0)) / 2.0
    assert np.max(np.abs(got2 - want2)) <= 1e-15


def test_cf_product_telescopes(base2, vdc2):
    # prod_{j<J} (1 + e^{i t 2^-(j+1)})/2 is the CF of the uniform lattice
    # measure on {k 2^-J}: (e^{it} - 1) / (2^J (e^{i t 2^-J} - 1))
    J = 20
    ts = np.linspace(0.37, 11.0, 37)
    phi, bound, depth = cf_truncated(vdc2, base2, ts, depth=J)
    assert depth == J
    # e^{ix}-1 = 2i sin(x/2) e^{ix/2} keeps the tiny denominator accurate
    x = ts * 2.0 ** -J
    want = (np.sin(ts / 2.0) / (2.0 ** J * np.sin(x / 2.0))
            * np.exp(1j * (ts - x) / 2.0))
    assert np.max(np.abs(phi - want)) <= 1e-12
    # and it sits within the certified bound of the uniform-limit CF
    lim = (np.exp(1j * ts) - 1.0) / (1j * ts)
    assert np.max(np.abs(phi - lim)) <= bound
    assert bound <= cf_truncation_bound(vdc2, base2, J, 11.0) + 1e-18


def _cf_factor_complex_exp(dmap, base, j, t):
    # the complex-exponential form that cf_factor sums as cos/sin pairs
    vals = np.asarray(level_values(dmap, base, j), dtype=float)
    return np.exp(1j * np.multiply.outer(t, vals)).mean(axis=-1)


def test_cf_factor_matches_complex_exp(base2, base3, factorial_base, vdc2, tern,
                                       geo_half, skew):
    rng = np.random.default_rng(5)
    ts = np.concatenate((np.linspace(-2048.0, 2048.0, 4097),
                         rng.uniform(-2048.0, 2048.0, 4096), [0.0, -0.0, 1e-9, -1e-9]))
    assert np.any(ts == 0.0) and np.any(ts < 0.0)
    b4 = build_base({"kind": "constant", "q": 4})
    b5 = build_base({"kind": "constant", "q": 5})
    table = DigitMap.custom_table([(0.0, -0.75, 1.3), (-2.5, 0.0, 0.1)])
    cases = [(vdc2, base2), (vdc2, base3), (vdc2, b5), (vdc2, factorial_base),
             (tern, base3), (geo_half, base2), (skew, b4), (table, base3)]
    for dmap, base in cases:
        for j in (0, 1, 2, 7, 30):
            if dmap.depth is not None and j >= dmap.depth:
                continue
            got = cf_factor(dmap, base, j, ts)
            want = _cf_factor_complex_exp(dmap, base, j, ts)
            assert got.shape == ts.shape and got.dtype == complex
            assert np.max(np.abs(got - want)) <= 1e-15, (dmap, base, j)
            assert np.all(got[ts == 0.0] == 1.0)


def test_cf_product_telescopes_at_benchmark_scale(base2, vdc2):
    # the inversion grid of the benchmark: 2^16 cells up to t = 2048
    J = 50
    ts = np.linspace(0.0, 2048.0, (1 << 16) + 1)[1:]
    phi, bound, depth = cf_truncated(vdc2, base2, ts, depth=J)
    assert depth == J
    x = ts * 2.0 ** -J
    want = (np.sin(ts / 2.0) / (2.0 ** J * np.sin(x / 2.0))
            * np.exp(1j * (ts - x) / 2.0))
    assert np.max(np.abs(phi - want)) <= 1e-14
    lim = (np.exp(1j * ts) - 1.0) / (1j * ts)
    assert np.max(np.abs(phi - lim)) <= bound


def test_cf_truncated_auto_depth(base2, geo_half):
    ts = np.linspace(0.1, 10.0, 7)
    phi, bound, depth = cf_truncated(geo_half, base2, ts)
    assert bound <= 1e-12
    assert np.all(np.abs(phi) <= 1.0 + 1e-12)
    with pytest.raises(ValueError):
        cf_truncated(geo_half, base2, ts, depth=0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_cf_truncated_refuses_non_finite_t(base2, geo_half, bad):
    # an infinite t would first deepen the product to DEPTH_CAP
    for depth in (None, 3):
        with pytest.raises(ValueError, match="finite"):
            cf_truncated(geo_half, base2, [0.5, bad], depth=depth)


# -- inversion route -------------------------------------------------------------------


def test_invert_validations(base2, vdc2):
    xs = np.linspace(0.0, 1.0, 9)
    with pytest.raises(ValueError):
        limit_cdf_invert(vdc2, base2, xs, t_max=0.0)
    with pytest.raises(ValueError):
        limit_cdf_invert(vdc2, base2, xs, n_t=100)
    with pytest.raises(ValueError):
        limit_cdf_invert(vdc2, base2, xs, n_t=4)
    with pytest.raises(ValueError):
        limit_cdf_invert(vdc2, base2, [0.5, 0.2])
    with pytest.raises(ValueError):
        limit_cdf_invert(vdc2, base2, [])
    # NaN compares false both ways, so it would pass the sort check
    for pts in ([0.2, math.nan, 0.5], [math.nan], [0.2, math.inf]):
        with pytest.raises(ValueError, match="finite"):
            limit_cdf_invert(vdc2, base2, pts, n_t=64)
    for t_max in (math.inf, math.nan):
        with pytest.raises(ValueError, match="t_max"):
            limit_cdf_invert(vdc2, base2, xs, t_max=t_max, n_t=64)
    for q_hint in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="q_hint"):
            limit_cdf_invert(vdc2, base2, xs, n_t=64, q_hint=q_hint)
    # the nodes and tables are charged against BYTE_CAP before they exist:
    # 2^40 cells, and a level of 2^16 digit values whose exponential tables
    # at n_t = 2^17 would take gigabytes
    with pytest.raises(ResourceLimit, match="cells"):
        limit_cdf_invert(vdc2, base2, [0.5], n_t=1 << 40)
    wide = build_base({"kind": "constant", "q": 1 << 16})
    with pytest.raises(ResourceLimit, match="level 0"):
        limit_cdf_invert(vdc2, wide, [0.5], n_t=1 << 17)


def test_invert_step_semantics(base2, vdc2):
    inv = limit_cdf_invert(vdc2, base2, [0.25, 0.75], t_max=256.0, n_t=1 << 12,
                           q_hint=0.01)
    assert np.array_equal(inv.xs, [0.25, 0.75])       # values sit at the xs
    assert not inv.conditional
    assert np.all(np.diff(inv.values) >= 0.0)


def test_invert_conditional_without_hint(base2, vdc2):
    inv = limit_cdf_invert(vdc2, base2, [0.5], t_max=256.0, n_t=1 << 12)
    assert inv.conditional
    assert inv.pieces["smoothing_window"] == 0.0


def test_invert_uniform_midpoint(base2, vdc2):
    # the limit law is uniform on [0, 1]: F(1/2) = 1/2 well inside budget
    inv = limit_cdf_invert(vdc2, base2, [0.5], t_max=2048.0, n_t=1 << 15,
                           q_hint=1.0 / 2048.0)
    assert abs(inv.values[0] - 0.5) <= inv.envelope
    assert inv.envelope < 0.05


def test_invert_covers_table_whose_rows_refute_its_envelope(base2):
    # an all-zero tail envelope on 12 rows that still carry mass: the CF
    # depth must reach them, or level 0 alone answers F(0.25) = 1/2.  The
    # law is uniform on the 4096 atoms k / 4096
    rows = [(0.0, 2.0 ** -(j + 1)) for j in range(12)]
    zero = {"mean_coeff": 0.0, "mean_ratio": 0.5, "var_coeff": 0.0, "var_ratio": 0.25}
    dmap = DigitMap.custom_table(rows, tail=zero)
    xs = np.array([0.25, 0.5, 0.75])
    inv = limit_cdf_invert(dmap, base2, xs, q_hint=1.0 / 2048.0)
    exact = (np.floor(4096.0 * xs) + 1.0) / 4096.0
    assert np.max(np.abs(inv.values - exact)) <= inv.envelope
    _, _, rep = optimize_window(dmap, base2, 1 << 10, "A", ref=UniformCDF())
    assert rep.tau1 > 0.0 and not rep.conditional


def test_invert_agrees_with_conv(base3, tern):
    g = limit_cdf_conv(tern, base3, -1.625, 1.625, 2.0 ** -10)
    xs = (g.x0 + g.w * np.arange(g.cum.size))[:: 64]
    q = concentration(g, 1.0 / 1024.0)
    inv = limit_cdf_invert(tern, base3, xs, t_max=1024.0, n_t=1 << 14,
                           q_hint=q.hi)
    budget = inv.envelope + g.vertical_slack()
    assert np.max(np.abs(inv.values - np.asarray(g.cdf(xs)))) <= budget


def _invert_complex_exp(dmap, base, xs, t_max, n_t):
    # (values, quad) with the complex-exponential integrand Im(e^{-itx} phi/t)
    ts = np.linspace(0.0, t_max, n_t + 1)
    phi, _, depth = cf_truncated(dmap, base, ts[1:])
    mu = math.fsum(digit_stats(dmap, base, j).m for j in range(depth))
    integrand = (np.exp(-1j * np.multiply.outer(xs, ts[1:])) * (phi / ts[1:])).imag
    h = t_max / n_t
    g0 = mu - xs
    full = h * (0.5 * g0 + integrand[:, :-1].sum(axis=1) + 0.5 * integrand[:, -1])
    coarse = 2.0 * h * (0.5 * g0 + integrand[:, 1:-1:2].sum(axis=1) + 0.5 * integrand[:, -1])
    vals = 0.5 - full / math.pi
    quad = float(np.max(np.abs(vals - (0.5 - coarse / math.pi)))) / 3.0
    return np.maximum.accumulate(np.clip(vals, 0.0, 1.0)), quad


def test_invert_matches_complex_exp(base2, base3, vdc2, tern):
    for dmap, base, xs in ((vdc2, base2, np.linspace(0.03, 0.97, 16)),
                           (tern, base3, np.linspace(-1.55, 1.55, 16))):
        inv = limit_cdf_invert(dmap, base, xs, t_max=2048.0, n_t=1 << 12, q_hint=0.01)
        want, quad = _invert_complex_exp(dmap, base, xs, 2048.0, 1 << 12)
        assert np.max(np.abs(inv.values - want)) <= 1e-13
        assert abs(inv.pieces["quad"] - quad) <= 1e-15


def _dense_invert(dmap, base, xs, t_max, n_t, q_hint):
    """(values, envelope) of limit_cdf_invert by the dense kernel: the CF
    product by cf_truncated on every node, then n_x x n_t cos/sin pairs for
    Im(e^{-itx} phi/t).  The oracle of the two-level exponential tables."""
    ts = np.linspace(0.0, t_max, n_t + 1)
    phi, _, depth = cf_truncated(dmap, base, ts[1:])
    mu = math.fsum(digit_stats(dmap, base, j).m for j in range(depth))
    phi_over_t = phi / ts[1:]
    ang = np.multiply.outer(xs, ts[1:])
    integrand = np.cos(ang) * phi_over_t.imag - np.sin(ang) * phi_over_t.real
    h = t_max / n_t
    g0 = mu - xs
    full = h * (0.5 * g0 + integrand[:, :-1].sum(axis=1) + 0.5 * integrand[:, -1])
    coarse = 2.0 * h * (0.5 * g0 + integrand[:, 1:-1:2].sum(axis=1) + 0.5 * integrand[:, -1])
    vals = 0.5 - full / math.pi
    quad = float(np.max(np.abs(vals - (0.5 - coarse / math.pi)))) / 3.0
    mt, vt = _tail_pair(dmap, base, depth - 1)
    cf_int = (mt * t_max + (vt + mt * mt) * t_max * t_max / 4.0) / math.pi
    mono = np.maximum.accumulate(np.clip(vals, 0.0, 1.0))
    adjust = float(np.max(np.abs(mono - vals)))
    return mono, quad + cf_int + q_hint + 1.0 / t_max + adjust


_B2 = build_base({"kind": "constant", "q": 2})
_FAMILIES = {
    "radical-inverse": (DigitMap.radical_inverse(), _B2, (0.0, 1.0)),
    "symmetric-ternary": (DigitMap.symmetric_ternary(),
                          build_base({"kind": "constant", "q": 3}), (-1.5, 1.5)),
    "geometric": (DigitMap.geometric(0.5, (0.0, 1.0)), _B2, (0.0, 2.0)),
}
_TABLE_ROW = st.lists(st.one_of(st.just(0.0), st.floats(-1.0, 1.0)), min_size=2, max_size=4)


@st.composite
def _invert_input(draw):
    """(dmap, base, xs): a family, or a custom table on a table base whose
    digit counts follow its rows; sorted xs, unevenly spaced and repeated,
    over the law's support and past it."""
    name = draw(st.sampled_from([*_FAMILIES, "table"]))
    if name == "table":
        rows = draw(st.lists(_TABLE_ROW, min_size=1, max_size=5))
        base = build_base({"kind": "table", "table": [len(r) for r in rows],
                           "then": {"kind": "constant", "q": 2}})
        dmap = DigitMap.custom_table(rows)
        lo = sum(min(r) for r in rows)
        hi = sum(max(r) for r in rows)
    else:
        dmap, base, (lo, hi) = _FAMILIES[name]
    pts = draw(st.lists(st.floats(lo - 0.25, hi + 0.25), min_size=1, max_size=6))
    reps = draw(st.lists(st.integers(1, 3), min_size=len(pts), max_size=len(pts)))
    return dmap, base, np.repeat(np.sort(pts), reps)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=_invert_input(), n_t=st.sampled_from([8, 1 << 11, 1 << 16]),
       t_max=st.sampled_from([64.0, 512.0, 2048.0]))
@example(case=(DigitMap.radical_inverse(), _B2, np.array([0.1, 0.1, 0.35, 0.9])),
         n_t=1 << 16, t_max=2048.0)
@example(case=(DigitMap.custom_table([(0.0, 0.5), (0.25, 0.0, -0.75), (0.0, 0.125)]),
               build_base({"kind": "periodic", "pattern": [2, 3]}),
               np.array([-0.8, -0.8, -0.1, 0.3, 0.3, 0.3, 0.9])),
         n_t=1 << 11, t_max=512.0)
def test_invert_tables_match_dense_oracle(case, n_t, t_max):
    # n_t = 8, 2^11, 2^16 give (rows, cols) = (3, 4), (33, 64), (257, 256)
    dmap, base, xs = case
    inv = limit_cdf_invert(dmap, base, xs, t_max=t_max, n_t=n_t, q_hint=0.01)
    want, env = _dense_invert(dmap, base, xs, t_max, n_t, 0.01)
    assert np.max(np.abs(inv.values - want)) <= 1e-12
    assert inv.envelope == pytest.approx(env, rel=1e-9)
    again = limit_cdf_invert(dmap, base, xs, t_max=t_max, n_t=n_t, q_hint=0.01)
    assert np.array_equal(again.values.view(np.int64), inv.values.view(np.int64))
    assert again.envelope == inv.envelope


def test_invert_chunks_match_one_point_calls(base2, vdc2):
    # at n_t = 2^16 a chunk holds 2^20 // (257 + 256) = 2044 points, so the
    # first call runs two chunks
    xs = np.linspace(0.05, 0.95, 2050)
    inv = limit_cdf_invert(vdc2, base2, xs, t_max=2048.0, n_t=1 << 16, q_hint=0.01)
    for i in (0, 2043, 2044, 2049):
        one = limit_cdf_invert(vdc2, base2, xs[i:i + 1], t_max=2048.0, n_t=1 << 16,
                               q_hint=0.01)
        assert abs(one.values[0] - inv.values[i]) <= 1e-15


def test_invert_envelope_pieces_sum(base2, geo_half):
    inv = limit_cdf_invert(geo_half, base2, np.linspace(-0.2, 2.2, 33),
                           t_max=512.0, n_t=1 << 13, q_hint=0.02)
    assert inv.envelope == pytest.approx(sum(inv.pieces.values()), rel=1e-12)


# -- cross-module variance bookkeeping ---------------------------------------------


def test_tail_plus_partials_cover_total_variance(base2, geo_half, vdc2):
    from cantorlab import tail_sums

    for dmap in (geo_half, vdc2):
        for L in (3, 8):
            partial = math.fsum(digit_stats(dmap, base2, j).s2 for j in range(L + 1))
            _, vt = tail_sums(dmap, base2, L)
            total = math.fsum(digit_stats(dmap, base2, j).s2 for j in range(200))
            assert partial + vt >= total - 1e-15
