"""Limit laws: lattice convolution against exact enumeration, CF products
against closed forms, inversion against the convolution route."""

import math
import os
import sys
import threading
from fractions import Fraction

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
    concentration,
    digit_stats,
    level_values,
    limit_cdf_conv,
    limit_cdf_invert,
    optimize_window,
    tail_sums,
    value_vector,
)
from cantorlab import errors, qadditive
from cantorlab.errors import BYTE_CAP, AlphabetMismatch
from cantorlab.experiments import PRESET_NAMES, preset
from cantorlab import limitlaw
from cantorlab.limitlaw import (CARRY_BITS, CHUNK, DEPTH_CAP, GROUP, TINY_ANGLE, _centred,
                               _cf_bound, _cf_depth, _cf_table, _conv_depth, _conv_envelope, _fold,
                               _group_bytes, _group_factor, _tails, WINDOW_MIN)


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


def _knot_index_whole(g, x):
    """knot_index on the whole array at once: the oracle of its chunks."""
    m = np.array(x, dtype=float, ndmin=1)
    m = np.clip(np.rint((m - g.x0) / g.w), -1.0, g.cum.size)
    k = m.astype(np.int64)
    m = m * g.w + g.x0
    return k - (m >= x), m == x


@pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, 2 * CHUNK + 1])
def test_knot_index_chunks_match_whole_array(n):
    # a non-dyadic pitch, x on the knots, between them, on their float
    # neighbours and past both ends of the grid, across the chunk seams
    g = GridCDF(x0=-0.3, w=1.0 / 3000.0, cum=np.linspace(0.0, 1.0, 5001), eps_x=0.0, eps_p=0.0)
    rng = np.random.default_rng(n)
    knots = g.x0 + g.w * rng.integers(-3, 5004, size=n)
    x = np.sort(np.select([rng.random(n) < 0.4, rng.random(n) < 0.5],
                          [knots, np.nextafter(knots, rng.choice([-np.inf, np.inf], size=n))],
                          rng.uniform(-0.4, 1.4, size=n)))
    k, on = g.knot_index(x)
    want_k, want_on = _knot_index_whole(g, x)
    assert k.dtype == np.int64 and on.dtype == bool
    assert np.array_equal(k, want_k) and np.array_equal(on, want_on)
    # a scalar reads as one value, a 2-d array keeps its shape
    assert [a.shape for a in g.knot_index(float(x[0]))] == [(1,), (1,)]
    k2, on2 = g.knot_index(x[:n - n % 2].reshape(2, -1) if n > 1 else x.reshape(1, 1))
    assert np.array_equal(k2.reshape(-1), k[:k2.size]) and np.array_equal(on2.reshape(-1), on[:k2.size])


@pytest.mark.parametrize("k", [1, 2, CHUNK, CHUNK + 1, CHUNK + 2, 2 * CHUNK + 3])
def test_even_steps_matches_whole_difference(k):
    # dyadic grids have every float step w, non-dyadic ones seldom; the last
    # has steps w up to knot CHUNK + 5, where the knots cross 2^13
    # and lose their last bit, so only its second chunk can find a step off w
    w13 = 2.0 ** -26 + 2.0 ** -40
    for x0, w in ((-1.5, 2.0 ** -6), (0.0, 2.0 ** -20), (0.1, 0.3), (-0.3, 1.0 / 3000.0),
                  (2.0 ** 13 - (CHUNK + 5) * w13, w13)):
        g = GridCDF(x0, w, np.linspace(0.0, 1.0, k), 0.0, 0.0)
        assert g.even_steps == bool(np.all(np.diff(g.knots) == w)), (x0, w)


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
    # a cache miss scans its k - m - 1 window starts CHUNK at a time, in one
    # buffer, so a grid of 2^20 knots charges and takes one chunk (9 bytes a
    # start, numpy's overhead included), not 8 bytes a knot; the max over the
    # chunks is the float of one scan
    k = 1 << 20
    cum = np.cumsum(np.random.default_rng(3).random(k))
    cum /= cum[-1]
    for m in (k // 64, k // 4, k - 2 - CHUNK // 2):
        g = GridCDF(0.0, 1.0, cum, 0.0, 0.0)
        peak, got = peak_of(g.window_sup, m + 0.5)
        assert charges[-1] == 9 * min(CHUNK, k - m - 1)
        assert peak <= charges[-1] <= 1.5 * peak, m
        want = max(float(cum[m]), float(np.max(cum[m + 1:] - cum[:k - m - 1])))
        assert np.float64(got).view(np.int64) == np.float64(want).view(np.int64), m


def test_vertical_slack_formula():
    g = _toy_grid(eps_x=0.05, eps_p=0.01)
    assert g.vertical_slack() == 3.0 * 0.01 + g.window_sup(0.2)
    assert _toy_grid(eps_x=0.0, eps_p=0.007).vertical_slack() == 0.007


# -- truncation depth --------------------------------------------------------------


def test_choose_depth_consumes_bare_table(base2):
    rows = [(0.0, 2.0 ** -j) for j in range(6)]
    dmap = DigitMap.custom_table(rows)
    assert _conv_depth(dmap, _tails(dmap, base2), w=2.0 ** -12) == 6
    # a coarse lattice refuses to pay for rows it cannot resolve
    assert _conv_depth(dmap, _tails(dmap, base2), w=0.25) < 6


def test_choose_depth_deepens_with_finer_grids(base2, geo_half):
    d_coarse = _conv_depth(geo_half, _tails(geo_half, base2), w=2.0 ** -6)
    d_fine = _conv_depth(geo_half, _tails(geo_half, base2), w=2.0 ** -20)
    assert d_coarse < d_fine


def _table_tail_loop(stats, L):
    """A table's tails beyond level L as one ascending loop over its rows."""
    mt = vt = 0.0
    for st in stats[L + 1:]:
        mt += abs(st.m)
        vt += st.s2
    return mt, vt


@pytest.mark.parametrize("tail", [None, {"mean_coeff": 0.0, "mean_ratio": 0.5,
                                         "var_coeff": 0.0, "var_ratio": 0.5}],
                         ids=["bare", "enveloped"])
def test_depth_searches_sum_table_rows_once(base2, monkeypatch, tail):
    # 512 rows of uneven magnitudes, so that each order of addition rounds
    # its own way; both searches run to the table's depth at these settings
    rng = np.random.default_rng(41)
    rows = [(0.0, (1.0 + float(rng.random())) * (j + 1.0) ** -2) for j in range(512)]
    dmap = DigitMap.custom_table(rows, tail=tail)
    stats = [digit_stats(dmap, base2, j) for j in range(512)]
    calls = []

    def counted(dmap, base, j):
        calls.append(j)
        return digit_stats(dmap, base, j)

    monkeypatch.setattr(qadditive, "digit_stats", counted)
    assert _conv_depth(dmap, _tails(dmap, base2), w=2.0 ** -20) == 512
    assert len(calls) == 512
    calls.clear()
    assert _cf_depth(dmap, _tails(dmap, base2), 10.0, None) == 512
    assert len(calls) == 512
    # a whole call sums them once too: the bound or envelope at the chosen
    # depth reads the tails of the depth search
    for run in (lambda: cf_truncated(dmap, base2, [10.0]),
                lambda: limit_cdf_invert(dmap, base2, [0.0], t_max=10.0, n_t=8),
                lambda: limit_cdf_conv(dmap, base2, -1.0, 4.0, 2.0 ** -6)):
        calls.clear()
        run()
        assert len(calls) == 512
    tails = _tails(dmap, base2)
    for L in range(-1, 513):
        want = np.array(_table_tail_loop(stats, L))
        assert np.array_equal(np.array(tails(L)).view(np.int64), want.view(np.int64)), L
        if tail is not None and L >= 0:
            assert np.array_equal(np.array(tail_sums(dmap, base2, L)).view(np.int64),
                                  want.view(np.int64)), L


def test_depth_searches_derive_alphabet_extremes_once(monkeypatch, base2, base3, base23,
                                                      factorial_base, geo_half, poly15, skew):
    # the geometric and polynomial families' tails read the extremes of g
    # over the base's alphabet sizes: a map derives them once per base and
    # keeps them, so tail_sums equals a fresh map's bit for bit at every L,
    # and a depth search derives them once
    derive, calls = qadditive.DigitMap._g_extremes, []

    def counted(self, base):
        calls.append((self, base))
        return derive(self, base)

    monkeypatch.setattr(qadditive.DigitMap, "_g_extremes", counted)
    poly3 = DigitMap.polynomial(2.0, (0.0, 1.0, 3.0))
    for dmap, base in ((geo_half, base2), (poly15, base2), (poly3, base3), (poly3, base23),
                       (skew, base23), (skew, factorial_base)):
        kept = DigitMap(dmap.descriptor)
        for L in range(0, 400, 7):
            got, want = tail_sums(kept, base, L), tail_sums(DigitMap(dmap.descriptor), base, L)
            assert np.array_equal(np.array(got).view(np.int64), np.array(want).view(np.int64))
        assert sum(m is kept for m, _ in calls) == 1
    calls.clear()
    for dmap, base, w in ((DigitMap.skewed_polyweight(), build_base({"kind": "constant", "q": 4}),
                           2.0 ** -15), (DigitMap.geometric(0.5, (0.0, 1.0)), base2, 2.0 ** -20)):
        assert _conv_depth(dmap, _tails(dmap, base), w) > 20
        assert _cf_depth(dmap, _tails(dmap, base), 2048.0, None) > 20
        assert len(calls) == 1 and calls.pop()[0] is dmap
    # a refusal is not kept: a finite digit table on an unbounded base
    for _ in range(2):
        with pytest.raises(AlphabetMismatch):
            tail_sums(poly15, factorial_base, 3)


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
    eps_x, eps_p = _conv_envelope(_tails(dmap, base), w, depth)
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


def _fold_oracle(levels, size, origin):
    """The fold a whole level at a time: the source scaled by 1/a, the first
    shift copied and the edges zeroed, then each other shift added in digit
    order.  The oracle of the chunked fold and of its pair added straight
    into the destination."""
    src, dst = np.zeros(size), np.zeros(size)
    src[origin] = 1.0
    g = 0
    for o in levels:
        g = math.gcd(g, *o)
        a, b = src[origin % g::g], dst[origin % g::g]
        n = a.size
        if len(o) > 1:
            a *= 1.0 / len(o)
        for i, s in enumerate(o):
            s //= g
            lo, hi = max(s, 0), n + min(s, 0)
            if i:
                b[lo:hi] += a[lo - s:hi - s]
            else:
                b[lo:hi] = a[lo - s:hi - s]
                b[:lo] = b[hi:] = 0.0
        src, dst = dst, src
    return src


_FOLD_SIZES = [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1]


@st.composite
def _fold_input(draw, sizes=st.one_of(st.integers(1, 400), st.sampled_from(_FOLD_SIZES))):
    """(levels, size, origin): 1 to 8 shifts of either sign and 0, repeated,
    at a stride k that divides f, so that the gcd falls by 2, 3, 4, 6 or 12
    from one level to the next or stays above 1 to the end; at stride 1 also
    shifts as long as the lattice.  Before them, optionally, levels {0, f
    3^i, 2 f 3^i} spread the mass over most of the lattice, so that every
    chunk seam sees it.  The size is drawn from sizes."""
    size = draw(sizes)
    origin = draw(st.integers(0, size - 1))
    f = draw(st.sampled_from([1, 2, 3, 4, 6, 12]))
    levels = []
    if draw(st.booleans()):
        i = 0
        while f * (3 ** (i + 1) - 1) < size:
            levels.append([0, f * 3 ** i, 2 * f * 3 ** i])
            i += 1
    far = sorted({v for v in (CHUNK - 1, CHUNK, CHUNK + 1, size // 2, size - 1, size)
                  if 0 < v <= size} | {1})

    def level(k):
        shift = st.integers(-4, 4).map(lambda s: max(-size, min(size, s * k)))
        if k == 1:
            shift = st.one_of(shift, st.sampled_from(far), st.sampled_from(far).map(lambda s: -s))
        return st.lists(shift, min_size=1, max_size=8).filter(any)

    strides = st.sampled_from([k for k in (1, 2, 3, 4, 6, 12) if f % k == 0])
    levels += draw(st.lists(strides.flatmap(level), min_size=1, max_size=4))
    return levels, size, origin


@settings(max_examples=150, deadline=None)
@given(case=_fold_input())
# regimeA-skewed's shape [0, 0, 1, 1] over two chunk seams
@example(case=([[0, 1, 3]] * 8 + [[0, 0, 1, 1]] * 3, 2 * CHUNK + 1, CHUNK - 2))
# the pair's ranges apart, with a gap of one knot, past one seam
@example(case=([[0, 3, 6]] * 9 + [[-2, CHUNK, 1]], CHUNK + 1, 7))
# g = 2 on a level one knot wider than a chunk, then one shift alone
@example(case=([[0, 2, 4]] * 9 + [[CHUNK, -2, 2]], 2 * CHUNK + 1, 0))
@example(case=([[0, 1]] * 16 + [[5]], CHUNK + 1, 3))
# shifts that straddle a seam, the second pair shift the lower
@example(case=([[0, 1, 2]] * 10 + [[CHUNK - 1, -1, 3, -1]], 2 * CHUNK + 1, 40000))
# levels of 2, 4, 6 and 8 digits, each a power of two times 1 or 3, and single shifts
@example(case=([[0, 1], [3], [0, 1, 2, 3], [0, 0, 1, 2, 2, 5], [-1], [0, 1, 2, 3, 4, 5, 6, 7]] * 3,
               200, 60))
@example(case=([[0, 1, 2, 3, 4, 5, 6, 7]] * 5 + [[0, 2, 2, 4, 6, 8]] * 4, CHUNK + 1, 9))
# past the carry limit (prod a >= 2^1021): 600 four-digit levels, 400 six-digit
# ones, 10 two-digit ones carried while 660 three-digit ones take the masses
# below 2^-1022, and 515 four-digit levels of the wide path
@example(case=([[0, 0, 1, 1]] * 600, 601, 0))
@example(case=([[0, 1, 2, 3, 4, 5]] * 400, 2001, 0))
@example(case=([[0, 1]] * 10 + [[0, 1, 2]] * 660, 1400, 0))
@example(case=([[0, 0, 1, 1]] * 515 + [[0, 3, CHUNK, 1]], CHUNK + 600, 0))
# levels that lower the gcd g to g' = g / r write the compact law by residue
# class: r = 2, 3 (origin % 3 = 1, origin % 1 = 0, three digits), 6 and 2^16,
# the last with three classes that hold shifts and the rest zeroed at once
@example(case=([[0, 2, 4], [0, 1]], 20, 3))
@example(case=([[0, 3, -3], [1, 0, 2]], 30, 10))
@example(case=([[6, 0, 12], [0, 1, 5]], 61, 7))
@example(case=([[0, 1 << 16], [0, 1, 2]], (1 << 17) + 3, 5))
# 12 -> 4 with origin % 12 = 9 and origin % 4 = 1, so old knot k is new knot 2 + 3 k
@example(case=([[0, 12, 24], [4, 0, -4, 8], [0, 4]], 80, 33))
# all shifts even: the fold ends at g = 2 and expands the law once
@example(case=([[0, 4, 8], [2, 0], [0, 2, 6]], 50, 11))
# 4 -> 2 with every shift in one residue class; the other class stays 0
@example(case=([[0, 4, 8], [2, 6, -2], [0, 1]], 60, 20))
# the carry limit crossed on a level of three digits that lowers g from 2 to 1
@example(case=([[0, 2]] * 1020 + [[0, 1, 3]], 2044, 0))
# limit-routes' geometric op: g halves at each of 21 levels, 2^21 knots
@example(case=([[0, 1 << (20 - j)] for j in range(21)], 1 << 21, 0))
def test_fold_matches_whole_level_oracle_bitwise(case):
    # the fold carries 1/a's powers of two as one exponent e
    levels, size, origin = case
    got, e = _fold(levels, size, origin)
    got *= 2.0 ** -e
    want = _fold_oracle(levels, size, origin)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_fold_carries_powers_of_two_below_the_limit():
    # 2^e comes out of the fold whole while prod a < 2^CARRY_BITS, and the
    # level that would reach it scales the masses back
    n = CARRY_BITS - 1                              # 2^n < 2^CARRY_BITS <= 2^(n + 1)
    n6 = int(CARRY_BITS / math.log2(6))             # 6^n6 < 2^CARRY_BITS <= 6^(n6 + 1)
    assert 6 ** n6 < 2 ** CARRY_BITS <= 6 ** (n6 + 1)
    six = [[0, 1, 2, 3, 4, 5]]
    for levels, e_want in (([[0, 1]] * n, n), ([[0, 1]] * (n + 1), 0), (six * n6, n6),
                           (six * (n6 + 1), 0), ([[0, 1, 2]] * 3 + [[7]], 0)):
        got, e = _fold(levels, len(levels) * 5 + 8, 0)
        assert e == e_want
        want = _fold_oracle(levels, got.size, 0)
        assert np.array_equal((got * 2.0 ** -e).view(np.int64), want.view(np.int64))


def _fold_on(cpus, levels, size, origin):
    """_fold with the process's affinity mask read as cpus CPUs, the GIL
    handed between threads every microsecond."""
    interval = sys.getswitchinterval()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(limitlaw, "_cpus", lambda: cpus)
        sys.setswitchinterval(1e-6)
        try:
            return _fold(levels, size, origin)
        finally:
            sys.setswitchinterval(interval)


# skewed-q4's shape: levels [0, s, 2s, 2s] whose s narrows to 1, then [0, 0, 1, 1]
_SKEWED = [[0, s, 2 * s, 2 * s] for s in (1 << 14, 1 << 12, 1 << 10, 256, 64, 16, 4, 1)]
_SKEWED += [[0, 0, 1, 1]] * 4
# symmetric ternary: shifts of both signs, g = 1 from the first level
_TERNARY = [[-1, 0, 1]] + [[-(3 ** k), 0, 3 ** k] for k in range(8, -1, -1)] + [[-1, 0, 1]] * 2
# the halo 10002 > 2^16 / 16 until the last level, which alone runs in windows
_LAST = [[0, 1, 5000], [0, 1, 5000], [0, 2]]
# windows clipped at both lattice ends: the mass reaches knots 0 and 2^17
_ENDS = [[-(1 << 15), 0, 1 << 15]] * 2 + [[-1, 0, 1]] * 3


@st.composite
def _split_input(draw):
    """_fold_input at sizes of two to four CHUNK runs, led half the time by a
    level [0, 1] that takes g to 1 at once, so that more levels can run in
    windows."""
    levels, size, origin = draw(_fold_input(st.integers(2 * CHUNK + 1, 4 * CHUNK + 3)))
    return [[0, 1]] * draw(st.integers(0, 1)) + levels, size, origin


@settings(max_examples=40, deadline=None)
@given(case=_split_input())
@example(case=(_SKEWED, 2 * CHUNK + 1, 40000))
@example(case=(_SKEWED, 4 * CHUNK + 3, 3 * CHUNK - 100))
@example(case=(_TERNARY, 2 * CHUNK + 1, CHUNK))
@example(case=(_TERNARY, 4 * CHUNK + 3, 2 * CHUNK + 1))
# a level whose shifts are all negative: its reach goes to the right-hand halo only
@example(case=([[0, 1, 2]] * 9 + [[-7, -3]] + [[0, 1]] * 2, 2 * CHUNK + 1, CHUNK - 9000))
# the carry limit crossed after the split (4^511 >= 2^1021), mass across the seam
@example(case=([[0, 0, 1, 1]] * 515, 2 * CHUNK + 1, CHUNK - 300))
@example(case=(_LAST, 2 * CHUNK + 1, CHUNK - 9000))
@example(case=(_ENDS, 2 * CHUNK + 1, CHUNK))
# g = 2 to the end: windows on the sublattice, expanded once after the gather
@example(case=([[0, 2, 4]] * 10 + [[-6, 2]], 4 * CHUNK + 6, 2 * CHUNK + 1))
# more windows than CPUs: 8 windows on 2 CPUs (and on 1 and 4, 9 on 3), and
# 3 windows on 1 CPU, folded in turn on the calling thread
@example(case=(_SKEWED, 8 * CHUNK, 3 * CHUNK + 5))
@example(case=(_TERNARY, 3 * CHUNK, CHUNK + 7))
def test_fold_split_matches_oracle_and_one_run_bitwise(case):
    # each window's knots take the same sources in the same digit order as
    # in one array, for any count of windows and any dealing of them to
    # threads (the lattices give 3 to 9 windows on 1 to 4 CPUs)
    levels, size, origin = case
    n = limitlaw._fold_split(levels, size, origin)[0]
    one, e_one = _fold(levels, size, origin, (n, len(levels), [(0, n)], 0, 0))
    want = _fold_oracle(levels, size, origin)
    assert np.array_equal((one * 2.0 ** -e_one).view(np.int64), want.view(np.int64))
    for cpus in (1, 2, 3, 4):
        got, e = _fold_on(cpus, levels, size, origin)
        assert e == e_one
        assert np.array_equal(got.view(np.int64), one.view(np.int64)), cpus


def test_fold_split_rule():
    # windows: where each of the c CPUs gets a CHUNK of knots, the fewest of
    # at most CHUNK knots whose count is a multiple of c, none shorter than
    # WINDOW_MIN; otherwise, or where no level admits their halo,
    # thread_parts' one run per CPU, so the fold never takes more threads
    # than thread_parts gives it.  The split level is the first from which
    # g holds and the remaining shifts' positive parts, in units of g, sum
    # to at most 1/16 of a run
    geo = [[0, 1 << (19 - j)] for j in range(20)]
    wide = [[0, 1], [0, 1, 3000]]       # halo 3001: above 1/16 of 2^15, within 1/16 of 2^16
    with pytest.MonkeyPatch.context() as mp:
        for cpus, levels, size, want in (
                # n = 2 CHUNK + 1 on two CPUs: 4 windows would be shorter
                # than WINDOW_MIN, so 2 runs
                (2, _SKEWED, 2 * CHUNK + 1, (8, 2, 4, 0)),
                (2, _TERNARY, 2 * CHUNK + 1, (3, 2, 1095, 1095)),
                (4, _TERNARY, 4 * CHUNK + 3, (3, 4, 1095, 1095)),
                (2, [[0, 1, 2]] * 9 + [[-7, -3]] + [[0, 1]], 2 * CHUNK + 1, (0, 2, 19, 7)),
                (2, _LAST, 2 * CHUNK + 1, (2, 2, 2, 0)),
                (4, _LAST, 4 * CHUNK + 3, (2, 4, 2, 0)),
                (4, _ENDS, 2 * CHUNK + 1, (3, 2, 2, 2)),
                # g = 2 to the end: the stride and halo are in units of it
                (2, [[0, 6, 2]] * 3, 4 * CHUNK + 6, (0, 2, 9, 0)),
                (2, [[0, 6, 2]] * 3, 6 * CHUNK, (0, 4, 9, 0)),
                # skewed-q4's lattice at pitch 2^-15: 4 windows of 43,296 on
                # two CPUs; on three or five, fewer than a CHUNK a CPU, so
                # thread_parts' 2 runs
                (2, _SKEWED, 173184, (8, 4, 4, 0)),
                (3, _SKEWED, 173184, (8, 2, 4, 0)),
                (5, _SKEWED, 173184, (8, 2, 4, 0)),
                (3, _SKEWED, 4 * CHUNK + 3, (8, 6, 4, 0)),
                # WINDOW_MIN: 4 windows of 40,960 knots; one knot fewer, 2 runs
                (2, _SKEWED, 4 * WINDOW_MIN, (8, 4, 4, 0)),
                (2, _SKEWED, 4 * WINDOW_MIN - 1, (8, 2, 4, 0)),
                # g falls at the last level, so no level runs in windows
                (4, geo, 1 << 20, (20, 1, 0, 0)),
                # n = 2 CHUNK - 1 keeps one loop; n = 2 CHUNK and 2 CHUNK + 1
                # take 2 runs on two CPUs
                (2, _SKEWED, 2 * CHUNK - 1, (12, 1, 0, 0)),
                (2, _SKEWED, 2 * CHUNK, (8, 2, 4, 0)),
                (4, _SKEWED, 2 * CHUNK - 1, (12, 1, 0, 0)),
                # one CPU: ceil(n / CHUNK) windows, folded in turn
                (1, _SKEWED, 2 * CHUNK - 1, (12, 1, 0, 0)),
                (1, _SKEWED, 2 * CHUNK, (8, 2, 4, 0)),
                (1, _SKEWED, 2 * CHUNK + 1, (8, 3, 4, 0)),
                (1, _SKEWED, 4 * CHUNK + 3, (8, 5, 4, 0)),
                # 16 CPUs: below 16 CHUNK knots, thread_parts' runs; from
                # there 16 windows of CHUNK, and past 48 CHUNK 64 of 49,152
                (16, _SKEWED, 2 * CHUNK, (8, 2, 4, 0)),
                (16, _SKEWED, 4 * CHUNK + 3, (8, 4, 4, 0)),
                (16, _SKEWED, 16 * CHUNK, (8, 16, 4, 0)),
                (16, _SKEWED, 48 * CHUNK + 1, (8, 64, 4, 0)),
                # no level admits the windows' halo: one run per CPU, and
                # with one CPU, one loop
                (2, wide, 173184, (0, 2, 3001, 0)),
                (4, wide, 2 * 173184, (0, 4, 3001, 0)),
                (1, wide, 2 * CHUNK + 1, (2, 1, 0, 0))):
            mp.setattr(limitlaw, "_cpus", lambda: cpus)
            n, i, runs, hl, hr = limitlaw._fold_split(levels, size, 0)
            assert (i, len(runs), hl, hr) == want, (cpus, levels[:2], size)
            # the runs tile range(n) in order, their lengths one apart
            assert [c0 for c0, _ in runs[1:]] == [c1 for _, c1 in runs[:-1]]
            assert runs[0][0] == 0 and runs[-1][1] == n
            lengths = {c1 - c0 for c0, c1 in runs}
            assert max(lengths) - min(lengths) <= 1
            # one loop, thread_parts' runs, or windows on thread_parts' threads
            parts = limitlaw.thread_parts(n, CHUNK)
            assert runs in ([(0, n)], parts) or (
                len(runs) % cpus == 0 and len(parts) == cpus
                and WINDOW_MIN <= min(lengths) and max(lengths) <= CHUNK)
            assert min(cpus, len(runs)) <= len(parts)


class _RunFailed(Exception):
    pass


@pytest.mark.parametrize("failing", [[0], [2], [1, 3], [3, 2], [7]])
def test_fold_split_reraises_first_failure_and_joins(monkeypatch, failing):
    # 8 windows of CHUNK on 4 threads, two in turn on each: a window that raises
    # hands its exception to the caller, the first in window order when
    # several do, and only after every thread has joined; the window after
    # it on its thread does not run, and no window runs twice
    fold_run, made, ran = limitlaw._fold_run, [], []

    def flaky(a, b, rest):
        run, i = fold_run(a, b, rest), len(made)
        made.append(i)

        def job():
            ran.append(i)
            run()
            if i in failing:
                raise _RunFailed(i)
        return job

    monkeypatch.setattr(limitlaw, "_fold_run", flaky)
    monkeypatch.setattr(limitlaw, "_cpus", lambda: 4)
    before = threading.active_count()
    with pytest.raises(_RunFailed) as err:
        _fold(_SKEWED, 8 * CHUNK, 5)
    assert made == list(range(8))
    assert err.value.args == (min(failing),)
    assert sorted(ran) == [i for i in range(8) if not (i % 2 and i - 1 in failing)]
    assert threading.active_count() == before


def _counted_threads(monkeypatch):
    starts = []

    class Counted(threading.Thread):
        def start(self):
            starts.append(1)
            super().start()

    monkeypatch.setattr(limitlaw.threading, "Thread", Counted)
    return starts


def test_fold_threads_follow_affinity_mask(monkeypatch, skew):
    # a splitting lattice starts min(CPUs, windows) - 1 threads, on the
    # process's own mask; run once more under `taskset -c 0` (CI does), and
    # with the mask read as one CPU, none starts
    starts = _counted_threads(monkeypatch)
    cpus = limitlaw._cpus()
    windows = len(limitlaw._fold_split(_SKEWED, 4 * CHUNK + 3, 5)[2])
    got, _ = _fold(_SKEWED, 4 * CHUNK + 3, 5)
    assert len(starts) == min(cpus, windows) - 1
    # skewed-q4 at limit-routes' pitch 2^-15: 173,184 lattice knots, in 3
    # windows on one CPU and 4 on two; three CPUs or more would get less
    # than a CHUNK each, so thread_parts' 2 runs
    starts.clear()
    base4 = build_base({"kind": "constant", "q": 4})
    g = limit_cdf_conv(skew, base4, 0.0, 5.5, 2.0 ** -15)
    assert g.lattice == 173184 and g.depth == _conv_depth(skew, _tails(skew, base4), 2.0 ** -15)
    assert g.fold_runs == {1: 3, 2: 4}.get(cpus, 2)
    assert len(starts) == min(cpus, g.fold_runs) - 1
    starts.clear()
    monkeypatch.setattr(limitlaw, "_cpus", lambda: 2)
    assert limit_cdf_conv(skew, base4, 0.0, 5.5, 2.0 ** -15).fold_runs == 4
    assert len(starts) == 1
    starts.clear()
    monkeypatch.setattr(limitlaw, "_cpus", lambda: 1)
    again, _ = _fold(_SKEWED, 4 * CHUNK + 3, 5)
    assert not starts and np.array_equal(again.view(np.int64), got.view(np.int64))


def test_fold_on_one_cpu_windows_skewed_q4_in_turn(monkeypatch, skew):
    # one CPU: skewed-q4's 173,184 knots go on from level 18 in 3 windows of
    # 57,728, folded one after another on the calling thread, and cum,
    # eps_x and eps_p are those of the one loop bit for bit
    starts = _counted_threads(monkeypatch)
    monkeypatch.setattr(limitlaw, "_cpus", lambda: 1)
    base4 = build_base({"kind": "constant", "q": 4})
    split = limitlaw._fold_split
    seen = []
    monkeypatch.setattr(limitlaw, "_fold_split", lambda *a: seen.append(split(*a)) or seen[-1])
    g = limit_cdf_conv(skew, base4, 0.0, 5.5, 2.0 ** -15)
    n, i, runs, hl, hr = seen[0]
    assert (g.fold_runs, n, i, hl, hr) == (3, 173184, 18, 3590, 0)
    assert {c1 - c0 for c0, c1 in runs} == {57728}
    assert not starts
    monkeypatch.setattr(limitlaw, "_fold_split", lambda levels, size, origin: (
        split(levels, size, origin)[0], len(levels), [(0, n)], 0, 0))
    one = limit_cdf_conv(skew, base4, 0.0, 5.5, 2.0 ** -15)
    assert one.fold_runs == 1 and not starts
    assert np.array_equal(g.cum.view(np.int64), one.cum.view(np.int64))
    assert (g.eps_x, g.eps_p) == (one.eps_x, one.eps_p)


@pytest.mark.parametrize("name, w", [("example-II", 2.0 ** -15), ("regimeC-ternary", 2.0 ** -14),
                                     ("geometric", 2.0 ** -10), ("symmetric-ternary", 2.0 ** -10)])
def test_fold_small_lattices_start_no_thread(monkeypatch, base2, base3, geo_half, tern, name, w):
    # perfbench's grid-ladder lattices (the two presets' grids 64x coarser,
    # 64K and 53K knots) and lab-small's (pitch 2^-10) are below two CHUNK
    # runs, so even a mask of 16 CPUs keeps them on the calling thread
    starts = _counted_threads(monkeypatch)
    monkeypatch.setattr(limitlaw, "_cpus", lambda: 16)
    if name in PRESET_NAMES:
        cfg = preset(name)
        dmap, base = DigitMap(cfg.map), build_base(cfg.base)
        x0, x1 = cfg.grid["x0"], cfg.grid["x1"]
    elif name == "geometric":
        dmap, base, x0, x1 = geo_half, base2, 0.0, 2.0
    else:
        dmap, base, x0, x1 = tern, base3, -1.625, 1.625
    g = limit_cdf_conv(dmap, base, x0, x1, w)
    assert g.lattice < 2 * CHUNK and g.fold_runs == 1
    assert not starts


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


def test_conv_envelope_brackets_exact_law_at_knots_off_the_lattice():
    # the origin -0.0825 is no multiple of the pitch 0.01, so the knots sit
    # off the atom lattice; the envelope still holds at every knot (between
    # knots it does not: see the GridCDF docstring)
    row = [0.012, 0.013, 0.025, -0.005, -0.018, 0.015]
    g = limit_cdf_conv(DigitMap.custom_table([row]), build_base({"kind": "constant", "q": 6}),
                       -0.0825, 0.1, 0.01)
    atoms = [Fraction(v) for v in row]

    def law(x):                 # the exact limit law: one level of six equal atoms
        return Fraction(sum(v <= x for v in atoms), len(atoms))

    ex, ep = Fraction(g.eps_x), Fraction(g.eps_p)
    assert g.cum.size == 19
    for x, c in zip(g.knots, g.cdf(g.knots)):
        x, c = Fraction(float(x)), Fraction(float(c))
        assert law(x - ex) - ep <= c <= law(x + ex) + ep, float(x)


def test_conv_window_guards(monkeypatch, charges, base2, vdc2):
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
    # the window guard charges 8 bytes a knot of the span, no more than the
    # window part of the final charge, so it refuses no window that the
    # final charge allows: with the cap at 2^20 bytes, 129,024 window knots
    # beside vdc2's 1024 lattice knots take the cap exactly, one knot more
    # is refused, and 9 bytes a window knot would have refused them all
    monkeypatch.setattr(errors, "BYTE_CAP", 1 << 20)
    w, k_req = 2.0 ** -10, 129024
    charges.clear()
    g = limit_cdf_conv(vdc2, base2, 0.0, (k_req - 1) * w, w)
    assert g.cum.size == k_req and (g.lattice, g.fold_runs) == (1024, 1)
    assert charges[0] == 8.0 * (k_req - 1)
    assert charges[-1] == 16 * g.lattice + 8 * k_req == 1 << 20 < 9.0 * (k_req - 1)
    with pytest.raises(ResourceLimit):
        limit_cdf_conv(vdc2, base2, 0.0, k_req * w, w)


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.lists(st.one_of(st.just(0.0), st.floats(-1.0, 1.0)), min_size=2,
                              max_size=6), min_size=1, max_size=8),
       w=st.sampled_from([2.0 ** -4, 2.0 ** -9, 2.0 ** -12, 0.01, 0.03]),
       pad=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)))
@example(rows=[[0.0, 1.0]] * 8, w=2.0 ** -12, pad=(0.0, 0.0))
@example(rows=[[-1.0, 1.0, 0.0, 5e-324, -0.0]], w=0.03, pad=(0.5, -0.5))
def test_conv_grid_of_random_table_is_finite_and_ordered(rows, w, pad):
    # limit_cdf_conv makes its grid without GridCDF's two scans: its cum,
    # a cumsum of non-negative masses, is finite and never decreases, so
    # the public constructor, which scans, takes it as it is
    dmap, base = _table_case(rows)
    lo, hi = sum(min(r) for r in rows), sum(max(r) for r in rows)
    x0, x1 = lo - pad[0], max(hi + pad[1], lo - pad[0] + w)
    try:
        g = limit_cdf_conv(dmap, build_base(base), x0, x1, w)
    except RangeTooSmall:
        return
    assert np.all(np.isfinite(g.cum)) and np.all(np.diff(g.cum) >= 0.0)
    assert 0.0 <= g.cum[0] and g.cum[-1] <= 1.0 + 1e-12
    checked = GridCDF(g.x0, g.w, g.cum, g.eps_x, g.eps_p)
    assert checked.cum is g.cum and g.cdf(x1) == checked.cdf(x1)


def test_conv_peak_memory_within_byte_charge(monkeypatch, base2, vdc2, geo_half, skew, charges,
                                             peak_of):
    # the fold reuses two lattice buffers and the cumsum overwrites one of
    # them; then the window array exists beside it, and the grid is made
    # without GridCDF's scans and their one-byte masks.  The charge sums
    # both stages, 16 bytes per lattice knot and 8 per window knot, so it is
    # within 1.5x the traced peak both for a window as wide as the lattice and for one 64 lattices wide.  A fold cut into
    # windows (skewed-q4 at pitch 2^-15, read as two CPUs: 4 windows) grows
    # both buffers by (windows - 1)(hl + hr) knots, which the charge adds
    base4 = build_base({"kind": "constant", "q": 4})
    monkeypatch.setattr(limitlaw, "_cpus", lambda: 2)
    for dmap, base, x1, w in ((geo_half, base2, 2.0, 2.0 ** -16), (vdc2, base2, 64.0, 2.0 ** -12),
                              (skew, base4, 5.5, 2.0 ** -15)):
        depth = _conv_depth(dmap, _tails(dmap, base), w)
        levels = [[round(v / w) for v in level_values(dmap, base, j)] for j in range(depth)]
        size = 1 + sum(max(o) for o in levels)
        *_, runs, hl, hr = limitlaw._fold_split([o for o in levels if max(o)], size, 0)
        k_req = int(x1 / w) + 1
        peak, g = peak_of(limit_cdf_conv, dmap, base, 0.0, x1, w)
        assert g.cum.size == k_req and (g.lattice, g.fold_runs) == (size, len(runs))
        assert len(runs) == (4 if dmap is skew else 1) and (hl + hr > 0) == (dmap is skew)
        assert charges[-1] == 16 * (size + (len(runs) - 1) * (hl + hr)) + 8 * k_req
        assert peak <= charges[-1] <= 1.5 * peak
        if dmap is geo_half:
            # window as wide as the lattice: a fold that allocated per level
            # would reach three lattice arrays
            assert peak < 3 * 8 * size


@pytest.mark.parametrize("q, n_t, n_x, depth", [(2, 1 << 18, 1, 2), (2, 1 << 12, 4096, 2),
                                                (1 << 10, 1 << 12, 1, 2),
                                                (2, 1 << 9, 1, GROUP.bit_length() - 1)],
                         ids=["cf-tables", "kernel-tables", "level-tables", "group-tables"])
def test_invert_peak_memory_within_byte_charge(charges, peak_of, vdc2, q, n_t, n_x, depth):
    # each case is dominated by one term of the charge: the rows x cols CF
    # tables, the kernel's rows x chunk tables, one level's exponential
    # tables (1023 nonzero digit values), or the Khatri-Rao products of one
    # group of rank GROUP (binary levels on a 17 x 32 node table)
    base = build_base({"kind": "constant", "q": q})
    xs = np.linspace(0.0, 1.0, n_x)
    peak, _ = peak_of(limit_cdf_invert, vdc2, base, xs, n_t=n_t, depth=depth)
    assert peak <= max(charges) <= 1.5 * peak


@pytest.mark.parametrize("name, rule, levels, real", [
    ("radical-inverse", {"kind": "constant", "q": 2}, 4, True),
    ("symmetric-ternary", {"kind": "constant", "q": 3}, 2, True),
    ("skewed-polyweight", {"kind": "constant", "q": 4}, 2, False),
    ("radical-inverse", {"kind": "constant", "q": 1024}, 1, False),
], ids=["real-binary-group", "real-ternary-group", "complex-group", "wide-level"])
def test_invert_group_factor_peak_within_byte_charge(peak_of, name, rule, levels, real):
    # one group's tables measured alone, at n_t = 2^16, where they are tens
    # of kilobytes or more: a real group of four binary levels (rank 16) and
    # of two ternary ones (rank 9), a complex group of two skewed levels
    # (rank 16) and one level of 1024 digits.  Each Khatri-Rao step holds
    # its product beside the pair it is built from, so a charge without
    # that pair falls below the peak
    dmap, base = DigitMap({"family": name}), build_base(rule)
    group = [level_values(dmap, base, j) for j in range(levels)]
    counts = [_centred(vals, math.fsum(vals) / len(vals)) for vals in group] if real else None
    t_hi, t_lo = _node_table(1 << 16)
    out = np.empty((t_hi.size, t_lo.size), dtype=float if real else complex)
    peak, _ = peak_of(_group_factor, out, t_hi, t_lo, group, counts)
    charge = _group_bytes(group, counts, t_hi.size + t_lo.size)
    assert peak <= charge <= 1.5 * peak


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
    assert bound <= _cf_bound(_tails(vdc2, base2)(J - 1), 11.0) + 1e-18


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


def _cf_factor_sums(dmap, base, j, t):
    """cf_factor with its own arrays: zeroed sums, one cos/sin pair per
    nonzero digit value, divided into a fresh complex array."""
    vals = level_values(dmap, base, j)
    tt = np.asarray(t, dtype=float)
    re, im = np.zeros(tt.shape), np.zeros(tt.shape)
    for v in vals:
        if v == 0.0:
            re += 1.0
            continue
        re += np.cos(tt * v)
        im += np.sin(tt * v)
    out = np.empty(tt.shape, dtype=complex)
    out.real = re / len(vals)
    out.imag = im / len(vals)
    return out


# |v| max|t| = 2^-28 = TINY_ANGLE for |v| = 2^-40 at |t| = 4096, 2^-30 at 4
_T_EDGE = [4096.0, 4096.0 * (1 - 2.0 ** -53), 4.0, 3.999, 4.000001]
_CF_T = st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1e-300, -1e-300]),
                           st.sampled_from(_T_EDGE + [-t for t in _T_EDGE]),
                           st.floats(-3000.0, 3000.0)), min_size=1, max_size=40)
_MIRRORED = [0.0, -0.0, 0.5, -0.5, 0.25, -0.25, 1.0, -1.0, 2.0 ** -30, -2.0 ** -30,
             2.0 ** -40, -2.0 ** -40, 1e-300]


@st.composite
def _cf_case(draw):
    """(dmap, base): a family on a constant base q = 2..7, or a custom table
    whose rows hold zero digit values anywhere in the row, or values drawn
    from a few, so that they repeat, mirror (-v ... v) and, at t near 4
    and 4096, straddle TINY_ANGLE."""
    q = draw(st.integers(2, 7))
    base = build_base({"kind": "constant", "q": q})
    kind = draw(st.sampled_from(["radical-inverse", "geometric", "polynomial", "table",
                                 "mirrored"]))
    if kind == "mirrored":
        row = st.lists(st.sampled_from(_MIRRORED), min_size=q, max_size=q)
        return DigitMap.custom_table(draw(st.lists(row, min_size=1, max_size=6))), base
    if kind == "radical-inverse":
        return DigitMap.radical_inverse(), base
    if kind == "geometric":
        return DigitMap.geometric(0.5, draw(st.lists(st.floats(-1.0, 1.0), min_size=q,
                                                     max_size=q))), base
    if kind == "polynomial":
        return DigitMap.polynomial(1.5, [0.0] * (q - 1) + [1.0]), base
    row = st.lists(st.one_of(st.just(0.0), st.floats(-2.0, 2.0)), min_size=q, max_size=q)
    return DigitMap.custom_table(draw(st.lists(row, min_size=1, max_size=6))), base


@settings(max_examples=200, deadline=None)
@given(case=_cf_case(), t=_CF_T, depth=st.integers(1, 8))
# zero digit values first, in the middle and last; -0.0 makes sin -0.0
@example(case=(DigitMap.custom_table([(0.0, 0.5, -0.25), (0.75, 0.0, 0.5), (1.0, -2.0, 0.0),
                                      (0.0, 0.0, 0.0)]), build_base({"kind": "constant", "q": 3})),
         t=[-0.0, 0.0, 3.0, -1000.5], depth=None)
@example(case=(DigitMap.radical_inverse(), build_base({"kind": "constant", "q": 7})),
         t=[-0.0, 2048.0, -1e-300], depth=None)
# mirrored rows, whose |v| repeat apart, next to each other and across a zero, and
# |v| max|t| on both sides of TINY_ANGLE: 2^-30 * 4 is at it, 2^-30 * 3.999 below
@example(case=(DigitMap.custom_table([(-1.0, -0.5, -0.25, -0.125, -2.0, 0.0, 2.0, 0.125, 0.25,
                                       0.5, 1.0), (0.5, -0.5, 0.5, 0.0, -0.5, 0.5, 0.25, -0.25,
                                                   -0.25, 0.25, 0.0)]),
               build_base({"kind": "constant", "q": 11})), t=[-0.0, 3.0, -1000.5, 0.0], depth=2)
@example(case=(DigitMap.custom_table([(2.0 ** -30, 0.0, -2.0 ** -30)] * 2),
               build_base({"kind": "constant", "q": 3})), t=[1.0, -4.0, 0.0], depth=2)
@example(case=(DigitMap.custom_table([(2.0 ** -30, 0.0, -2.0 ** -30)] * 2),
               build_base({"kind": "constant", "q": 3})), t=[1.0, -3.999, -0.0], depth=2)
def test_cf_truncated_matches_factor_product_bitwise(case, t, depth):
    # the truncated product reuses one factor and its buffers at every level;
    # depth None (the first two examples) deepens it to the certified tolerance
    dmap, base = case
    if depth is not None and dmap.depth is not None:
        depth = min(depth, dmap.depth)
    phi, _, used = cf_truncated(dmap, base, t, depth=depth)
    if depth is not None:
        assert used == depth
    want = np.ones(len(t), dtype=complex)
    for j in range(used):
        fac = _cf_factor_sums(dmap, base, j, t)
        assert np.array_equal(cf_factor(dmap, base, j, t).view(np.int64), fac.view(np.int64))
        want = want * fac       # out of place, as one value in place rounds otherwise
    assert np.array_equal(phi.view(np.int64), want.view(np.int64))


def test_cf_level_takes_one_pair_per_run_of_equal_abs_values(monkeypatch):
    # the held pair outlives zero values, so each built-in map takes no more
    # pairs than distinct nonzero |v|: symmetric ternary (-c, 0, c) one cos
    # per level, skewed-polyweight (0, c, 2c, 2c) two
    calls = []
    cos = np.cos
    monkeypatch.setattr(np, "cos", lambda *a, **k: calls.append(1) or cos(*a, **k))
    for dmap, q, per_level in ((DigitMap.symmetric_ternary(), 3, 1),
                               (DigitMap.skewed_polyweight(), 4, 2)):
        calls.clear()
        cf_truncated(dmap, build_base({"kind": "constant", "q": q}), [1.0, -3.0, 1000.5], depth=3)
        assert len(calls) == 3 * per_level, dmap.family


def _pins_cos_even_sin_odd(x):
    assert np.array_equal(np.cos(-x), np.cos(x))
    assert np.array_equal(np.sin(-x), -np.sin(x))


def _pins_tiny_angles(x):
    assert np.all(np.cos(x) == 1.0)
    assert np.array_equal(np.sin(x).view(np.int64), x.view(np.int64))


# the CF kernel takes cos(-x) as cos(x), sin(-x) as -sin(x), and below
# TINY_ANGLE cos(x) as 1 and sin(x) as x; a libm where one fails would move
# the CF's bits, so the suite stops there

@settings(max_examples=300, deadline=None)
@given(xs=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=70),
       tiny=st.lists(st.floats(-TINY_ANGLE, TINY_ANGLE, exclude_min=True, exclude_max=True),
                     min_size=1, max_size=70))
def test_libm_cos_even_sin_odd_and_tiny_angles_exact(xs, tiny):
    _pins_cos_even_sin_odd(np.array(xs))
    _pins_tiny_angles(np.array(tiny))


def test_libm_pins_across_magnitudes():
    # 256K angles of every binary exponent, 64K below TINY_ANGLE and its
    # edges, whole and in short arrays (SIMD bodies and scalar tails)
    rng = np.random.default_rng(19)
    mag = np.ldexp(rng.uniform(1.0, 2.0, 1 << 18), rng.integers(-1074, 1024, 1 << 18))
    small = np.ldexp(rng.uniform(1.0, 2.0, 1 << 16), rng.integers(-1074, -28, 1 << 16))
    small = np.concatenate((small, [np.nextafter(TINY_ANGLE, 0.0), 5e-324, 0.0]))
    for x in (mag, mag[1:], mag[:7], mag[3:6]):
        _pins_cos_even_sin_odd(x)
    for x in (small, -small, small[1:], small[:5]):
        _pins_tiny_angles(x)


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


def _split_cf(mp, dmap, base, t, depth, parts):
    """cf_truncated with t cut into the given number of runs, one a CPU."""
    mp.setattr(limitlaw, "_cpus", lambda: parts)
    mp.setattr(limitlaw, "SPLIT_MIN", len(t) // parts)
    assert len(limitlaw.thread_parts(len(t), limitlaw.SPLIT_MIN)) == parts
    return cf_truncated(dmap, base, t, depth=depth)


@settings(max_examples=60, deadline=None)
@given(case=_cf_case(), t=st.lists(st.floats(-3000.0, 3000.0), min_size=8, max_size=500),
       depth=st.integers(1, 6), parts=st.integers(2, 5))
def test_cf_truncated_split_matches_one_part_bitwise(case, t, depth, parts):
    # each run of t takes every level on its own thread with the whole
    # array's t_abs, so the bits do not depend on how t is cut.  Up to five
    # threads, switching every microsecond, write disjoint runs.  The runs
    # hold two values or more, as SPLIT_MIN's do: numpy multiplies a
    # one-value array into itself by another loop than longer ones, which
    # rounds differently, so a run of one value would not match the whole
    dmap, base = case
    parts = min(parts, len(t) // 2)
    if dmap.depth is not None:
        depth = min(depth, dmap.depth)
    interval = sys.getswitchinterval()
    with pytest.MonkeyPatch.context() as mp:
        one, bound1, _ = _split_cf(mp, dmap, base, t, depth, 1)
        sys.setswitchinterval(1e-6)
        try:
            phi, bound, used = _split_cf(mp, dmap, base, t, depth, parts)
        finally:
            sys.setswitchinterval(interval)
    assert used == depth and bound == bound1
    assert np.array_equal(phi.view(np.int64), one.view(np.int64))
    want = np.ones(len(t), dtype=complex)
    for j in range(depth):
        want *= _cf_factor_sums(dmap, base, j, t)
    assert np.array_equal(phi.view(np.int64), want.view(np.int64))


@settings(max_examples=60, deadline=None)
@given(case=_cf_case(), t=_CF_T, depth=st.integers(1, 6))
# `cantorlab cf --n 1 --t-min 1 --t-max 1 --depth 40` printed re phi
# 0.8414709848081053 where the same t beside another gave ...056
@example(case=(DigitMap.radical_inverse(), build_base({"kind": "constant", "q": 2})),
         t=[1.0, 1.0], depth=40)
def test_cf_truncated_bits_do_not_depend_on_the_length_of_t(case, t, depth):
    # numpy multiplies a one-value complex array into itself by another
    # loop, which rounds differently, so a lone t runs as two; each t alone
    # gets the bits it gets in the whole array
    dmap, base = case
    if dmap.depth is not None:
        depth = min(depth, dmap.depth)
    whole, _, _ = cf_truncated(dmap, base, t, depth=depth)
    for i, ti in enumerate(t):
        one, _, _ = cf_truncated(dmap, base, [ti], depth=depth)
        assert np.array_equal(one.view(np.int64), whole[i:i + 1].view(np.int64)), i


def test_explicit_depth_above_cap_refused_before_levels_are_listed(monkeypatch, charges, base2,
                                                                   vdc2):
    # an explicit depth has every level's values listed before the work
    # starts, lists that no byte charge covers; above DEPTH_CAP each route
    # refuses it before listing a level, so only the charges made before
    # the depth is read appear (the conv route charges each level it lists)
    listed = []
    monkeypatch.setattr(limitlaw, "level_values", lambda *a: listed.append(a))
    t = np.linspace(-1.0, 1.0, 5)
    for call, before in ((lambda d: cf_truncated(vdc2, base2, t, depth=d), [64 * t.size]),
                         (lambda d: limit_cdf_conv(vdc2, base2, 0.0, 1.0, 2.0 ** -10, depth=d),
                          [8.0 * 1024]),
                         (lambda d: limit_cdf_invert(vdc2, base2, t, n_t=8, depth=d), None)):
        for depth in (DEPTH_CAP + 1, 10 ** 7):
            charges.clear()
            with pytest.raises(ResourceLimit, match="above DEPTH_CAP"):
                call(depth)
            assert not listed
            if before is not None:
                assert charges == before
    monkeypatch.undo()
    assert cf_truncated(vdc2, base2, t, depth=DEPTH_CAP)[2] == DEPTH_CAP


class _PartFailed(Exception):
    pass


@pytest.mark.parametrize("failing", [[0], [2], [1, 3]])
def test_cf_truncated_split_reraises_first_failure_and_joins(monkeypatch, base2, vdc2, failing):
    # a run that raises hands its exception to the caller, the first in run
    # order when several do, and only after every thread has been joined
    t = np.arange(1.0, 41.0)
    level = limitlaw._level_factor

    def flaky(fac, vals, tt, t_abs, bufs):
        part = int(tt[0]) // 10
        if part in failing:
            raise _PartFailed(part)
        return level(fac, vals, tt, t_abs, bufs)

    monkeypatch.setattr(limitlaw, "_level_factor", flaky)
    before = threading.active_count()
    with pytest.raises(_PartFailed) as err:
        _split_cf(monkeypatch, vdc2, base2, t, 3, 4)
    assert err.value.args == (failing[0],)
    assert threading.active_count() == before


def test_cf_truncated_threads_follow_affinity_mask(monkeypatch, base2, vdc2):
    # one run per CPU of the process's mask, none under SPLIT_MIN values;
    # run once more under `taskset -c 0` (CI does), no thread starts
    starts = []

    class Counted(threading.Thread):
        def start(self):
            starts.append(1)
            super().start()

    monkeypatch.setattr(limitlaw.threading, "Thread", Counted)
    n = 4 * limitlaw.SPLIT_MIN
    runs = len(limitlaw.thread_parts(n, limitlaw.SPLIT_MIN))
    if hasattr(os, "sched_getaffinity"):
        assert runs == min(len(os.sched_getaffinity(0)), 4)
    cf_truncated(vdc2, base2, np.linspace(0.0, 2048.0, n), depth=2)
    assert len(starts) == runs - 1
    starts.clear()
    cf_truncated(vdc2, base2, np.linspace(0.0, 2048.0, limitlaw.SPLIT_MIN * 2 - 1), depth=2)
    assert not starts


def test_cf_truncated_and_cf_factor_refuse_oversized_t(base2, vdc2):
    # 64 bytes a t for cf_truncated and 48 for cf_factor, charged before the
    # finite check and before any array exists: a zero-stride t of one value
    # past the budget raises ResourceLimit, not MemoryError
    with pytest.raises(ResourceLimit, match="CF at"):
        cf_truncated(vdc2, base2, np.broadcast_to(0.0, ((BYTE_CAP >> 6) + 1,)))
    with pytest.raises(ResourceLimit, match="CF factor at"):
        cf_factor(vdc2, base2, 0, np.broadcast_to(0.0, (BYTE_CAP // 48 + 1,)))


def test_cf_truncated_peak_within_byte_charge(monkeypatch, peak_of, base2, vdc2):
    # the output, each run's factor and four float buffers: 64 bytes a t,
    # beside 3-8 KB that do not grow with t (about 4.6 KB more a run, for
    # its thread)
    for cpus in (1, 2):
        monkeypatch.setattr(limitlaw, "_cpus", lambda: cpus)
        for n in (1 << 15, 1 << 17):
            t = np.linspace(0.0, 2048.0, n)
            peak, _ = peak_of(cf_truncated, vdc2, base2, t, 4)
            assert 64 * n <= peak <= 64 * n + (16 << 10), (cpus, n)


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
    mt, vt = _tails(dmap, base)(depth - 1)
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
# several zero digit values per level, and ten digit values per level, all
# of them in each level's matrix product
@example(case=(DigitMap.custom_table([(0.0, 0.0, 0.5, 0.0), (0.25, 0.0, 0.0, -0.75),
                                      (0.0, 0.125, 0.0, 0.0)]),
               build_base({"kind": "constant", "q": 4}), np.array([-0.8, -0.1, 0.0, 0.3, 0.9])),
         n_t=1 << 16, t_max=2048.0)
@example(case=(DigitMap.radical_inverse(), build_base({"kind": "constant", "q": 10}),
               np.array([0.05, 0.5, 0.5, 0.95, 1.1])),
         n_t=1 << 16, t_max=2048.0)
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


def _per_level_cf_table(dmap, base, depth, t_hi, t_lo):
    """The CF table level by level: each level's factor as one (rows x a)
    @ (a x cols) product of its exponential tables, zero digit values
    included, multiplied into the running product.  The oracle of the
    grouped product, which sums the same terms in another order."""
    phi = np.ones((t_hi.size, t_lo.size), dtype=complex)
    for j in range(depth):
        digits = np.array(level_values(dmap, base, j))
        phi *= (np.exp(1j * np.multiply.outer(t_hi, digits)) / digits.size
                @ np.exp(1j * np.multiply.outer(digits, t_lo)))
    return phi


def _node_table(n_t, t_max=2048.0):
    cols = 1 << (n_t.bit_length() // 2)
    ts = np.linspace(0.0, t_max, n_t + 1)
    return ts[::cols], ts[:cols]


def _table_case(rows):
    """A custom table on a table base whose digit counts follow its rows."""
    return DigitMap.custom_table(rows), {"kind": "table", "table": [len(r) for r in rows],
                                         "then": {"kind": "constant", "q": 2}}


_WIDE = [0.1 * i - 1.7 for i in range(GROUP + 5)]     # a level of more than GROUP digits
_CF_TABLE_CASES = {
    "radical-inverse-q2": (DigitMap.radical_inverse(), {"kind": "constant", "q": 2}),
    "radical-inverse-q3": (DigitMap.radical_inverse(), {"kind": "constant", "q": 3}),
    "radical-inverse-q10": (DigitMap.radical_inverse(), {"kind": "constant", "q": 10}),
    "symmetric-ternary": (DigitMap.symmetric_ternary(), {"kind": "constant", "q": 3}),
    "geometric": (DigitMap.geometric(0.5, (0.0, 1.0)), {"kind": "constant", "q": 2}),
    "periodic-2-3": (DigitMap.radical_inverse(), {"kind": "periodic", "pattern": [2, 3]}),
    # zero values, an all-zero row, and digit counts 2, 3, 4, 2 and 5
    "table-zeros": _table_case([(0.0, 0.5), (0.25, 0.0, -0.75), (0.0, 0.0, 0.3, -0.1),
                                (0.0, 0.0), (0.0, 0.125, 0.0, -0.5, 0.0)]),
    # two levels either side of one of GROUP + 5 digits
    "table-wide-level": _table_case([(0.0, 0.5), (0.3, -0.2, 0.0), _WIDE, (0.0, 0.25),
                                     (-0.1, 0.0, 0.7)]),
    # levels of five digits, some symmetric about their means and some not
    "radical-inverse-q5": (DigitMap.radical_inverse(), {"kind": "constant", "q": 5}),
    # a level symmetric about 0.375 in a group with one that is not, then a
    # real group of one level
    "table-symmetric-beside-asymmetric": _table_case([(0.125, 0.625), (0.25, 0.0, -0.75),
                                                      (0.0, 0.5), (-0.25, 0.25)]),
    # 2^-55 - 0.5 rounds to -0.5, so the centred values are symmetric, but
    # 2^-55 is not recovered from them: the group must stay complex
    "table-rounded-centring": _table_case([(2.0 ** -55, 1.0), (-0.25, 0.25)]),
    # an all-zero level: rank 1, its one column the constant 1
    "table-all-zero-level": _table_case([(0.0, 0.0, 0.0), (0.0, 0.5), (0.0, 0.0)]),
    # |c| = 0.25 four times over and c = 0 twice: rank 3
    "table-repeated-abs": _table_case([(0.5, 0.0, 0.25, 0.5, 0.0, 0.25), (-0.125, 0.125)]),
}


@pytest.mark.parametrize("n_t", [8, 1 << 11, 1 << 16])
@pytest.mark.parametrize("case", list(_CF_TABLE_CASES))
def test_invert_cf_table_matches_per_level_oracle(case, n_t):
    dmap, rule = _CF_TABLE_CASES[case]
    base = build_base(rule)
    depth = _cf_depth(dmap, _tails(dmap, base), 2048.0, None)
    t_hi, t_lo = _node_table(n_t)
    want = _per_level_cf_table(dmap, base, depth, t_hi, t_lo)
    got, mu = _cf_table(dmap, base, depth, t_hi, t_lo, 0)
    assert np.max(np.abs(got - want)) <= 1e-14
    assert mu == math.fsum(digit_stats(dmap, base, j).m for j in range(depth))


class _Counted(np.ndarray):
    """An array whose ufunc calls, matmul included, run on plain arrays and
    return _Counted views; the 2-d shapes that matmul returns are kept."""

    products = []
    dtypes = []

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        def plain(x):
            return x.view(np.ndarray) if isinstance(x, _Counted) else x

        if out is not None:
            kwargs["out"] = tuple(map(plain, out))
        res = getattr(ufunc, method)(*map(plain, inputs), **kwargs)
        if ufunc is np.matmul and np.ndim(res) == 2:
            _Counted.products.append(res.shape)
            _Counted.dtypes.append(res.dtype)
        return res.view(_Counted) if isinstance(res, np.ndarray) else res


class _CountingNumpy:
    """numpy for limitlaw, with the arrays that the CF table starts from
    (the nodes, the running product and its factor buffers) _Counted, so
    that a product by np.matmul or by @ is seen."""

    def __getattr__(self, name):
        fn = getattr(np, name)
        if name in ("linspace", "empty", "empty_like", "ones"):
            return lambda *a, **k: fn(*a, **k).view(_Counted)
        return fn


def test_invert_cf_product_takes_one_matrix_product_per_group(monkeypatch, base2, vdc2):
    # radical-inverse q = 2 at t_max = 2048 runs 50 binary levels: groups of
    # log2(GROUP) levels, at most ceil(50 / 4) full-table products, where
    # one product a level made 50
    monkeypatch.setattr(limitlaw, "np", _CountingNumpy())
    monkeypatch.setattr(_Counted, "products", [])
    n_t = 1 << 16
    t_hi, t_lo = _node_table(n_t)
    inv = limit_cdf_invert(vdc2, base2, [0.25, 0.5], t_max=2048.0, n_t=n_t, q_hint=0.01)
    assert _cf_depth(vdc2, _tails(vdc2, base2), 2048.0, None) == 50
    tables = [s for s in _Counted.products if s == (t_hi.size, t_lo.size)]
    assert 1 <= len(tables) <= math.ceil(50 / 4)
    assert np.max(np.abs(inv.values - [0.25, 0.5])) <= inv.envelope


@pytest.mark.parametrize("case, groups, real", [
    ("radical-inverse-q2", 13, 13), ("symmetric-ternary", 10, 10),
    ("table-symmetric-beside-asymmetric", 2, 1), ("table-rounded-centring", 1, 0),
])
def test_invert_cf_groups_of_symmetric_levels_take_float_products(monkeypatch, case, groups,
                                                                   real):
    # a group whose levels are all symmetric about their means is one
    # float64 matrix product; any other group stays complex
    dmap, rule = _CF_TABLE_CASES[case]
    base = build_base(rule)
    monkeypatch.setattr(limitlaw, "np", _CountingNumpy())
    monkeypatch.setattr(_Counted, "products", [])
    monkeypatch.setattr(_Counted, "dtypes", [])
    n_t = 1 << 16
    t_hi, t_lo = _node_table(n_t)
    inv = limit_cdf_invert(dmap, base, [0.0, 0.5], t_max=2048.0, n_t=n_t, q_hint=0.01)
    kinds = [d for s, d in zip(_Counted.products, _Counted.dtypes) if s == (t_hi.size, t_lo.size)]
    assert (inv.groups, inv.real_groups) == (groups, real)
    assert kinds.count(np.dtype(float)) == real
    assert kinds.count(np.dtype(complex)) == groups - real


def test_invert_zero_values_take_no_trigonometry_bit_for_bit(monkeypatch, skew):
    # skewed-polyweight's levels (0, c, 2c, 2c) at q = 4 pair up into complex
    # groups; their zero values' rows and columns are exactly 1 + 0i, so the
    # factor is bit for bit the one whose tables take cos/sin of every value
    base = build_base({"kind": "constant", "q": 4})
    group = [level_values(skew, base, j) for j in (3, 4)]
    t_hi, t_lo = _node_table(1 << 16)
    angles = []

    class _CountingCos:
        def __getattr__(self, name):
            if name == "cos":
                return lambda x, **k: angles.append(np.size(x)) or np.cos(x, **k)
            return getattr(np, name)

    monkeypatch.setattr(limitlaw, "np", _CountingCos())
    got = _group_factor(np.empty((t_hi.size, t_lo.size), dtype=complex), t_hi, t_lo, group)
    assert angles == [6 * t_hi.size, 6 * t_lo.size]
    angles.clear()
    monkeypatch.setattr(limitlaw, "_exp_rows", lambda vals, t: limitlaw._exp_table(vals, t))
    whole = _group_factor(np.empty_like(got), t_hi, t_lo, group)
    assert angles == [8 * t_hi.size, 8 * t_lo.size]
    assert np.array_equal(got.view(np.int64), whole.view(np.int64))


def test_invert_reports_depth_groups_and_cap(base2, vdc2, skew):
    # the depth and groups the CF product used; skewed-polyweight runs to
    # DEPTH_CAP with its truncation bound above CF_TOL at t_max = 2048
    inv = limit_cdf_invert(vdc2, base2, [0.5], t_max=2048.0, n_t=64)
    assert (inv.depth, inv.groups, inv.real_groups, inv.capped) == (50, 13, 13, False)
    base4 = build_base({"kind": "constant", "q": 4})
    inv = limit_cdf_invert(skew, base4, [0.5], t_max=2048.0, n_t=64)
    assert (inv.depth, inv.groups, inv.real_groups, inv.capped) == (DEPTH_CAP, 2048, 0, True)
    inv = limit_cdf_invert(skew, base4, [0.5], t_max=2048.0, n_t=64, depth=8)
    assert (inv.depth, inv.groups, inv.capped) == (8, 4, False)


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
