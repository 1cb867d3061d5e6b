"""Empirical CDFs and distances, checked against brute-force oracles."""

import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cantorlab import (
    AlphabetMismatch,
    DigitMap,
    EmpiricalCDF,
    ExperimentConfig,
    GridCDF,
    Interval,
    PointOutOfRange,
    ResourceLimit,
    UniformCDF,
    build_base,
    concentration,
    empirical_cdf,
    evaluate,
    kolmogorov,
    level_values,
    limit_cdf_conv,
    run_experiment,
    smoothing_check,
    star_discrepancy,
    value_vector,
    wasserstein1,
)
from cantorlab import T_GRID, empirical
from cantorlab.empirical import concentration_hi


def _steps_sup_oracle(f, g, breakpoints):
    """Brute sup |f - g| for right-continuous steps: every piece is hit by a
    midpoint, every jump by its own abscissa."""
    b = np.sort(np.unique(breakpoints))
    xs = np.concatenate([b, (b[:-1] + b[1:]) / 2.0, [b[0] - 1.0, b[-1] + 1.0]])
    return float(np.max(np.abs(np.asarray(f(xs)) - np.asarray(g(xs)))))


def _steps_w1_oracle(f, g, breakpoints):
    b = np.sort(np.unique(breakpoints))
    mids = (b[:-1] + b[1:]) / 2.0
    vals = np.abs(np.asarray(f(mids)) - np.asarray(g(mids)))
    return float(np.sum(vals * np.diff(b)))


# -- enumeration ----------------------------------------------------------------


def test_value_vector_matches_evaluate(base2, base23, vdc2, skew):
    # digit 0 maps to 0 for these families, so window padding is invisible
    for base, dmap, n in ((base2, vdc2, 512), (base23, skew, 300)):
        v = value_vector(dmap, base, n)
        assert v.shape == (n,)
        for k in (0, 1, n // 3, n - 1):
            assert v[k] == evaluate(dmap, base, k)


def test_value_vector_pads_zero_digits(base3, tern):
    # symmetric ternary gives digit 0 the value -3^-j: enumeration pads every
    # index with zero digits through the window top, the expansion does not
    from cantorlab import digit_value, expand

    n = 729                      # window covers levels 0..5
    v = value_vector(tern, base3, n)
    for k in (0, 1, 5, 242, 728):
        pad = math.fsum(digit_value(tern, base3, 0, j)
                        for j in range(len(expand(base3, k).digits), 6))
        assert v[k] == pytest.approx(evaluate(tern, base3, k) + pad, abs=1e-15)


def test_value_vector_guards(base2, vdc2):
    with pytest.raises(ValueError):
        value_vector(vdc2, base2, 0)
    with pytest.raises(ResourceLimit):
        empirical_cdf(vdc2, base2, 33554433)    # 2^25 + 1 values, 1.61e9 bytes charged


def test_enumeration_row_peak_within_byte_charge(base2, vdc2, geo_half, charges, peak_of):
    # value_vector charges each value the peak of the ladder row it feeds:
    # enumeration, sort, d_K, W1 and, for radical-inverse maps, D*.  A grid's
    # own per-knot arrays are W1's charge (tested below): the row of one
    # value against the same reference measures them, and is taken off.
    # Against the uniform shifted by half a cell F crosses F_n inside every
    # segment; the grid of K = n knots, whose step table W1 builds, peaks
    # highest
    n = 1 << 16
    refs = [(DigitMap.geometric(0.5, (0.0, 0.0)), EmpiricalCDF([0.0])),
            (vdc2, limit_cdf_conv(vdc2, base2, 0.0, 1.0, 2.0 ** -16)),          # K = n
            (vdc2, UniformCDF()),
            (vdc2, UniformCDF(-2.0 ** -17, 1.0 - 2.0 ** -17)),
            (geo_half, limit_cdf_conv(geo_half, base2, 0.0, 2.0, 2.0 ** -17))]  # K = 4n

    def row(dmap, ref, m):
        ecdf = empirical_cdf(dmap, base2, m)
        empirical.distances(ecdf, ref)
        if dmap.family == "radical-inverse":
            star_discrepancy(ecdf)

    per_value = []
    for dmap, ref in refs:
        row(dmap, ref, 1)                       # first-call allocations, untraced
        knots = peak_of(row, dmap, ref, 1)[0]
        first = len(charges)
        per_value.append((peak_of(row, dmap, ref, n)[0] - knots) / n)
    charge = charges[first] / n                 # value_vector's, the row's first
    assert max(per_value) <= charge <= 1.5 * max(per_value), per_value


def test_w1_grid_peak_within_byte_charge(base2, base3, vdc2, geo_half, tern, charges, peak_of):
    # W1 against a grid charges the step table's path (N < 8K) first the
    # larger of its build, 43 bytes per value, and its knots' widths, 9 per
    # knot (17 if the knot steps are not all w) and 40 per value, then, if m
    # distinct values lie off the knots, their union, 17 per knot and 26 per
    # such value; the knot counts' path (N >= 8K) 64 per knot, 9 per value
    # and 88 per value of one block: one value against K knots, example-II's
    # K = 4N (every value on a knot), regimeC's K = 3.25N (every value off
    # the knots), K = N, N = 8K with runs of one value (some on a knot) and
    # of two (gathered), K << N, and a grid of pitch 0.3 (not all steps w)
    # with values on and off its knots
    fine = limit_cdf_conv(geo_half, base2, 0.0, 2.0, 2.0 ** -17)             # K = 2^18 + 1
    coarse = limit_cdf_conv(geo_half, base2, 0.0, 2.0, 2.0 ** -12)           # K = 2^13 + 1
    odd = GridCDF(0.1, 0.3, np.linspace(0.0, 1.0, 1 << 18), 0.0, 0.0)
    assert fine.even_steps and not odd.even_steps
    rng = np.random.default_rng(3)
    cases = [(geo_half, base2, fine, 1), (geo_half, base2, fine, 1 << 16),
             (tern, base3, limit_cdf_conv(tern, base3, -1.625, 1.625, 2.0 ** -16), 1 << 16),
             (vdc2, base2, limit_cdf_conv(vdc2, base2, 0.0, 1.0, 2.0 ** -16), 1 << 16),
             (geo_half, base2, coarse, 8 * coarse.cum.size),
             (None, None, coarse, np.repeat(value_vector(geo_half, base2, 4 * coarse.cum.size), 2)),
             (geo_half, base2, limit_cdf_conv(geo_half, base2, 0.0, 2.0, 2.0 ** -11), 1 << 16),
             (None, None, odd, np.array([0.1 + 0.3 * 7])),
             (None, None, odd, odd.knots[rng.integers(0, odd.cum.size, 1 << 12)]),
             (None, None, odd, rng.uniform(0.0, 0.3 * odd.cum.size, 1 << 12))]
    for dmap, base, g, n in cases:
        ecdf = empirical_cdf(dmap, base, n) if dmap is not None else EmpiricalCDF(n)
        n, k = ecdf.n, g.cum.size
        wasserstein1(ecdf, g)                   # first-call allocations and the knots, untraced
        first = len(charges)
        peak, _ = peak_of(wasserstein1, ecdf, g)
        if n >= 8 * k:
            want = [64 * k + 9 * n + 88 * min(empirical.BLOCK, n)]
        else:
            m = int(np.count_nonzero(empirical._grid_steps(ecdf, g)[0]))
            want = [max((9 if g.even_steps else 17) * k + 40 * n, 43 * n)]
            want += [17 * k + 26 * m] if m else []
        assert charges[first:] == want, (k, n)
        assert peak <= max(want) <= 1.5 * peak, (k, n)


def _value_vector_oracle(dmap, base, n):
    """Index every level's table with (i // q_j) % a_j, summed in level order."""
    idx = np.arange(n, dtype=np.int64)
    out = np.zeros(n)
    q, j = 1, 0
    while q <= n - 1:
        a = base.digit_size(j)
        out += np.asarray(level_values(dmap, base, j), dtype=float)[(idx // q) % a]
        q *= a
        j += 1
    return out


_TABLE_ENTRY = st.floats(-4.0, 4.0, allow_nan=False) | st.sampled_from([-0.0, 0.0, -1.0])


@st.composite
def _base_and_map(draw):
    base_d = draw(st.one_of(
        st.builds(lambda q: {"kind": "constant", "q": q}, st.integers(2, 10)),
        st.builds(lambda p: {"kind": "periodic", "pattern": p},
                  st.lists(st.integers(2, 6), min_size=1, max_size=4)),
        st.builds(lambda c, d: {"kind": "affine", "c": c, "d": d},
                  st.integers(0, 2), st.integers(2, 4))))
    g = draw(st.lists(_TABLE_ENTRY, min_size=2, max_size=16))
    fam = draw(st.sampled_from(["radical-inverse", "polynomial", "geometric",
                                "symmetric-ternary", "skewed-polyweight", "custom-table"]))
    if fam == "polynomial":
        map_d = {"family": fam, "alpha": draw(st.floats(0.25, 3.0)), "g": g}
    elif fam == "geometric":
        map_d = {"family": fam, "beta": draw(st.floats(0.1, 1.5)), "g": g}
    elif fam == "custom-table":
        # rows as wide as the base's levels, sometimes fewer rows than levels
        base = build_base(base_d)
        rows = [draw(st.lists(_TABLE_ENTRY, min_size=base.digit_size(j),
                              max_size=base.digit_size(j)))
                for j in range(draw(st.integers(1, 8)))]
        map_d = {"family": fam, "values": rows}
    else:
        map_d = {"family": fam}
    return base_d, map_d


_Q3 = {"kind": "constant", "q": 3}
_FACTORIAL = {"kind": "affine", "c": 1, "d": 2}
_SIGNED_ZEROS = {"family": "custom-table",
                 "values": [[-0.0, 1.0, -2.0], [-0.0, -0.0, 3.0], [0.5, -0.0, -0.25],
                            [-0.0, -1.0, 2.0], [-0.0, 0.0, -0.0], [-0.0, 1.5, 2.0]]}


@settings(max_examples=300, deadline=None)
@given(_base_and_map(), st.integers(1, 5000))
@example((_Q3, {"family": "radical-inverse"}), 242)
@example((_Q3, {"family": "radical-inverse"}), 243)
@example((_Q3, {"family": "radical-inverse"}), 244)
@example((_Q3, _SIGNED_ZEROS), 728)
@example((_Q3, _SIGNED_ZEROS), 729)
@example((_Q3, _SIGNED_ZEROS), 730)
@example((_FACTORIAL, {"family": "polynomial", "alpha": 1.5, "g": [0.0, -1.0, 2.0]}), 5)
@example((_FACTORIAL, {"family": "skewed-polyweight"}), 719)
@example((_FACTORIAL, {"family": "skewed-polyweight"}), 720)
@example((_FACTORIAL, {"family": "skewed-polyweight"}), 721)
@example(({"kind": "constant", "q": 2}, {"family": "geometric", "beta": 0.5,
                                         "g": [-0.0, -1.0]}), 4097)
def test_value_vector_matches_division_oracle_bitwise(desc, n):
    base_d, map_d = desc
    base, dmap = build_base(base_d), DigitMap(map_d)
    try:
        want = _value_vector_oracle(dmap, base, n)
    except AlphabetMismatch as e:
        with pytest.raises(AlphabetMismatch, match=re.escape(str(e))):
            value_vector(dmap, base, n)
        return
    got = value_vector(dmap, base, n)
    assert got.shape == (n,)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_radical_inverse_rows_star_discrepancy_matches_enumeration():
    cfg = ExperimentConfig.from_dict({
        "name": "vdc-3", "base": {"kind": "periodic", "pattern": [2, 3]},
        "map": {"family": "radical-inverse"},
        "reference": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
        "ns": [5, 36, 100, 1296], "regime": "B", "rho_inf": 1.0})
    base, dmap = build_base(cfg.base), DigitMap(cfg.map)
    for row in run_experiment(cfg):
        assert row["dstar"] == star_discrepancy(value_vector(dmap, base, row["N"]))


def test_empirical_cdf_semantics():
    e = EmpiricalCDF([0.0, 0.0, 1.0, 2.0])
    assert e.n == 4
    assert e.cdf(0.0) == 0.5
    assert e.cdf(0.5) == 0.5
    assert e.cdf(2.0) == 1.0
    assert e.cdf(-1.0) == 0.0
    with pytest.raises(ValueError):
        EmpiricalCDF([])
    # NaN sorts last and -inf first, so the sorted sample's two ends decide
    for bad in ([0.1, math.nan, 0.5], [math.nan], [0.2, math.inf], [-math.inf, 0.0]):
        with pytest.raises(ValueError, match="finite"):
            EmpiricalCDF(bad)


def test_empirical_cdf_sorts_only_its_own_values(base3, tern):
    # EmpiricalCDF copies the caller's array; empirical_cdf sorts the values
    # it makes in place, to the same sample
    values = value_vector(tern, base3, 500)
    kept = values.copy()
    e = EmpiricalCDF(values)
    assert np.array_equal(values.view(np.int64), kept.view(np.int64))
    assert not np.shares_memory(e.samples, values)
    assert np.array_equal(empirical_cdf(tern, base3, 500).samples.view(np.int64),
                          e.samples.view(np.int64))


def test_uniform_and_point_refs():
    u = UniformCDF(1.0, 3.0)
    assert u.cdf(0.0) == 0.0 and u.cdf(2.0) == 0.5 and u.cdf(9.0) == 1.0
    assert u.density_sup == 0.5
    for lo, hi in ((1.0, 1.0), (0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0),
                   (0.0, math.nan)):
        with pytest.raises(ValueError):
            UniformCDF(lo, hi)
    p = EmpiricalCDF([2.0])                      # the point mass at 2
    assert p.cdf(2.0) == 1.0 and p.cdf(1.9) == 0.0


# -- Kolmogorov ----------------------------------------------------------------


def test_kolmogorov_vs_uniform_tiny():
    assert kolmogorov(EmpiricalCDF([0.25]), UniformCDF()) == Interval(0.75, 0.75)


def test_kolmogorov_vs_uniform_matches_scipy():
    from scipy.stats import kstest

    rng = np.random.default_rng(7)
    for n in (10, 37, 200):
        s = rng.random(n)
        d = kolmogorov(EmpiricalCDF(s), UniformCDF())
        assert d.lo == d.hi
        assert abs(d.hi - kstest(s, "uniform").statistic) <= 1e-14


def test_kolmogorov_step_step_matches_brute():
    rng = np.random.default_rng(11)
    a = EmpiricalCDF(rng.integers(0, 40, size=23) / 8.0)
    b = EmpiricalCDF(rng.integers(0, 40, size=31) / 8.0)
    got = kolmogorov(a, b)
    want = _steps_sup_oracle(a.cdf, b.cdf,
                             np.concatenate([a.samples, b.samples]))
    assert got == Interval(want, want)


def test_kolmogorov_vs_point_mass():
    e = EmpiricalCDF([0.0, 1.0, 2.0, 3.0])
    # F_n(c) - 1{x >= c} peaks just left of c: value 1 - F_n(c-)
    assert kolmogorov(e, EmpiricalCDF([2.5])) == Interval(0.75, 0.75)
    assert kolmogorov(e, EmpiricalCDF([3.0])) == Interval(0.75, 0.75)   # c on a sample
    assert kolmogorov(e, EmpiricalCDF([-1.0])) == Interval(1.0, 1.0)


class _PointMassOracle:
    """The former point-mass reference class with its own distance formulas:
    d_K over the sample and the one jump c, W1 over union1d(samples, c),
    concentration 1."""

    def __init__(self, c: float):
        self.c = float(c)

    def cdf(self, x):
        return (np.asarray(x, dtype=float) >= self.c).astype(float)

    def kolmogorov(self, ecdf) -> float:
        best = float(np.max(np.abs(ecdf.cdf(ecdf.samples) - self.cdf(ecdf.samples))))
        jump = np.array([self.c])
        return max(best, float(np.max(np.abs(ecdf.cdf(jump) - self.cdf(jump)))))

    def wasserstein1(self, ecdf) -> float:
        b = np.union1d(ecdf.samples, [self.c])
        return float(np.sum(np.abs(ecdf.cdf(b[:-1]) - self.cdf(b[:-1])) * np.diff(b)))


_POINT = st.floats(-8.0, 8.0, allow_nan=False) | st.sampled_from([0.0, -0.0, 1.0, 0.5])


@settings(max_examples=300, deadline=None)
@given(samples=st.lists(_POINT, min_size=1, max_size=40), c=_POINT,
       on_sample=st.booleans(), r=st.floats(0.0, 20.0) | st.just(math.inf))
@example(samples=[0.0, 1.0, 2.0, 3.0], c=2.5, on_sample=False, r=0.0)
@example(samples=[-0.0, 0.0], c=0.0, on_sample=False, r=0.0)
def test_point_mass_is_a_one_atom_empirical_cdf(samples, c, on_sample, r):
    if on_sample:
        c = samples[len(samples) // 2]
    e, p, oracle = EmpiricalCDF(samples), EmpiricalCDF([c]), _PointMassOracle(c)
    xs = np.concatenate([e.samples, [c, np.nextafter(c, -9.0), np.nextafter(c, 9.0)]])
    got, want = p.cdf(xs), oracle.cdf(xs)
    assert np.array_equal(np.asarray(got, dtype=float).view(np.int64), want.view(np.int64))
    dk, dk_want = kolmogorov(e, p), oracle.kolmogorov(e)
    assert _same_bits(dk.lo, dk_want) and _same_bits(dk.hi, dk_want)
    assert _same_bits(wasserstein1(e, p), oracle.wasserstein1(e))
    assert concentration(p, r) == Interval(1.0, 1.0)


def test_kolmogorov_grid_interval_formula():
    g = GridCDF(x0=0.0, w=1.0, cum=np.array([0.25, 0.5, 0.75, 1.0]),
                eps_x=0.1, eps_p=0.01)
    e = EmpiricalCDF([0.0, 1.0, 2.0, 3.0])
    got = kolmogorov(e, g)
    # d0 = 0 here; slack = 3 eps_p + window_sup(4 eps_x) = 0.03 + 0.25
    assert isinstance(got, Interval)
    assert got == Interval(0.0, 0.28)


def _sup_diff_grid_oracle(ecdf, ref):
    """d_K against a grid by search: F_n and F at every sample and every knot."""
    best = float(np.max(np.abs(ecdf.cdf(ecdf.samples) - np.asarray(ref.cdf(ecdf.samples)))))
    k = ref.cum.size
    jumps = (ref.x0 + ref.w * np.arange(lo, min(lo + (1 << 20), k))
             for lo in range(0, k, 1 << 20))
    for chunk in jumps:
        d = np.max(np.abs(ecdf.cdf(chunk) - np.asarray(ref.cdf(chunk))))
        best = max(best, float(d))
    return best


def _w1_grid_oracle(ecdf, ref):
    """W1 against a grid over the sorted union of samples and knots."""
    knots = ref.x0 + ref.w * np.arange(ref.cum.size)
    b = np.union1d(ecdf.samples, knots)
    diff = np.abs(ecdf.cdf(b[:-1]) - np.asarray(ref.cdf(b[:-1])))
    return float(np.sum(diff * np.diff(b)))


def _grid_case(x0, w, k, n, seed, monotone):
    rng = np.random.default_rng(seed)
    cum = rng.random(k)
    if not monotone and np.any(np.diff(cum) < 0):
        with pytest.raises(ValueError, match="decrease"):
            GridCDF(x0=x0, w=w, cum=cum, eps_x=0.0, eps_p=0.0)
    cum.sort()
    g = GridCDF(x0=x0, w=w, cum=cum, eps_x=0.0, eps_p=0.0)
    knots = x0 + w * np.arange(k)
    # values between knots, on knots, on the virtual knots x0 - w and
    # x0 + k w, far outside the grid, each drawn with repeats
    pool = np.concatenate([
        rng.uniform(x0 - 3.0 * w, x0 + (k + 3) * w, size=n),
        knots[rng.integers(0, k, size=n)],
        [x0 - w, x0 + k * w, x0 - 1e3 * (1.0 + w * k), x0 + 1e3 * (1.0 + w * k)],
    ])
    pool = pool[rng.integers(0, pool.size, size=max(1, n // 2))]
    return EmpiricalCDF(pool[rng.integers(0, pool.size, size=n)]), g


def _same_bits(a: float, b: float) -> bool:
    return np.float64(a).view(np.int64) == np.float64(b).view(np.int64)


@settings(max_examples=300, deadline=None)
@given(x0=st.floats(-1e3, 1e3), w=st.floats(1e-6, 10.0),
       sizes=st.one_of(st.tuples(st.integers(200, 5000), st.integers(1, 40)),   # K >> N
                       st.tuples(st.integers(1, 40), st.integers(200, 5000)),   # K << N
                       st.tuples(st.integers(1, 3000), st.integers(1, 3000))),
       seed=st.integers(0, 2 ** 32 - 1), monotone=st.booleans())
@example(x0=0.1, w=1e-3, sizes=(1, 1), seed=0, monotone=True)
@example(x0=0.1, w=1e-3, sizes=(1, 1), seed=1, monotone=True)
@example(x0=-1.6, w=1.0 / 3000.0, sizes=(9601, 64), seed=2, monotone=True)
@example(x0=7.3, w=0.7, sizes=(3, 5000), seed=3, monotone=False)
# either side of the N >= 8K switch to the knot counts, with values on the
# first and last knots and on both virtual knots, then with runs of repeats
# on a knot
@example(x0=-2.3, w=0.37, sizes=(50, 399), seed=25, monotone=True)
@example(x0=-2.3, w=0.37, sizes=(50, 400), seed=25, monotone=True)
@example(x0=-2.3, w=0.37, sizes=(50, 401), seed=25, monotone=True)
@example(x0=-2.3, w=0.37, sizes=(50, 399), seed=207, monotone=True)
@example(x0=-2.3, w=0.37, sizes=(50, 400), seed=207, monotone=True)
@example(x0=-2.3, w=0.37, sizes=(50, 401), seed=207, monotone=True)
def test_grid_distances_match_search_oracle_bitwise(x0, w, sizes, seed, monotone):
    k, n = sizes
    e, g = _grid_case(x0, w, k, n, seed, monotone)
    dk = kolmogorov(e, g)
    assert dk.lo == dk.hi
    assert _same_bits(dk.lo, _sup_diff_grid_oracle(e, g))
    assert _same_bits(wasserstein1(e, g), _w1_grid_oracle(e, g))


def _w1_steps_oracle(ecdf, ref):
    """The step path's W1 summands as they were first built: union1d(samples,
    knots) scattered through two masks, its diff times the gaps."""
    k_all = ref.cum.size
    kept, gap_kept, slot, starts, levels = empirical._grid_steps(ecdf, ref)
    pos = slot + np.arange(slot.size)
    is_knot = np.ones(k_all + pos.size, dtype=bool)
    is_knot[pos] = False
    gap = np.empty(is_knot.size)
    gap[pos] = gap_kept
    gap_knots = np.repeat(levels, np.diff(starts, append=k_all))
    gap_knots -= ref.cum
    gap[is_knot] = np.abs(gap_knots, out=gap_knots)
    b = np.empty(is_knot.size)
    b[pos] = ecdf.samples[kept]
    knots = np.arange(k_all, dtype=float)
    knots *= ref.w
    knots += ref.x0
    b[is_knot] = knots
    d = np.diff(b)
    d *= gap[:-1]
    return d


@st.composite
def _step_case(draw):
    """A grid with non-dyadic x0 and w (its knot steps seldom all w) or with
    dyadic ones (all w), and a sample whose values all sit on knots
    (example-II's rows), all between them (regimeC's), or both, with values
    below and above the window and, at times, each drawn repeatedly."""
    if draw(st.booleans()):
        x0, w = draw(st.floats(-1e3, 1e3)), draw(st.floats(1e-6, 10.0))
    else:
        x0, w = draw(st.integers(-2 ** 12, 2 ** 12)) / 64.0, 2.0 ** -draw(st.integers(0, 12))
    k, n = draw(st.integers(1, 2000)), draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    on = x0 + w * rng.integers(0, k, n)
    off = x0 + w * (rng.integers(-3, k + 3, n) + rng.uniform(0.05, 0.95, n))
    values = {"on": on, "off": off, "both": np.where(rng.random(n) < 0.5, on, off)}[
        draw(st.sampled_from(["on", "off", "both"]))]
    if draw(st.booleans()):
        values = values[rng.integers(0, max(1, n // 4), n)]
    return EmpiricalCDF(values), GridCDF(x0, w, np.sort(rng.random(k)), 0.0, 0.0)


@settings(max_examples=300, deadline=None)
@given(_step_case())
@example((EmpiricalCDF([0.47]), GridCDF(0.1, 0.37, np.linspace(0.1, 1.0, 9), 0.0, 0.0)))
@example((EmpiricalCDF([0.1 + 0.37 * 3]), GridCDF(0.1, 0.37, np.linspace(0.1, 1.0, 9), 0.0, 0.0)))
@example((EmpiricalCDF([-5.0, 9.0]), GridCDF(0.1, 0.37, np.linspace(0.1, 1.0, 9), 0.0, 0.0)))
# knot steps not all w (pitch 0.3), with values on and off the knots
@example((EmpiricalCDF([0.25, 0.1 + 0.3 * 5, 0.1 + 0.3 * 5, 0.5, 3.0, 700.0]),
          GridCDF(0.1, 0.3, np.linspace(0.0, 1.0, 2000), 0.0, 0.0)))
def test_w1_step_path_matches_its_union_scatter_bitwise(case):
    # the one-array path against the union it replaced, summand by summand;
    # d_K read off the same table is the float of the step table's d_K.  A
    # grid whose knot steps are all w takes w, others their differences
    e, g = case
    assert g.even_steps == bool(np.all(np.diff(g.knots) == g.w))
    d0, got = empirical._w1_steps(e, g)
    want = _w1_steps_oracle(e, g)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert _same_bits(d0, kolmogorov(e, g).lo)


@pytest.mark.parametrize("dmap, base, x0, x1, w", [
    (DigitMap.geometric(0.5, (0.0, 1.0)), {"kind": "constant", "q": 2}, 0.0, 2.0, 2.0 ** -15),
    (DigitMap.symmetric_ternary(), {"kind": "constant", "q": 3}, -1.625, 1.625, 2.0 ** -14)],
    ids=["example-II", "regimeC"])
def test_w1_step_path_matches_its_union_scatter_on_preset_laws(dmap, base, x0, x1, w):
    # the grid-ladder rows: every value on a knot, and every value off them
    b = build_base(base)
    g = limit_cdf_conv(dmap, b, x0, x1, w)
    assert g.even_steps
    for n in (1, 300, 2048, 8000):
        e = empirical_cdf(dmap, b, n)
        got, want = empirical._w1_steps(e, g)[1], _w1_steps_oracle(e, g)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), n


@settings(max_examples=200, deadline=None)
@given(x0=st.floats(-1e3, 1e3), w=st.floats(1e-6, 10.0),
       sizes=st.one_of(st.tuples(st.integers(1, 400), st.integers(1, 4000)),
                       st.tuples(st.integers(200, 3000), st.integers(1, 100))),
       seed=st.integers(0, 2 ** 32 - 1))
@example(x0=-2.3, w=0.37, sizes=(50, 399), seed=25)       # N < 8K: both off the step table
@example(x0=-2.3, w=0.37, sizes=(50, 400), seed=207)      # N = 8K: both off the knot counts
def test_distances_equal_separate_calls_bitwise(x0, w, sizes, seed):
    # the row's shared table gives d_K and W1 the floats of kolmogorov and
    # wasserstein1 called alone, for every reference type
    k, n = sizes
    e, g = _grid_case(x0, w, k, n, seed, True)
    g = GridCDF(g.x0, g.w, g.cum, 0.01, 1e-9)               # a nonzero envelope
    for ref in (g, UniformCDF(x0, x0 + w * k), EmpiricalCDF(g.x0 + g.w * np.arange(k))):
        dk, w1 = empirical.distances(e, ref)
        want = kolmogorov(e, ref)
        assert _same_bits(dk.lo, want.lo) and _same_bits(dk.hi, want.hi)
        assert _same_bits(w1, wasserstein1(e, ref))


def test_star_discrepancy_exact():
    assert star_discrepancy([0.5]) == 0.5
    # van der Corput prefixes hit powers of two exactly
    b = build_base({"kind": "constant", "q": 2})
    m = DigitMap.radical_inverse()
    for k in (4, 7, 10):
        assert star_discrepancy(value_vector(m, b, 2 ** k)) == 2.0 ** -k
    with pytest.raises(PointOutOfRange):
        star_discrepancy([0.5, 1.5])
    for bad in ([], [math.nan], [0.5, math.nan]):
        with pytest.raises(ValueError):
            star_discrepancy(bad)


def test_star_discrepancy_equals_uniform_kolmogorov():
    rng = np.random.default_rng(3)
    s = rng.random(101)
    d = star_discrepancy(s)
    assert kolmogorov(EmpiricalCDF(s), UniformCDF()) == Interval(d, d)


# -- Wasserstein-1 ---------------------------------------------------------------


def test_w1_vs_point_mass_is_mean_distance():
    s = np.array([0.0, 1.0, 2.0, 5.0])
    e = EmpiricalCDF(s)
    got = wasserstein1(e, EmpiricalCDF([1.5]))
    assert got == 1.5
    assert abs(got - np.mean(np.abs(s - 1.5))) == 0.0


def test_w1_step_step_matches_brute():
    rng = np.random.default_rng(5)
    a = EmpiricalCDF(rng.integers(0, 64, size=17) / 16.0)
    b = EmpiricalCDF(rng.integers(0, 64, size=29) / 16.0)
    got = wasserstein1(a, b)
    want = _steps_w1_oracle(a.cdf, b.cdf, np.concatenate([a.samples, b.samples]))
    assert math.isclose(got, want, rel_tol=1e-14)


def test_w1_uniform_matches_quadrature():
    from scipy.integrate import quad

    rng = np.random.default_rng(9)
    s = rng.random(50)
    e = EmpiricalCDF(s)
    u = UniformCDF()
    got = wasserstein1(e, u)
    want = 0.0
    b = np.union1d(s, [0.0, 1.0])
    for lo, hi in zip(b[:-1], b[1:]):
        want += quad(lambda x: abs(float(e.cdf(x)) - float(u.cdf(x))), lo, hi)[0]
    # the oracle's own quadrature error dominates the comparison
    assert abs(got - want) <= 1e-7


def _w1_uniform_oracle(ecdf, ref):
    """W1 against a uniform over union1d(samples, [lo, hi]), each level found
    by searching the sample: the union-and-search form, kept as an oracle."""
    b = np.union1d(ecdf.samples, [ref.lo, ref.hi])
    a, c = b[:-1], b[1:]
    fa = ref.cdf(a)
    fb = ref.cdf(c)
    lev = ecdf.cdf(a)
    width = c - a
    below = fa >= lev          # F >= level on the whole segment
    above = fb <= lev
    mid = ~(below | above)
    area = np.where(below, (0.5 * (fa + fb) - lev) * width, 0.0)
    area = np.where(above, (lev - 0.5 * (fa + fb)) * width, area)
    if np.any(mid):
        slope = np.where(width > 0, (fb - fa) / np.where(width > 0, width, 1.0), 0.0)
        xs = np.where(mid, a + (lev - fa) / np.where(slope != 0, slope, 1.0), a)
        area = np.where(mid, 0.5 * (lev - fa) * (xs - a) + 0.5 * (fb - lev) * (c - xs), area)
    return float(np.sum(area))


@st.composite
def _uniform_case(draw):
    """(samples, lo, hi): repeats drawn from a pool that holds lo, hi, their
    float neighbours, -0.0 and values inside and on both sides outside."""
    lo, hi = draw(st.sampled_from([(0.0, 1.0), (1.0 / 3.0, 2.0 / 3.0), (-0.7, 0.1), (-1.5, 1.5)])
                  | st.tuples(st.floats(-4.0, 4.0), st.floats(1e-3, 8.0)).map(
                      lambda t: (t[0], t[0] + t[1])))
    span = hi - lo
    pool = [lo, hi, np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf), -0.0]
    pool += draw(st.lists(st.floats(lo - span, hi + span), min_size=1, max_size=30))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=80)), lo, hi


@settings(max_examples=300, deadline=None)
@given(_uniform_case())
@example(([0.25], 0.0, 1.0))
@example(([1.0 / 3.0, 1.0 / 3.0, 0.5, 2.0 / 3.0, 2.0 / 3.0], 1.0 / 3.0, 2.0 / 3.0))
@example(([-5.0, -5.0, -0.7, 0.2, 7.0], -0.7, 0.1))
@example(([(i + 0.5) / 16.0 for i in range(16)], 0.0, 1.0))   # F crosses in every segment
def test_w1_uniform_matches_union_oracle_bitwise(case):
    samples, lo, hi = case
    e, u = EmpiricalCDF(samples), UniformCDF(lo, hi)
    assert _same_bits(wasserstein1(e, u), _w1_uniform_oracle(e, u))


def _w1_knots_insert_oracle(ecdf, ref):
    """W1's summands against a grid from the knot counts in N-long arrays:
    the run ends less the runs on knots, their slot levels by np.repeat,
    and the knots' summands put in by np.insert."""
    s, n, cum, knots = ecdf.samples, ecdf.n, ref.cum, ref.knots
    lt, le = np.searchsorted(s, knots, side="left"), np.searchsorted(s, knots, side="right")
    last = np.append(s[1:] != s[:-1], True)
    last[le[le > lt] - 1] = False
    ends = np.flatnonzero(last)
    below = np.searchsorted(ends, lt)
    per_slot = np.diff(below, prepend=0, append=ends.size)
    v = s[ends]
    gap = np.abs((ends + 1.0) / n - np.repeat(np.concatenate(([0.0], cum)), per_slot))
    width = np.empty(v.size)
    width[:-1] = v[1:] - v[:-1]
    width[-1:] = 0.0
    j = np.flatnonzero(per_slot[:-1])
    width[below[j] - 1] = knots[j] - v[below[j] - 1]
    gap *= width
    nxt = np.append(knots[1:], knots[-1])
    j = np.flatnonzero(per_slot[1:])
    nxt[j] = v[below[j]]
    at = np.abs(le / n - cum) * (nxt - knots)
    return np.insert(gap, below, at)[:-1]


def _w1_uniform_insert_oracle(ecdf, ref):
    """W1 against a uniform in N-long arrays: the run ends' values and
    levels, lo and hi put in by np.insert, F over all points and the
    crossing segments redone as two triangles."""
    s, n = ecdf.samples, ecdf.n
    ends = np.flatnonzero(np.append(s[1:] != s[:-1], True))
    b, lev = s[ends], (ends + 1.0) / n
    pos = np.searchsorted(b, (ref.lo, ref.hi)).tolist()
    new = [(i, x) for i, x in zip(pos, (ref.lo, ref.hi)) if i == b.size or b[i] != x]
    if new:
        at, xs = zip(*new)
        b = np.insert(b, at, xs)
        lev = np.insert(lev, at, [lev[i - 1] if i else 0.0 for i in at])
    f = ref.cdf(b)
    fa, fb, lev = f[:-1], f[1:], lev[:-1]
    area = np.abs((fa + fb) * 0.5 - lev) * np.diff(b)
    mid = ~((fa >= lev) | (fb <= lev))
    if np.any(mid):
        a, c = b[:-1][mid], b[1:][mid]
        fa, fb, lev = fa[mid], fb[mid], lev[mid]
        slope = (fb - fa) / (c - a)
        slope[slope == 0] = 1.0
        xs = (lev - fa) / slope + a
        area[mid] = (lev - fa) * 0.5 * (xs - a) + (fb - lev) * 0.5 * (c - xs)
    return float(np.sum(area))


@st.composite
def _block_edge_case(draw):
    """(block, sorted sample, grid, lo, hi): a sample of n = q * block - 1, q *
    block or q * block + 1 values, drawn from a few knots of the grid, points
    between them and points below and above it, in runs of one value or of
    up to seven, and a uniform's ends on, between or outside the sample."""
    block = draw(st.sampled_from([8, 64, empirical.BLOCK]))
    n = max(1, block * draw(st.integers(1, 3)) + draw(st.sampled_from([-1, 0, 1])))
    k = draw(st.integers(1, 12))
    x0, w = draw(st.sampled_from([(0.0, 1.0), (0.1, 0.3), (-2.3, 0.37)]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    g = GridCDF(x0, w, np.sort(rng.random(k)), 0.0, 0.0)
    pool = {"on": g.knots,
            "off": x0 + w * (np.arange(-2, k + 2) + 0.5),
            "both": np.concatenate((g.knots, x0 + w * (np.arange(-2, k + 2) + 0.5)))}[
        draw(st.sampled_from(["on", "off", "both"]))]
    if draw(st.booleans()):                 # every run of one value: no gather
        pool = np.unique(np.concatenate((pool, rng.uniform(x0 - 3 * w, x0 + (k + 3) * w, n))))
        s = np.sort(rng.choice(pool, min(n, pool.size), replace=False))
    else:
        runs = rng.integers(1, 8, n)
        s = np.sort(np.repeat(rng.choice(pool, n), runs))[:n]
    ends = [s[0], s[-1], s[s.size // 2], s[0] - 1.0, s[-1] + 1.0, 0.5 * (s[0] + s[-1])]
    lo = draw(st.sampled_from(ends))
    hi = max(lo + draw(st.sampled_from([1e-3, 0.3, 5.0])), draw(st.sampled_from(ends)))
    return block, s, g, lo, hi


@settings(max_examples=300, deadline=None)
@given(_block_edge_case())
# a run on knot 1 that ends at the first block edge (index 7)
@example((8, np.array([0.5] * 3 + [1.0] * 5 + [1.5] * 4 + [2.0] * 2 + [3.0] * 2),
          GridCDF(0.0, 1.0, np.array([0.2, 0.5, 0.9]), 0.0, 0.0), 1.0, 1.5))
# every value on a knot, in runs across the block edges
@example((8, np.repeat([0.0, 1.0, 2.0], [5, 6, 6]),
          GridCDF(0.0, 1.0, np.array([0.2, 0.5, 0.9]), 0.0, 0.0), -1.0, 0.5))
# one run over two block edges, and values below and above the grid
@example((8, np.array([-4.0, -4.0] + [0.5] * 20 + [9.0, 9.0, 9.0]),
          GridCDF(0.0, 1.0, np.array([0.2, 0.5, 0.9]), 0.0, 0.0), 0.5, 9.0))
def test_blocked_w1_matches_whole_array_oracles_bitwise(case):
    # the blocked W1 paths against the whole-array forms they replaced, at
    # the block size drawn: the knot counts' summands bit for bit (and so
    # their np.sum), the uniform's W1 float
    block, s, g, lo, hi = case
    e, u = EmpiricalCDF(s), UniformCDF(lo, hi)
    with mock.patch.object(empirical, "BLOCK", block):
        got = empirical._w1_knots(e, g)
        w1 = empirical._w1_uniform(e, u)
    want = _w1_knots_insert_oracle(e, g)
    assert got[1].shape == want.shape
    assert np.array_equal(got[1].view(np.int64), want.view(np.int64))
    assert _same_bits(got[0], kolmogorov(e, g).lo)
    assert _same_bits(w1, _w1_uniform_insert_oracle(e, u))


def _kolmogorov_uniform_oracle(e: EmpiricalCDF, u: UniformCDF) -> float:
    # ref.cdf, i/n and both differences each as their own N-float array, as
    # d_K against a uniform was computed before F was made in place
    f = u.cdf(e.samples)
    i_n = np.arange(e.n + 1) / e.n
    return float(max(np.max(i_n[1:] - f), np.max(f - i_n[:-1]), 0.0))


@settings(max_examples=300, deadline=None)
@given(_uniform_case())
@example(([(i + 0.5) / 16.0 for i in range(16)], 0.0, 1.0))
@example(([-0.0, 0.0, 1.0, 1.0], 0.0, 1.0))
def test_kolmogorov_uniform_matches_separate_arrays_oracle_bitwise(case):
    samples, lo, hi = case
    e, u = EmpiricalCDF(samples), UniformCDF(lo, hi)
    want = _kolmogorov_uniform_oracle(e, u)
    got = kolmogorov(e, u)
    assert _same_bits(got.lo, want) and _same_bits(got.hi, want)


@settings(max_examples=200, deadline=None)
@given(_uniform_case(), st.sampled_from([1, 3, 8, 64]))
@example(([-0.0, 0.0, 1.0, 1.0, 1.0], 0.0, 1.0), 2)          # -0.0 alone in a block
@example(([0.1] * 8 + [0.9] * 9, 0.0, 1.0), 8)               # one value past a block edge
def test_kolmogorov_uniform_blocks_match_oracle_bitwise(case, block):
    # d_K against a uniform, BLOCK values at a time, at blocks smaller than
    # the sample: the whole-array value bit for bit, as a max is order-free
    samples, lo, hi = case
    e, u = EmpiricalCDF(samples), UniformCDF(lo, hi)
    with mock.patch.object(empirical, "BLOCK", block):
        got = kolmogorov(e, u)
    want = _kolmogorov_uniform_oracle(e, u)
    assert _same_bits(got.lo, want) and _same_bits(got.hi, want)


def test_kolmogorov_uniform_peak_is_a_few_blocks(peak_of):
    # at N = 8 and 32 blocks the scan holds a few block-sized float arrays,
    # where the whole-array form held 24 bytes a value (1.5 MB at N = 2^16)
    rng = np.random.default_rng(11)
    for n in (8 * empirical.BLOCK, 32 * empirical.BLOCK):
        e = EmpiricalCDF(rng.random(n))
        peak, d = peak_of(kolmogorov, e, UniformCDF())
        assert peak <= 5 * 8 * empirical.BLOCK
        assert _same_bits(d.hi, _kolmogorov_uniform_oracle(e, UniformCDF()))


class _SquareLaw:
    """The law with CDF x^2 on [0, 1]: CDF-like, but none of the three
    reference types."""

    def cdf(self, x):
        return np.clip(np.asarray(x, dtype=float), 0.0, 1.0) ** 2

    def support(self):
        return 0.0, 1.0


def test_foreign_reference_is_a_type_error():
    e = EmpiricalCDF([0.25, 0.5, 0.75])
    for distance in (lambda ref: kolmogorov(e, ref), lambda ref: wasserstein1(e, ref),
                     lambda ref: concentration(ref, 0.1)):
        with pytest.raises(TypeError, match="_SquareLaw"):
            distance(_SquareLaw())


# -- concentration ----------------------------------------------------------------


def test_concentration_uniform():
    u = UniformCDF()
    assert concentration(u, 0.25) == Interval(0.25, 0.25)
    assert concentration(u, 0.0) == Interval(0.0, 0.0)
    assert concentration(u, 2.0) == Interval(1.0, 1.0)


def test_concentration_atomic():
    for r in (0.0, 0.1, math.inf):
        assert concentration(EmpiricalCDF([3.0]), r) == Interval(1.0, 1.0)
    e = EmpiricalCDF([0.0, 0.5, 0.5, 1.0])
    assert concentration(e, 0.5) == Interval(0.75, 0.75)
    assert concentration(e, 0.49) == Interval(0.5, 0.5)
    assert concentration(e, 0.0) == Interval(0.5, 0.5)
    assert concentration(e, 1.0) == Interval(1.0, 1.0)
    # a negative or NaN width is refused by every reference type, and by the
    # grid's own window scan
    g = GridCDF(x0=0.0, w=1.0, cum=np.array([0.5, 1.0]), eps_x=0.0, eps_p=0.0)
    for r in (-0.1, math.nan):
        for ref in (e, EmpiricalCDF([3.0]), UniformCDF(), g):
            with pytest.raises(ValueError):
                concentration(ref, r)
        with pytest.raises(ValueError):
            g.window_sup(r)


def test_concentration_grid_interval():
    g = GridCDF(x0=0.0, w=1.0, cum=np.array([0.25, 0.5, 0.75, 1.0]),
                eps_x=0.05, eps_p=0.01)
    got = concentration(g, 1.0)
    assert isinstance(got, Interval)
    assert got.lo == 0.5                       # two adjacent atoms
    assert got.hi == g.window_sup(1.1) + 0.02  # widened window plus 2 eps_p
    assert got.lo <= got.hi


def test_concentration_hi_row_matches_scalar_calls_bitwise():
    # the optimizer's Q_F row, one window_sup per distinct floor(r / w),
    # against concentration's upper end at each width, and for a grid against
    # its defining sum min(1, window_sup(r + 2 eps_x) + 2 eps_p)
    r = 1.0 / np.array(T_GRID)
    rng = np.random.default_rng(11)
    grid = GridCDF(-0.3, 1.0 / 3000.0, np.cumsum(rng.random(5000)) / 2400.0, 7e-4, 3e-9)
    refs = (grid, UniformCDF(-0.5, 1.25), EmpiricalCDF(rng.normal(size=40).round(1)))
    for ref in refs:
        got = concentration_hi(ref, r)
        want = [concentration(ref, float(v)).hi for v in r]
        assert np.array_equal(got.view(np.int64), np.array(want).view(np.int64))
    fresh = GridCDF(grid.x0, grid.w, grid.cum, grid.eps_x, grid.eps_p)
    want = [min(1.0, fresh.window_sup(v + 2.0 * fresh.eps_x) + 2.0 * fresh.eps_p) for v in r]
    assert np.array_equal(concentration_hi(grid, r).view(np.int64), np.array(want).view(np.int64))
    assert concentration_hi(grid, r).max() == 1.0          # wide windows meet the clip at 1
    with pytest.raises(ValueError):
        concentration_hi(grid, np.array([0.5, -1.0]))


# -- smoothing inequality -----------------------------------------------------------


def test_smoothing_check_low_discrepancy(base2, vdc2):
    e = empirical_cdf(vdc2, base2, 4096)
    rep = smoothing_check(e, UniformCDF(), rho_inf=1.0)
    assert rep.dk == star_discrepancy(e.samples)
    assert all(r.ok for r in rep.rows)
    assert rep.optimized_ok
    assert rep.optimized_bound == 2.0 * math.sqrt(rep.w1)
    for bad_rho in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            smoothing_check(e, UniformCDF(), rho_inf=bad_rho)
