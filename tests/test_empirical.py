"""Empirical CDFs and distances, checked against brute-force oracles."""

import math
import re

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
        empirical_cdf(vdc2, base2, 16777217)    # 2^24 + 1 values, 1.34e9 bytes charged


def test_enumeration_row_peak_within_byte_charge(base2, vdc2, geo_half, charges, peak_of):
    # value_vector charges each value the peak of the ladder row it feeds:
    # enumeration, sort, d_K, W1 and, for radical-inverse maps, D*.  A grid's
    # own per-knot arrays are W1's charge (tested below): the row of one
    # value against the same reference measures them, and is taken off
    n = 1 << 16
    refs = [(DigitMap.geometric(0.5, (0.0, 0.0)), EmpiricalCDF([0.0])),
            (vdc2, limit_cdf_conv(vdc2, base2, 0.0, 1.0, 2.0 ** -16)),          # K = n
            (vdc2, UniformCDF()),
            (geo_half, limit_cdf_conv(geo_half, base2, 0.0, 2.0, 2.0 ** -17))]  # K = 4n

    def row(dmap, ref, m):
        ecdf = empirical_cdf(dmap, base2, m)
        kolmogorov(ecdf, ref)
        wasserstein1(ecdf, ref)
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


def test_w1_grid_peak_within_byte_charge(base2, vdc2, geo_half, charges, peak_of):
    # W1 against a grid charges 26 bytes per knot and 40 per sample value:
    # one value against K knots, example-II's K = 4N, K = N, and K << N
    fine = limit_cdf_conv(geo_half, base2, 0.0, 2.0, 2.0 ** -17)             # K = 2^18 + 1
    cases = [(geo_half, fine, 1), (geo_half, fine, 1 << 16),
             (vdc2, limit_cdf_conv(vdc2, base2, 0.0, 1.0, 2.0 ** -16), 1 << 16),
             (geo_half, limit_cdf_conv(geo_half, base2, 0.0, 2.0, 2.0 ** -11), 1 << 16)]
    for dmap, g, n in cases:
        ecdf = empirical_cdf(dmap, base2, n)
        wasserstein1(ecdf, g)                   # first-call allocations, untraced
        peak, _ = peak_of(wasserstein1, ecdf, g)
        assert charges[-1] == 26 * g.cum.size + 40 * n
        assert peak <= charges[-1] <= 1.5 * peak, (g.cum.size, n)


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


def test_uniform_and_point_refs():
    u = UniformCDF(1.0, 3.0)
    assert u.cdf(0.0) == 0.0 and u.cdf(2.0) == 0.5 and u.cdf(9.0) == 1.0
    assert u.density_sup == 0.5
    with pytest.raises(ValueError):
        UniformCDF(1.0, 1.0)
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
def test_grid_distances_match_search_oracle_bitwise(x0, w, sizes, seed, monotone):
    k, n = sizes
    e, g = _grid_case(x0, w, k, n, seed, monotone)
    dk = kolmogorov(e, g)
    assert dk.lo == dk.hi
    assert _same_bits(dk.lo, _sup_diff_grid_oracle(e, g))
    assert _same_bits(wasserstein1(e, g), _w1_grid_oracle(e, g))


def test_star_discrepancy_exact():
    assert star_discrepancy([0.5]) == 0.5
    # van der Corput prefixes hit powers of two exactly
    b = build_base({"kind": "constant", "q": 2})
    m = DigitMap.radical_inverse()
    for k in (4, 7, 10):
        assert star_discrepancy(value_vector(m, b, 2 ** k)) == 2.0 ** -k
    with pytest.raises(PointOutOfRange):
        star_discrepancy([0.5, 1.5])
    with pytest.raises(ValueError):
        star_discrepancy([])


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
    with pytest.raises(ValueError):
        concentration(e, -0.1)


def test_concentration_grid_interval():
    g = GridCDF(x0=0.0, w=1.0, cum=np.array([0.25, 0.5, 0.75, 1.0]),
                eps_x=0.05, eps_p=0.01)
    got = concentration(g, 1.0)
    assert isinstance(got, Interval)
    assert got.lo == 0.5                       # two adjacent atoms
    assert got.hi == g.window_sup(1.1) + 0.02  # widened window plus 2 eps_p
    assert got.lo <= got.hi


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
