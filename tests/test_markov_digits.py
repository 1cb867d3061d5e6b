"""Markov digit sources: spectral data against closed forms, path laws
against transition frequencies, window variance against the exact
two-state covariance formula."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantorlab import (
    AlphabetMismatch,
    DigitMap,
    NotPrimitive,
    NotStochastic,
    ResourceLimit,
    build_base,
    build_chain,
    covariance_decay,
    generate_paths,
    level_values,
    window_variance,
)
from cantorlab import markov_digits


def _two_state(p=0.3, q=0.1):
    return build_chain([[1.0 - p, p], [q, 1.0 - q]])


PM1 = DigitMap.geometric(1.0, (-1.0, 1.0))     # constant-weight +-1 functional


def test_build_chain_two_state_closed_form():
    c = _two_state(0.3, 0.1)
    assert c.a == 2
    assert np.allclose(c.pi, [0.25, 0.75], atol=1e-10)
    assert abs(c.lam - 0.6) <= 1e-10
    assert not c.P.flags.writeable
    assert not c.pi.flags.writeable


def test_build_chain_uniform_has_no_memory():
    c = build_chain(np.full((4, 4), 0.25))
    assert np.allclose(c.pi, 0.25, atol=1e-12)
    assert c.lam <= 1e-12


def test_build_chain_validation():
    with pytest.raises(NotStochastic):
        build_chain(np.ones((2, 3)) / 3.0)
    with pytest.raises(NotStochastic):
        build_chain([[1.0]])
    with pytest.raises(NotStochastic):
        build_chain([[0.5, 0.5], [0.7, 0.2]])
    with pytest.raises(NotStochastic):
        build_chain([[1.2, -0.2], [0.5, 0.5]])
    with pytest.raises(ResourceLimit):
        build_chain(np.eye(17) * 0.0 + 1.0 / 17.0)
    # reducible: two closed blocks never mix
    with pytest.raises(NotPrimitive):
        build_chain([[1.0, 0.0], [0.0, 1.0]])
    # irreducible but periodic: powers alternate off/on the diagonal
    with pytest.raises(NotPrimitive):
        build_chain([[0.0, 1.0], [1.0, 0.0]])


def test_generate_paths_deterministic_and_in_range():
    c = _two_state()
    d1 = generate_paths(c, 3, 50, seed=42)
    d2 = generate_paths(c, 3, 50, seed=42)
    d3 = generate_paths(c, 3, 50, seed=43)
    assert np.array_equal(d1, d2)
    assert not np.array_equal(d1, d3)
    assert d1.shape == (3, 50)
    assert d1.min() >= 0 and d1.max() <= 1
    assert generate_paths(c, 1, 20, seed=7).shape == (1, 20)
    with pytest.raises(ValueError):
        generate_paths(c, 0, 5, seed=1)
    with pytest.raises(ValueError):
        generate_paths(c, 5, 0, seed=1)
    with pytest.raises(ResourceLimit):              # 2^40 digits, charged before sampling
        generate_paths(c, 1 << 20, 1 << 20, seed=1)


def _column_major_paths(chain, n_paths, length, seed):
    """generate_paths with the digits kept path-major: each step gathers the
    (n_paths, a) cumulative rows of the previous digits and counts."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    u = rng.random((n_paths, length))
    cum_p = np.cumsum(chain.P, axis=1)
    d = np.empty((n_paths, length), dtype=np.int64)
    d[:, 0] = np.searchsorted(np.cumsum(chain.pi), u[:, 0], side="right").clip(0, chain.a - 1)
    for k in range(1, length):
        rows = cum_p[d[:, k - 1]]
        d[:, k] = (u[:, k, None] > rows).sum(axis=1).clip(0, chain.a - 1)
    return d


def _random_chain(a, seed):
    # about a third of the off-diagonal moves forbidden; a positive diagonal
    # keeps a connected chain aperiodic, and a disconnected one is redrawn
    rng = np.random.default_rng(seed)
    while True:
        P = rng.random((a, a)) * (rng.random((a, a)) > 0.35)
        np.fill_diagonal(P, rng.random(a) + 0.05)
        try:
            return build_chain(P / P.sum(axis=1, keepdims=True))
        except NotPrimitive:
            continue


@settings(max_examples=60, deadline=None)
@given(a=st.integers(2, 5), chain_seed=st.integers(0, 2 ** 32 - 1),
       n_paths=st.integers(1, 2000), length=st.integers(1, 60),
       seed=st.integers(0, 2 ** 64 - 1))
def test_generate_paths_matches_column_major_oracle(a, chain_seed, n_paths, length, seed):
    c = _random_chain(a, chain_seed)
    got = generate_paths(c, n_paths, length, seed)
    assert got.dtype == np.int64 and got.flags.c_contiguous
    assert np.array_equal(got, _column_major_paths(c, n_paths, length, seed))


@pytest.mark.parametrize("chain", [_two_state(0.3, 0.1), _random_chain(3, 7)], ids=["a2", "a3"])
def test_estimators_unchanged_by_step_major_sampling(chain, monkeypatch):
    # the estimators reduce along each path, so their bits depend on the
    # digits' memory layout as well as on their values; the oracle hands them
    # the whole C-contiguous path-major draw as one block
    dmap = DigitMap.custom_table([[0.0, 1.0, -2.5]] * 20) if chain.a == 3 else PM1
    runs = [(covariance_decay, dict(r_max=9)), (window_variance, dict(L=20, h=7)),
            (window_variance, dict(L=20, h=1))]
    got = [fn(chain, dmap, samples=50_000, seed=17, **kw) for fn, kw in runs]

    def one_block(chain, n_paths, length, seed):
        yield slice(0, n_paths), _column_major_paths(chain, n_paths, length, seed)

    monkeypatch.setattr(markov_digits, "_path_blocks", one_block)
    want = [fn(chain, dmap, samples=50_000, seed=17, **kw) for fn, kw in runs]
    assert repr(got) == repr(want)


def _whole_covariance_decay(chain, dmap, r_max, samples, seed):
    """covariance_decay's lags, covariances, standard errors and path count
    from one whole (n_paths, r_max + 16) digit array, as computed before the
    paths came in blocks; the slope fit reads nothing else."""
    vals = markov_digits._value_table(chain, dmap)
    path_len = r_max + 16
    n_paths = max(2, samples // path_len)
    z = vals[_column_major_paths(chain, n_paths, path_len, seed)] - float(chain.pi @ vals)
    covs, ses = [], []
    for r in range(1, r_max + 1):
        per_path = (z[:, :path_len - r] * z[:, r:]).mean(axis=1)
        covs.append(float(per_path.mean()))
        ses.append(float(per_path.std(ddof=1) / math.sqrt(n_paths)))
    return tuple(range(1, r_max + 1)), tuple(covs), tuple(ses), n_paths


def _whole_window_variance(chain, dmap, L, h, samples, seed):
    """window_variance's var_hat, its standard error and path count from one
    whole (n_paths, h) digit array and a 2-d gather, as computed before the
    paths came in blocks."""
    base = build_base({"kind": "constant", "q": chain.a})
    v = np.array([level_values(dmap, base, j) for j in range(L - h, L)])
    mu = v @ chain.pi
    n_paths = max(2, samples // h)
    d = _column_major_paths(chain, n_paths, h, seed)
    r_sum = (v[np.arange(h)[None, :], d] - mu).sum(axis=1)
    sq = r_sum * r_sum
    return float(sq.mean()), float(sq.std(ddof=1) / math.sqrt(n_paths)), n_paths


@pytest.mark.parametrize("block_digits, block_paths",
                         [(markov_digits.BLOCK_DIGITS, markov_digits.BLOCK_PATHS), (64, 1), (64, 3)],
                         ids=["module", "64-digits", "64-digits-3-paths"])
@pytest.mark.parametrize("a", [2, 3, 4, 5])
def test_blocks_match_whole_array_oracles_at_block_edges(a, block_digits, block_paths,
                                                         monkeypatch):
    # each shape runs 2 paths and 0-3 whole blocks of b paths, on the block
    # edges and one path either side; at 64 digits a block the paths of 76
    # and 70 digits are each longer than a block
    monkeypatch.setattr(markov_digits, "BLOCK_DIGITS", block_digits)
    monkeypatch.setattr(markov_digits, "BLOCK_PATHS", block_paths)
    chain = _random_chain(a, 40 + a)
    dmap = DigitMap.custom_table([[(j + 1) * (s - 1.3) / (s * s + 2.0) for s in range(a)]
                                  for j in range(70)])
    shapes = [("decay", 2, 18), ("decay", 60, 76), ("window", (7, 1), 1),
              ("window", (7, 7), 7), ("window", (70, 70), 70)]
    for kind, arg, length in shapes:
        b = max(block_paths, block_digits // length)
        counts = sorted({n for k in range(4) for n in (k * b - 1, k * b, k * b + 1) if n >= 2})
        for n_paths in counts:
            samples, seed = n_paths * length, 1000 * a + n_paths
            if kind == "decay":
                dec = covariance_decay(chain, dmap, r_max=arg, samples=samples, seed=seed)
                got = (dec.lags, dec.cov, dec.se, dec.n_paths)
                want = _whole_covariance_decay(chain, dmap, arg, samples, seed)
            else:
                wv = window_variance(chain, dmap, L=arg[0], h=arg[1], samples=samples, seed=seed)
                got = (wv.var_hat, wv.se, wv.n_paths)
                want = _whole_window_variance(chain, dmap, arg[0], arg[1], samples, seed)
            assert repr(got) == repr(want), (kind, arg, n_paths)
            assert np.array_equal(generate_paths(chain, n_paths, length, seed),
                                  _column_major_paths(chain, n_paths, length, seed))


def test_sampling_peak_memory_within_byte_charge(charges, peak_of):
    # each estimator charges its per-path arrays plus one block of digits
    # drawn beside the last: the covariance fit (paths of r_max + 16
    # digits) and the window variance at a wide and at the narrowest window
    c = _two_state()
    runs = [(covariance_decay, dict(dmap=PM1, r_max=12)),
            (window_variance, dict(dmap=PM1, L=16, h=8)),
            (window_variance, dict(dmap=PM1, L=16, h=1))]
    ratios = []
    for fn, kw in runs:
        fn(c, samples=1000, seed=0, **kw)           # first-call allocations, untraced
        ratios.append(peak_of(fn, c, samples=1 << 18, seed=0, **kw)[0] / charges[-1])
    assert 1.0 / 1.5 <= max(ratios) <= 1.0, ratios


@pytest.mark.parametrize("n_paths, length", [(1000, 20), (100, 1000), (1 << 14, 8), (600, 200)],
                         ids=["one-block", "all-paths", "four-blocks", "two-floor-blocks"])
def test_generate_paths_peak_within_byte_charge(n_paths, length, charges, peak_of):
    # the int64 output plus one block drawn beside the last
    c = _two_state()
    generate_paths(c, 4, 4, seed=0)                 # first-call allocations, untraced
    peak = peak_of(generate_paths, c, n_paths, length, seed=0)[0]
    assert 1.0 / 1.5 <= peak / charges[-1] <= 1.0, (peak, charges[-1])


def test_generate_paths_match_stationary_law():
    c = _two_state(0.3, 0.1)
    d = generate_paths(c, 200_000, 1, seed=11)[:, 0]
    freq = np.bincount(d, minlength=2) / d.size
    # binomial SE ~ 0.001; allow 5 sigma
    assert abs(freq[1] - 0.75) <= 5.0 * math.sqrt(0.75 * 0.25 / d.size)


def test_generate_paths_match_transition_law():
    c = _two_state(0.3, 0.1)
    d = generate_paths(c, 1, 400_000, seed=13)[0]
    a, b = d[:-1], d[1:]
    n0 = int((a == 0).sum())
    p01 = int(((a == 0) & (b == 1)).sum()) / n0
    assert abs(p01 - 0.3) <= 5.0 * math.sqrt(0.3 * 0.7 / n0)


def test_covariance_decay_two_state_geometric():
    # cov(r) = lambda^r sigma^2 exactly for a two-state chain
    c = _two_state(0.3, 0.1)
    dec = covariance_decay(c, PM1, r_max=8, samples=1_000_000, seed=5)
    sigma2 = 0.75
    assert abs(dec.cov[0] - 0.6 * sigma2) <= 5.0 * dec.se[0]
    assert len(dec.used_lags) >= 3
    # slope estimates log lambda
    assert abs(dec.slope - math.log(0.6)) <= max(3.0 * dec.half_width, 0.05)
    assert dec.lags == tuple(range(1, 9))


def test_covariance_decay_validation():
    c = _two_state()
    with pytest.raises(ValueError):
        covariance_decay(c, PM1, r_max=1, samples=1000, seed=0)
    three = build_chain(np.full((3, 3), 1.0 / 3.0))
    with pytest.raises(AlphabetMismatch):
        covariance_decay(three, PM1, r_max=4, samples=1000, seed=0)
    for samples in (0, -5):
        with pytest.raises(ValueError, match="samples"):
            covariance_decay(c, PM1, r_max=4, samples=samples, seed=0)


def test_window_variance_iid_matches_tau2(geo_half):
    # memoryless uniform chain: R is a sum of independent digit values,
    # so Var(R) is exactly the stationary tau2 and lambda^h vanishes
    c = build_chain(np.full((2, 2), 0.5))
    wv = window_variance(c, geo_half, L=12, h=6, samples=600_000, seed=3)
    assert wv.lam_pow <= 1e-50       # eigensolver dust to the h-th power
    assert abs(wv.var_hat - wv.tau2_pi) <= 5.0 * wv.se
    assert abs(wv.ratio - 1.0) <= 0.05


def test_window_variance_correlated_closed_form():
    # constant +-1 weights on a sticky chain: Var(R) = sigma^2 (h + 2 sum
    # (h-r) lambda^r); the independence budget tau2 + lambda^h undershoots
    c = _two_state(0.3, 0.1)
    h = 10
    lam, sigma2 = 0.6, 0.75
    want = sigma2 * (h + 2.0 * sum((h - r) * lam ** r for r in range(1, h)))
    wv = window_variance(c, PM1, L=16, h=h, samples=2_000_000, seed=9)
    assert abs(wv.var_hat - want) <= 5.0 * wv.se
    assert wv.tau2_pi == pytest.approx(sigma2 * h, rel=1e-12)
    assert wv.ratio == pytest.approx(wv.var_hat / (wv.tau2_pi + lam ** h),
                                     rel=1e-12)
    assert wv.ratio > 1.5          # correlation inflates the window variance


def test_window_variance_validation(geo_half):
    c = _two_state()
    with pytest.raises(ValueError):
        window_variance(c, geo_half, L=5, h=6, samples=1000, seed=0)
    with pytest.raises(ValueError):
        window_variance(c, geo_half, L=5, h=0, samples=1000, seed=0)
    for samples in (0, -5):
        with pytest.raises(ValueError, match="samples"):
            window_variance(c, geo_half, L=5, h=2, samples=samples, seed=0)
