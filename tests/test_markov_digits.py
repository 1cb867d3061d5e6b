"""Markov digit sources: spectral data against closed forms, path laws
against transition frequencies, window variance against the exact
two-state covariance formula."""

import math

import numpy as np
import pytest

from cantorlab import (
    AlphabetMismatch,
    DigitMap,
    NotPrimitive,
    NotStochastic,
    ResourceLimit,
    build_chain,
    covariance_decay,
    generate,
    generate_paths,
    window_variance,
)


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
    assert generate(c, 20, seed=7).shape == (20,)
    with pytest.raises(ValueError):
        generate_paths(c, 0, 5, seed=1)
    with pytest.raises(ValueError):
        generate_paths(c, 5, 0, seed=1)
    with pytest.raises(ResourceLimit):              # 2^40 digits, charged before sampling
        generate_paths(c, 1 << 20, 1 << 20, seed=1)


def test_sampling_peak_memory_within_byte_charge(charges, peak_of):
    # generate_paths charges each digit the peak of the estimators it feeds:
    # the covariance fit (paths of r_max + 16 digits) and the window
    # variance at a wide and at the narrowest window
    c = _two_state()
    runs = [(covariance_decay, dict(dmap=PM1, r_max=12)),
            (window_variance, dict(dmap=PM1, L=16, h=8)),
            (window_variance, dict(dmap=PM1, L=16, h=1))]
    ratios = []
    for fn, kw in runs:
        fn(c, samples=1000, seed=0, **kw)           # first-call allocations, untraced
        ratios.append(peak_of(fn, c, samples=1 << 18, seed=0, **kw)[0] / charges[-1])
    assert 1.0 / 1.5 <= max(ratios) <= 1.0, ratios


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
