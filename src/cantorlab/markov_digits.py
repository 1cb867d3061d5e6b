"""Dependent digit sources: primitive finite-state chains with a spectral gap.

The digits of one level feed a fixed per-digit value table; the chain's
spectral gap drives exponential decay of value covariances and bounds the
variance inflation of trailing-window sums by tau2(h) + lambda^h.  All
sampling is counter-based (Philox), so every estimate is reproducible
from its seed alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AlphabetMismatch, NotPrimitive, NotStochastic, ResourceLimit, check_bytes
from .mixed_radix import build_base
from .qadditive import DigitMap, level_values

EIG_CAP = 16            # full eigendecomposition only for small alphabets
_ROW_TOL = 1e-12
_PI_TOL = 1e-10


@dataclass(frozen=True)
class DigitChain:
    """Row-stochastic, primitive digit source."""

    a: int
    P: np.ndarray
    pi: np.ndarray
    lam: float              # modulus of the second-largest eigenvalue


def build_chain(P) -> DigitChain:
    """Validate a transition matrix and extract (pi, lambda).

    Rows must sum to 1 within 1e-12 with nonnegative entries; some power
    of P up to the a^2-th must be strictly positive (primitivity).  pi
    comes from power iteration, lambda from the full spectrum (alphabets
    above 16 states are refused).
    """
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise NotStochastic(f"transition matrix must be square, got shape {P.shape}")
    a = P.shape[0]
    if a < 2:
        raise NotStochastic("need at least a two-digit alphabet")
    if a > EIG_CAP:
        raise ResourceLimit(f"alphabet {a} exceeds the eigendecomposition cap {EIG_CAP}")
    if np.any(P < 0.0):
        raise NotStochastic("transition matrix has negative entries")
    if np.max(np.abs(P.sum(axis=1) - 1.0)) > _ROW_TOL:
        raise NotStochastic(f"row sums deviate from 1 by more than {_ROW_TOL}")

    reach = P > 0.0
    M = reach.copy()
    ok = bool(M.all())
    for _ in range(a * a):
        if ok:
            break
        M = (M.astype(np.int64) @ reach.astype(np.int64)) > 0
        ok = bool(M.all())
    if not ok:
        raise NotPrimitive(f"no power of P up to {a * a} is strictly positive")

    v = np.full(a, 1.0 / a)
    for _ in range(500000):
        nxt = v @ P
        if np.abs(nxt - v).sum() <= 1e-14:
            v = nxt
            break
        v = nxt
    v = v / v.sum()
    if np.max(np.abs(v @ P - v)) > _PI_TOL:
        raise NotPrimitive("power iteration failed to reach a stationary vector")

    eigs = np.sort(np.abs(np.linalg.eigvals(P)))[::-1]
    lam = float(min(max(eigs[1], 0.0), 1.0))
    if lam > 1.0 - 1e-12:
        raise NotPrimitive(f"second eigenvalue modulus {lam} leaves no spectral gap")
    P.setflags(write=False)
    v.setflags(write=False)
    return DigitChain(a=a, P=P, pi=v, lam=lam)


def generate_paths(chain: DigitChain, n_paths: int, length: int, seed: int) -> np.ndarray:
    """(n_paths, length) digit array, charged 40 bytes a digit; stationary start, Philox."""
    if length < 1 or n_paths < 1:
        raise ValueError(f"need n_paths >= 1 and length >= 1, got {n_paths}, {length}")
    check_bytes(40 * n_paths * length, f"{n_paths} paths of {length} digits")
    rng = np.random.Generator(np.random.Philox(key=seed))
    u = rng.random((n_paths, length))
    cum_pi = np.cumsum(chain.pi)
    cum_p = np.cumsum(chain.P, axis=1)
    d = np.empty((n_paths, length), dtype=np.int64)
    d[:, 0] = np.searchsorted(cum_pi, u[:, 0], side="right").clip(0, chain.a - 1)
    for k in range(1, length):
        rows = cum_p[d[:, k - 1]]                       # (n_paths, a)
        d[:, k] = (u[:, k, None] > rows).sum(axis=1).clip(0, chain.a - 1)
    return d


def generate(chain: DigitChain, L: int, seed: int) -> np.ndarray:
    """One digit path of length L (stationary start, deterministic in seed)."""
    return generate_paths(chain, 1, L, seed)[0]


def _value_table(chain: DigitChain, dmap: DigitMap) -> np.ndarray:
    # the stationary functional: the map's level-0 value row on a constant base
    base = build_base({"kind": "constant", "q": chain.a})
    return np.array(level_values(dmap, base, 0))


@dataclass(frozen=True)
class CovarianceDecay:
    lags: tuple[int, ...]
    cov: tuple[float, ...]
    se: tuple[float, ...]
    used_lags: tuple[int, ...]       # lags admitted to the fit (|cov| > 5 se)
    slope: float                     # d log|cov| / dr; nan when underdetermined
    half_width: float                # 1.96 * SE of the slope
    n_paths: int


def covariance_decay(chain: DigitChain, dmap: DigitMap, r_max: int,
                     samples: int, seed: int) -> CovarianceDecay:
    """Ensemble covariance of the digit functional at lags 1..r_max.

    Independent stationary paths of length r_max + 16 give per-lag
    covariances with honest standard errors (exact stationary mean is
    subtracted, so no mean-estimation bias enters).  A weighted log-linear
    fit over the clearly resolved lags estimates the decay slope.
    """
    if r_max < 2:
        raise ValueError(f"need r_max >= 2, got {r_max}")
    vals = _value_table(chain, dmap)
    if vals.size != chain.a:
        raise AlphabetMismatch("digit map does not cover the chain's alphabet")
    path_len = r_max + 16
    n_paths = max(2, samples // path_len)
    d = generate_paths(chain, n_paths, path_len, seed)
    z = vals[d] - float(chain.pi @ vals)

    lags, covs, ses = [], [], []
    for r in range(1, r_max + 1):
        prod = z[:, :path_len - r] * z[:, r:]
        per_path = prod.mean(axis=1)
        c = float(per_path.mean())
        se = float(per_path.std(ddof=1) / math.sqrt(n_paths))
        lags.append(r)
        covs.append(c)
        ses.append(se)

    used, ys, ws = [], [], []
    for r, c, se in zip(lags, covs, ses):
        if se > 0.0 and abs(c) > 5.0 * se:
            used.append(r)
            ys.append(math.log(abs(c)))
            ws.append((c / se) ** 2)
    if len(used) >= 2:
        x = np.array(used, dtype=float)
        y = np.array(ys)
        w = np.array(ws)
        xm = (w * x).sum() / w.sum()
        ym = (w * y).sum() / w.sum()
        sxx = (w * (x - xm) ** 2).sum()
        slope = float((w * (x - xm) * (y - ym)).sum() / sxx)
        se_slope = float(math.sqrt(1.0 / sxx))     # unit-weight variance = (se/c)^-2
        half = 1.96 * se_slope
    else:
        slope, half = math.nan, math.nan
    return CovarianceDecay(lags=tuple(lags), cov=tuple(covs), se=tuple(ses),
                           used_lags=tuple(used), slope=slope, half_width=half,
                           n_paths=n_paths)


@dataclass(frozen=True)
class WindowVariance:
    h: int
    var_hat: float
    se: float                 # standard error of var_hat (fourth-moment form)
    tau2_pi: float            # h * stationary per-level variance
    lam_pow: float            # lambda^h
    ratio: float              # var_hat / (tau2_pi + lam_pow)
    n_paths: int


def window_variance(chain: DigitChain, dmap: DigitMap, L: int, h: int,
                    samples: int, seed: int) -> WindowVariance:
    """Monte Carlo Var of the centered trailing-window sum R_{L,h}.

    R sums the map's actual per-level digit values over levels L-h..L-1,
    each centered at its exact stationary mean; by stationarity the
    window law depends only on h, so paths of length h suffice.  The
    variance estimate is mean(R^2) with its fourth-moment standard error,
    reported against the independence-plus-gap budget tau2(h) + lambda^h
    (tau2 taken under the stationary digit law pi).
    """
    if not 1 <= h <= L:
        raise ValueError(f"need 1 <= h <= L, got h={h}, L={L}")
    base = build_base({"kind": "constant", "q": chain.a})
    v = np.array([level_values(dmap, base, j) for j in range(L - h, L)])    # (h, a)
    mu = v @ chain.pi                                      # per-level means
    s2 = ((v - mu[:, None]) ** 2) @ chain.pi
    n_paths = max(2, samples // h)
    d = generate_paths(chain, n_paths, h, seed)
    r_sum = (v[np.arange(h)[None, :], d] - mu).sum(axis=1)
    sq = r_sum * r_sum
    var_hat = float(sq.mean())
    se = float(sq.std(ddof=1) / math.sqrt(n_paths))
    tau2_pi = float(s2.sum())
    lam_pow = chain.lam ** h
    return WindowVariance(h=h, var_hat=var_hat, se=se, tau2_pi=tau2_pi,
                          lam_pow=lam_pow, ratio=var_hat / (tau2_pi + lam_pow),
                          n_paths=n_paths)
