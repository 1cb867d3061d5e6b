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

from .errors import NotPrimitive, NotStochastic, ResourceLimit, check_bytes
from .mixed_radix import build_base
from .qadditive import DigitMap, level_values

EIG_CAP = 16            # full eigendecomposition only for small alphabets
BLOCK_DIGITS = 1 << 15  # digits sampled and reduced per block (measured, see the README)
BLOCK_PATHS = 512       # and at least this many paths, so a step's numpy calls stay busy
BLOCK_BYTES = 25        # peak bytes per block digit: one block drawn beside the last
STEP_BYTES = 9          # and per block path: one step's gathered row and its mask
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


def _path_blocks(chain: DigitChain, n_paths: int, length: int, seed: int):
    """Yield (its rows, C-contiguous step-major (length, b) digits) per block
    of _block_paths; stationary start, one Philox stream for all blocks.

    A block's uniforms are drawn path-major and transposed once, so that each
    step reads the previous step's digits as one contiguous row.  A digit
    counts the states s < a - 1 whose cumulative transition probability from
    the previous digit lies below its uniform: as the cumulative rows never
    decrease, the count over all a states clipped to a - 1.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    cols = np.cumsum(chain.P, axis=1).T[:-1].copy()    # cols[s][i] = P[i, 0] + .. + P[i, s]
    start = np.cumsum(chain.pi)
    step = _block_paths(n_paths, length)
    for lo in range(0, n_paths, step):
        b = min(step, n_paths - lo)
        u = np.ascontiguousarray(rng.random((b, length)).T)      # (length, b)
        d = np.empty((length, b), dtype=np.int64)
        np.minimum(np.searchsorted(start, u[0], side="right"), chain.a - 1, out=d[0])
        up = np.empty(b, dtype=bool)
        for k in range(1, length):
            np.greater(u[k], cols[0].take(d[k - 1]), out=d[k])
            for c in cols[1:]:
                np.greater(u[k], c.take(d[k - 1]), out=up)
                np.add(d[k], up, out=d[k])
        del u
        yield slice(lo, lo + b), d


def _block_paths(n_paths: int, length: int) -> int:
    return min(n_paths, max(BLOCK_PATHS, BLOCK_DIGITS // length))


def _block_bytes(n_paths: int, length: int, held: int = 0) -> int:
    """Peak bytes of a block drawn beside the last, the caller holding `held`
    more bytes a digit of the last."""
    return ((BLOCK_BYTES + held) * length + STEP_BYTES) * _block_paths(n_paths, length)


def generate_paths(chain: DigitChain, n_paths: int, length: int, seed: int) -> np.ndarray:
    """(n_paths, length) C-contiguous digit array, filled block by block by
    _path_blocks; charged 8 bytes a digit plus one block."""
    if length < 1 or n_paths < 1:
        raise ValueError(f"need n_paths >= 1 and length >= 1, got {n_paths}, {length}")
    check_bytes(8 * n_paths * length + _block_bytes(n_paths, length),
                f"{n_paths} paths of {length} digits")
    d = np.empty((n_paths, length), dtype=np.int64)
    for rows, blk in _path_blocks(chain, n_paths, length, seed):
        d[rows] = blk.T
    return d


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
    if samples < 1:
        raise ValueError(f"need samples >= 1, got {samples}")
    vals = _value_table(chain, dmap)
    path_len = r_max + 16
    n_paths = max(2, samples // path_len)
    check_bytes(8 * (r_max + 1) * n_paths + _block_bytes(n_paths, path_len, held=8),
                f"{n_paths} paths of {path_len} digits")      # lag means, std's copy; z
    lag_means = np.empty((r_max, n_paths))             # per path, at lags 1..r_max
    zv = vals - float(chain.pi @ vals)
    for rows, d in _path_blocks(chain, n_paths, path_len, seed):
        z = zv.take(d)
        for r in range(1, r_max + 1):           # each path's lag sum in step order
            acc = lag_means[r - 1, rows]
            np.multiply(z[0], z[r], out=acc)
            for k in range(1, path_len - r):
                acc += z[k] * z[k + r]
            acc /= path_len - r

    lags = list(range(1, r_max + 1))
    covs = [float(m.mean()) for m in lag_means]
    ses = [float(m.std(ddof=1) / math.sqrt(n_paths)) for m in lag_means]

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
    if samples < 1:
        raise ValueError(f"need samples >= 1, got {samples}")
    base = build_base({"kind": "constant", "q": chain.a})
    v = np.array([level_values(dmap, base, j) for j in range(L - h, L)])    # (h, a)
    mu = v @ chain.pi                                      # per-level means
    dev = v - mu[:, None]
    s2 = (dev ** 2) @ chain.pi
    n_paths = max(2, samples // h)
    check_bytes(16 * n_paths + _block_bytes(n_paths, h),    # r_sum and std's copy
                f"{n_paths} paths of {h} digits")
    r_sum = np.empty(n_paths)
    for rows, d in _path_blocks(chain, n_paths, h, seed):
        acc = r_sum[rows]                       # each path's window sum in level order
        dev[0].take(d[0], out=acc)
        for k in range(1, h):
            acc += dev[k].take(d[k])
    sq = np.multiply(r_sum, r_sum, out=r_sum)
    var_hat = float(sq.mean())
    se = float(sq.std(ddof=1) / math.sqrt(n_paths))
    tau2_pi = float(s2.sum())
    lam_pow = chain.lam ** h
    return WindowVariance(h=h, var_hat=var_hat, se=se, tau2_pi=tau2_pi,
                          lam_pow=lam_pow, ratio=var_hat / (tau2_pi + lam_pow),
                          n_paths=n_paths)
