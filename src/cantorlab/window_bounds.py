"""Effective window bounds for the Kolmogorov distance to the limit law.

The distance from the height-N empirical law to the limit is dominated by

    1/A(L,h)  +  sqrt(tau1)  +  Q_F(1/T)  +  1/T  +  G(T,h)

where A(L,h) is the size of the trailing digit window, tau1 the certified
tail beyond level L, Q_F the concentration of the reference law, and
G(T,h) one of three interchangeable regime terms:

    A (baseline smoothing)    G = T sqrt(tau2(h))
    B (bounded density)       G = rho_inf sqrt(tau2(h)), no Q_F or 1/T terms
    C (cumulant cancellation) G = T^2 tau2(h), needs mu3_j = 0 through level L

All implied constants are reported as 1; validity is asserted in ratio
form by the callers.  The smoothing parameter T ranges over a dyadic grid
that extends above 1 so the balance against 1/A(L,h) is actually
attainable at desk scale.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .empirical import concentration_hi
from .errors import MissingDensityBound, NoTailMeta, RegimeUnavailable
from .mixed_radix import CantorBase, build_base, length
from .qadditive import DigitMap, _inv, digit_stats, tail_sums

T_GRID = tuple(2.0 ** k for k in range(40, -41, -1))     # descending, 2^40 .. 2^-40

_REGIMES = ("A", "B", "C")


@dataclass(frozen=True)
class WindowBoundReport:
    """Every component of one evaluated bound."""

    N: int
    L: int
    h: int
    A_Lh: int
    bridge: float               # 1/A(L,h)
    tau1: Optional[float]       # certified tail bound, None when unavailable
    tau2_h: float
    T: float
    qf_term: float              # Q_F(1/T); 0 in regime B
    g_term: float
    total: float
    regime: str
    conditional: bool           # True when tau1 was unavailable

    def to_dict(self) -> dict:
        return asdict(self)


def window_size(base: CantorBase, L: int, h: int) -> int:
    """A(L,h) = a_{L-h} ... a_{L-1} = q_L / q_{L-h}, exact."""
    if not 1 <= h <= L:
        raise ValueError(f"need 1 <= h <= L, got h={h}, L={L}")
    return base.weight(L) // base.weight(L - h)


def tau2(dmap: DigitMap, base: CantorBase, L: int, h: int) -> float:
    """Window variance: sum of s_j^2 over the trailing levels L-h .. L-1."""
    if not 1 <= h <= L:
        raise ValueError(f"need 1 <= h <= L, got h={h}, L={L}")
    return math.fsum(digit_stats(dmap, base, j).s2 for j in range(L - h, L))


def tau1(dmap: DigitMap, base: CantorBase, L: int) -> float:
    """Certified upper bound for |sum_{j>L} m_j| + sum_{j>L} s_j^2."""
    mt, vt = tail_sums(dmap, base, L)
    return mt + vt


def regime_term(regime: str, T, tau2_h, rho_inf: Optional[float] = None):
    """G(T,h) for one regime, elementwise over arrays of T and tau2_h.  B
    ignores T and needs 0 < rho_inf < inf; A and C need 0 < T < inf; every
    tau2_h must be >= 0."""
    if regime not in _REGIMES:
        raise ValueError(f"regime must be one of {_REGIMES}, got {regime!r}")
    if not np.all(np.asarray(tau2_h) >= 0.0):
        raise ValueError(f"window variance must be >= 0, got {tau2_h!r}")
    if regime == "B":
        if rho_inf is None:
            raise MissingDensityBound("regime B needs a density sup bound rho_inf")
        if not 0.0 < rho_inf < math.inf:
            raise ValueError(f"rho_inf must be a positive finite number, got {rho_inf!r}")
        return rho_inf * np.sqrt(tau2_h)
    t = np.asarray(T, dtype=float)
    if not np.all((0.0 < t) & (t < math.inf)):
        raise ValueError(f"regimes A and C need a positive finite T, got {T!r}")
    if regime == "A":
        return t * np.sqrt(tau2_h)
    return t * t * tau2_h


def _mu3_clean(dmap: DigitMap, base: CantorBase, L: int) -> bool:
    return all(digit_stats(dmap, base, j).mu3 == 0.0 for j in range(L + 1))


def _best_report(dmap: DigitMap, base: CantorBase, N: int, L: int, regime: str,
                 rho_inf: Optional[float], ref, hs, ts) -> WindowBoundReport:
    """The report of the least total over the candidates h in hs, T in ts.

    Every total sits in one (h, T) table, summed in one order, bridge +
    Q_F(1/T) + 1/T + G + sqrt(tau1), so the minimum searched is the total
    reported.  Regime B ignores T, so its ts holds one T, and it has a row
    of 0.0 for Q_F(1/T) and 1/T; a missing tau1 adds 0.0.  Either leaves the
    positive bridge unchanged.  np.argmin takes the first of equal totals:
    the smallest h, then the first T in ts.

    Regimes A and C read Q_F(1/T) only in the T columns that can still win.
    The table summed with Q_F = 0 bounds every total from below, as Q_F >= 0
    and rounded addition is monotone in each operand.  The column of the
    least such bound reads Q_F, and the least of its totals is best.  The
    columns whose least bound is <= best read Q_F and, in their order, form
    the table searched; every other column's totals exceed best, so it can
    neither win nor tie.
    """
    low = L - max(hs)                       # the deepest level a window reaches
    first = 0 if regime == "C" else low     # C checks mu3 from level 0 through L
    stats = []
    for j in range(first, L + (regime == "C")):
        stats.append(digit_stats(dmap, base, j))
        if regime == "C" and stats[-1].mu3 != 0.0:
            raise RegimeUnavailable(
                "regime C needs vanishing third central digit moments through level L")
    try:
        t1: Optional[float] = tau1(dmap, base, L)
    except NoTailMeta:
        t1 = None
    s2 = [st.s2 for st in stats[low - first:L - first]]
    A = [window_size(base, L, h) for h in hs]
    bridge = np.array([_inv(1.0, a) for a in A])[:, None]
    t2 = np.array([math.fsum(s2[L - h - low:]) for h in hs])[:, None]
    t_row = np.array(ts, dtype=float)
    g = regime_term(regime, t_row, t2, rho_inf)
    tail = math.sqrt(t1) if t1 is not None else 0.0
    if regime == "B":
        qf = inv_t = np.zeros(len(ts))
    elif ref is None:
        raise ValueError("regimes A and C need a reference law for Q_F(1/T)")
    else:
        inv_t = 1.0 / t_row
        least = (bridge + inv_t + g + tail).min(axis=0)    # bridge + 0.0 is bridge
        j = least.argmin()
        best = (bridge[:, 0] + concentration_hi(ref, inv_t[j:j + 1]) + inv_t[j] + g[:, j]
                + tail).min()
        cols = (least <= best).nonzero()[0]
        ts, inv_t, g = [ts[c] for c in cols.tolist()], inv_t[cols], g[:, cols]
        qf = concentration_hi(ref, inv_t)
    total = bridge + qf + inv_t + g + tail
    i, k = divmod(int(np.argmin(total)), len(ts))
    return WindowBoundReport(N=N, L=L, h=hs[i], A_Lh=A[i], bridge=float(bridge[i, 0]),
                             tau1=t1, tau2_h=float(t2[i, 0]), T=ts[k],
                             qf_term=float(qf[k]), g_term=float(g[i, k]),
                             total=float(total[i, k]), regime=regime,
                             conditional=t1 is None)


def total_bound(dmap: DigitMap, base: CantorBase, N: int, h: int, T: float,
                regime: str, rho_inf: Optional[float] = None,
                ref=None) -> WindowBoundReport:
    """Assemble one full bound report at fixed (h, T).

    Regimes A and C add Q_F(1/T) + 1/T and need a reference law for the
    concentration; regime B is free of both.  Regime C refuses maps whose
    third central digit moments do not vanish through level L.  A custom
    map without tail metadata yields a conditional report whose total
    omits the sqrt(tau1) term.
    """
    L = length(base, N)
    if not 1 <= h <= L:
        raise ValueError(f"need 1 <= h <= L(N) = {L}, got h={h}")
    if not 0.0 < T < math.inf:
        raise ValueError(f"T must be a positive finite number, got {T!r}")
    return _best_report(dmap, base, N, L, regime, rho_inf, ref, (h,), (T,))


def optimize_window(dmap: DigitMap, base: CantorBase, N: int, regime: str,
                    rho_inf: Optional[float] = None,
                    ref=None) -> tuple[int, float, WindowBoundReport]:
    """Exhaustive minimum of the total over h in 1..L (and T on the grid).

    Ties break toward smaller h, then larger T.  Regime B has no T search
    (its report carries T = 1).  The report equals total_bound at the
    returned (h, T).
    """
    L = length(base, N)
    if L < 1:
        raise ValueError(f"N = {N} sits below the first level (L = 0)")
    report = _best_report(dmap, base, N, L, regime, rho_inf, ref, range(1, L + 1),
                          (1.0,) if regime == "B" else T_GRID)
    return report.h, report.T, report


def check_rate_family(family: str, alpha: Optional[float] = None,
                      beta: Optional[float] = None, q: int = 2) -> None:
    """ValueError unless q is an integer >= 2 (not a bool) and the family is
    example-I with a finite alpha > 1 or example-II with 0 < beta < 1."""
    if isinstance(q, bool) or not isinstance(q, int) or q < 2:
        raise ValueError(f"need an integer q >= 2, got {q!r}")
    if family == "example-I":
        if not (isinstance(alpha, (int, float)) and 1.0 < alpha <= sys.float_info.max):
            raise ValueError(f"example-I needs a finite alpha > 1, got {alpha!r}")
    elif family == "example-II":
        if not (isinstance(beta, (int, float)) and 0.0 < beta < 1.0):
            raise ValueError(f"example-II needs 0 < beta < 1, got {beta!r}")
    else:
        raise ValueError(f"unknown rate family {family!r}")


def predicted_rate(family: str, N: int, alpha: Optional[float] = None,
                   beta: Optional[float] = None, q: int = 2) -> float:
    """Closed-form rate of the two designed examples.

    example-I:  L^{-alpha/2} (log L)^{1/4} with L = floor(log_q N)
    example-II: N^{-gamma},  gamma = log(1/beta) / (log(1/beta) + 2 log q)
    """
    check_rate_family(family, alpha, beta, q)
    if N < q * q:
        raise ValueError(f"need N >= q^2 = {q * q}, got {N}")
    if family == "example-I":
        L = length(build_base({"kind": "constant", "q": q}), N)
        return L ** (-alpha / 2.0) * math.log(L) ** 0.25
    gamma = math.log(1.0 / beta) / (math.log(1.0 / beta) + 2.0 * math.log(q))
    return float(N) ** -gamma


def resolve_regime(dmap: DigitMap, base: CantorBase, L: int,
                   rho_inf: Optional[float] = None) -> str:
    """Pick the natural regime: B with a density bound, C when the third
    central moments vanish through level L, A otherwise."""
    if rho_inf is not None:
        return "B"
    if _mu3_clean(dmap, base, L):
        return "C"
    return "A"
