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

from .empirical import concentration
from .errors import MissingDensityBound, NoTailMeta, RegimeUnavailable
from .mixed_radix import CantorBase, length
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


@dataclass(frozen=True)
class BridgeBound:
    """Coarse and sharp forms of the block-alignment bridge."""

    coarse: float               # q_{L-h}/q_L = 1/A(L,h)
    sharp: float                # r/N with r = N mod q_{L-h}
    r: int


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


def regime_term(regime: str, T: float, tau2_h: float,
                rho_inf: Optional[float] = None) -> float:
    """G(T,h) for one regime.  B ignores T; A and C need 0 < T < inf."""
    if regime not in _REGIMES:
        raise ValueError(f"regime must be one of {_REGIMES}, got {regime!r}")
    if regime == "B":
        if rho_inf is None:
            raise MissingDensityBound("regime B needs a density sup bound rho_inf")
        return rho_inf * math.sqrt(tau2_h)
    if not 0.0 < T < math.inf:
        raise ValueError(f"regimes A and C need a positive finite T, got {T!r}")
    if regime == "A":
        return T * math.sqrt(tau2_h)
    return T * T * tau2_h


def bridge_bound(base: CantorBase, N: int, h: int) -> BridgeBound:
    """Bridge from height N to the nearest aligned height below.

    coarse = 1/A(L,h) never needs N's fine structure; sharp = r/N with
    r = N mod q_{L-h} is exact and can vanish at aligned heights.
    """
    L = length(base, N)
    if not 1 <= h <= L:
        raise ValueError(f"need 1 <= h <= L(N) = {L}, got h={h}")
    A = window_size(base, L, h)
    r = N % base.weight(L - h)
    return BridgeBound(coarse=_inv(1.0, A), sharp=r / N, r=r)


def _mu3_clean(dmap: DigitMap, base: CantorBase, L: int) -> bool:
    return all(digit_stats(dmap, base, j).mu3 == 0.0 for j in range(L + 1))


def _check_regime(dmap: DigitMap, base: CantorBase, L: int, regime: str,
                  rho_inf: Optional[float], ref) -> None:
    """The preconditions of one regime at top level L: a known regime name,
    vanishing third central moments for C, a positive density bound for B and a
    reference law for the Q_F(1/T) term of A and C."""
    if regime not in _REGIMES:
        raise ValueError(f"regime must be one of {_REGIMES}, got {regime!r}")
    if regime == "C" and not _mu3_clean(dmap, base, L):
        raise RegimeUnavailable(
            "regime C needs vanishing third central digit moments through level L")
    if regime == "B" and rho_inf is None:
        raise MissingDensityBound("regime B needs a density sup bound rho_inf")
    if regime == "B" and not 0.0 < rho_inf < math.inf:
        raise ValueError(f"rho_inf must be a positive finite number, got {rho_inf!r}")
    if regime != "B" and ref is None:
        raise ValueError("regimes A and C need a reference law for Q_F(1/T)")


def _best_report(dmap: DigitMap, base: CantorBase, N: int, L: int, regime: str,
                 rho_inf: Optional[float], ref, hs, ts) -> WindowBoundReport:
    """The report of the least total over the candidates h in hs, T in ts.

    The first of equal totals wins.  Each total is summed in one order,
    bridge [+ Q_F(1/T) + 1/T] + G + sqrt(tau1), so the minimum searched is
    the total reported.  A missing tau1 adds 0.0, which leaves a positive
    sum unchanged.  Q_F(1/T) is cached per T, so a search costs one scan
    of ts per h.
    """
    try:
        t1: Optional[float] = tau1(dmap, base, L)
    except NoTailMeta:
        t1 = None
    sqrt_t1 = math.sqrt(t1) if t1 is not None else 0.0
    low = L - max(hs)                       # the deepest level a window reaches
    s2 = [digit_stats(dmap, base, j).s2 for j in range(low, L)]

    qf_cache: dict[float, float] = {}
    best: Optional[tuple] = None
    for h in hs:
        A = window_size(base, L, h)
        bridge = _inv(1.0, A)
        t2 = math.fsum(s2[L - h - low:])
        for T in ts:
            g = regime_term(regime, T, t2, rho_inf)
            if regime == "B":
                qf = 0.0
                total = bridge + g + sqrt_t1
            else:
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
    _check_regime(dmap, base, L, regime, rho_inf, ref)
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
    _check_regime(dmap, base, L, regime, rho_inf, ref)
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
        L = int(math.log(N) / math.log(q))
        while q ** (L + 1) <= N:     # guard float log against boundary N = q^L
            L += 1
        while q ** L > N:
            L -= 1
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
