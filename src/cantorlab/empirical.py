"""Empirical distribution machinery: exact CDFs, distances, discrepancy.

Samples are enumerated exactly (never binned, never sampled).  Distances
take one of three reference types and raise TypeError on any other: exact
sup/sum formulas for UniformCDF and EmpiricalCDF (a point mass is
EmpiricalCDF([c])), the envelope error added for GridCDF.  d_K and the
concentration are Intervals for every reference, with lo == hi where exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import PointOutOfRange, check_bytes
from .limitlaw import GridCDF
from .mixed_radix import CantorBase
from .qadditive import DigitMap, level_values


class Interval(NamedTuple):
    """lo/hi bracket for a quantity known up to envelope error; lo == hi if exact."""

    lo: float
    hi: float


class UniformCDF:
    """Exact uniform reference on [lo, hi]."""

    def __init__(self, lo: float = 0.0, hi: float = 1.0):
        if not hi > lo:
            raise ValueError(f"uniform needs hi > lo, got [{lo}, {hi}]")
        self.lo = float(lo)
        self.hi = float(hi)

    def cdf(self, x):
        return np.clip((np.asarray(x, dtype=float) - self.lo) / (self.hi - self.lo), 0.0, 1.0)

    @property
    def density_sup(self) -> float:
        return 1.0 / (self.hi - self.lo)


class EmpiricalCDF:
    """Exact empirical CDF of a finite sample, kept sorted.

    EmpiricalCDF([c]) is the point mass at c.
    """

    def __init__(self, samples):
        s = np.sort(np.asarray(samples, dtype=float))
        if s.size == 0:
            raise ValueError("empirical CDF needs at least one sample")
        self.samples = s
        self.n = int(s.size)

    def cdf(self, x):
        return np.searchsorted(self.samples, np.asarray(x, dtype=float), side="right") / self.n


def value_vector(dmap: DigitMap, base: CantorBase, n: int) -> np.ndarray:
    """f(0), ..., f(n-1) by a division-free digit recursion (exact).

    Every index is treated as a digit vector over the full enumeration
    window (levels 0 .. L(n-1)), zero digits included, so the result is
    the product-measure evaluation that the limit law discretizes.  It
    differs from the expansion value exactly when digit 0 carries a
    nonzero value at some level above a number's own length.

    After level j the first q_{j+1} entries hold f(0 .. q_{j+1}-1): index
    d q_j + r is f(r) + t_j[d].  Each entry is summed as 0.0 + t_0[d_0] +
    t_1[d_1] + ... in level order, so it is bit-identical to indexing every
    level's table with (i // q_j) % a_j.  The cost is about 2n float adds.
    Each value is charged 80 bytes, the peak of the ladder row it feeds
    (enumeration, sort, d_K, W1, D*), a grid reference's knots not counted.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    check_bytes(80 * n, f"enumeration of {n} values")
    out = np.empty(n, dtype=float)
    out[0] = 0.0
    q = 1
    j = 0
    while q <= n - 1:
        a = base.digit_size(j)
        table = np.asarray(level_values(dmap, base, j), dtype=float)
        full = min(a, n // q)            # rows d < full fit whole
        np.add(out[:q], table[1:full, None], out=out[q:full * q].reshape(full - 1, q))
        if full < a and full * q < n:
            np.add(out[:n - full * q], table[full], out=out[full * q:n])
        out[:q] += table[0]              # row 0 last, as rows d >= 1 read it
        q *= a
        j += 1
    return out


def empirical_cdf(dmap: DigitMap, base: CantorBase, n: int) -> EmpiricalCDF:
    """Empirical CDF of {f(0), ..., f(n-1)}, charged as value_vector."""
    return EmpiricalCDF(value_vector(dmap, base, n))


def _foreign(ref) -> TypeError:
    return TypeError(f"reference must be a GridCDF, EmpiricalCDF or UniformCDF, "
                     f"got {type(ref).__name__}")


# -- Kolmogorov distance -----------------------------------------------------


def _sup_diff_step(ecdf: EmpiricalCDF, ref: EmpiricalCDF) -> float:
    # both right-continuous steps: the difference is constant between merged
    # jumps and takes its piece value at each jump, so right values suffice
    best = float(np.max(np.abs(ecdf.cdf(ecdf.samples) - ref.cdf(ecdf.samples))))
    d = np.max(np.abs(ecdf.cdf(ref.samples) - ref.cdf(ref.samples)))
    return max(best, float(d))


class _GridSteps(NamedTuple):
    """A sorted sample's steps placed among a grid's knots.

    F_n is levels[t] on knots starts[t] .. starts[t + 1] - 1 (through the
    last knot for the last t).  The sample's own jumps are its kept values:
    the last sample of each run, unless it is a knot, whose step the knots
    already hold.
    """

    kept: np.ndarray      # bool over the sample
    gap: np.ndarray       # |F_n - F| at each kept value
    pos: np.ndarray       # index of each kept value in union1d(samples, knots)
    starts: np.ndarray
    levels: np.ndarray


def _grid_steps(ecdf: EmpiricalCDF, ref: GridCDF) -> _GridSteps:
    """O(N + K) step table of both grid distances: one knot index per sample.

    In the sorted sample #samples <= s is the index of the end of s's run
    plus one, and #samples <= knot j counts the values whose first knot at
    or above them is j or lower, so neither side needs a search.  Each F_n
    value is that count / n and each F value a cum entry, as cdf computes
    them; knot j reads cum[j] bit for bit (GridCDF's pitch guard keeps its
    float knots exact).  Arrays are freed or reused as soon as they are
    spent, so that the peak stays at about three sample-sized arrays.
    """
    s, n, k_all = ecdf.samples, ecdf.n, ref.cum.size
    k, on = ref.knot_index(s)
    kept = np.append(s[1:] != s[:-1], True)
    ends = np.flatnonzero(kept)
    k, on = k[ends], on[ends]
    f = np.add(ends, 1.0)
    del ends
    f /= n
    k += on                                   # last knot <= value
    gap = ref.cum.take(k, mode="clip")
    gap[k < 0] = 0.0
    np.subtract(f, gap, out=gap)
    np.abs(gap, out=gap)
    k += 1
    k -= on                                   # first knot >= value
    on &= (k >= 0) & (k < k_all)              # virtual knots -1 and K are no knots
    np.clip(k, 0, k_all, out=k)               # knots below the value: its slot
    # F_n steps at the first knot of each slot, to its last value's count
    last = np.flatnonzero(np.append(k[1:] != k[:-1], True))
    starts, levels = k[last], f[last]
    del f, last
    if starts[-1] == k_all:                   # values above every knot
        starts, levels = starts[:-1], levels[:-1]
    if starts.size == 0 or starts[0] > 0:
        starts = np.concatenate(([0], starts))
        levels = np.concatenate(([0.0], levels))
    off = ~on
    kept[kept] = off
    pos = k[off]
    del k
    gap = gap[off]
    pos += np.arange(pos.size)
    return _GridSteps(kept, gap, pos, starts, levels)


def _sup_diff_grid(ecdf: EmpiricalCDF, ref: GridCDF) -> float:
    # right values at the sample's jumps and at every knot, as for two steps;
    # on a run of knots with one F_n level c, |c - cum| peaks at the run's
    # least or greatest cum, since c - x rounds monotonically in x, and as
    # cum never decreases these sit at the run's first and last knot
    st = _grid_steps(ecdf, ref)
    best = float(np.max(st.gap, initial=0.0))
    ends = np.append(st.starts[1:] - 1, ref.cum.size - 1)
    for knot in (st.starts, ends):
        best = max(best, float(np.max(np.abs(st.levels - ref.cum[knot]))))
    return best


def kolmogorov(ecdf: EmpiricalCDF, ref) -> Interval:
    """sup_x |F_n(x) - F(x)|.

    Exact (lo == hi) against uniform and step references; widened by the
    envelope against a grid reference.
    """
    if isinstance(ref, GridCDF):
        d0 = _sup_diff_grid(ecdf, ref)
        slack = ref.vertical_slack()
        return Interval(max(0.0, d0 - slack), min(1.0, d0 + slack))
    if isinstance(ref, EmpiricalCDF):
        d = _sup_diff_step(ecdf, ref)
    elif isinstance(ref, UniformCDF):
        f = ref.cdf(ecdf.samples)
        i_n = np.arange(ecdf.n + 1) / ecdf.n
        d = float(max(np.max(i_n[1:] - f), np.max(f - i_n[:-1]), 0.0))
    else:
        raise _foreign(ref)
    return Interval(d, d)


# -- Wasserstein-1 distance ---------------------------------------------------


def _w1_step(ecdf: EmpiricalCDF, ref: EmpiricalCDF) -> float:
    b = np.union1d(ecdf.samples, ref.samples)
    diff = np.abs(ecdf.cdf(b[:-1]) - ref.cdf(b[:-1]))
    return float(np.sum(diff * np.diff(b)))


def _w1_grid(ecdf: EmpiricalCDF, ref: GridCDF) -> float:
    """sum |F_n - F| diff(b) over b = union1d(samples, knots), bit for bit.

    b is built by scatter, not by sorting: the kept sample values go to
    their places and the knots fill the others in order.  The summands are
    the same array as with union1d, so np.sum adds them in the same order.
    The union's mask, gaps and abscissae and the knots' own abscissae peak
    near 25 bytes per knot, and with the step table 34 per sample value;
    26 and 40 are charged.
    """
    k_all = ref.cum.size
    check_bytes(26 * k_all + 40 * ecdf.n, f"W1 over {k_all} knots and {ecdf.n} values")
    kept, gap_kept, pos, starts, levels = _grid_steps(ecdf, ref)
    is_knot = np.ones(k_all + pos.size, dtype=bool)
    is_knot[pos] = False
    gap = np.empty(is_knot.size)
    gap[pos] = gap_kept
    del gap_kept
    gap_knots = np.repeat(levels, np.diff(starts, append=k_all))
    gap_knots -= ref.cum
    gap[is_knot] = np.abs(gap_knots, out=gap_knots)
    del gap_knots
    b = np.empty(is_knot.size)
    b[pos] = ecdf.samples[kept]
    del kept, pos
    knots = np.arange(k_all, dtype=float)
    knots *= ref.w
    knots += ref.x0
    b[is_knot] = knots
    del knots, is_knot
    d = np.diff(b)
    del b
    d *= gap[:-1]
    return float(np.sum(d))


def _w1_uniform(ecdf: EmpiricalCDF, ref: UniformCDF) -> float:
    # segments between sorted samples (plus the uniform's own endpoints);
    # |c - F| with linear F integrates in closed form on each segment
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


def wasserstein1(ecdf: EmpiricalCDF, ref) -> float:
    """integral |F_n - F| dx, exact in closed form for every reference type
    (a grid's envelope is not added)."""
    if isinstance(ref, GridCDF):
        return _w1_grid(ecdf, ref)
    if isinstance(ref, EmpiricalCDF):
        return _w1_step(ecdf, ref)
    if isinstance(ref, UniformCDF):
        return _w1_uniform(ecdf, ref)
    raise _foreign(ref)


# -- concentration ------------------------------------------------------------


def _atom_window_sup(atoms: np.ndarray, masses: np.ndarray, r: float) -> float:
    # sup_t mass[t, t+r]: optimal closed windows start at an atom
    cum = np.cumsum(masses)
    hi = np.searchsorted(atoms, atoms + r, side="right") - 1
    lo_mass = np.concatenate(([0.0], cum[:-1]))
    return float(np.max(cum[hi] - lo_mass))


def concentration(ref, r: float) -> Interval:
    """Levy concentration Q(r) = sup_x (F(x + r) - F(x-)).

    Exact (lo == hi) for atomic and uniform references; for a grid
    reference the upper end absorbs the envelope (window widened by
    2 eps_x, plus 2 eps_p).
    """
    if r < 0:
        raise ValueError(f"window width must be >= 0, got {r}")
    if isinstance(ref, GridCDF):
        exact = ref.window_sup(r)
        hi = min(1.0, ref.window_sup(r + 2.0 * ref.eps_x) + 2.0 * ref.eps_p)
        return Interval(exact, hi)
    if isinstance(ref, EmpiricalCDF):
        atoms, counts = np.unique(ref.samples, return_counts=True)
        q = _atom_window_sup(atoms, counts / ref.samples.size, r)
    elif isinstance(ref, UniformCDF):
        q = min(1.0, r * ref.density_sup)
    else:
        raise _foreign(ref)
    return Interval(q, q)


# -- star discrepancy ----------------------------------------------------------


def star_discrepancy(points) -> float:
    """Exact star discrepancy of points in [0, 1], an array or an EmpiricalCDF
    (already sorted, so not sorted again): d_K of their empirical CDF to U[0, 1],
    D*_n = max_i max(i/n - x_(i), x_(i) - (i-1)/n) over the sorted points."""
    ecdf = points if isinstance(points, EmpiricalCDF) else EmpiricalCDF(points)
    if ecdf.samples[0] < 0.0 or ecdf.samples[-1] > 1.0:
        raise PointOutOfRange("star discrepancy inputs must lie in [0, 1]")
    return kolmogorov(ecdf, UniformCDF()).hi


# -- smoothing inequality check -------------------------------------------------


@dataclass(frozen=True)
class SmoothingRow:
    sigma: float
    bound: float      # w1/sigma + rho_inf * sigma
    ok: bool          # d_K <= bound


@dataclass(frozen=True)
class SmoothingReport:
    dk: float
    w1: float
    rho_inf: float
    rows: tuple[SmoothingRow, ...]
    optimized_bound: float          # 2 sqrt(rho_inf * w1)
    optimized_ok: bool


def smoothing_check(ecdf: EmpiricalCDF, ref, rho_inf: float) -> SmoothingReport:
    """Tabulate the kernel-smoothing bound d_K <= w1/sigma + rho_inf sigma
    at sigma = sqrt(w1 / rho_inf) 2^k, k = -3 .. 3.

    The reference must have a bounded density with sup at most rho_inf.
    d_K is taken at its upper end, which only makes the claimed inequality
    harder to satisfy.
    """
    if not 0.0 < rho_inf < math.inf:
        raise ValueError(f"rho_inf must be a positive finite number, got {rho_inf!r}")
    dk = kolmogorov(ecdf, ref).hi
    w1 = wasserstein1(ecdf, ref)
    center = max(np.sqrt(w1 / rho_inf), 1e-300)
    rows = []
    for s in (center * 2.0 ** k for k in range(-3, 4)):
        bound = w1 / s + rho_inf * s
        rows.append(SmoothingRow(sigma=float(s), bound=float(bound), ok=bool(dk <= bound)))
    opt = 2.0 * float(np.sqrt(rho_inf * w1))
    return SmoothingReport(dk=float(dk), w1=float(w1), rho_inf=float(rho_inf),
                           rows=tuple(rows), optimized_bound=opt,
                           optimized_ok=bool(dk <= opt))
