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
        if not -math.inf < lo < hi < math.inf:
            raise ValueError(f"uniform needs finite hi > lo, got [{lo}, {hi}]")
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
        if not (math.isfinite(s[0]) and math.isfinite(s[-1])):     # NaN sorts last
            raise ValueError(f"empirical CDF needs finite samples, got {s[0]} .. {s[-1]}")
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


def _run_ends(s: np.ndarray) -> np.ndarray:
    """True at the last index of each run of equal values in the sorted s:
    #samples <= s[i] is i + 1 there."""
    last = np.empty(s.size, dtype=bool)
    np.not_equal(s[1:], s[:-1], out=last[:-1])
    last[-1] = True
    return last


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
    kept = _run_ends(s)
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


def _knot_counts(ecdf: EmpiricalCDF, ref: GridCDF) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(knots, lt, le): the K float knots x0 + k w, as knot_index makes them,
    and #samples < and <= each knot, by two searches into the sorted sample."""
    knots = np.arange(ref.cum.size, dtype=float)
    knots *= ref.w
    knots += ref.x0
    s = ecdf.samples
    return knots, np.searchsorted(s, knots, side="left"), np.searchsorted(s, knots, side="right")


def _sup_diff_knots(ecdf: EmpiricalCDF, ref: GridCDF) -> float:
    """d_K against a grid from F_n at both edges of each knot slot, O(K log N).

    F_n is #samples <= knot j / n at knot j and #samples < knot j + 1 / n
    just below the next (1 past the last knot; below knot 0, where F is 0,
    #samples < knot 0 / n).  F is one cum entry per slot and F_n never
    decreases, so, as c - x rounds monotonically in c, these hold each
    slot's largest |F_n - F|: the float the step table gives.  Its knot-sized
    arrays stay within value_vector's per-value charge while N >= 4K.
    """
    n, cum = ecdf.n, ref.cum
    _, lt, le = _knot_counts(ecdf, ref)
    at = le / n
    below = lt / n
    best = max(float(np.max(np.abs(at - cum))), float(below[0]), abs(1.0 - float(cum[-1])))
    return max(best, float(np.max(np.abs(below[1:] - cum[:-1]), initial=0.0)))


def _sup_diff_grid(ecdf: EmpiricalCDF, ref: GridCDF) -> float:
    # N >= 4K: the knot searches (crossover measured, see the README).  Else
    # the step table's right values at the sample's jumps and at every knot;
    # on a run of knots with one F_n level c, |c - cum| peaks at the run's
    # least or greatest cum, since c - x rounds monotonically in x, and as
    # cum never decreases these sit at the run's first and last knot
    if ecdf.n >= 4 * ref.cum.size:
        return _sup_diff_knots(ecdf, ref)
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


def _w1_steps(ecdf: EmpiricalCDF, ref: GridCDF) -> np.ndarray:
    """The summands of W1 against a grid from the step table, N < 8K.

    union1d(samples, knots) is built by scatter, not by sorting: the kept
    sample values go to their places and the knots fill the others in
    order.  The union's mask, gaps and abscissae and the knots' own
    abscissae peak near 25 bytes per knot, and with the step table 34 per
    sample value; 26 and 40 are charged.
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
    return d


def _w1_knots(ecdf: EmpiricalCDF, ref: GridCDF) -> np.ndarray:
    """The summands of W1 against a grid from the knot counts, N >= 8K.

    The distinct sample values off the knots are the run ends less the
    run on each knot (its last index is le - 1).  A value between knots j
    and j + 1 has F_n = (run end + 1) / n and F = cum[j] (0 below knot 0),
    one np.repeat over the values per slot; knot j has F_n = le_j / n and
    F = cum[j].  Each width runs to the next point of the union: the next
    value, or the next knot after the last value before it and after a knot
    with no value behind it.  So each summand |F_n - F| width is the float
    of union1d(samples, knots), and np.insert puts the knots' among the
    values' in that order.  The run ends, the values and their gaps and
    widths peak near 24 bytes per value, the knot arrays near 48 per knot;
    26 and 48 are charged.
    """
    s, n, cum = ecdf.samples, ecdf.n, ref.cum
    check_bytes(48 * cum.size + 26 * n, f"W1 over {cum.size} knots and {n} values")
    knots, lt, le = _knot_counts(ecdf, ref)
    last = _run_ends(s)
    last[le[le > lt] - 1] = False           # a run on a knot is the knot's step
    ends = np.flatnonzero(last)
    del last
    below = np.searchsorted(ends, lt)       # values below knot j
    per_slot = np.diff(below, prepend=0, append=ends.size)
    v = s[ends]
    gap = np.add(ends, 1.0)
    del ends
    gap /= n
    width = np.repeat(np.concatenate(([0.0], cum)), per_slot)
    gap -= width
    np.abs(gap, out=gap)
    np.subtract(v[1:], v[:-1], out=width[:-1])
    width[-1:] = 0.0                        # the last value's is no summand
    j = np.flatnonzero(per_slot[:-1])       # knots just after a value
    width[below[j] - 1] = knots[j] - v[below[j] - 1]
    gap *= width
    del width
    nxt = np.append(knots[1:], knots[-1])   # the last knot's only if a value follows
    j = np.flatnonzero(per_slot[1:])        # knots just before a value
    nxt[j] = v[below[j]]
    del v
    nxt -= knots
    at = le / n
    at -= cum
    np.abs(at, out=at)
    at *= nxt
    return np.insert(gap, below, at)[:-1]   # the last point has no width


def _w1_grid(ecdf: EmpiricalCDF, ref: GridCDF) -> float:
    """sum |F_n - F| diff(b) over b = union1d(samples, knots), bit for bit:
    both paths give the same summands in the same order, so np.sum adds them
    alike.  N >= 8K takes the knot counts (crossover measured, see the
    README), else the step table."""
    d = _w1_knots(ecdf, ref) if ecdf.n >= 8 * ref.cum.size else _w1_steps(ecdf, ref)
    return float(np.sum(d))


def _w1_uniform(ecdf: EmpiricalCDF, ref: UniformCDF) -> float:
    """Segments between the distinct sample values and the uniform's own
    endpoints; |c - F| with linear F integrates in closed form on each.

    The distinct values and #samples <= each come from the run ends of the
    sorted sample, lo and hi go in by one search, and F is evaluated
    once over all of them, so nothing is sorted or searched per sample.
    Off the few segments where F crosses the level c (F_n - F changes sign
    there), F >= c or F <= c on the whole segment, so the area is
    |(F(a) + F(b)) / 2 - c| (b - a): the signed form of that side, bit for
    bit, as the difference is >= 0 there.
    """
    s, n = ecdf.samples, ecdf.n
    ends = np.flatnonzero(_run_ends(s))
    b = s[ends]
    lev = np.add(ends, 1.0)                 # #samples <= b, then F_n(b)
    del ends
    lev /= n
    pos = np.searchsorted(b, (ref.lo, ref.hi)).tolist()
    new = [(i, x) for i, x in zip(pos, (ref.lo, ref.hi)) if i == b.size or b[i] != x]
    if new:                                 # F_n(x) is F_n of the value below x
        at, xs = zip(*new)
        b = np.insert(b, at, xs)
        lev = np.insert(lev, at, [lev[i - 1] if i else 0.0 for i in at])
    f = ref.cdf(b)
    fa, fb, lev = f[:-1], f[1:], lev[:-1]
    area = fa + fb
    area *= 0.5
    area -= lev
    np.abs(area, out=area)
    width = np.diff(b)
    area *= width
    del width
    mid = ~((fa >= lev) | (fb <= lev))      # F crosses c inside the segment
    if np.any(mid):
        # F meets c at xs = a + (c - F(a)) / slope, which splits the segment
        # into two triangles.  Gathered one source at a time (b, F and F_n
        # are freed on the way) and worked in place, so a sample whose every
        # segment crosses stays within value_vector's charge.
        a, c = b[:-1][mid], b[1:][mid]
        del b
        fa, fb, lev = fa[mid], fb[mid], lev[mid]
        del f
        slope = fb - fa
        slope /= c - a                      # b strictly increases: c - a > 0
        slope[slope == 0] = 1.0             # an underflowed slope
        fb -= lev                           # F(c) - level
        lev -= fa                           # level - F(a)
        xs = np.divide(lev, slope, out=slope)
        xs += a
        np.subtract(xs, a, out=a)
        np.subtract(c, xs, out=c)
        lev *= 0.5
        lev *= a
        fb *= 0.5
        fb *= c
        lev += fb
        area[mid] = lev
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
    if not r >= 0:
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
