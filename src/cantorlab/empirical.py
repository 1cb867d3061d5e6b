"""Empirical distribution machinery: exact CDFs, distances, discrepancy.

Samples are enumerated exactly (never binned, never sampled).  Distances
take one of three reference types and raise TypeError on any other: exact
sup/sum formulas for UniformCDF and EmpiricalCDF (a point mass is
EmpiricalCDF([c])), the envelope error added for GridCDF.  d_K and the
concentration are Intervals for every reference, with lo == hi where exact.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import PointOutOfRange, check_bytes
from .limitlaw import GridCDF
from .mixed_radix import CantorBase
from .qadditive import DigitMap, level_values

BLOCK = 1 << 13             # values per block of W1's summands (measured, see the README)


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
        self._hold(np.sort(np.asarray(samples, dtype=float)))

    @classmethod
    def _in_place(cls, values: np.ndarray) -> EmpiricalCDF:
        """The empirical CDF of a fresh float array that no caller holds,
        sorted in place rather than copied."""
        values.sort()
        ecdf = cls.__new__(cls)
        ecdf._hold(values)
        return ecdf

    def _hold(self, s: np.ndarray) -> None:
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
    Each value is charged 48 bytes, the peak of the ladder row it feeds
    (enumeration, sort, d_K, W1, D*), a grid reference's knots not counted.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    check_bytes(48 * n, f"enumeration of {n} values")
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
    """Empirical CDF of {f(0), ..., f(n-1)}, charged as value_vector; the
    values are sorted in place, so no second N-float array is made."""
    return EmpiricalCDF._in_place(value_vector(dmap, base, n))


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
    """A sorted sample's steps among a grid's knots: F_n is levels[t] on knots
    starts[t] .. starts[t + 1] - 1 (to the last knot for the last t), and the
    kept values, each run's last sample unless it is a knot, hold the rest."""

    kept: np.ndarray      # bool over the sample
    gap: np.ndarray       # |F_n - F| at each kept value
    slot: np.ndarray      # first knot above each kept value, K above the last
    starts: np.ndarray
    levels: np.ndarray


def _grid_steps(ecdf: EmpiricalCDF, ref: GridCDF) -> _GridSteps:
    """O(N + K) step table of both grid distances: one knot index per sample.

    #samples <= s is the end of s's run plus one, and #samples <= knot j
    counts the values whose first knot at or above them is j or lower, so
    neither side needs a search.  F_n is that count / n and F a cum entry,
    as cdf computes them (GridCDF's pitch guard keeps its float knots exact).
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
    levels = f[last]                          # each gather once its source is spent
    del f
    starts = k[last]
    del last
    if starts[-1] == k_all:                   # values above every knot
        starts, levels = starts[:-1], levels[:-1]
    if starts.size == 0 or starts[0] > 0:
        starts = np.concatenate(([0], starts))
        levels = np.concatenate(([0.0], levels))
    off = ~on
    del on
    kept[kept] = off
    gap = gap[off]                            # the old gap freed before k[off]
    return _GridSteps(kept, gap, k[off], starts, levels)


def _by_knot_counts(ecdf: EmpiricalCDF, ref: GridCDF) -> bool:
    """Whether the grid distances read the knot counts, N >= 8K (crossover
    measured, see the README), rather than the step table."""
    return ecdf.n >= 8 * ref.cum.size


def _knot_counts(ecdf: EmpiricalCDF, ref: GridCDF) -> tuple[np.ndarray, np.ndarray]:
    """(lt, le): #samples < and <= each knot, by two searches into the sorted sample."""
    s, knots = ecdf.samples, ref.knots
    return np.searchsorted(s, knots, side="left"), np.searchsorted(s, knots, side="right")


def _sup_diff_knots(ecdf: EmpiricalCDF, ref: GridCDF, lt: np.ndarray, le: np.ndarray) -> float:
    """d_K against a grid from F_n at both edges of each knot slot, O(K log N).

    F_n is le_j / n at knot j and lt_{j+1} / n just below the next (1 past the
    last knot, lt_0 / n below knot 0, where F is 0).  F is one cum entry per
    slot and F_n never decreases, so, as c - x rounds monotonically in c,
    these hold each slot's largest |F_n - F|: the step table's float.  The
    knot arrays stay within value_vector's per-value charge while N >= 8K.
    """
    n, cum = ecdf.n, ref.cum
    at = le / n
    below = lt / n
    best = max(float(np.max(np.abs(at - cum))), float(below[0]), abs(1.0 - float(cum[-1])))
    return max(best, float(np.max(np.abs(below[1:] - cum[:-1]), initial=0.0)))


def _sup_diff_steps(ref: GridCDF, st: _GridSteps) -> float:
    # the step table's right values at the sample's jumps and at every knot;
    # on a run of knots with one F_n level c, |c - cum| peaks at the run's
    # least or greatest cum, since c - x rounds monotonically in x, and as
    # cum never decreases these sit at the run's first and last knot
    best = float(np.max(st.gap, initial=0.0))
    ends = np.append(st.starts[1:] - 1, ref.cum.size - 1)
    for knot in (st.starts, ends):
        best = max(best, float(np.max(np.abs(st.levels - ref.cum[knot]))))
    return best


def _grid_interval(ref: GridCDF, d0: float) -> Interval:
    slack = ref.vertical_slack()
    return Interval(max(0.0, d0 - slack), min(1.0, d0 + slack))


def kolmogorov(ecdf: EmpiricalCDF, ref) -> Interval:
    """sup_x |F_n(x) - F(x)|: exact (lo == hi) against uniform and step
    references, widened by the envelope against a grid, read off the table
    that distances takes at the same N and K."""
    if isinstance(ref, GridCDF):
        if _by_knot_counts(ecdf, ref):
            return _grid_interval(ref, _sup_diff_knots(ecdf, ref, *_knot_counts(ecdf, ref)))
        return _grid_interval(ref, _sup_diff_steps(ref, _grid_steps(ecdf, ref)))
    if isinstance(ref, EmpiricalCDF):
        d = _sup_diff_step(ecdf, ref)
    elif isinstance(ref, UniformCDF):          # i/n - F and F - (i-1)/n, BLOCK values at a time
        n, d = ecdf.n, 0.0
        buf = np.empty(min(BLOCK, n))
        for lo in range(0, n, BLOCK):
            x = ecdf.samples[lo:lo + BLOCK]
            f = _unit_cdf(ref, x, buf[:x.size])
            i_n = np.arange(lo, lo + x.size + 1, dtype=float)
            i_n /= n
            d = max(d, np.max(i_n[1:] - f), np.max(np.subtract(f, i_n[:-1], out=f)))
        d = float(d)
    else:
        raise _foreign(ref)
    return Interval(d, d)


# -- Wasserstein-1 distance ---------------------------------------------------


def _w1_step(ecdf: EmpiricalCDF, ref: EmpiricalCDF) -> float:
    b = np.union1d(ecdf.samples, ref.samples)
    diff = np.abs(ecdf.cdf(b[:-1]) - ref.cdf(b[:-1]))
    return float(np.sum(diff * np.diff(b)))


def _w1_steps(ecdf: EmpiricalCDF, ref: GridCDF) -> tuple[float, np.ndarray]:
    """d_K's float and W1's summands against a grid from one step table, N < 8K.

    d_K is read first, and then W1 frees each array of the table once spent.
    The knots' |F_n - F| is worked in one array: the slot levels repeated,
    less cum, times each knot's width to the next knot or, if sooner, to
    the first value of the next slot, which lies below it.  Each value off the
    knots takes the width to the next value or, if sooner, to the knot that
    ends its slot, and goes in by one scatter.  The table's build peaks near
    42 bytes per value, the knots' widths near 8 per knot (16 when the knot
    steps are not all w, for their differences) and 40 per value; the larger
    of 43 per value and 9 or 17 per knot plus 40 per value is charged first,
    the ninth byte for numpy's per-call overhead.  The union, made only when
    some of the m distinct values lie off the knots, peaks near 17 per knot
    and 25 per such value; 17 and 26 are charged before it.
    """
    x, cum, k_all, n = ref.knots, ref.cum, ref.cum.size, ecdf.n
    check_bytes(max((9 if ref.even_steps else 17) * k_all + 40 * n, 43 * n),
                f"W1 over {k_all} knots and {n} values")
    kept, gap, slot, starts, levels = st = _grid_steps(ecdf, ref)
    d0 = _sup_diff_steps(ref, st)
    del st
    v = ecdf.samples[kept]
    del kept
    w = x.take(slot, mode="clip")             # the knot that ends each value's slot,
    tail = int(np.searchsorted(slot, k_all))
    w[tail:] = np.inf                         # none above the last knot,
    np.minimum(w[:-1], v[1:], out=w[:-1])     # unless the next value comes first
    if tail < v.size:
        w[-1] = v[-1]                         # the last point has no width
    w -= v
    w *= gap
    del gap
    d = np.repeat(levels, np.diff(starts, append=k_all))
    del starts, levels
    d -= cum
    np.abs(d, out=d)
    # knot s - 1 reaches the first value of slot s >= 1, if it has one (it
    # lies below x[s]), else the next knot; the last knot reaches none, and
    # with no value above it, it is the union's last point, cut below
    first = np.empty(slot.size, dtype=bool)
    first[:1] = slot[:1] > 0
    np.not_equal(slot[1:], slot[:-1], out=first[1:])
    redo = v[first]
    del v
    before = slot[first]
    del first
    before -= 1
    redo -= x[before]
    redo *= d[before]
    if ref.even_steps:
        d *= ref.w
    else:
        d[:-1] *= np.diff(x)
    d[before] = redo
    del before, redo
    if slot.size:                             # np.insert, without its index copies
        check_bytes(17 * k_all + 26 * slot.size, f"W1 union of {k_all} knots and "
                    f"{slot.size} values")
        slot += np.arange(slot.size)          # each value's place in the union
        knot = np.ones(k_all + slot.size, dtype=bool)
        knot[slot] = False
        union = np.empty(knot.size)
        union[slot] = w
        union[knot] = d
        d = union
    return d0, d[:-1]                         # the last point has no width


def _w1_knots(ecdf: EmpiricalCDF, ref: GridCDF) -> tuple[float, np.ndarray]:
    """d_K's float and W1's summands against a grid from the knot counts, N >= 8K.

    The run that ends at index i lies in slot t, above the t knots with
    lt <= i: F_n = (i + 1) / n, F = cum[t - 1] (0 below knot 0), and its
    width runs to the next sample or, if sooner, knot t.  Knot j has
    F_n = le_j / n, F = cum[j] and a width to knot j + 1 or, if sooner,
    the next sample s[le_j].  A run on a knot is the knot's step: counting
    only the p_t knots below slot t that no run sits on, the r-th run goes
    to r + p_t in the union, and a run on knot j to knot j's own place,
    where the knot's summand, written last, replaces it.  The runs are
    worked BLOCK samples at a time, gathered only where some run is longer
    than one; each run's F, knot t and place come from np.repeat over the
    block's runs in each slot.  No array but the summands and the run-end
    mask is N long: the peak is near 58 bytes per knot, 9 per value and
    56 per value of one block (81 with the gather); 64, 9 and 88 are
    charged.
    """
    s, n, cum, knots = ecdf.samples, ecdf.n, ref.cum, ref.knots
    k_all = cum.size
    check_bytes(64 * k_all + 9 * n + 88 * min(BLOCK, n), f"W1 over {k_all} knots and {n} values")
    lt, le = _knot_counts(ecdf, ref)
    d0 = _sup_diff_knots(ecdf, ref, lt, le)
    nxt = np.append(knots[1:], knots[-1])   # the last knot's only if a value follows
    j = np.flatnonzero(le < np.append(lt[1:], n))
    nxt[j] = s[le[j]]
    del j
    nxt -= knots
    at = le / n
    at -= cum
    np.abs(at, out=at)
    at *= nxt
    del nxt
    ends = _run_ends(s)
    runs = int(np.count_nonzero(ends))
    single = runs == n                      # no gather: run r ends at index r
    p = np.concatenate(([0], np.cumsum(le == lt)))           # the p_t
    out = np.empty(runs + int(p[-1]))       # the summands, in union order
    below = lt if single else np.full(k_all, runs)           # runs below each knot
    cum0 = np.concatenate(([0.0], cum))     # F on each slot
    top = np.append(knots, np.inf)          # the knot that ends each slot
    edge = np.concatenate(([0], lt, [n]))   # each slot's first index, and n
    ramp = np.arange(min(BLOCK, n))
    framp, fn = np.arange(float(ramp.size)), np.empty(ramp.size)
    r0 = ja = 0
    for a in range(0, n, BLOCK):
        b = min(a + BLOCK, n)
        jb = int(np.searchsorted(lt, b))    # slots ja .. jb meet the block
        v, nxt = s[a:b], s[a + 1:b + 1]
        if single:
            c = b - a
            lens = edge[ja:jb + 2].copy()
            lens[0], lens[-1] = a, b
            lens = lens[1:] - lens[:-1]     # the block's runs in each slot
            f = np.add(framp[:c], a + 1.0, out=fn[:c])
        else:
            i = np.flatnonzero(ends[a:b])
            c = i.size
            cut = np.searchsorted(i, lt[ja:jb] - a)
            below[ja:jb] = r0 + cut
            lens = np.diff(cut, prepend=0, append=c)
            v, nxt = v[i], nxt[i[:np.searchsorted(i, nxt.size)]]
            f = np.add(i, a + 1.0, out=fn[:c])
        f /= n                              # F_n
        gap = np.repeat(cum0[ja:jb + 1], lens)
        width = np.repeat(top[ja:jb + 1], lens)
        pos = np.repeat(p[ja:jb + 1] + r0, lens)
        np.subtract(f, gap, out=gap)
        np.abs(gap, out=gap)
        np.minimum(width[:nxt.size], nxt, out=width[:nxt.size])
        if nxt.size < c and jb == k_all:
            width[-1] = v[-1]               # the last point has no width
        width -= v
        gap *= width
        pos += ramp[:c]
        out[pos] = gap
        r0 += c
        ja = jb
    below += p[:-1]
    out[below] = at
    return d0, out[:-1]                     # the last point has no width


def _unit_cdf(ref: UniformCDF, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """ref.cdf(x) into out, bit for bit."""
    np.subtract(x, ref.lo, out=out)
    out /= ref.hi - ref.lo
    return np.clip(out, 0.0, 1.0, out=out)


def _uniform_areas(a, c, fa, fb, lev, out) -> None:
    """integral of |F_n - F| over each segment (a, c), F linear from fa to fb
    and F_n = lev, into out; a, c, fa and fb are only read.

    Off the segments where F crosses the level (F_n - F changes sign there),
    F >= lev or F <= lev on the whole segment, so the area is
    |(F(a) + F(c)) / 2 - lev| (c - a): the signed form of that side, bit for
    bit, as the difference is >= 0 there.  F meets lev inside a crossing
    segment at xs = a + (lev - F(a)) / slope, which splits it into two
    triangles.
    """
    np.add(fa, fb, out=out)
    out *= 0.5
    out -= lev
    np.abs(out, out=out)
    out *= c - a
    mid = (fa < lev) & (fb > lev)
    if np.any(mid):
        a, c, fa, fb, lev = a[mid], c[mid], fa[mid], fb[mid], lev[mid]
        slope = fb - fa
        slope /= c - a                      # the points strictly increase
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
        out[mid] = lev


def _w1_uniform(ecdf: EmpiricalCDF, ref: UniformCDF) -> float:
    """Segments between the distinct sample values and the uniform's own
    endpoints; |c - F| with linear F integrates in closed form on each.

    The run that ends at index i has F_n = (i + 1) / n, and the next
    distinct value is s[i + 1], so the segments between values are worked
    BLOCK samples at a time from the sample itself, gathered only where
    some run is longer than one.  lo and hi, where no sample lies, split
    the segment they fall in (or add segments beyond the sample) and are
    worked on their own.  Each area goes to its place in the union, so
    np.sum reads them in its order; no array but the areas and the run-end
    mask is N long.
    """
    s, n = ecdf.samples, ecdf.n
    ends = _run_ends(s)
    runs = int(np.count_nonzero(ends))
    single = runs == n                      # no gather: run r ends at index r
    new = []                                # (#samples below x, x) for lo, hi off the sample
    for x in (ref.lo, ref.hi):
        i = int(np.searchsorted(s, x))
        if i == n or s[i] != x:
            new.append((i, x))
    ranks = [i if single else int(np.count_nonzero(ends[:i])) for i, _ in new]
    out = np.empty(runs + len(new) - 1)     # the union's areas, in its order
    f0, f1 = np.empty((2, min(BLOCK, n) + 1))
    r0 = 0
    for a in range(0, n - 1, BLOCK):
        b = min(a + BLOCK, n - 1)
        if single:
            v, nxt = s[a:b], s[a + 1:b + 1]
            f = _unit_cdf(ref, s[a:b + 1], f0[:b - a + 1])
            fa, fb = f[:-1], f[1:]
            lev = np.arange(a + 1.0, b + 1.0)
        else:
            i = np.flatnonzero(ends[a:b])
            i += a
            v, nxt = s[i], s.take(i + 1)
            fa, fb = _unit_cdf(ref, v, f0[:i.size]), _unit_cdf(ref, nxt, f1[:i.size])
            lev = np.add(i, 1.0)
        lev /= n
        c = v.size
        # the r-th segment goes after the points of lo and hi below value r
        cut = [r0, *(min(max(r, r0), r0 + c) for r in ranks), r0 + c]
        for k, (r1, r2) in enumerate(zip(cut[:-1], cut[1:])):
            if r1 < r2:
                part = slice(r1 - r0, r2 - r0)
                _uniform_areas(v[part], nxt[part], fa[part], fb[part], lev[part],
                               out[r1 + k:r2 + k])
        r0 += c
    done = 0                                # points of lo and hi placed
    for i, group in itertools.groupby(new, key=lambda p: p[0]):
        xs = [x for _, x in group]
        pts = np.array(s[i - 1:i].tolist() + xs + s[i:i + 1].tolist())
        fp = ref.cdf(pts)
        at = ranks[done] - (i > 0) + done   # the union index of pts[0]
        _uniform_areas(pts[:-1], pts[1:], fp[:-1], fp[1:], np.full(pts.size - 1, i / n),
                       out[at:at + pts.size - 1])
        done += len(xs)
    return float(np.sum(out))


def wasserstein1(ecdf: EmpiricalCDF, ref) -> float:
    """integral |F_n - F| dx, exact in closed form for every reference type
    (a grid's envelope is not added)."""
    if isinstance(ref, GridCDF):
        return distances(ecdf, ref)[1]
    if isinstance(ref, EmpiricalCDF):
        return _w1_step(ecdf, ref)
    if isinstance(ref, UniformCDF):
        return _w1_uniform(ecdf, ref)
    raise _foreign(ref)


def distances(ecdf: EmpiricalCDF, ref) -> tuple[Interval, float]:
    """(kolmogorov(ecdf, ref), wasserstein1(ecdf, ref)), bit for bit.  Against
    a grid both read one table, the knot counts or the step table as
    _by_knot_counts picks; either gives W1 the summands |F_n - F| diff(b),
    b = union1d(samples, knots), in b's order."""
    if not isinstance(ref, GridCDF):
        return kolmogorov(ecdf, ref), wasserstein1(ecdf, ref)
    d0, d = (_w1_knots if _by_knot_counts(ecdf, ref) else _w1_steps)(ecdf, ref)
    return _grid_interval(ref, d0), float(np.sum(d))


# -- concentration ------------------------------------------------------------


def concentration(ref, r: float) -> Interval:
    """Levy concentration Q(r) = sup_x (F(x + r) - F(x-)): exact (lo == hi)
    for atomic and uniform references; against a grid the upper end absorbs
    the envelope (window widened by 2 eps_x, plus 2 eps_p)."""
    hi = float(concentration_hi(ref, [r])[0])
    return Interval(ref.window_sup(r) if isinstance(ref, GridCDF) else hi, hi)


def concentration_hi(ref, r) -> np.ndarray:
    """concentration(ref, r_i).hi for each width r_i of r, as one array; a
    grid scans its windows once per distinct floor((r_i + 2 eps_x) / w), as
    window_sup caches, and never for the exact lower end."""
    r = np.asarray(r, dtype=float)
    if not np.all(r >= 0):
        raise ValueError(f"window width must be >= 0, got {r}")
    if isinstance(ref, GridCDF):
        sup = np.array([ref.window_sup(v) for v in (r + 2.0 * ref.eps_x).tolist()])
        return np.minimum(1.0, sup + 2.0 * ref.eps_p)
    if isinstance(ref, EmpiricalCDF):         # optimal closed windows start at an atom
        atoms, counts = np.unique(ref.samples, return_counts=True)
        cum = np.cumsum(counts / ref.samples.size)
        below = np.concatenate(([0.0], cum[:-1]))
        return np.array([np.max(cum[np.searchsorted(atoms, atoms + v, side="right") - 1] - below)
                         for v in r.tolist()])
    if isinstance(ref, UniformCDF):
        return np.minimum(1.0, r * ref.density_sup)
    raise _foreign(ref)


# -- star discrepancy ----------------------------------------------------------


def star_discrepancy(points) -> float:
    """Exact star discrepancy of points in [0, 1], an array or an EmpiricalCDF
    (already sorted, so not sorted again): d_K of their empirical CDF to U[0, 1],
    D*_n = max_i max(i/n - x_(i), x_(i) - (i-1)/n) over the sorted points."""
    ecdf = points if isinstance(points, EmpiricalCDF) else EmpiricalCDF(points)
    _unit_check(ecdf)
    return kolmogorov(ecdf, UniformCDF()).hi


def _unit_check(ecdf: EmpiricalCDF) -> None:
    """Raise PointOutOfRange unless every sample lies in [0, 1]."""
    if not (0.0 <= ecdf.samples[0] and ecdf.samples[-1] <= 1.0):
        raise PointOutOfRange("star discrepancy inputs must lie in [0, 1]")


def row_star_discrepancy(dmap: DigitMap, ecdf: EmpiricalCDF, ref,
                         dk: Interval) -> float | None:
    """star_discrepancy(ecdf) for a radical-inverse row that holds dk =
    kolmogorov(ecdf, ref), None for a row of any other family: against
    U[0, 1] D* is d_K itself, once the sample passes the [0, 1] check."""
    if dmap.family != "radical-inverse":
        return None
    _unit_check(ecdf)
    if isinstance(ref, UniformCDF) and (ref.lo, ref.hi) == (0.0, 1.0):
        return dk.hi
    return star_discrepancy(ecdf)


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
    dk, w1 = distances(ecdf, ref)
    return smoothing_report(dk.hi, w1, rho_inf)


def smoothing_report(dk: float, w1: float, rho_inf: float) -> SmoothingReport:
    """smoothing_check's table from d_K's upper end and W1, for a caller
    that already holds both."""
    if not 0.0 < rho_inf < math.inf:
        raise ValueError(f"rho_inf must be a positive finite number, got {rho_inf!r}")
    center = max(np.sqrt(w1 / rho_inf), 1e-300)
    rows = []
    for s in (center * 2.0 ** k for k in range(-3, 4)):
        bound = w1 / s + rho_inf * s
        rows.append(SmoothingRow(sigma=float(s), bound=float(bound), ok=bool(dk <= bound)))
    opt = 2.0 * float(np.sqrt(rho_inf * w1))
    return SmoothingReport(dk=float(dk), w1=float(w1), rho_inf=float(rho_inf),
                           rows=tuple(rows), optimized_bound=opt,
                           optimized_ok=bool(dk <= opt))
