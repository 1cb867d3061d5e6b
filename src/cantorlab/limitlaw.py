"""Limit laws of digitwise-additive functions.

The limit distribution is the law of an infinite sum of independent
per-level digit variables.  Two independent constructions are provided:

- ``limit_cdf_conv``    exact lattice convolution of the per-level digit
                        measures, truncated at a certified depth, returned
                        as a GridCDF with explicit horizontal/vertical
                        envelope (eps_x, eps_p);
- ``limit_cdf_invert``  characteristic-function inversion on a finite
                        t-range with its own error budget.

Both carry enough error accounting that the two routes can be compared
within the sum of their envelopes.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import RangeTooSmall, ResourceLimit, check_bytes
from .mixed_radix import CantorBase
from .qadditive import DigitMap, level_values, table_rows, table_tails, tail_sums

DEPTH_CAP = 4096
CF_TOL = 1e-12              # truncation bound at which cf_truncated stops deepening
CHUNK = 1 << 16             # floats per pass of a knot, window or fold scan (512 KB)
CARRY_BITS = 1021           # the fold carries 1/a's powers of two while prod a < 2^1021
TINY_ANGLE = 2.0 ** -28     # below it cos is 1.0 and sin the angle itself (tested)
GROUP = 16                  # most digit tuples in one CF table product (measured, see README)
SPLIT_MIN = 1 << 14         # fewest values of t a thread of cf_truncated takes (measured, see README)
WINDOW_MIN = 5 * CHUNK // 8  # shortest fold window, 40,960 knots (measured, see README)


class GridCDF:
    """Right-continuous step CDF on an equally spaced knot lattice.

    cum[k] is the certified-approximate probability of (-inf, x0 + k w],
    finite and never decreasing in k.  The envelope promises  F_true(x -
    eps_x) - eps_p <= cdf(x) <= F_true(x + eps_x) + eps_p  at every knot,
    and between knots only when x0 / w is an integer: otherwise an atom
    rounded onto the lattice {i w} may lie between x and the knot below it.
    limit_cdf_conv of the one-row table [0.012, 0.013, 0.025, -0.005,
    -0.018, 0.015] at q = 6, x0 = -0.0825, w = 0.01 has eps_x = 0.01 and
    cdf(0.025) = 2/3, yet F_true(0.015) = 5/6.  The pitch must be at least
    2^-40 of the knots' magnitude, so that each knot is a distinct float and
    knot_index finds it exactly.  limit_cdf_conv's grids also tell how they
    were made: the depth of the convolution, the knots of its lattice and
    the windows its fold was cut into (1 when unsplit); other grids hold 0.
    """

    def __init__(self, x0: float, w: float, cum, eps_x: float, eps_p: float,
                 depth: int = 0, lattice: int = 0, fold_runs: int = 0):
        self._set(x0, w, cum, eps_x, eps_p, depth, lattice, fold_runs)
        if not np.all(np.isfinite(self.cum)):
            raise ValueError("grid cumulative array must be finite")
        if np.any(self.cum[1:] < self.cum[:-1]):
            raise ValueError("grid cumulative array must not decrease")

    @classmethod
    def _ordered(cls, x0: float, w: float, cum: np.ndarray, eps_x: float, eps_p: float,
                 depth: int, lattice: int, fold_runs: int) -> "GridCDF":
        """A grid whose cum never decreases by construction (limit_cdf_conv's
        cumsum of non-negative finite masses, 0 below it and the total above
        it), so it is finite once its last value is: the two O(K) scans of
        the constructor are skipped, the O(1) checks kept."""
        grid = cls.__new__(cls)
        grid._set(x0, w, cum, eps_x, eps_p, depth, lattice, fold_runs)
        if not math.isfinite(grid.cum[-1]):
            raise ValueError("grid cumulative array must be finite")
        return grid

    def _set(self, x0, w, cum, eps_x, eps_p, depth, lattice, fold_runs) -> None:
        if w <= 0:
            raise ValueError(f"grid pitch must be > 0, got {w}")
        self.x0 = float(x0)
        self.w = float(w)
        self.cum = np.asarray(cum, dtype=float)
        if self.cum.ndim != 1 or self.cum.size == 0:
            raise ValueError("grid cumulative array must be nonempty and 1-d")
        # knot_index is exact, and the float knots strictly increase, only while
        # the pitch stays far above the rounding error of x0 + k w (about 2^-53
        # of the knots' magnitude); 2^-40 leaves a wide margin
        reach = max(abs(self.x0), abs(self.x0 + self.w * self.cum.size)) + self.w
        if not self.w >= 2.0 ** -40 * reach:
            raise ValueError(f"grid pitch {w} is below the float resolution of "
                             f"knots of magnitude {reach:.3g}")
        self.eps_x = float(eps_x)
        self.eps_p = float(eps_p)
        self.depth, self.lattice, self.fold_runs = depth, lattice, fold_runs
        self._slack: Optional[float] = None
        self._win_cache: dict[int, float] = {}

    @cached_property
    def knots(self) -> np.ndarray:
        """The K float knots x0 + k w, as knot_index makes them; built on first
        use and kept, 8 bytes a knot."""
        check_bytes(8 * self.cum.size, f"{self.cum.size} grid knots")
        knots = np.arange(self.cum.size, dtype=float)
        knots *= self.w
        knots += self.x0
        return knots

    @cached_property
    def even_steps(self) -> bool:
        """Whether every float knot step knots[k + 1] - knots[k] is w exactly;
        checked on first use, CHUNK steps at a time, and kept."""
        x = self.knots
        return all(np.all(np.diff(x[lo:lo + CHUNK + 1]) == self.w)
                   for lo in range(0, x.size - 1, CHUNK))

    def knot_index(self, x) -> tuple[np.ndarray, np.ndarray]:
        """(k, on) for each x: k is the last knot x0 + k w strictly below x
        and on tells whether x is the float knot x0 + (k + 1) w itself.

        (x - x0) / w can round across an integer when the pitch is not
        dyadic, so it only picks the nearest knot m, clipped to -1 .. K; the
        float knot x0 + m w itself decides whether k is m or m - 1.  k runs
        from -2 to K, K the number of knots; on at k = -2 or K - 1 marks the
        virtual knots x0 - w and x0 + K w, not a knot of the grid.  The x
        are taken CHUNK at a time, so that beside k and on, 9 bytes
        a value, only one chunk of float knots exists.
        """
        x = np.asarray(x, dtype=float)
        flat = x.reshape(-1)
        k = np.empty(flat.size, dtype=np.int64)
        on = np.empty(flat.size, dtype=bool)
        m = np.empty(min(CHUNK, flat.size))
        for lo in range(0, flat.size, CHUNK):
            xc = flat[lo:lo + CHUNK]
            mc, kc, oc = m[:xc.size], k[lo:lo + xc.size], on[lo:lo + xc.size]
            np.subtract(xc, self.x0, out=mc)
            mc /= self.w
            np.rint(mc, out=mc)
            np.clip(mc, -1.0, self.cum.size, out=mc)
            np.copyto(kc, mc, casting="unsafe")
            mc *= self.w         # mc now holds the float knot x0 + m w
            mc += self.x0
            np.greater_equal(mc, xc, out=oc)
            kc -= oc
            np.equal(mc, xc, out=oc)
        shape = x.shape or (1,)
        return k.reshape(shape), on.reshape(shape)

    def cdf(self, x):
        """cum at the last knot x0 + k w that is <= x, else 0."""
        k, on = self.knot_index(x)
        k += on
        out = self.cum.take(k, mode="clip")
        out[k < 0] = 0.0
        return out.reshape(np.shape(x))

    def window_sup(self, r: float) -> float:
        """max mass of a closed window of width r (knot-anchored, exact).

        A window that starts at knot i holds knots i .. i + m, m = floor(r / w),
        so widths with the same m share one cache entry.  Each miss scans its
        starts CHUNK at a time, 8 bytes each; 9 are charged, which
        covers numpy's per-call overhead (about 1.4 KB) past 1500 starts.
        """
        if not r >= 0:
            raise ValueError(f"window width must be >= 0, got {r}")
        c = self.cum
        k = c.size
        if r / self.w >= k - 1:          # floor(r / w) >= k - 1, r = inf included
            return float(c[-1])
        m = int(r / self.w)
        hit = self._win_cache.get(m)
        if hit is None:
            # start 0 holds cum[m]; starts 1 .. k-m-1 hold cum[i+m] - cum[i-1];
            # as cum never decreases, the m starts past them hold no more
            starts = k - m - 1
            check_bytes(9 * min(CHUNK, starts), f"window sums over {k} knots")
            hit = float(c[m])
            for lo in range(0, starts, CHUNK):
                hi = min(lo + CHUNK, starts)
                hit = max(hit, float(np.max(c[m + 1 + lo:m + 1 + hi] - c[lo:hi])))
            self._win_cache[m] = hit
        return hit

    def vertical_slack(self) -> float:
        """Certified sup_x |cdf(x) - F_true(x)| over the knot window."""
        if self._slack is None:
            if self.eps_x > 0.0:
                self._slack = 3.0 * self.eps_p + self.window_sup(4.0 * self.eps_x)
            else:
                self._slack = self.eps_p
        return self._slack

    def __repr__(self) -> str:
        return (f"GridCDF(x0={self.x0}, w={self.w}, knots={self.cum.size}, "
                f"eps_x={self.eps_x:.3g}, eps_p={self.eps_p:.3g})")


# -- truncation depth ---------------------------------------------------------


Tails = Callable[[int], tuple[float, float]]


def _tails(dmap: DigitMap, base: CantorBase) -> Tails:
    """j -> (mean tail, var tail) beyond level j.  A bare finite table has no
    mass past its depth, so only its own remaining rows count; a table's rows
    are summarized once, so a depth search makes one digit_stats call a row."""
    if dmap.depth is None:
        return lambda j: tail_sums(dmap, base, j)
    rows = table_rows(dmap, base)
    return lambda j: table_tails(dmap, rows, j)


def _depth_limit(dmap: DigitMap) -> int:
    """The deepest product or convolution: a table's depth, at most DEPTH_CAP."""
    return DEPTH_CAP if dmap.depth is None else min(dmap.depth, DEPTH_CAP)


def _given_depth(depth) -> int:
    """An explicit depth, from 1 to DEPTH_CAP.  cf_truncated and
    limit_cdf_conv list every level's values before they start, lists that
    no byte charge covers, so a deeper one raises ResourceLimit."""
    depth = int(depth)
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if depth > DEPTH_CAP:
        raise ResourceLimit(f"depth {depth} is above DEPTH_CAP = {DEPTH_CAP}")
    return depth


def _conv_envelope(tails: Tails, w: float, depth: int) -> tuple[float, float]:
    """(eps_x, tail part of eps_p) of a convolution truncated at depth: the
    lattice rounding (depth + 1) w / 2, the tail mean and a Chebyshev split."""
    mt, vt = tails(depth - 1)
    delta = (2.0 * vt) ** (1.0 / 3.0)
    eps_x = (depth + 1) * w / 2.0 + mt + delta
    return eps_x, (vt / (delta * delta)) if delta > 0.0 else 0.0


def _conv_depth(dmap: DigitMap, tails: Tails, w: float) -> int:
    """Depth minimizing the eps_x that limit_cdf_conv charges, on dmap's tails."""
    best_j, best_cost = 1, math.inf
    for j in range(1, _depth_limit(dmap) + 1):
        cost = _conv_envelope(tails, w, j)[0]
        if cost < best_cost:
            best_j, best_cost = j, cost
        if math.isfinite(best_cost) and (j + 1) * w / 2.0 > best_cost:
            break   # the lattice term alone already exceeds the best total
    return best_j


# -- route 1: lattice convolution ----------------------------------------------


def _fold_narrow(a: np.ndarray, b: np.ndarray, o: list[int], p: float) -> None:
    """One level into b, the source scaled by p unless p is 1: the first
    shift copies, the rest add in place."""
    n = a.size
    if p != 1.0:
        a *= p                          # one product per sublattice knot
    for i, s in enumerate(o):
        lo, hi = max(s, 0), n + min(s, 0)
        if i:
            b[lo:hi] += a[lo - s:hi - s]
            continue
        b[lo:hi] = a[lo - s:hi - s]
        if lo:
            b[:lo] = 0.0
        if hi < n:
            b[hi:] = 0.0


def _fold_wide(a: np.ndarray, b: np.ndarray, o: list[int], p: float) -> None:
    """One level of two or more shifts into b, CHUNK destination knots
    at a time, the source scaled by p (unless p is 1) just ahead of them.  The pair
    l <= r of the first two shifts reaches l .. n + l and r .. n + r: its
    terms are added straight into b where both reach, and copied where one
    reaches alone (0 + x is x for masses, never -0.0)."""
    n = a.size
    l, r = sorted(o[:2])
    # (destination range, its shift, the pair's other shift or None); off
    # them b is 0, as off the gap between two ranges that do not meet
    parts = [(l, min(r, n + l), l, None), (r, max(r, n + l), l, r),
             (max(r, n + l), n + r, r, None)]
    lo = min(o)
    scaled = n if p == 1.0 else 0       # a[:scaled] holds the products
    for c0 in range(0, n, CHUNK):
        c1 = min(c0 + CHUNK, n)
        need = min(c1 - lo, n)          # the chunk reads the source below it
        if need > scaled:
            a[scaled:need] *= p
            scaled = need
        done = c0
        for x, y, s, t in parts:
            x, y = min(max(x, c0), c1), min(max(y, c0), c1)
            if x < y:
                if done < x:
                    b[done:x] = 0.0
                if t is None:
                    b[x:y] = a[x - s:y - s]
                else:
                    np.add(a[x - s:y - s], a[x - t:y - t], out=b[x:y])
                done = y
        if done < c1:
            b[done:c1] = 0.0
        for s in o[2:]:
            x, y = max(s, c0), min(n + s, c1)
            if x < y:
                b[x:y] += a[x - s:y - s]


def _fold_spread(a: np.ndarray, b: np.ndarray, o: list[int], p: float, r: int, d: int) -> None:
    """One level that lowers the gcd from g to g' = g / r, from a, the law
    on the knots of stride g, into b, on those of stride g': a's knot k is
    b's knot d + k r.  A shift s (in units of g') moves a into b's residue
    class (d + s) mod r, shifted by (d + s) // r there; each class that
    holds shifts takes them in digit order, the first copies, the rest add.
    The source is scaled by p first unless p is 1, and b is zeroed once
    when some class holds no shift.  The classes advance together, CHUNK
    knots of b at a time, so that their strided writes meet in cache."""
    if p != 1.0:
        a *= p
    classes: dict[int, list[int]] = {}
    for s in o:
        classes.setdefault((d + s) % r, []).append((d + s) // r)
    filled = len(classes) < r
    if filled:
        b.fill(0.0)
    n, m = a.size, max(1, CHUNK // r)
    views = [(b[rho::r], us) for rho, us in classes.items()]
    for j0 in range(0, -(-b.size // r), m):
        for c, us in views:
            j1 = min(j0 + m, c.size)
            for i, u in enumerate(us):
                lo = max(u, j0)
                hi = max(lo, min(j1, n + u))
                if i:
                    c[lo:hi] += a[lo - u:hi - u]
                    continue
                c[lo:hi] = a[lo - u:hi - u]
                if not filled:
                    c[j0:min(lo, j1)] = 0.0
                    c[hi:j1] = 0.0


def _scales(levels: list[list[int]]):
    """(p, pre, e) for each level in turn: the scale p of its source, the
    factor pre (None, or 2^-e) that takes the masses back to the fold by
    fl(1/a) before it, and the exponent e after it (see _fold)."""
    e, prod = 0, 1                      # prod is P while the carry runs, then 0
    for o in levels:
        p, pre = 1.0 / len(o), None
        if prod and len(o) > 1:
            prod *= len(o)
            if prod.bit_length() <= CARRY_BITS:
                k = (len(o) & -len(o)).bit_length() - 1
                p, e = 1.0 / (len(o) >> k), e + k
            else:
                pre, prod, e = 2.0 ** -e, 0, 0
        yield p, pre, e


def _fold_split(levels: list[list[int]], size: int, origin: int):
    """(n, i, runs, hl, hr): the n knots of the last sublattice, of stride
    g (the gcd of every shift), and the level i from which _fold goes on in
    windows, one for each run of knots, reaching hl knots below its run and
    hr above it.  A sublattice of at least two CHUNK runs, and of at least
    a CHUNK for each of the c CPUs, is cut into cache-sized runs: the
    fewest of at most CHUNK knots whose count is a multiple of c, c ceil(n
    / (c CHUNK)), as long as none is shorter than WINDOW_MIN.  Otherwise,
    and when no level admits the windows' halo, the runs are thread_parts'
    one per CPU, each at least CHUNK long; so the fold never takes more
    threads than thread_parts gives it.  i is the first level from which g
    holds and the remaining levels' shifts sum to a halo hl + hr of at
    most 1/16 of a run: hl over their positive parts max(0, max o), hr over
    max(0, -min o), in units of g.  With one run, or no such level, i is
    len(levels), the one run (0, n) and hl = hr = 0."""
    g = math.gcd(0, *(s for o in levels for s in o)) or size
    n = len(range(origin % g, size, g))
    c, t = _cpus(), len(thread_parts(n, CHUNK))
    k = c * -(-n // (c * CHUNK))
    for k in (k if t == c and n // k >= WINDOW_MIN else t, t):
        if n < 2 * CHUNK or k < 2:
            continue
        hl = sum(max(0, *o) for o in levels) // g
        hr = sum(max(0, -min(o)) for o in levels) // g
        h = math.gcd(*levels[0])        # the stride g of the fold at level i
        for i, o in enumerate(levels):
            if h == g and 16 * (hl + hr) <= n // k:
                return n, i, [(n * j // k, n * (j + 1) // k) for j in range(k)], hl, hr
            h = math.gcd(h, *o)
            hl -= max(0, *o) // g
            hr -= max(0, -min(o)) // g
    return n, len(levels), [(0, n)], 0, 0


def _fold_run(a: np.ndarray, b: np.ndarray, rest: list) -> Callable[[], None]:
    """A job that folds the (shifts, p, pre) levels of rest on the window a,
    ping-ponging with b."""
    def run():
        x, y = a, b
        for o, p, pre in rest:
            if pre is not None:
                x *= pre
            (_fold_wide if len(o) > 1 and x.size > CHUNK else _fold_narrow)(x, y, o, p)
            x, y = y, x
    return run


def _fold(levels: list[list[int]], size: int, origin: int,
          split: Optional[tuple] = None) -> tuple[np.ndarray, int]:
    """(law, e): 2^e times the lattice law after the levels' shifts, index
    origin holding 0.  Every prefix sum of shifts is a multiple of g, the
    gcd of the shifts so far: the law lives on origin + gZ, and the fold
    keeps it compact, as the n = size / g knots of that sublattice in a
    contiguous array, expanded into the whole lattice once at the end.
    Two buffers of the last level's n are allocated once; each level reads
    a prefix of one and writes a prefix of the other.

    A level that keeps g shifts by s / g: index m of the destination sums,
    in digit order, the source at m - s / g over the shifts that reach it,
    inside the array by the prefix-hull sizing.  A level of more than CHUNK
    knots works in chunks that stay in cache; a narrower one, already in
    cache, copies and adds whole (README).  A level that lowers g writes
    the new array by residue class (_fold_spread): the strided fold on the
    whole lattice differs from it only by the exact + 0.0 of the knots off
    the sublattice, so every mass is the same bit for bit.

    From _fold_split's level i on (split, when given, is its answer), the n
    knots are cut into runs, each copied with its halo, [c0 - hl, c1 + hr)
    within [0, n), into its own slice of the idle buffer.  Each window takes
    every remaining level, ping-ponging with the same slice of the other
    buffer, so it stays in cache from level to level; run_parts deals the
    windows in contiguous groups to one thread per CPU, each folding its
    group's windows in turn, and the runs' own knots are gathered back
    into one array after the join.  A level reads its destination m from
    sources m - max o .. m - min o, so a window edge's wrong values (the
    sources past it missing) move in by at most the positive parts of the
    level's shifts: over the remaining levels they stay within the halo,
    and each run's knots take the same sources in the same digit order as
    in one array, bit for bit.  Both buffers grow by (runs - 1)(hl + hr)
    knots.

    A level of a = 2^k m digits, m odd, scales by fl(1/m), skipped at m = 1,
    and adds k to e: fl(1/a) is 2^-k fl(1/m), and scaling by a power of two
    commutes with every product and sum while the masses are normal.  That
    holds while the product P of the digit counts stays below 2^CARRY_BITS:
    each nonzero mass is then at least (1 - 2^-53)^(2 log2 P) / P > 2^-1022.
    Past it the fold scales back once and goes on with fl(1/a), e = 0
    (_scales, which plans the windows' levels before they start).
    """
    def knots(g):
        return len(range(origin % g, size, g))

    n_end, cut, runs, hl, hr = split or _fold_split(levels, size, origin)
    extra = (len(runs) - 1) * (hl + hr)
    src, dst = np.empty(n_end + extra), np.empty(n_end + extra)
    g = math.gcd(*levels[0]) if levels else size
    n = knots(g)
    src[:n] = 0.0
    src[origin // g] = 1.0              # the all-zero expansion sits at value 0
    e = 0
    steps = zip(levels, _scales(levels))
    for o, (p, pre, e) in itertools.islice(steps, cut):
        a = src[:n]
        if pre is not None:
            a *= pre                    # the masses of the fold by fl(1/a)
        g1 = math.gcd(g, *o)
        o = [s // g1 for s in o]
        if g1 < g:
            n = knots(g1)
            _fold_spread(a, dst[:n], o, p, g // g1, (origin % g - origin % g1) // g1)
            g = g1
        else:
            (_fold_wide if len(o) > 1 and n > CHUNK else _fold_narrow)(a, dst[:n], o, p)
        src, dst = dst, src
    if cut < len(levels):
        rest = []
        for o, (p, pre, e) in steps:
            rest.append(([s // g for s in o], p, pre))
        jobs, spans, at = [], [], 0
        for c0, c1 in runs:
            lo, hi = max(c0 - hl, 0), min(c1 + hr, n)
            dst[at:at + hi - lo] = src[lo:hi]
            jobs.append(_fold_run(dst[at:at + hi - lo], src[at:at + hi - lo], rest))
            spans.append((c0, c1, at + c0 - lo))
            at += hi - lo
        run_parts(jobs)
        done, src = (dst, src) if len(rest) % 2 == 0 else (src, dst)
        for c0, c1, k in spans:
            src[c0:c1] = done[k:k + c1 - c0]
    if g == 1:
        return src[:n], e
    law = np.zeros(size)
    law[origin % g::g] = src[:n]
    return law, e


def limit_cdf_conv(dmap: DigitMap, base: CantorBase, x0: float, x1: float,
                   w: float, depth: Optional[int] = None) -> GridCDF:
    """Limit CDF by exact convolution of rounded per-level digit measures.

    Each level's atoms are rounded to the lattice {i w}, contributing w/2
    of horizontal envelope per level; the discarded tail beyond the depth
    contributes its certified mean shift plus a Chebyshev horizontal/
    vertical split.  Mass above the requested window is charged to eps_p;
    more than a quarter of the mass outside raises RangeTooSmall.  A
    lattice of at least two CHUNK runs goes on from _fold_split's level in
    windows of at most CHUNK knots, dealt to the process's CPUs, each with
    a halo that covers the remaining levels' reach, so the law, eps_x and
    eps_p are the same bit for bit for any count of windows (_fold).  The
    fold holds two 8-byte arrays per lattice knot, each grown by (windows
    - 1)(hl + hr) halo knots, then the window one per requested knot; more
    than BYTE_CAP bytes of them raises ResourceLimit before anything is
    allocated.  The grid records the depth, the lattice knots and the
    fold's windows; its cum is ordered by construction, so GridCDF's two
    scans of it are skipped (GridCDF._ordered).
    """
    if not x1 > x0:
        raise ValueError(f"window needs x1 > x0, got [{x0}, {x1}]")
    if not w > 0:
        raise ValueError(f"grid pitch must be > 0, got {w}")
    span = (x1 - x0) / w
    check_bytes(8.0 * span, f"window [{x0}, {x1}] at pitch {w}")
    k_req = int(math.floor(span)) + 1
    tails = _tails(dmap, base)
    depth_j = _conv_depth(dmap, tails, w) if depth is None else _given_depth(depth)

    # each level's lattice shifts, one for a translation and none at shift 0;
    # the hull of every prefix sum spans the array, so no fold leaves it
    levels = []
    grid_lo = grid_hi = run_lo = run_hi = 0
    for j in range(depth_j):
        scaled = [v / w for v in level_values(dmap, base, j)]
        # the lattice is wider than any offset, so this is part of the last charge
        check_bytes(16.0 * max(abs(v) for v in scaled), f"level {j} at pitch {w}")
        o = [int(round(v)) for v in scaled]
        run_lo += min(o)
        run_hi += max(o)
        grid_lo = min(grid_lo, run_lo)
        grid_hi = max(grid_hi, run_hi)
        if min(o) < max(o):
            levels.append(o)
        elif o[0]:
            levels.append(o[:1])
    size = grid_hi - grid_lo + 1
    split = _fold_split(levels, size, -grid_lo)
    *_, runs, hl, hr = split
    check_bytes(16 * (size + (len(runs) - 1) * (hl + hr)) + 8 * k_req,
                f"convolution of {size} lattice knots in {len(runs)} windows and {k_req} window knots")
    # requested knot k reads atoms up to floor(x0 / w) + k; a window whose
    # atoms all lie beyond the lattice hull holds none or all of the mass.
    # Tested in float before the fold; past it, floor(x0 / w) fits int64
    a0 = x0 / w
    if not grid_lo - (k_req - 1) <= a0 < grid_hi + 1:
        raise RangeTooSmall(f"window [{x0}, {x1}] misses the lattice hull "
                            f"[{grid_lo * w}, {grid_hi * w}] that holds all of the mass")

    cum_all, e = _fold(levels, size, -grid_lo, split)
    np.cumsum(cum_all, out=cum_all)     # sums of normal masses: exact to scale
    unit = 2.0 ** -e
    total = float(cum_all[-1]) * unit

    eps_x, eps_p = _conv_envelope(tails, w, depth_j)
    eps_p += abs(1.0 - total) + 1e-15   # float mass drift guard

    # map the atom lattice {i w} onto the requested knots x0 + k w: atom i
    # is <= knot k  iff  i <= floor(x0 / w) + k, so knot k reads index
    # i0 + k; indices below the lattice read 0, above it the total
    i0 = int(math.floor(a0)) - grid_lo
    k_lo = min(max(-i0, 0), k_req)
    k_hi = min(max(size - i0, k_lo), k_req)
    cum = np.empty(k_req)
    cum[:k_lo] = 0.0
    np.multiply(cum_all[i0 + k_lo:i0 + k_hi], unit, out=cum[k_lo:k_hi])
    cum[k_hi:] = total

    mass_below = float(cum[0])
    mass_above = total - float(cum[-1])
    if mass_below + mass_above > 0.25:
        raise RangeTooSmall(
            f"window [{x0}, {x1}] misses {mass_below + mass_above:.3g} of the mass")
    eps_p += mass_above

    return GridCDF._ordered(x0, w, cum, eps_x, eps_p, depth_j, size, len(runs))


# -- characteristic function ----------------------------------------------------


def _level_factor(fac: np.ndarray, vals: list[float], tt: np.ndarray, t_abs: float,
                  bufs: list[np.ndarray]) -> np.ndarray:
    """fac = mean over the level's digit values v of exp(i t v), t_abs = max |t|.

    The cos/sin pairs are summed in digit order, in real arithmetic, into
    the first two of four float buffers of t's shape; the other two hold
    the pair of the last nonzero |v| taken.  Each sum starts as 0.0 plus
    its first term.  A value -v adds the cos and the negated sin of t v, as
    cos is even and sin odd, so a |v| that comes again next, or after zero
    values only, takes no new pair.  A zero value adds exactly 1 to the
    real part and takes no pair; one with |v| t_abs below TINY_ANGLE adds 1
    and t v, which is what cos and sin return there.
    """
    re, im, trig, ang = bufs
    held = None
    im_on = False
    for i, v in enumerate(vals):
        u = abs(v)
        if u and u != held:
            held = u
            if u * t_abs < TINY_ANGLE:
                pair = 1.0, np.multiply(tt, u, out=ang)
            else:
                np.multiply(tt, u, out=ang)
                pair = np.cos(ang, out=trig), np.sin(ang, out=ang)
        c, s = pair if u else (1.0, None)
        np.add(re if i else 0.0, c, out=re)
        if s is not None:
            (np.add if v > 0.0 else np.subtract)(im if im_on else 0.0, s, out=im)
            im_on = True
    if not im_on:
        im.fill(0.0)
    np.divide(re, len(vals), out=fac.real)
    np.divide(im, len(vals), out=fac.imag)
    return fac


def cf_factor(dmap: DigitMap, base: CantorBase, j: int, t) -> np.ndarray:
    """phi_j(t) = mean over digits d of exp(i t f(d q_j)).

    Summed as cos/sin pairs in real arithmetic; a zero digit value adds
    exactly 1 to the real part and needs no trigonometry.  Its arrays, 48
    bytes a t, are charged to BYTE_CAP before any of them exists.
    """
    tt = np.asarray(t, dtype=float)
    check_bytes(48 * tt.size, f"CF factor at {tt.size} points")
    t_abs = float(np.max(np.abs(tt))) if tt.size else 0.0
    return _level_factor(np.empty(tt.shape, dtype=complex), level_values(dmap, base, j), tt,
                         t_abs, [np.empty(tt.shape) for _ in range(4)])


def _cf_bound(tail: tuple[float, float], t_abs: float) -> float:
    mt, vt = tail
    return t_abs * mt + 0.5 * t_abs * t_abs * (vt + mt * mt)


def _cf_depth(dmap: DigitMap, tails: Tails, t_abs: float, depth: Optional[int]) -> int:
    """The depth given (_given_depth), else the shallowest whose certified
    truncation bound over |t| <= t_abs is at most CF_TOL (the table depth or
    DEPTH_CAP if none)."""
    if depth is not None:
        return _given_depth(depth)
    depth = _depth_limit(dmap)
    for j in range(1, depth + 1):
        if _cf_bound(tails(j - 1), t_abs) <= CF_TOL:
            return j
    return depth


def _cpus() -> int:
    """CPUs in the process's affinity mask, or os.cpu_count where the
    platform has no such mask."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def thread_parts(n: int, shortest: int) -> list[tuple[int, int]]:
    """Contiguous runs (lo, hi) that cut range(n): one per CPU the process
    may run on, as many of them as leave none shorter than shortest, and
    at least one."""
    k = max(1, min(_cpus(), n // shortest))
    return [(n * i // k, n * (i + 1) // k) for i in range(k)]


def run_parts(jobs: list[Callable[[], None]]) -> None:
    """Run the jobs in thread_parts(len(jobs), 1)'s contiguous groups, one
    thread per CPU at most, the first group on the calling thread; each
    thread runs its group's jobs in turn and stops at the first that
    raises.  Join every thread, then re-raise the first exception in job
    order.  No thread outlives the call."""
    errors: list[Optional[BaseException]] = [None] * len(jobs)

    def run(lo, hi):
        for i in range(lo, hi):
            try:
                jobs[i]()
            except BaseException as exc:    # handed to the caller below
                errors[i] = exc
                return

    (lo, hi), *rest = thread_parts(len(jobs), 1)
    started = []
    try:
        for part in rest:
            started.append(threading.Thread(target=run, args=part))
            started[-1].start()
        run(lo, hi)
    finally:
        for th in started:
            th.join()
    for exc in errors:
        if exc is not None:
            raise exc


def cf_truncated(dmap: DigitMap, base: CantorBase, t,
                 depth: Optional[int] = None) -> tuple[np.ndarray, float, int]:
    """(phi values on t, certified truncation bound, depth used).

    With depth None the product deepens until the certified bound over
    the supplied t-range drops below CF_TOL (or a hard cap is hit).  Each
    factor takes cos/sin of every t, so any finite t works; non-finite t
    are refused.

    The t are cut into thread_parts' contiguous runs, one per CPU of the
    process's affinity mask and none shorter than SPLIT_MIN; each run takes
    every level on a thread of its own (run_parts), with its own factor and
    four float buffers, allocated here beside the output, 64 bytes a t in
    all, charged to BYTE_CAP before any array exists; the levels' digit
    values are listed once for all runs.  Each value takes the same
    operations in the same order, with the t_abs of the whole array, so
    phi is the same bit for bit for any number of runs and any length of
    t.  A lone t runs as an array of two copies of itself: numpy multiplies
    a one-value complex array into itself by another loop, which rounds
    differently, and a second product buffer to multiply into instead
    makes every longer t pay for a third array stream.
    """
    tt = np.asarray(t, dtype=float)
    check_bytes(64 * tt.size, f"CF at {tt.size} points")
    if not np.all(np.isfinite(tt)):
        raise ValueError("CF arguments t must be finite")
    t_abs = float(np.max(np.abs(tt))) if tt.size else 0.0
    tails = _tails(dmap, base)
    depth = _cf_depth(dmap, tails, t_abs, depth)
    levels = [level_values(dmap, base, j) for j in range(depth)]
    flat = tt.reshape(-1)
    if flat.size == 1:
        flat = np.repeat(flat, 2)       # a lone t runs as two (docstring)
    out = np.ones(flat.size, dtype=complex)

    def job(lo: int, hi: int) -> Callable[[], None]:
        tp, op = flat[lo:hi], out[lo:hi]
        fac, bufs = np.empty(hi - lo, dtype=complex), [np.empty(hi - lo) for _ in range(4)]

        def run():
            for vals in levels:
                np.multiply(op, _level_factor(fac, vals, tp, t_abs, bufs), out=op)
        return run

    run_parts([job(lo, hi) for lo, hi in thread_parts(flat.size, SPLIT_MIN)])
    return out[:tt.size].reshape(tt.shape), _cf_bound(tails(depth - 1), t_abs), depth


# -- route 2: characteristic-function inversion ----------------------------------


def _level_groups(dmap: DigitMap, base: CantorBase, depth: int):
    """(first level, [digit values of each level]) for runs of consecutive
    levels 0..depth-1 whose digit counts multiply to at most GROUP; a level
    of more digits is a run of its own."""
    group, size, first = [], 1, 0
    for j in range(depth):
        vals = level_values(dmap, base, j)
        if group and size * len(vals) > GROUP:
            yield first, group
            group, size, first = [], 1, j
        group.append(vals)
        size *= len(vals)
    yield first, group


def _centred(vals: list[float], m: float) -> Optional[Counter]:
    """{|c|: how many of the level's values are m + c or m - c} when each
    value v = m + c is centred exactly, (v - m) + m == v, and the c's are a
    multiset equal to its negation; None for any other level.  Such a
    level's factor is e^{itm} (1/a) sum_c n_c cos(c t)."""
    cs = [v - m for v in vals]
    if any(c + m != v for c, v in zip(cs, vals)) or sorted(cs) != sorted(-c for c in cs):
        return None
    return Counter(map(abs, cs))


def _ranks(group: list[list[float]], counts: Optional[list[Counter]]) -> list[int]:
    """Each level's rank in _group_factor: its digit count, or for a real
    group one for a zero c and two per nonzero |c|."""
    if counts is None:
        return [len(vals) for vals in group]
    return [2 * len(n) - (0.0 in n) for n in counts]


def _group_bytes(group: list[list[float]], counts: Optional[list[Counter]], lines: int) -> int:
    """Peak bytes of _group_factor at rows + cols = lines: 8 bytes per
    entry of a real group's tables, 16 of a complex one's, a row and a
    column per rank, then for a single complex level 8 per entry of one
    table's angles (a real level's share its sines' place), or for more
    than one level as many per entry of the Khatri-Rao products beside the
    pair they are built from."""
    ranks = _ranks(group, counts)
    width = 16 if counts is None else 8
    if len(ranks) == 1:
        return lines * ranks[0] * (24 if counts is None else 8)
    p = math.prod(ranks)
    return width * lines * (sum(ranks) + p + p // ranks[-1])


def _exp_table(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """e^{i x y} over the outer product of x and y, as a cos/sin pair."""
    ang = np.multiply.outer(x, y)
    out = np.empty(ang.shape, dtype=complex)
    np.cos(ang, out=out.real)
    np.sin(ang, out=out.imag)
    return out


def _real_tables(t_hi: np.ndarray, t_lo: np.ndarray, group: list[list[float]],
                 counts: list[Counter]) -> tuple[np.ndarray, np.ndarray]:
    """A real group's tables, level by level: level j's columns of the
    first hold n_0 / a_j for a zero c, then (n_c / a_j) cos(c t_hi) and
    -(n_c / a_j) sin(c t_hi) per nonzero |c|; its rows of the second hold
    1, cos(c t_lo) and sin(c t_lo).  Both are built as rows, the first
    transposed at the end, and the cos and sin of every |c| are taken for
    the group at once, in blocks that a take puts in level order."""
    cs = [c for n in counts for c in n if c]
    w = [n[c] / len(vals) for vals, n in zip(group, counts) for c in n if c]
    zw = [n[0.0] / len(vals) for vals, n in zip(group, counts) if 0.0 in n]
    z, s = len(zw), len(cs)
    hi, lo = np.ones((z + 2 * s, t_hi.size)), np.ones((z + 2 * s, t_lo.size))
    for rows, t in ((hi, t_hi), (lo, t_lo)):
        # the angles go where the sines go, so no table of them is made
        np.cos(np.multiply.outer(cs, t, out=rows[z + s:]), out=rows[z:z + s])
        np.sin(rows[z + s:], out=rows[z + s:])
    hi *= np.array(zw + w + [-x for x in w])[:, None]
    if len(group) > 1:
        order, k, i = [], z, 0
        for n in counts:
            c = [k + x for x in range(len(n) - (0.0 in n))]
            order += [i] * (0.0 in n) + c + [x + s for x in c]
            k, i = k + len(c), i + (0.0 in n)
        hi, lo = hi.take(order, axis=0), lo.take(order, axis=0)
    return hi.T, lo


def _group_factor(out: np.ndarray, t_hi: np.ndarray, t_lo: np.ndarray,
                  group: list[list[float]], counts: Optional[list[Counter]] = None) -> np.ndarray:
    """out = the product over the group's levels of their CF factors at the
    nodes t_hi + t_lo, as one (rows x p) @ (p x cols) matrix product.

    Level j's factor is A_j @ B_j.  For a complex group A_j = e^{i t_hi v}
    / a_j and B_j = e^{i v t_lo} over its a_j digit values v, zero ones
    included (_exp_table's whole tables).  With counts (each level's
    _centred counts) the group is real: its factors lack their phases
    e^{itm}, and as
    cos(c (t_hi + t_lo)) = cos(c t_hi) cos(c t_lo) - sin(c t_hi) sin(c t_lo),
    A_j and B_j are _real_tables' blocks.  The Hadamard product of the
    factors is (A_1 * A_2 * ...) @ (B_1 * B_2 * ...) with * the row-wise
    Khatri-Rao product (column-wise on the B side), of rank p, the product
    of the levels' ranks.  Each entry is a product of per-level cos/sin of
    per-level angles, so the factor agrees with the level-by-level product
    to rounding.
    """
    ranks = _ranks(group, counts)
    if counts is None:
        vals = [v for level in group for v in level]
        hi, lo = _exp_table(t_hi, vals), _exp_table(vals, t_lo)
        hi[:, :ranks[0]] /= math.prod(ranks)
    else:
        hi, lo = _real_tables(t_hi, t_lo, group, counts)
    k = ranks[0]
    a, b = hi[:, :k], lo[:k]
    for r in ranks[1:]:
        a = np.einsum("rk,rp->rkp", hi[:, k:k + r], a).reshape(t_hi.size, -1)
        b = np.einsum("kc,pc->kpc", lo[k:k + r], b).reshape(-1, t_lo.size)
        k += r
    return np.matmul(a, b, out=out)


def _product(prod: Optional[np.ndarray], groups, t_hi: np.ndarray,
             t_lo: np.ndarray) -> Optional[np.ndarray]:
    """prod times the factor of each (group, counts) in turn; when prod is
    None the first factor is written straight into a new one.  The later
    factors share one buffer."""
    buf = None
    for group, counts in groups:
        if prod is None:
            dtype = complex if counts is None else float
            prod = _group_factor(np.empty((t_hi.size, t_lo.size), dtype), t_hi, t_lo,
                                 group, counts)
        else:
            buf = np.empty_like(prod) if buf is None else buf
            prod *= _group_factor(buf, t_hi, t_lo, group, counts)
    return prod


def _cf_table(dmap: DigitMap, base: CantorBase, depth: int, t_hi: np.ndarray, t_lo: np.ndarray,
              need: int, kinds: Optional[list] = None,
              weigh: Optional[Callable[[np.ndarray], None]] = None) -> tuple[np.ndarray, float]:
    """(the CF product of levels 0..depth-1 at the nodes t_hi + t_lo, the
    sum of the levels' means), one group of levels at a time; need is the
    byte charge of the rest of the call, to which each group's tables are
    added.  Each mean is digit_stats' m, bit for bit.

    A group whose levels all have _centred counts runs first, into a real
    product; their summed mean M is then applied once, as e^{i t_hi M}
    times e^{i M t_lo}, when that product becomes the complex one that
    the other groups run into.  kinds, when given, gets one entry a group:
    True for a real one.  weigh, when given, scales the table in place
    once: the real product, before it becomes complex, when there is one
    (a real division costs a fifth of a complex one), else the complex
    product.  The table never holds more than 32 bytes a cell: the real
    product and a real factor, then the complex product and that real
    product, then the complex product and a complex factor.
    """
    means, shift, rest = [], [], []
    kinds = [] if kinds is None else kinds

    def charged(groups):
        for j, group, counts in groups:
            check_bytes(need + _group_bytes(group, counts, t_hi.size + t_lo.size),
                        f"CF product from level {j}")
            kinds.append(counts is not None)
            yield group, counts

    def real_groups():
        for j, group in _level_groups(dmap, base, depth):
            m = [math.fsum(vals) / len(vals) for vals in group]
            means.extend(m)
            counts = [_centred(vals, mj) for vals, mj in zip(group, m)]
            if any(n is None for n in counts) or math.prod(_ranks(group, counts)) > GROUP:
                rest.append((j, group, None))
            else:
                shift.extend(m)
                yield j, group, counts

    phi, re = None, _product(None, charged(real_groups()), t_hi, t_lo)
    if re is not None:
        if weigh is not None:
            weigh(re)
            weigh = None
        M = math.fsum(shift)
        phi, ph = np.empty(re.shape, dtype=complex), _exp_table(t_hi, [M])
        np.multiply(re, ph.real, out=phi.real)
        np.multiply(re, ph.imag, out=phi.imag)
        del re
        if M:
            phi *= _exp_table([M], t_lo)
    phi = _product(phi, charged(rest), t_hi, t_lo)
    if weigh is not None:
        weigh(phi)
    return phi, math.fsum(means)


@dataclass(frozen=True)
class InvertedCDF:
    """CDF values from smoothed inversion, with an explicit error budget."""

    xs: np.ndarray
    values: np.ndarray
    envelope: float                    # certified-modulo-quadrature total
    pieces: dict = field(repr=False)   # individual envelope contributions
    conditional: bool = False          # True when no window hint was supplied
    depth: int = 0                     # levels in the CF product
    groups: int = 0                    # level groups, one matrix product each
    real_groups: int = 0               # of them, those run in real arithmetic
    capped: bool = False               # depth DEPTH_CAP, truncation bound above CF_TOL


def limit_cdf_invert(dmap: DigitMap, base: CantorBase, xs,
                     t_max: float = 2048.0, n_t: int = 1 << 17,
                     depth: Optional[int] = None,
                     q_hint: Optional[float] = None) -> InvertedCDF:
    """Limit CDF through the half-range inversion formula.

    F(x) = 1/2 - (1/pi) integral_0^T Im(e^{-itx} phi(t)) / t dt, evaluated
    by trapezoid on n_t cells; the t = 0 integrand is its limit mu - x.
    The envelope stacks a Richardson quadrature estimate, the certified
    CF truncation integral, the finite-T smoothing window (q_hint should
    bound the concentration of the law over windows of width 1/T; when it
    is None the result is flagged conditional), and the kernel leak 1/T.

    The nodes t_k = k h, k = 0..n_t, sit in a rows x cols table, k = cols a
    + b, so e^{ict_k} = e^{ict_{cols a}} e^{ict_b} takes rows + cols cos/sin
    pairs per value c: per digit value in the CF product, where a group of
    consecutive levels whose digit counts multiply to at most GROUP is one
    matrix product over its digit tuples (real, and over cos/sin pairs of
    the centred values, when every level is symmetric about its mean), and
    per x in the kernel, whose sum over k is one matrix product.  More
    than BYTE_CAP bytes of these tables raises ResourceLimit before they
    exist.
    """
    if not (t_max > 0 and math.isfinite(t_max)):
        raise ValueError(f"t_max must be finite and > 0, got {t_max}")
    if n_t < 8 or n_t & (n_t - 1):
        raise ValueError(f"n_t must be a power of two >= 8, got {n_t}")
    if q_hint is not None and not (q_hint >= 0 and math.isfinite(q_hint)):
        raise ValueError(f"q_hint must be finite and >= 0, got {q_hint}")
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if xs.size == 0:
        raise ValueError("need at least one evaluation point")
    if not np.all(np.isfinite(xs)):
        raise ValueError("evaluation points must be finite")
    if np.any(np.diff(xs) < 0):
        raise ValueError("evaluation points must be sorted")

    # cols = 2^ceil(log2(n_t) / 2) divides n_t: node n_t is (rows - 1, 0),
    # and the nodes past it pad the last row
    cols = 1 << (int(n_t).bit_length() // 2)
    rows = n_t // cols + 1
    chunk = max(1, (1 << 20) // (rows + cols))     # 16 MB of x-dependent tables
    # the nodes, 32 bytes a cell of the rows x cols table (the CF product
    # and a group's factor, see _cf_table, then the kernel's complex weights
    # and their even/odd copy), five complex rows x chunk tables at once in
    # the kernel and eight float arrays per point
    need = 8 * (n_t + 1) + 32 * rows * cols + 80 * rows * min(chunk, xs.size) + 64 * xs.size
    check_bytes(need, f"inversion on {n_t} cells at {xs.size} points")

    ts = np.linspace(0.0, t_max, n_t + 1)
    tails = _tails(dmap, base)
    depth_used = _cf_depth(dmap, tails, t_max, depth)
    t_hi, t_lo = ts[::cols], ts[:cols]

    def weigh(table):
        # trapezoid weights times phi(t)/t: 0 at node 0 (its integrand, the
        # t -> 0 limit mu - x, is added apart), 1/2 at node n_t, 0 past it
        wp = table.reshape(-1)
        wp[0] = 0.0
        wp[1:n_t + 1] /= ts[1:]
        wp[n_t] *= 0.5
        wp[n_t + 1:] = 0.0

    kinds = []
    phi, mu = _cf_table(dmap, base, depth_used, t_hi, t_lo, need, kinds, weigh)
    # cols is even, so node k is even iff b is: split b by parity, the
    # every-other-node rule keeping the even half
    half = cols // 2
    w2 = np.ascontiguousarray(phi.reshape(rows, half, 2).transpose(2, 0, 1))
    t_pair = t_lo.reshape(half, 2).T
    h = t_max / n_t
    vals = np.empty(xs.size)
    vals_half = np.empty(xs.size)
    for lo in range(0, xs.size, chunk):
        xc = xs[lo:lo + chunk]
        # sum_k w_k e^{-i t_k x} phi_k / t_k, even and odd b apart
        s = (w2 @ np.exp(-1j * np.multiply.outer(t_pair, xc))
             * np.exp(-1j * np.multiply.outer(t_hi, xc))).sum(axis=1).imag
        g0 = mu - xc
        full = h * (0.5 * g0 + (s[0] + s[1]))
        coarse = 2.0 * h * (0.5 * g0 + s[0])
        vals[lo:lo + chunk] = 0.5 - full / math.pi
        vals_half[lo:lo + chunk] = 0.5 - coarse / math.pi
    quad_err = float(np.max(np.abs(vals - vals_half))) / 3.0

    # integral of the CF truncation bound against 1/pi dt
    mt, vt = tails(depth_used - 1)
    cf_int = (mt * t_max + (vt + mt * mt) * t_max * t_max / 4.0) / math.pi

    smoothing = q_hint if q_hint is not None else 0.0
    kernel = 1.0 / t_max
    env = quad_err + cf_int + smoothing + kernel
    pieces = {"quad": quad_err, "cf_truncation": cf_int,
              "smoothing_window": smoothing, "kernel_leak": kernel}
    # inversion of a step law rings around jumps; clip and monotonize,
    # charging the adjustment to the envelope
    clipped = np.clip(vals, 0.0, 1.0)
    mono = np.maximum.accumulate(clipped)
    adjust = float(np.max(np.abs(mono - vals)))
    pieces["monotonize"] = adjust
    capped = depth_used == DEPTH_CAP and _cf_bound(tails(depth_used - 1), t_max) > CF_TOL
    return InvertedCDF(xs=xs, values=mono, envelope=env + adjust, pieces=pieces,
                       conditional=q_hint is None, depth=depth_used, groups=len(kinds),
                       real_groups=sum(kinds), capped=capped)
