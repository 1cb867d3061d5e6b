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

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import RangeTooSmall, check_bytes
from .mixed_radix import CantorBase
from .qadditive import DigitMap, digit_stats, level_values, table_tail, tail_sums

DEPTH_CAP = 4096
CF_TOL = 1e-12              # truncation bound at which cf_truncated stops deepening


class GridCDF:
    """Right-continuous step CDF on an equally spaced knot lattice.

    cum[k] is the certified-approximate probability of (-inf, x0 + k w],
    finite and never decreasing in k.  The envelope promises  F_true(x -
    eps_x) - eps_p <= cdf(x) <= F_true(x + eps_x) + eps_p  for every x in
    the knot window.  The pitch must be at least 2^-40 of the knots'
    magnitude, so that each knot is a distinct float and knot_index finds
    it exactly.
    """

    def __init__(self, x0: float, w: float, cum, eps_x: float, eps_p: float):
        if w <= 0:
            raise ValueError(f"grid pitch must be > 0, got {w}")
        self.x0 = float(x0)
        self.w = float(w)
        self.cum = np.asarray(cum, dtype=float)
        if self.cum.ndim != 1 or self.cum.size == 0:
            raise ValueError("grid cumulative array must be nonempty and 1-d")
        if not np.all(np.isfinite(self.cum)):
            raise ValueError("grid cumulative array must be finite")
        if np.any(self.cum[1:] < self.cum[:-1]):
            raise ValueError("grid cumulative array must not decrease")
        # knot_index is exact, and the float knots strictly increase, only while
        # the pitch stays far above the rounding error of x0 + k w (about 2^-53
        # of the knots' magnitude); 2^-40 leaves a wide margin
        reach = max(abs(self.x0), abs(self.x0 + self.w * self.cum.size)) + self.w
        if not self.w >= 2.0 ** -40 * reach:
            raise ValueError(f"grid pitch {w} is below the float resolution of "
                             f"knots of magnitude {reach:.3g}")
        self.eps_x = float(eps_x)
        self.eps_p = float(eps_p)
        self._slack: Optional[float] = None
        self._win_cache: dict[int, float] = {}

    def knot_index(self, x) -> tuple[np.ndarray, np.ndarray]:
        """(k, on) for each x: k is the last knot x0 + k w strictly below x
        and on tells whether x is the float knot x0 + (k + 1) w itself.

        (x - x0) / w can round across an integer when the pitch is not
        dyadic, so it only picks the nearest knot m, clipped to -1 .. K; the
        float knot x0 + m w itself decides whether k is m or m - 1.  k runs
        from -2 to K, K the number of knots; on at k = -2 or K - 1 marks the
        virtual knots x0 - w and x0 + K w, not a knot of the grid.
        """
        x = np.asarray(x, dtype=float)
        m = np.array(x, ndmin=1)
        m -= self.x0
        m /= self.w
        np.rint(m, out=m)
        np.clip(m, -1.0, self.cum.size, out=m)
        k = m.astype(np.int64)
        m *= self.w              # m now holds the float knot x0 + m w
        m += self.x0
        k -= m >= x
        return k, m == x

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
        so widths with the same m share one cache entry.  Each miss takes one
        8-byte difference per knot.
        """
        if r < 0:
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
            check_bytes(8 * k, f"window sums over {k} knots")
            hit = max(float(c[m]), float(np.max(c[m + 1:] - c[:k - m - 1])))
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


def _tail_pair(dmap: DigitMap, base: CantorBase, j: int) -> tuple[float, float]:
    """(mean tail, var tail) beyond level j; a bare finite table has no mass
    past its depth, so only its own remaining rows count."""
    return tail_sums(dmap, base, j) if dmap.has_tail_meta else table_tail(dmap, base, j)


def _depth_limit(dmap: DigitMap) -> int:
    """The deepest product or convolution: a table's depth, at most DEPTH_CAP."""
    return DEPTH_CAP if dmap.depth is None else min(dmap.depth, DEPTH_CAP)


def _conv_envelope(dmap: DigitMap, base: CantorBase, w: float,
                   depth: int) -> tuple[float, float]:
    """(eps_x, tail part of eps_p) of a convolution truncated at depth: the
    lattice rounding (depth + 1) w / 2, the tail mean and a Chebyshev split."""
    mt, vt = _tail_pair(dmap, base, depth - 1)
    delta = (2.0 * vt) ** (1.0 / 3.0)
    eps_x = (depth + 1) * w / 2.0 + mt + delta
    return eps_x, (vt / (delta * delta)) if delta > 0.0 else 0.0


def choose_depth(dmap: DigitMap, base: CantorBase, w: float) -> int:
    """Depth minimizing the eps_x that limit_cdf_conv charges at it."""
    best_j, best_cost = 1, math.inf
    for j in range(1, _depth_limit(dmap) + 1):
        cost = _conv_envelope(dmap, base, w, j)[0]
        if cost < best_cost:
            best_j, best_cost = j, cost
        if math.isfinite(best_cost) and (j + 1) * w / 2.0 > best_cost:
            break   # the lattice term alone already exceeds the best total
    return best_j


# -- route 1: lattice convolution ----------------------------------------------


def _fold(levels: list[list[int]], size: int, origin: int) -> np.ndarray:
    """The lattice law after the levels' shifts, index origin holding 0.
    Every prefix sum of shifts is a multiple of g, the gcd of the shifts so
    far: the law lives on origin + gZ, and off it both buffers stay 0."""
    src, dst = np.zeros(size), np.zeros(size)
    src[origin] = 1.0                   # the all-zero expansion sits at value 0
    g = 0
    for o in levels:
        g = math.gcd(g, *o)
        a, b = src[origin % g::g], dst[origin % g::g]
        n = a.size
        if len(o) > 1:
            a *= 1.0 / len(o)           # one product per sublattice knot
        for i, s in enumerate(o):
            # shifting by s moves mass from index m to m + s / g of the view,
            # inside it by the prefix-hull sizing; the first shift overwrites
            # the destination, the rest add in digit order (0 + x is x)
            s //= g
            lo, hi = max(s, 0), n + min(s, 0)
            if i:
                b[lo:hi] += a[lo - s:hi - s]
            else:
                b[lo:hi] = a[lo - s:hi - s]
                b[:lo] = b[hi:] = 0.0
        src, dst = dst, src
    return src


def limit_cdf_conv(dmap: DigitMap, base: CantorBase, x0: float, x1: float,
                   w: float, depth: Optional[int] = None) -> GridCDF:
    """Limit CDF by exact convolution of rounded per-level digit measures.

    Each level's atoms are rounded to the lattice {i w}, contributing w/2
    of horizontal envelope per level; the discarded tail beyond the depth
    contributes its certified mean shift plus a Chebyshev horizontal/
    vertical split.  Mass above the requested window is charged to eps_p;
    more than a quarter of the mass outside raises RangeTooSmall.  The
    fold holds two 8-byte arrays per lattice knot, then the window one per
    requested knot and GridCDF's check masks a byte; more than BYTE_CAP
    bytes of them raises ResourceLimit before anything is allocated.
    """
    if not x1 > x0:
        raise ValueError(f"window needs x1 > x0, got [{x0}, {x1}]")
    if not w > 0:
        raise ValueError(f"grid pitch must be > 0, got {w}")
    span = (x1 - x0) / w
    check_bytes(9.0 * span, f"window [{x0}, {x1}] at pitch {w}")
    k_req = int(math.floor(span)) + 1
    depth_j = choose_depth(dmap, base, w) if depth is None else int(depth)
    if depth_j < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")

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
    check_bytes(16 * size + 9 * k_req,
                f"convolution of {size} lattice knots and {k_req} window knots")
    # requested knot k reads atoms up to floor(x0 / w) + k; a window whose
    # atoms all lie beyond the lattice hull holds none or all of the mass.
    # Tested in float before the fold; past it, floor(x0 / w) fits int64
    a0 = x0 / w
    if not grid_lo - (k_req - 1) <= a0 < grid_hi + 1:
        raise RangeTooSmall(f"window [{x0}, {x1}] misses the lattice hull "
                            f"[{grid_lo * w}, {grid_hi * w}] that holds all of the mass")

    cum_all = _fold(levels, size, -grid_lo)
    np.cumsum(cum_all, out=cum_all)
    total = float(cum_all[-1])

    eps_x, eps_p = _conv_envelope(dmap, base, w, depth_j)
    eps_p += abs(1.0 - total) + 1e-15   # float mass drift guard

    # map the atom lattice {i w} onto the requested knots x0 + k w: atom i
    # is <= knot k  iff  i <= floor(x0 / w) + k, so knot k reads index
    # i0 + k; indices below the lattice read 0, above it the total
    i0 = int(math.floor(a0)) - grid_lo
    k_lo = min(max(-i0, 0), k_req)
    k_hi = min(max(size - i0, k_lo), k_req)
    cum = np.empty(k_req)
    cum[:k_lo] = 0.0
    cum[k_lo:k_hi] = cum_all[i0 + k_lo:i0 + k_hi]
    cum[k_hi:] = total

    mass_below = float(cum[0])
    mass_above = total - float(cum[-1])
    if mass_below + mass_above > 0.25:
        raise RangeTooSmall(
            f"window [{x0}, {x1}] misses {mass_below + mass_above:.3g} of the mass")
    eps_p += mass_above

    return GridCDF(x0=x0, w=w, cum=cum, eps_x=eps_x, eps_p=eps_p)


# -- characteristic function ----------------------------------------------------


def cf_factor(dmap: DigitMap, base: CantorBase, j: int, t) -> np.ndarray:
    """phi_j(t) = mean over digits d of exp(i t f(d q_j)).

    Summed as cos/sin pairs in real arithmetic; a zero digit value adds
    exactly 1 to the real part and needs no trigonometry.
    """
    vals = level_values(dmap, base, j)
    tt = np.asarray(t, dtype=float)
    re = np.zeros(tt.shape)
    im = np.zeros(tt.shape)
    ang = np.empty(tt.shape)
    trig = np.empty(tt.shape)
    for v in vals:
        if v == 0.0:
            re += 1.0
            continue
        np.multiply(tt, v, out=ang)
        re += np.cos(ang, out=trig)
        im += np.sin(ang, out=trig)
    out = np.empty(tt.shape, dtype=complex)
    out.real = re / len(vals)
    out.imag = im / len(vals)
    return out


def cf_truncation_bound(dmap: DigitMap, base: CantorBase, depth: int, t_abs: float) -> float:
    """Certified sup over |t| <= t_abs of |prod_{j<depth} phi_j - phi|."""
    mt, vt = _tail_pair(dmap, base, depth - 1)
    return t_abs * mt + 0.5 * t_abs * t_abs * (vt + mt * mt)


def _cf_depth(dmap: DigitMap, base: CantorBase, t_abs: float,
              depth: Optional[int]) -> int:
    """The depth given, else the shallowest whose certified truncation bound
    over |t| <= t_abs is at most CF_TOL (the table depth or DEPTH_CAP if none)."""
    if depth is None:
        depth = _depth_limit(dmap)
        for j in range(1, depth + 1):
            if cf_truncation_bound(dmap, base, j, t_abs) <= CF_TOL:
                depth = j
                break
    depth = int(depth)
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    return depth


def cf_truncated(dmap: DigitMap, base: CantorBase, t,
                 depth: Optional[int] = None) -> tuple[np.ndarray, float, int]:
    """(phi values on t, certified truncation bound, depth used).

    With depth None the product deepens until the certified bound over
    the supplied t-range drops below CF_TOL (or a hard cap is hit).  Each
    factor takes cos/sin of every t, so any finite t works; non-finite t
    are refused.
    """
    tt = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(tt)):
        raise ValueError("CF arguments t must be finite")
    t_abs = float(np.max(np.abs(tt))) if tt.size else 0.0
    depth = _cf_depth(dmap, base, t_abs, depth)
    out = np.ones(tt.shape, dtype=complex)
    for j in range(depth):
        out *= cf_factor(dmap, base, j, tt)
    return out, cf_truncation_bound(dmap, base, depth, t_abs), depth


# -- route 2: characteristic-function inversion ----------------------------------


@dataclass(frozen=True)
class InvertedCDF:
    """CDF values from smoothed inversion, with an explicit error budget."""

    xs: np.ndarray
    values: np.ndarray
    envelope: float                    # certified-modulo-quadrature total
    pieces: dict = field(repr=False)   # individual envelope contributions
    conditional: bool = False          # True when no window hint was supplied


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
    pairs per value c: per nonzero digit value in the CF product, and per
    x in the kernel, whose sum over k is one matrix product.  More than
    BYTE_CAP bytes of these tables raises ResourceLimit before they exist.
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
    # the nodes, three rows x cols complex tables (the CF product and two
    # levels' factors), five complex rows x chunk tables at once in the
    # kernel and eight float arrays per point
    need = 8 * (n_t + 1) + 48 * rows * cols + 80 * rows * min(chunk, xs.size) + 64 * xs.size
    check_bytes(need, f"inversion on {n_t} cells at {xs.size} points")

    ts = np.linspace(0.0, t_max, n_t + 1)
    depth_used = _cf_depth(dmap, base, t_max, depth)
    mu = math.fsum(digit_stats(dmap, base, j).m for j in range(depth_used))

    t_hi, t_lo = ts[::cols], ts[:cols]
    phi = np.ones((rows, cols), dtype=complex)
    for j in range(depth_used):
        digits = level_values(dmap, base, j)
        nz = np.array([v for v in digits if v != 0.0])
        # the level's two exponential tables, each with its outer product
        check_bytes(need + 32 * (rows + cols) * nz.size, f"level {j} of the CF product")
        # the digit mean of e^{itv}; a zero digit value adds exactly 1
        f = (np.exp(1j * np.multiply.outer(t_hi, nz)) / len(digits)
             @ np.exp(1j * np.multiply.outer(nz, t_lo)))
        if nz.size < len(digits):
            f.real += (len(digits) - nz.size) / len(digits)
        phi *= f
    del f

    # trapezoid weights times phi(t)/t: 0 at node 0 (its integrand, the
    # t -> 0 limit mu - x, is added apart), 1/2 at node n_t, 0 past it
    wp = phi.reshape(-1)
    wp[0] = 0.0
    wp[1:n_t + 1] /= ts[1:]
    wp[n_t] *= 0.5
    wp[n_t + 1:] = 0.0
    # cols is even, so node k is even iff b is: split b by parity, the
    # every-other-node rule keeping the even half
    half = cols // 2
    w2 = np.ascontiguousarray(wp.reshape(rows, half, 2).transpose(2, 0, 1))
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
    mt, vt = _tail_pair(dmap, base, depth_used - 1)
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
    return InvertedCDF(xs=xs, values=mono, envelope=env + adjust, pieces=pieces,
                       conditional=q_hint is None)
