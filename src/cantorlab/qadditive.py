"""Digitwise-additive functions over a Cantor base.

A digit map assigns f(d * q_j) to every digit d at every level j, and the
function value at n is the sum of f over the digits of n.  Built-in
families:

- ``radical-inverse``       f(d q_j) = d / q_{j+1}         (any base)
- ``polynomial``            f(d q_j) = j^{-alpha} g(d), with the j = 0
                            coefficient set to 1
- ``geometric``             f(d q_j) = beta^j g(d)
- ``symmetric-ternary``     base 3, weights 3^{-j}, digit signs (-1, 0, +1)
- ``skewed-polyweight``     f(0)=0, f(1 q_j)=j^{-2}, f(d q_j)=2 j^{-2} for d>=2
- ``custom-table``          explicit per-level value rows, finite depth

Per-level digit statistics are computed by exact enumeration over the
alphabet (never sampled), and the built-in families carry certified tail
bounds so that Erdos-Wintner style diagnostics are analytic.
"""

from __future__ import annotations

import copy
import math
import numbers
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import AlphabetMismatch, DigitOutOfRange, NoTailMeta, ResourceLimit
from .mixed_radix import CantorBase

_FAMILIES = (
    "radical-inverse",
    "polynomial",
    "geometric",
    "symmetric-ternary",
    "skewed-polyweight",
    "custom-table",
)

LEVEL_CAP = 1 << 20         # digits enumerated at one level
EW_TOL = 1e-9               # drift over the trailing half that counts as settled
EW_CEILING = 1e6            # partial sums beyond this count as diverging


def _digits(lo: int, hi: int) -> range:
    """The digits lo..hi-1 of one level, refused beyond LEVEL_CAP of them."""
    if hi - lo > LEVEL_CAP:
        raise ResourceLimit(f"a level of {hi - lo} digits exceeds the cap {LEVEL_CAP}")
    return range(lo, hi)


def _inv(num: float, q: int) -> float:
    # num / q with huge-int safety: beyond float range the quotient underflows
    bl = q.bit_length()
    if bl > 1020:
        return max(num * 2.0 ** -(bl - 1), 5e-324) if num else 0.0
    return num / float(q)


@dataclass(frozen=True)
class DigitStats:
    """Exact uniform-digit statistics of one level.

    m is the digit average, s2 the digit variance, omega the largest
    centered value, mu3 the third central moment; |mu3| <= omega * s2.
    """

    j: int
    m: float
    s2: float
    omega: float
    mu3: float


@dataclass(frozen=True)
class EwReport:
    """Outcome of the three-series style convergence diagnostic."""

    verdict: str                      # "converges" | "diverges" | "inconclusive"
    analytic: bool                    # True when decided from certified tails
    mean_partials: tuple[float, ...]  # partial sums of m_j
    var_partials: tuple[float, ...]   # partial sums of s_j^2
    reason: str


class DigitMap:
    """Closed, serializable descriptor of one digit map family.

    The descriptor is turned into fields once.  The four scalar-weight
    families share f(d q_j) = g(d) c_j with a digit table g and a weight
    sequence c_j: symmetric-ternary is g = (-1, 0, 1) with c_j = 3^{-j},
    skewed-polyweight is g(d) = min(d, 2) with c_j = j^{-2}.
    """

    def __init__(self, descriptor: dict):
        d = self._descriptor = _validate_map(descriptor)
        fam = d["family"]
        self._rows, self._tail = d.get("values"), d.get("tail")    # custom table
        # scalar weights: digit table g (when open, digits past it repeat its
        # last entry) and c_j = j^{-alpha} with c_0 = 1, or c_j = r^{s j} for power (r, s)
        self._g, self._g_open, self._alpha, self._power = None, False, None, None
        if fam == "polynomial":
            self._g, self._alpha = tuple(d["g"]), d["alpha"]
        elif fam == "skewed-polyweight":
            self._g, self._g_open, self._alpha = (0.0, 1.0, 2.0), True, 2.0
        elif fam == "geometric":
            self._g, self._power = tuple(d["g"]), (d["beta"], 1)
        elif fam == "symmetric-ternary":
            self._g, self._power = (-1.0, 0.0, 1.0), (3.0, -1)
        self._extremes: dict[CantorBase, tuple[float, float]] = {}    # _g_extremes by base

    # -- constructors ------------------------------------------------------

    @staticmethod
    def radical_inverse() -> "DigitMap":
        return DigitMap({"family": "radical-inverse"})

    @staticmethod
    def polynomial(alpha: float, g: Sequence[float]) -> "DigitMap":
        return DigitMap({"family": "polynomial", "alpha": float(alpha), "g": list(g)})

    @staticmethod
    def geometric(beta: float, g: Sequence[float]) -> "DigitMap":
        return DigitMap({"family": "geometric", "beta": float(beta), "g": list(g)})

    @staticmethod
    def symmetric_ternary() -> "DigitMap":
        return DigitMap({"family": "symmetric-ternary"})

    @staticmethod
    def skewed_polyweight() -> "DigitMap":
        return DigitMap({"family": "skewed-polyweight"})

    @staticmethod
    def custom_table(values: Sequence[Sequence[float]], tail: Optional[dict] = None) -> "DigitMap":
        d = {"family": "custom-table", "values": [list(r) for r in values]}
        if tail is not None:
            d["tail"] = dict(tail)
        return DigitMap(d)

    # -- accessors ---------------------------------------------------------

    @property
    def family(self) -> str:
        return self._descriptor["family"]

    @property
    def descriptor(self) -> dict:
        return copy.deepcopy(self._descriptor)

    @property
    def depth(self) -> Optional[int]:
        """Number of levels a custom table covers; None for unbounded families."""
        return None if self._rows is None else len(self._rows)

    @property
    def has_tail_meta(self) -> bool:
        return self._rows is None or self._tail is not None

    def weight_coeff(self, j: int) -> float:
        """c_j for the scalar-weight families (value = c_j * g(d))."""
        if self._alpha is not None:
            return 1.0 if j == 0 else float(j) ** -self._alpha
        if self._power is not None:
            r, s = self._power
            return r ** (s * j)
        raise ValueError(f"{self.family} has no scalar weight sequence")

    # -- family logic ------------------------------------------------------

    def _g_slice(self, lo: int, hi: int) -> list[float]:
        """g(lo), ..., g(hi - 1); AlphabetMismatch when the table stops short."""
        g = self._g
        if hi > len(g) and not self._g_open:
            raise AlphabetMismatch(
                f"{self.family} digit table g has width {len(g)}, digit {hi - 1} requested")
        last = len(g) - 1
        return [g[min(d, last)] for d in _digits(lo, hi)]

    def _values(self, base: CantorBase, j: int, lo: int, hi: int) -> list[float]:
        """[f(d q_j) for lo <= d < hi], checked once for the whole range."""
        if self._rows is not None:
            if j >= len(self._rows):
                raise AlphabetMismatch(
                    f"custom table covers levels j < {len(self._rows)}, level {j} requested")
            row = self._rows[j]
            if hi > len(row):
                raise AlphabetMismatch(
                    f"custom table row {j} has width {len(row)}, digit {hi - 1} requested")
            return row[lo:hi]
        if self._g is None:                 # radical inverse: d / q_{j+1}
            q = base.weight(j + 1)
            return [_inv(float(d), q) if d else 0.0 for d in _digits(lo, hi)]
        c = self.weight_coeff(j)
        return [v * c for v in self._g_slice(lo, hi)]

    def _g_extremes(self, base: CantorBase) -> tuple[float, float]:
        """(max_a |mean g|, max_a var g) over the alphabet sizes of the base."""
        sizes = base.alphabet_sizes()
        if sizes is None:
            if not self._g_open:
                raise AlphabetMismatch(
                    f"{self.family} map with a finite digit table cannot cover an unbounded base")
            # sup over all a: |mean| <= max |g|, var <= (max g - min g)^2 / 4 (Popoviciu)
            g = self._g
            return max(abs(v) for v in g), (max(g) - min(g)) ** 2 / 4.0
        gbar, gvar = 0.0, 0.0
        for a in sizes:
            vals = self._g_slice(0, a)
            m = math.fsum(vals) / a
            gbar = max(gbar, abs(m))
            gvar = max(gvar, math.fsum((v - m) ** 2 for v in vals) / a)
        return gbar, gvar

    def _tail_sums(self, base: CantorBase, L: int) -> tuple[float, float]:
        fam = self.family
        if fam == "radical-inverse":
            if base.is_constant():
                q = float(base.digit_size(0))
                # sum (a-1)/(2 q^{j+1}) = q^{-(L+1)}/2;  sum (a^2-1)/(12 q^{2(j+1)})
                return q ** -(L + 1) / 2.0, q ** (-2 * (L + 1)) / 12.0
            qn = base.weight(L + 1)
            m = _inv(1.0, qn)
            return m, max(_inv(_inv(1.0 / 9.0, qn), qn), 5e-324)
        if fam == "symmetric-ternary":
            if base.alphabet_sizes() != frozenset((3,)):
                raise AlphabetMismatch("symmetric-ternary needs the constant base 3")
            return 0.0, 0.75 * 9.0 ** -(L + 1)
        if fam == "custom-table":
            if self._tail is None:
                raise NoTailMeta("custom table carries no tail envelope")
            return table_tails(self, table_rows(self, base), L)
        ext = self._extremes.get(base)
        if ext is None:                 # a depth search asks at every level
            ext = self._extremes[base] = self._g_extremes(base)
        gbar, gvar = ext
        if fam == "geometric":
            beta = self._power[0]
            if beta >= 1.0:
                mean = 0.0 if gbar == 0.0 else math.inf
                var = 0.0 if gvar == 0.0 else math.inf
                return mean, var
            mean = gbar * beta ** (L + 1) / (1.0 - beta)
            var = gvar * beta ** (2 * (L + 1)) / (1.0 - beta * beta)
            return mean, var
        # polynomial weights: polynomial and skewed-polyweight
        mean = 0.0 if gbar == 0.0 else gbar * _poly_tail(L, self._alpha)
        var = 0.0 if gvar == 0.0 else gvar * _poly_tail(L, 2.0 * self._alpha)
        return mean, var

    def __repr__(self) -> str:
        return f"DigitMap({self._descriptor!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, DigitMap) and self._descriptor == other._descriptor


def _validate_map(d: dict) -> dict:
    if not isinstance(d, dict) or "family" not in d:
        raise ValueError(f"digit map descriptor must be a dict with a 'family', got {d!r}")
    fam = d["family"]
    if fam not in _FAMILIES:
        raise ValueError(f"unknown digit map family {fam!r}")
    out = {"family": fam}
    if fam in ("polynomial", "geometric"):
        key = "alpha" if fam == "polynomial" else "beta"
        v = _real(d.get(key), f"{fam} {key}")
        if not v > 0:
            raise ValueError(f"{fam} family needs {key} > 0, got {v!r}")
        out[key] = v
        out["g"] = _real_row(d.get("g"), "digit table g")
    elif fam == "custom-table":
        values = d.get("values")
        if not isinstance(values, (list, tuple)) or not values:
            raise ValueError(f"custom-table needs nonempty value rows, got {values!r}")
        out["values"] = [_real_row(r, "custom-table row") for r in values]
        if "tail" in d and d["tail"] is not None:
            out["tail"] = _validate_tail(d["tail"])
    return out


def _real(v, what: str) -> float:
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        raise ValueError(f"{what} must be a number, got {v!r}")
    try:
        x = float(v)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ValueError(f"{what} must be a finite number, got {v!r}")
    return x


def _real_row(row, what: str) -> list[float]:
    """A list of at least two numbers (one per digit)."""
    if not isinstance(row, (list, tuple)) or len(row) < 2:
        raise ValueError(f"{what} needs a list of at least two numbers, got {row!r}")
    return [_real(v, what) for v in row]


def _validate_tail(t: dict) -> dict:
    keys = ("mean_coeff", "mean_ratio", "var_coeff", "var_ratio")
    if not isinstance(t, dict) or set(t) != set(keys):
        raise ValueError(f"tail envelope needs exactly the fields {keys}")
    out = {k: _real(t[k], f"tail envelope {k}") for k in keys}
    for k in ("mean_ratio", "var_ratio"):
        if not 0.0 <= out[k] < 1.0:
            raise ValueError(f"tail envelope {k} must lie in [0, 1), got {out[k]}")
    for k in ("mean_coeff", "var_coeff"):
        if out[k] < 0.0:
            raise ValueError(f"tail envelope {k} must be >= 0, got {out[k]}")
    return out


# -- evaluation ------------------------------------------------------------


def digit_value(dmap: DigitMap, base: CantorBase, d: int, j: int) -> float:
    """f(d * q_j).

    Raises DigitOutOfRange when d is not a digit of level j, and
    AlphabetMismatch when the map does not cover the level (custom table
    too shallow, digit table g narrower than the alphabet).
    """
    a = base.digit_size(j)
    if not isinstance(d, int) or isinstance(d, bool) or d < 0 or d >= a:
        raise DigitOutOfRange(f"digit {d!r} at level {j} outside [0, {a - 1}]")
    return dmap._values(base, j, d, d + 1)[0]


def level_values(dmap: DigitMap, base: CantorBase, j: int) -> list[float]:
    """[f(d q_j) for d in 0..a_j-1]; the atom support of level j."""
    return dmap._values(base, j, 0, base.digit_size(j))


def evaluate(dmap: DigitMap, base: CantorBase, n: int) -> float:
    """f(n) as the sum of digit values along the expansion of n."""
    from .mixed_radix import expand

    digits = expand(base, n).digits
    return math.fsum(digit_value(dmap, base, d, j) for j, d in enumerate(digits) if d)


def digit_stats(dmap: DigitMap, base: CantorBase, j: int) -> DigitStats:
    """Exact enumeration of level-j statistics under the uniform digit."""
    vals = level_values(dmap, base, j)
    a = len(vals)
    m = math.fsum(vals) / a
    centered = [v - m for v in vals]
    s2 = math.fsum(c * c for c in centered) / a
    omega = max(abs(c) for c in centered)
    mu3 = math.fsum(c * c * c for c in centered) / a
    return DigitStats(j=j, m=m, s2=s2, omega=omega, mu3=mu3)


# -- certified tails ---------------------------------------------------------

# Mean tails below bound sum_{j>L} |m_j| (hence also |sum_{j>L} m_j|), variance
# tails bound sum_{j>L} s_j^2.  Polynomial weights use the integral comparison
# sum_{j>L} j^{-p} <= L^{1-p}/(p-1) (p > 1, L >= 1), whose slack dwarfs float
# rounding, so the float evaluation of the closed form stays a true bound.


def _poly_tail(L: int, p: float) -> float:
    """Certified upper bound for sum_{j>L} j^{-p} (coefficient c_0 = 1 is not
    part of any tail with L >= 0 ... c_j = j^{-p} from j = 1 on)."""
    if p <= 1.0:
        return math.inf
    if L == 0:
        return 1.0 + 1.0 / (p - 1.0)
    return float(L) ** (1.0 - p) / (p - 1.0)


def table_rows(dmap: DigitMap, base: CantorBase) -> np.ndarray:
    """(|m_j|, s_j^2) of each of a custom table's rows, a (2, depth) array."""
    stats = [digit_stats(dmap, base, j) for j in range(dmap.depth)]
    return np.array([[abs(st.m) for st in stats], [st.s2 for st in stats]])


def table_tails(dmap: DigitMap, rows: np.ndarray, L: int) -> tuple[float, float]:
    """A custom table's tails beyond level L from its table_rows.

    The rows L < j are added in ascending j (np.cumsum adds in order, where
    np.sum pairs and Python's sum compensates).  A bare table has no mass
    past its depth, so they are its tails; an envelope counts for no less
    than them, where they refute it.
    """
    rest = rows[:, L + 1:]
    mt, vt = np.cumsum(rest, axis=1)[:, -1].tolist() if rest.size else (0.0, 0.0)
    t = dmap._tail
    if t is None:
        return mt, vt
    mean = t["mean_coeff"] * t["mean_ratio"] ** (L + 1) / (1.0 - t["mean_ratio"]) \
        if t["mean_coeff"] else 0.0
    var = t["var_coeff"] * t["var_ratio"] ** (L + 1) / (1.0 - t["var_ratio"]) \
        if t["var_coeff"] else 0.0
    return max(mean, mt), max(var, vt)


def tail_sums(dmap: DigitMap, base: CantorBase, L: int) -> tuple[float, float]:
    """Certified (sum_{j>L} |m_j| bound, sum_{j>L} s_j^2 bound).

    Exact closed forms for the geometric-type families on constant bases;
    integral-comparison bounds for polynomial weights; a doubling bound
    q_j >= q_{L+1} 2^{j-L-1} for radical-inverse on general bases.
    math.inf signals a certified-divergent tail.  A custom table's envelope
    counts for no less than its own remaining rows (table_tails); without an
    envelope it raises NoTailMeta.
    """
    if L < 0:
        raise ValueError(f"tail level must be >= 0, got {L}")
    return dmap._tail_sums(base, L)


# -- convergence diagnostic ---------------------------------------------------


def ew_diagnose(dmap: DigitMap, base: CantorBase, j_max: int = 64) -> EwReport:
    """Decide whether the distribution functions can converge.

    Convergence of the limit law needs sum m_j to converge and
    sum s_j^2 < infinity.  With certified tails the verdict is analytic:
    both tails finite <=> converges.  Without them the partial sums up to
    j_max are probed: settled increments (below EW_TOL over the trailing
    half) give a heuristic "converges", a crossing of EW_CEILING gives
    "diverges", anything else is "inconclusive".
    """
    if j_max < 1:
        raise ValueError(f"j_max must be >= 1, got {j_max}")
    depth = dmap.depth
    if depth is not None:
        j_max = min(j_max, depth)
    means, variances = [], []
    acc_m, acc_v = 0.0, 0.0
    for j in range(j_max):
        st = digit_stats(dmap, base, j)
        acc_m += st.m
        acc_v += st.s2
        means.append(acc_m)
        variances.append(acc_v)
    mean_partials = tuple(means)
    var_partials = tuple(variances)
    if dmap.has_tail_meta:
        mt, vt = tail_sums(dmap, base, 0)
        if math.isfinite(mt) and math.isfinite(vt):
            return EwReport("converges", True, mean_partials, var_partials,
                            f"certified tails finite: mean<= {mt:.6g}, var<= {vt:.6g}")
        return EwReport("diverges", True, mean_partials, var_partials,
                        "a certified tail bound is infinite")
    half = j_max // 2
    drift_m = abs(mean_partials[-1] - mean_partials[half - 1]) if half >= 1 else math.inf
    drift_v = abs(var_partials[-1] - var_partials[half - 1]) if half >= 1 else math.inf
    if abs(mean_partials[-1]) > EW_CEILING or var_partials[-1] > EW_CEILING:
        return EwReport("diverges", False, mean_partials, var_partials,
                        f"partial sums crossed the ceiling {EW_CEILING:g}")
    if drift_m <= EW_TOL and drift_v <= EW_TOL:
        return EwReport("converges", False, mean_partials, var_partials,
                        f"partial sums settled within {EW_TOL:g} over the trailing half")
    return EwReport("inconclusive", False, mean_partials, var_partials,
                    f"partial sums still drift ({drift_m:.3g}, {drift_v:.3g}) at depth {j_max}")
