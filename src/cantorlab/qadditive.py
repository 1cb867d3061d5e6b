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

import math
import numbers
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import AlphabetMismatch, DigitOutOfRange, NoTailMeta
from .mixed_radix import CantorBase

_FAMILIES = (
    "radical-inverse",
    "polynomial",
    "geometric",
    "symmetric-ternary",
    "skewed-polyweight",
    "custom-table",
)

_SIGN3 = (-1.0, 0.0, 1.0)


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
    """Closed, serializable descriptor of one digit map family."""

    def __init__(self, descriptor: dict):
        self._descriptor = _validate_map(descriptor)

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
        d = dict(self._descriptor)
        if "g" in d:
            d["g"] = list(d["g"])
        if "values" in d:
            d["values"] = [list(r) for r in d["values"]]
        if "tail" in d:
            d["tail"] = dict(d["tail"])
        return d

    @property
    def depth(self) -> Optional[int]:
        """Number of levels a custom table covers; None for unbounded families."""
        if self.family == "custom-table":
            return len(self._descriptor["values"])
        return None

    @property
    def has_tail_meta(self) -> bool:
        if self.family == "custom-table":
            return "tail" in self._descriptor
        return True

    def weight_coeff(self, j: int) -> float:
        """c_j for the scalar-weight families (value = c_j * g(d))."""
        fam = self.family
        if fam == "polynomial":
            return 1.0 if j == 0 else float(j) ** (-self._descriptor["alpha"])
        if fam == "geometric":
            return self._descriptor["beta"] ** j
        if fam == "symmetric-ternary":
            return 3.0 ** (-j)
        if fam == "skewed-polyweight":
            return 1.0 if j == 0 else float(j) ** -2.0
        raise ValueError(f"{fam} has no scalar weight sequence")

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
    if fam == "polynomial":
        alpha = _real(d.get("alpha"), "polynomial alpha")
        if not alpha > 0:
            raise ValueError(f"polynomial family needs alpha > 0, got {alpha!r}")
        out["alpha"] = alpha
        out["g"] = _real_row(d.get("g"), "digit table g")
    elif fam == "geometric":
        beta = _real(d.get("beta"), "geometric beta")
        if not 0 < beta:
            raise ValueError(f"geometric family needs beta > 0, got {beta!r}")
        out["beta"] = beta
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
        return float(v)
    except OverflowError:
        raise ValueError(f"{what} {v!r} is out of float range") from None


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
    fam = dmap.family
    if fam == "radical-inverse":
        if d == 0:
            return 0.0
        return _inv(float(d), base.weight(j + 1))
    if fam == "custom-table":
        rows = dmap._descriptor["values"]
        if j >= len(rows):
            raise AlphabetMismatch(
                f"custom table covers levels j < {len(rows)}, level {j} requested")
        row = rows[j]
        if d >= len(row):
            raise AlphabetMismatch(
                f"custom table row {j} has width {len(row)}, digit {d} requested")
        return row[d]
    if fam == "symmetric-ternary":
        if d > 2:
            raise AlphabetMismatch("symmetric-ternary is defined for digits 0..2 (base 3)")
        return _SIGN3[d] * dmap.weight_coeff(j)
    if fam == "skewed-polyweight":
        return float(min(d, 2)) * dmap.weight_coeff(j)
    # polynomial / geometric with explicit digit table
    g = dmap._descriptor["g"]
    if d >= len(g):
        raise AlphabetMismatch(
            f"digit table g has width {len(g)}, digit {d} at level {j} requested")
    return g[d] * dmap.weight_coeff(j)


def level_values(dmap: DigitMap, base: CantorBase, j: int) -> list[float]:
    """[f(d q_j) for d in 0..a_j-1]; the atom support of level j."""
    return [digit_value(dmap, base, d, j) for d in range(base.digit_size(j))]


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


def _g_extremes(dmap: DigitMap, base: CantorBase) -> tuple[float, float]:
    """(max_a |mean g|, max_a var g) over the alphabet sizes of the base."""
    fam = dmap.family
    sizes = base.alphabet_sizes()
    if fam == "skewed-polyweight":
        if sizes is None:
            # sup over all a >= 2: |mean| = (2a-3)/a < 2; var <= 1 by Popoviciu
            return 2.0, 1.0
        table = [0.0, 1.0, 2.0]
        gbar, gvar = 0.0, 0.0
        for a in sizes:
            vals = [table[min(d, 2)] for d in range(a)]
            m = math.fsum(vals) / a
            gbar = max(gbar, abs(m))
            gvar = max(gvar, math.fsum((v - m) ** 2 for v in vals) / a)
        return gbar, gvar
    g = dmap._descriptor["g"]
    if sizes is None:
        raise AlphabetMismatch(
            f"{fam} map with a finite digit table cannot cover an unbounded base")
    if max(sizes) > len(g):
        raise AlphabetMismatch(
            f"digit table g has width {len(g)} but the base reaches alphabet {max(sizes)}")
    gbar, gvar = 0.0, 0.0
    for a in sizes:
        m = math.fsum(g[:a]) / a
        gbar = max(gbar, abs(m))
        gvar = max(gvar, math.fsum((v - m) ** 2 for v in g[:a]) / a)
    return gbar, gvar


def _poly_tail(L: int, p: float) -> float:
    """Certified upper bound for sum_{j>L} j^{-p} (coefficient c_0 = 1 is not
    part of any tail with L >= 0 ... c_j = j^{-p} from j = 1 on)."""
    if p <= 1.0:
        return math.inf
    if L == 0:
        return 1.0 + 1.0 / (p - 1.0)
    return float(L) ** (1.0 - p) / (p - 1.0)


def tail_sums(dmap: DigitMap, base: CantorBase, L: int) -> tuple[float, float]:
    """Certified (sum_{j>L} |m_j| bound, sum_{j>L} s_j^2 bound).

    Exact closed forms for the geometric-type families on constant bases;
    integral-comparison bounds for polynomial weights; a doubling bound
    q_j >= q_{L+1} 2^{j-L-1} for radical-inverse on general bases.
    math.inf signals a certified-divergent tail.  Raises NoTailMeta for a
    custom table without a tail envelope.
    """
    if L < 0:
        raise ValueError(f"tail level must be >= 0, got {L}")
    fam = dmap.family
    if fam == "radical-inverse":
        if base.is_constant():
            q = float(base.digit_size(0))
            # sum (a-1)/(2 q^{j+1}) = q^{-(L+1)}/2;  sum (a^2-1)/(12 q^{2(j+1)})
            return q ** -(L + 1) / 2.0, q ** (-2 * (L + 1)) / 12.0
        qn = base.weight(L + 1)
        m = _inv(1.0, qn)
        return m, max(_inv(_inv(1.0 / 9.0, qn), qn), 5e-324)
    if fam == "symmetric-ternary":
        sizes = base.alphabet_sizes()
        if sizes != frozenset((3,)):
            raise AlphabetMismatch("symmetric-ternary needs the constant base 3")
        return 0.0, 0.75 * 9.0 ** -(L + 1)
    if fam == "custom-table":
        t = dmap._descriptor.get("tail")
        if t is None:
            raise NoTailMeta("custom table carries no tail envelope")
        mean = t["mean_coeff"] * t["mean_ratio"] ** (L + 1) / (1.0 - t["mean_ratio"]) \
            if t["mean_coeff"] else 0.0
        var = t["var_coeff"] * t["var_ratio"] ** (L + 1) / (1.0 - t["var_ratio"]) \
            if t["var_coeff"] else 0.0
        return mean, var
    gbar, gvar = _g_extremes(dmap, base)
    if fam == "geometric":
        beta = dmap._descriptor["beta"]
        if beta >= 1.0:
            mean = 0.0 if gbar == 0.0 else math.inf
            var = 0.0 if gvar == 0.0 else math.inf
            return mean, var
        mean = gbar * beta ** (L + 1) / (1.0 - beta)
        var = gvar * beta ** (2 * (L + 1)) / (1.0 - beta * beta)
        return mean, var
    # polynomial (and the fixed alpha = 2 of skewed-polyweight)
    alpha = dmap._descriptor.get("alpha", 2.0)
    mean = 0.0 if gbar == 0.0 else gbar * _poly_tail(L, alpha)
    var = 0.0 if gvar == 0.0 else gvar * _poly_tail(L, 2.0 * alpha)
    return mean, var


# -- convergence diagnostic ---------------------------------------------------


def ew_diagnose(dmap: DigitMap, base: CantorBase, j_max: int = 64,
                tol: float = 1e-9, ceiling: float = 1e6) -> EwReport:
    """Decide whether the distribution functions can converge.

    Convergence of the limit law needs sum m_j to converge and
    sum s_j^2 < infinity.  With certified tails the verdict is analytic:
    both tails finite <=> converges.  Without them the partial sums up to
    j_max are probed: settled increments (below tol over the trailing
    half) give a heuristic "converges", a crossing of the ceiling gives
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
    if abs(mean_partials[-1]) > ceiling or var_partials[-1] > ceiling:
        return EwReport("diverges", False, mean_partials, var_partials,
                        f"partial sums crossed the ceiling {ceiling:g}")
    if drift_m <= tol and drift_v <= tol:
        return EwReport("converges", False, mean_partials, var_partials,
                        f"partial sums settled within {tol:g} over the trailing half")
    return EwReport("inconclusive", False, mean_partials, var_partials,
                    f"partial sums still drift ({drift_m:.3g}, {drift_v:.3g}) at depth {j_max}")
