"""Cantor (mixed-radix) number systems.

A base is the digit-size sequence a_0, a_1, ... with every a_j >= 2.  The
radix weights are q_0 = 1 and q_{j+1} = a_j * q_j, kept as exact Python
integers, so weights never overflow no matter how fast they grow.  Every
integer N >= 1 has a unique expansion

    N = sum_j delta_j * q_j,   0 <= delta_j <= a_j - 1,

and N = 0 expands to the empty digit string by convention.
"""

from __future__ import annotations

import copy
import threading
from dataclasses import dataclass
from typing import Optional

from .errors import DigitOutOfRange, InvalidBase

_RULE_KINDS = ("constant", "periodic", "affine", "table")


@dataclass(frozen=True)
class Expansion:
    """Digit string of one integer, least-significant digit first.

    Attributes
    ----------
    digits : tuple of int
        (delta_0, ..., delta_L); empty for N = 0.  The leading digit
        delta_L is nonzero whenever the tuple is nonempty.
    """

    digits: tuple[int, ...]

    @property
    def length(self) -> int:
        """Index L of the highest digit; 0 for the empty expansion."""
        return max(len(self.digits) - 1, 0)


class CantorBase:
    """Digit-size sequence with cached exact radix weights.

    Construct through :func:`build_base`; the rule descriptor is one of

    - ``{"kind": "constant", "q": q}`` with q >= 2,
    - ``{"kind": "periodic", "pattern": [a_0, ..., a_{p-1}]}``,
    - ``{"kind": "affine", "c": c, "d": d}`` meaning a_j = c*j + d,
      c >= 0 and d >= 2,
    - ``{"kind": "table", "table": [...], "then": rule}`` where ``then``
      is a constant/periodic/affine rule that takes over at the first
      index past the table.

    The descriptor is turned into fields once: a finite prefix (the table,
    else empty), then either a periodic pattern (a constant q, or an affine
    rule with c = 0, is the pattern [q]) or a_j = c j + d.  Past the prefix
    the rule reads the level index j itself, not j - len(prefix).

    The weight cache and the digit-size table that expand and compress
    read only ever grow (append-only under one lock), so concurrent readers
    of an already-built prefix are safe.
    """

    def __init__(self, descriptor: dict):
        d = self._descriptor = _validate_rule(descriptor)
        self._prefix = tuple(d.get("table", ()))
        rule = d.get("then", d)
        self._pattern: Optional[tuple[int, ...]] = None
        if rule["kind"] == "constant":
            self._pattern = (rule["q"],)
        elif rule["kind"] == "periodic":
            self._pattern = tuple(rule["pattern"])
        elif rule["c"] == 0:
            self._pattern = (rule["d"],)
        else:
            self._c, self._d = rule["c"], rule["d"]
        self._weights = [1]
        self._sizes: list[int] = []    # a_0, a_1, ... as far as read
        self._lock = threading.Lock()

    # -- digit sizes ----------------------------------------------------

    def digit_size(self, j: int) -> int:
        """a_j for level j >= 0."""
        if j < 0:
            raise InvalidBase(f"level index must be >= 0, got {j}")
        if j < len(self._prefix):
            return self._prefix[j]
        if self._pattern is None:
            return self._c * j + self._d
        return self._pattern[j % len(self._pattern)]

    def _size_table(self, levels: int) -> list[int]:
        """The table a_0, a_1, ..., grown to at least `levels` entries."""
        if levels > len(self._sizes):
            with self._lock:
                while levels > len(self._sizes):
                    self._sizes.append(self.digit_size(len(self._sizes)))
        return self._sizes

    def alphabet_sizes(self) -> Optional[frozenset[int]]:
        """Set of digit sizes this base can ever produce, or None if unbounded."""
        if self._pattern is None:
            return None
        return frozenset(self._prefix + self._pattern)

    def is_constant(self) -> bool:
        sizes = self.alphabet_sizes()
        return sizes is not None and len(sizes) == 1

    # -- weights ---------------------------------------------------------

    def weight(self, j: int) -> int:
        """Exact q_j (arbitrary precision)."""
        if j < 0:
            raise InvalidBase(f"weight index must be >= 0, got {j}")
        if j >= len(self._weights):
            with self._lock:
                while j >= len(self._weights):
                    k = len(self._weights) - 1
                    self._weights.append(self._weights[-1] * self.digit_size(k))
        return self._weights[j]

    # -- serialization ---------------------------------------------------

    @property
    def descriptor(self) -> dict:
        """JSON-safe copy of the rule descriptor."""
        return copy.deepcopy(self._descriptor)

    def __repr__(self) -> str:
        return f"CantorBase({self._descriptor!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, CantorBase) and self._descriptor == other._descriptor

    def __hash__(self) -> int:
        return hash(repr(self._descriptor))


def _int(v) -> bool:
    """True for an int that is not a bool (JSON true and false are no integers)."""
    return isinstance(v, int) and not isinstance(v, bool)


def _sizes_ok(sizes) -> bool:
    """True for a nonempty list of integer digit sizes >= 2."""
    return (isinstance(sizes, (list, tuple)) and len(sizes) > 0
            and all(_int(a) and a >= 2 for a in sizes))


def _validate_rule(rule: dict) -> dict:
    if not isinstance(rule, dict) or "kind" not in rule:
        raise InvalidBase(f"rule descriptor must be a dict with a 'kind', got {rule!r}")
    kind = rule["kind"]
    if kind not in _RULE_KINDS:
        raise InvalidBase(f"unknown rule kind {kind!r}")
    if kind == "constant":
        q = rule.get("q")
        if not _int(q) or q < 2:
            raise InvalidBase(f"constant base needs integer q >= 2, got {q!r}")
        return {"kind": "constant", "q": q}
    if kind == "periodic":
        pattern = rule.get("pattern")
        if not _sizes_ok(pattern):
            raise InvalidBase(f"periodic base needs a nonempty pattern of ints >= 2, got {pattern!r}")
        return {"kind": "periodic", "pattern": list(pattern)}
    if kind == "affine":
        c, d = rule.get("c"), rule.get("d")
        if not (_int(c) and _int(d)) or c < 0 or d < 2:
            raise InvalidBase(f"affine base needs integers c >= 0, d >= 2, got c={c!r} d={d!r}")
        return {"kind": "affine", "c": c, "d": d}
    # table: finite prefix plus mandatory non-table continuation
    table = rule.get("table")
    then = rule.get("then")
    if not _sizes_ok(table):
        raise InvalidBase(f"table base needs a nonempty table of ints >= 2, got {table!r}")
    if not isinstance(then, dict) or then.get("kind") == "table":
        raise InvalidBase("table base needs a constant/periodic/affine continuation rule under 'then'")
    return {"kind": "table", "table": list(table), "then": _validate_rule(then)}


# -- operations ----------------------------------------------------------


def build_base(rule: dict) -> CantorBase:
    """Validate a rule descriptor and return the base.

    Raises
    ------
    InvalidBase
        If any digit size would fall below 2 or the descriptor is malformed.
    """
    return CantorBase(rule)


def expand(base: CantorBase, n: int) -> Expansion:
    """Digit expansion of n >= 0.

    The digits come out of the standard divmod cascade, which coincides
    with the greedy top-down algorithm because the weights are the mixed-
    radix products.  expand(base, 0) is the empty expansion of length 0.
    """
    if not _int(n):
        raise TypeError(f"expand wants a Python int, got {type(n).__name__}")
    if n < 0:
        raise ValueError(f"expand wants n >= 0, got {n}")
    digits = []
    # every a_j >= 2, so n has at most n.bit_length() digits
    for a in base._size_table(n.bit_length()):
        if not n:
            break
        n, d = divmod(n, a)
        digits.append(d)
    return Expansion(tuple(digits))


def compress(base: CantorBase, digits) -> int:
    """Inverse of :func:`expand`: sum of delta_j * q_j.

    Trailing zero digits are accepted (the result re-expands to the
    canonical, shorter form).

    Raises
    ------
    DigitOutOfRange
        If some delta_j is negative or >= a_j.
    """
    digits = tuple(digits)
    sizes = base._size_table(len(digits))
    for j, d in enumerate(digits):
        if not _int(d):
            raise DigitOutOfRange(f"digit at level {j} must be an int, got {d!r}")
        if d < 0 or d >= sizes[j]:
            raise DigitOutOfRange(f"digit {d} at level {j} outside [0, {sizes[j] - 1}]")
    total = 0
    for j in range(len(digits) - 1, -1, -1):      # Horner, from the top digit down
        total = total * sizes[j] + digits[j]
    return total


def length(base: CantorBase, n: int) -> int:
    """L(n): index of the highest digit, i.e. max{j : q_j <= n}; 0 for n = 0."""
    return expand(base, n).length
