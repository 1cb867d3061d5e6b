"""Mixed-radix plumbing: expansion round trips, weights, base descriptors."""

import math
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantorlab import (
    DigitOutOfRange,
    InvalidBase,
    build_base,
    compress,
    expand,
    length,
)
from cantorlab.cli import main


def _all_bases():
    return [
        build_base({"kind": "constant", "q": 2}),
        build_base({"kind": "constant", "q": 3}),
        build_base({"kind": "constant", "q": 10}),
        build_base({"kind": "periodic", "pattern": [2, 3]}),
        build_base({"kind": "affine", "c": 1, "d": 2}),
        build_base({"kind": "table", "table": [5, 7],
                    "then": {"kind": "constant", "q": 3}}),
    ]


@pytest.mark.parametrize("base", _all_bases(), ids=lambda b: b.descriptor["kind"])
def test_roundtrip_small(base):
    for n in range(3000):
        e = expand(base, n)
        assert compress(base, e.digits) == n
        for j, d in enumerate(e.digits):
            assert 0 <= d < base.digit_size(j)
        if n > 0:
            assert e.digits[-1] != 0
            assert e.length == len(e.digits) - 1
        else:
            assert e.digits == ()
            assert e.length == 0


def test_expand_known_digits(base10, base23, factorial_base):
    assert expand(base10, 4079).digits == (9, 7, 0, 4)
    # alternating 2,3 weights: 1, 2, 6, 12, 36, 72
    assert expand(base23, 100).digits == (0, 2, 0, 2, 0, 1)
    # factorial weights: 1, 2, 6, 24, 120
    assert expand(factorial_base, 100).digits == (0, 2, 0, 4)
    assert compress(factorial_base, expand(factorial_base, 10**9).digits) == 10**9


def test_expand_rejects_bad_input(base2):
    with pytest.raises(ValueError):
        expand(base2, -1)
    with pytest.raises(TypeError):
        expand(base2, 2.0)
    with pytest.raises(TypeError):
        expand(base2, True)


def test_length_convention(base2):
    assert length(base2, 0) == 0
    assert length(base2, 1) == 0
    assert length(base2, 2) == 1
    assert length(base2, 2**20) == 20


def test_compress_trailing_zeros(base10):
    assert compress(base10, (3, 2, 0, 0)) == 23
    with pytest.raises(DigitOutOfRange):
        compress(base10, (10,))
    with pytest.raises(DigitOutOfRange):
        compress(base10, (-1,))


def test_weight_exact_bigint(factorial_base):
    # q_j = (j+1)! exactly; floats would lose this beyond ~20 levels
    for j in (0, 1, 5, 30, 60):
        assert factorial_base.weight(j) == math.factorial(j + 1)


def test_weight_periodic(base23):
    want = [1, 2, 6, 12, 36, 72, 216]
    assert [base23.weight(j) for j in range(7)] == want


def test_digit_size_table_then_rule():
    base = build_base({"kind": "table", "table": [5, 7],
                       "then": {"kind": "constant", "q": 3}})
    assert [base.digit_size(j) for j in range(4)] == [5, 7, 3, 3]
    assert base.weight(3) == 5 * 7 * 3


def test_alphabet_sizes():
    assert build_base({"kind": "constant", "q": 4}).alphabet_sizes() == frozenset({4})
    assert build_base({"kind": "periodic", "pattern": [2, 3]}).alphabet_sizes() \
        == frozenset({2, 3})
    # affine with c > 0 has unbounded digit sizes
    assert build_base({"kind": "affine", "c": 1, "d": 2}).alphabet_sizes() is None
    assert build_base({"kind": "affine", "c": 0, "d": 6}).alphabet_sizes() \
        == frozenset({6})
    tb = build_base({"kind": "table", "table": [5, 7],
                     "then": {"kind": "constant", "q": 3}})
    assert tb.alphabet_sizes() == frozenset({5, 7, 3})


def test_is_constant():
    assert build_base({"kind": "constant", "q": 2}).is_constant()
    assert build_base({"kind": "periodic", "pattern": [4]}).is_constant()
    assert build_base({"kind": "affine", "c": 0, "d": 9}).is_constant()
    assert not build_base({"kind": "periodic", "pattern": [2, 3]}).is_constant()
    assert not build_base({"kind": "affine", "c": 1, "d": 2}).is_constant()


def test_build_base_descriptor_round_trip():
    for desc in (
        {"kind": "constant", "q": 7},
        {"kind": "periodic", "pattern": [2, 5]},
        {"kind": "affine", "c": 2, "d": 3},
        {"kind": "table", "table": [4, 4, 9], "then": {"kind": "constant", "q": 2}},
    ):
        base = build_base(desc)
        assert build_base(base.descriptor) == base


def test_invalid_bases():
    with pytest.raises(InvalidBase):
        build_base({"kind": "constant", "q": 1})
    with pytest.raises(InvalidBase):
        build_base({"kind": "periodic", "pattern": []})
    with pytest.raises(InvalidBase):
        build_base({"kind": "periodic", "pattern": [2, 1]})
    with pytest.raises(InvalidBase):
        build_base({"kind": "affine", "c": -1, "d": 2})
    with pytest.raises(InvalidBase):
        build_base({"kind": "affine", "c": 0, "d": 1})
    with pytest.raises(InvalidBase):
        # continuation must not itself be a table
        build_base({"kind": "table", "table": [2],
                    "then": {"kind": "table", "table": [2],
                             "then": {"kind": "constant", "q": 2}}})
    with pytest.raises(InvalidBase):
        build_base({"kind": "nope"})


def test_bool_is_refused_in_every_integer_field():
    # JSON true and false once passed as an affine c (True == 1, False == 0), so
    # c = true built a base equal to c = 1 under another hash
    for desc in ({"kind": "affine", "c": True, "d": 2},
                 {"kind": "affine", "c": False, "d": 2},
                 {"kind": "table", "table": [3], "then": {"kind": "affine", "c": True, "d": 2}},
                 {"kind": "affine", "c": 1, "d": True},
                 {"kind": "constant", "q": True},
                 {"kind": "periodic", "pattern": [2, True]},
                 {"kind": "table", "table": [True], "then": {"kind": "constant", "q": 2}}):
        with pytest.raises(InvalidBase):
            build_base(desc)
    assert main(["expand", "100", "--base", '{"kind": "affine", "c": true, "d": 2}']) == 2


def test_base_equality_and_hash():
    a = build_base({"kind": "constant", "q": 3})
    b = build_base({"kind": "constant", "q": 3})
    assert a == b and hash(a) == hash(b)
    assert a != build_base({"kind": "constant", "q": 4})


# -- the parsed rule against the descriptor walk it replaced ------------------


def _digit_size_oracle(rule: dict, j: int) -> int:
    """a_j by dispatch on the descriptor's kind, recursing into tables."""
    kind = rule["kind"]
    if kind == "constant":
        return rule["q"]
    if kind == "periodic":
        pattern = rule["pattern"]
        return pattern[j % len(pattern)]
    if kind == "affine":
        return rule["c"] * j + rule["d"]
    table = rule["table"]
    if j < len(table):
        return table[j]
    return _digit_size_oracle(rule["then"], j)


def _alphabet_sizes_oracle(rule: dict) -> Optional[frozenset]:
    kind = rule["kind"]
    if kind == "constant":
        return frozenset((rule["q"],))
    if kind == "periodic":
        return frozenset(rule["pattern"])
    if kind == "affine":
        if rule["c"] == 0:
            return frozenset((rule["d"],))
        return None
    rest = _alphabet_sizes_oracle(rule["then"])
    if rest is None:
        return None
    return frozenset(rule["table"]) | rest


_SIZES = st.lists(st.integers(2, 9), min_size=1, max_size=6)
_RULE = st.one_of(
    st.builds(lambda q: {"kind": "constant", "q": q}, st.integers(2, 12)),
    st.builds(lambda p: {"kind": "periodic", "pattern": p}, _SIZES),
    st.builds(lambda c, d: {"kind": "affine", "c": c, "d": d},
              st.integers(0, 3), st.integers(2, 5)))
_DESCRIPTOR = _RULE | st.builds(lambda t, then: {"kind": "table", "table": t, "then": then},
                                _SIZES, _RULE)


@settings(max_examples=300, deadline=None)
@given(desc=_DESCRIPTOR, n=st.integers(0, 10 ** 12))
def test_parsed_rule_matches_descriptor_walk(desc, n):
    base = build_base(desc)
    assert [base.digit_size(j) for j in range(40)] \
        == [_digit_size_oracle(desc, j) for j in range(40)]
    assert base.alphabet_sizes() == _alphabet_sizes_oracle(desc)
    sizes = _alphabet_sizes_oracle(desc)
    assert base.is_constant() == (sizes is not None and len(sizes) == 1)
    assert base.descriptor == desc and build_base(base.descriptor) == base
    digits = expand(base, n).digits
    assert compress(base, digits) == n
    assert all(0 <= d < _digit_size_oracle(desc, j) for j, d in enumerate(digits))
