"""Digit maps: per-level moments against an exact-rational oracle,
certified tail sums against closed forms and brute partial sums."""

import math
from fractions import Fraction

import pytest

from cantorlab import (
    AlphabetMismatch,
    DigitMap,
    DigitOutOfRange,
    NoTailMeta,
    build_base,
    digit_stats,
    digit_value,
    evaluate,
    ew_diagnose,
    expand,
    level_values,
    tail_sums,
)
from cantorlab.qadditive import table_tail


def _moments_oracle(values):
    """Exact uniform-digit moments via rational arithmetic.

    Fraction(v) is exact for every float, so this reproduces the moments
    of the same value list without any floating-point accumulation.
    """
    vals = [Fraction(v) for v in values]
    a = len(vals)
    m = sum(vals) / a
    s2 = sum((v - m) ** 2 for v in vals) / a
    mu3 = sum((v - m) ** 3 for v in vals) / a
    omega = max(abs(v - m) for v in vals)
    return float(m), float(s2), float(omega), float(mu3)


def _close(x, y, rel=1e-12):
    if x == y:
        return True
    scale = max(abs(x), abs(y))
    return abs(x - y) <= rel * scale


# -- pointwise values ----------------------------------------------------------


def test_digit_value_radical_inverse(vdc2, base2, base10):
    assert digit_value(vdc2, base2, 1, 3) == 1.0 / 16.0
    assert digit_value(vdc2, base10, 7, 0) == 0.7
    assert digit_value(vdc2, base10, 0, 5) == 0.0


def test_digit_value_families(base3, tern, geo_half):
    assert digit_value(tern, base3, 0, 2) == -1.0 / 9.0
    assert digit_value(tern, base3, 1, 2) == 0.0
    assert digit_value(tern, base3, 2, 2) == 1.0 / 9.0
    assert digit_value(geo_half, build_base({"kind": "constant", "q": 2}), 1, 4) \
        == 0.5 ** 4


def test_digit_value_errors(base2, base3, vdc2, tern):
    with pytest.raises(DigitOutOfRange):
        digit_value(vdc2, base2, 2, 0)
    with pytest.raises(DigitOutOfRange):
        digit_value(vdc2, base2, -1, 0)
    base4 = build_base({"kind": "constant", "q": 4})
    with pytest.raises(AlphabetMismatch):
        digit_value(tern, base4, 3, 0)
    narrow = DigitMap.geometric(0.5, (0.0, 1.0))
    with pytest.raises(AlphabetMismatch):
        digit_value(narrow, base3, 2, 0)
    shallow = DigitMap.custom_table([(0.0, 1.0), (0.0, 0.5)])
    with pytest.raises(AlphabetMismatch):
        digit_value(shallow, base2, 0, 2)
    wide_level = DigitMap.custom_table([(0.0, 1.0)])
    with pytest.raises(AlphabetMismatch):
        digit_value(wide_level, base3, 2, 0)


def test_evaluate_known(base2, geo_half, vdc2):
    # 7 = 1 + 2 + 4: geometric weights 1, 1/2, 1/4 on digit 1
    assert evaluate(geo_half, base2, 7) == 1.75
    # radical inverse folds digits across the point: 6 = 0*1+1*2+1*4 -> 1/4+1/8
    assert evaluate(vdc2, base2, 6) == 0.375
    assert evaluate(vdc2, base2, 0) == 0.0


def test_evaluate_is_digitwise_additive(base23, skew):
    # disjoint digit supports add exactly
    q2, q4 = base23.weight(2), base23.weight(4)
    a = evaluate(skew, base23, 1 * q2)
    b = evaluate(skew, base23, 2 * q4)
    assert evaluate(skew, base23, 1 * q2 + 2 * q4) == a + b


def test_evaluate_matches_digit_sum(base10):
    wide = DigitMap.polynomial(1.5, tuple(float(d) for d in range(10)))
    for n in (1, 99, 4079, 10**6 + 17):
        digits = expand(base10, n).digits
        want = math.fsum(digit_value(wide, base10, d, j)
                         for j, d in enumerate(digits))
        assert evaluate(wide, base10, n) == want


# -- per-level moments ----------------------------------------------------------


@pytest.mark.parametrize("fam", ["vdc", "poly", "geo", "skew"])
@pytest.mark.parametrize("bdesc", [
    {"kind": "constant", "q": 2},
    {"kind": "constant", "q": 5},
    {"kind": "periodic", "pattern": [2, 3]},
])
def test_digit_stats_against_rational_oracle(fam, bdesc):
    base = build_base(bdesc)
    a_max = max(base.alphabet_sizes())
    g = tuple(float(i) / (i + 1.0) for i in range(a_max))
    dmap = {
        "vdc": DigitMap.radical_inverse(),
        "poly": DigitMap.polynomial(1.5, g),
        "geo": DigitMap.geometric(0.7, g),
        "skew": DigitMap.skewed_polyweight(),
    }[fam]
    for j in range(13):
        st = digit_stats(dmap, base, j)
        m, s2, omega, mu3 = _moments_oracle(level_values(dmap, base, j))
        assert st.j == j
        assert _close(st.m, m)
        assert _close(st.s2, s2)
        assert _close(st.omega, omega)
        # mu3 can be an exact 0 that floats only cancel to ~eps * s2^{3/2}
        assert abs(st.mu3 - mu3) <= 1e-12 * max(abs(mu3), st.s2 ** 1.5)


def test_digit_stats_ternary_exact(base3, tern):
    for j in range(12):
        st = digit_stats(tern, base3, j)
        assert st.m == 0.0
        assert st.mu3 == 0.0
        assert _close(st.s2, (2.0 / 3.0) * 9.0 ** (-j))
        assert st.omega == 3.0 ** (-j)


def test_digit_stats_vdc_base2_exact(base2, vdc2):
    # level values (0, 2^-(j+1)) are dyadic: everything is exact
    st = digit_stats(vdc2, base2, 0)
    assert (st.m, st.s2, st.omega, st.mu3) == (0.25, 0.0625, 0.25, 0.0)
    st = digit_stats(vdc2, base2, 3)
    assert st.m == 1.0 / 32.0
    assert st.s2 == 1.0 / 1024.0
    assert st.omega == 1.0 / 32.0


def test_weight_coeff(poly15, geo_half, vdc2):
    assert poly15.weight_coeff(0) == 1.0
    assert poly15.weight_coeff(4) == 4.0 ** -1.5
    assert geo_half.weight_coeff(10) == 0.5 ** 10
    with pytest.raises(ValueError):
        vdc2.weight_coeff(0)


def test_map_descriptor_round_trip(poly15, tern):
    for m in (poly15, tern, DigitMap.custom_table([(0.0, 1.0)], tail=None)):
        assert DigitMap(m.descriptor) == m


def test_map_validation():
    with pytest.raises(ValueError):
        DigitMap.polynomial(0.0, (0.0, 1.0))
    with pytest.raises(ValueError):
        DigitMap.geometric(-0.5, (0.0, 1.0))
    with pytest.raises(ValueError):
        DigitMap.polynomial(1.5, (1.0,))
    with pytest.raises(ValueError):
        DigitMap.custom_table([])
    with pytest.raises(ValueError):
        DigitMap.custom_table([(1.0,)])
    with pytest.raises(ValueError):
        DigitMap.custom_table([(0.0, 1.0)], tail={"mean_coeff": 1.0})
    with pytest.raises(ValueError):
        DigitMap.custom_table([(0.0, 1.0)],
                              tail={"mean_coeff": 1.0, "mean_ratio": 1.0,
                                    "var_coeff": 1.0, "var_ratio": 0.5})


# -- certified tails -------------------------------------------------------------


def test_tail_sums_vdc_constant_base(base2, base10, vdc2):
    for base, q in ((base2, 2.0), (base10, 10.0)):
        for L in (0, 3, 9):
            mt, vt = tail_sums(vdc2, base, L)
            assert mt == q ** -(L + 1) / 2.0
            assert _close(vt, (q * q - 1.0) / (12.0 * q * q)
                          * q ** (-2 * (L + 1)) / (1.0 - q ** -2.0))
            # closed form equals the true series: partial sums converge to it
            part = math.fsum(digit_stats(vdc2, base, j).m
                             for j in range(L + 1, L + 60))
            assert part <= mt * (1.0 + 1e-12)
            assert mt - part <= 1e-12 * mt


def test_tail_sums_ternary_exact(base3, tern):
    for L in (0, 2, 7):
        mt, vt = tail_sums(tern, base3, L)
        assert mt == 0.0
        assert vt == 0.75 * 9.0 ** -(L + 1)
        part = math.fsum(digit_stats(tern, base3, j).s2
                         for j in range(L + 1, L + 40))
        assert part <= vt * (1.0 + 1e-12)
        assert vt - part <= 1e-12 * vt


def test_tail_sums_geometric_exact(base2, geo_half):
    for L in (0, 5):
        mt, vt = tail_sums(geo_half, base2, L)
        assert _close(mt, 0.5 ** (L + 1))
        assert _close(vt, 4.0 ** -(L + 1) / 3.0)


def test_tail_sums_geometric_divergent(base2):
    grow = DigitMap.geometric(1.25, (0.0, 1.0))
    mt, vt = tail_sums(grow, base2, 4)
    assert math.isinf(mt) and math.isinf(vt)
    # a zero digit table kills the tail even with beta >= 1
    flat = DigitMap.geometric(1.25, (0.0, 0.0))
    assert tail_sums(flat, base2, 4) == (0.0, 0.0)


def test_tail_sums_polynomial_bounds(base2, poly15):
    for L in (5, 20):
        mt, vt = tail_sums(poly15, base2, L)
        true_m = 0.5 * math.fsum(float(j) ** -1.5 for j in range(L + 1, 200000))
        true_v = 0.25 * math.fsum(float(j) ** -3.0 for j in range(L + 1, 200000))
        assert true_m <= mt <= true_m * (1.0 + 2.0 / L)
        assert true_v <= vt <= true_v * (1.0 + 3.0 / L)


def test_tail_sums_skewed_general_base(factorial_base, skew):
    mt, vt = tail_sums(skew, factorial_base, 50)
    part_m = math.fsum(abs(digit_stats(skew, factorial_base, j).m)
                       for j in range(51, 120))
    part_v = math.fsum(digit_stats(skew, factorial_base, j).s2
                       for j in range(51, 120))
    assert 0.0 < part_m <= mt
    assert 0.0 < part_v <= vt


def test_tail_sums_vdc_general_base(factorial_base, vdc2):
    for L in (3, 10):
        mt, vt = tail_sums(vdc2, factorial_base, L)
        part_m = math.fsum(digit_stats(vdc2, factorial_base, j).m
                           for j in range(L + 1, L + 40))
        part_v = math.fsum(digit_stats(vdc2, factorial_base, j).s2
                           for j in range(L + 1, L + 40))
        assert 0.0 < part_m <= mt
        assert 0.0 < part_v <= vt


def test_tail_sums_custom(base2):
    bare = DigitMap.custom_table([(0.0, 1.0), (0.0, 0.5)])
    with pytest.raises(NoTailMeta):
        tail_sums(bare, base2, 0)
    enveloped = DigitMap.custom_table(
        [(0.0, 1.0)],
        tail={"mean_coeff": 1.0, "mean_ratio": 0.5,
              "var_coeff": 0.25, "var_ratio": 0.25})
    mt, vt = tail_sums(enveloped, base2, 2)
    assert mt == 1.0 * 0.5 ** 3 / (1.0 - 0.5)
    assert vt == 0.25 * 0.25 ** 3 / (1.0 - 0.25)
    # an envelope that the table's own remaining rows refute gives way to them
    refuted = DigitMap.custom_table(
        [(0.0, 2.0 ** -(j + 1)) for j in range(12)],
        tail={"mean_coeff": 0.0, "mean_ratio": 0.5, "var_coeff": 0.0, "var_ratio": 0.25})
    for L in (0, 5, 11):
        mt, vt = tail_sums(refuted, base2, L)
        assert (mt, vt) == table_tail(refuted, base2, L)
        assert mt == math.fsum(2.0 ** -(j + 2) for j in range(L + 1, 12))


def test_no_overflow_on_huge_weights(factorial_base, vdc2):
    # level-200 weight has ~375 om digits; must degrade smoothly, not raise
    v = digit_value(vdc2, factorial_base, 1, 200)
    assert 0.0 <= v < 1e-300
    mt, vt = tail_sums(vdc2, factorial_base, 300)
    assert 0.0 <= mt < 1e-300 and 0.0 <= vt < 1e-300


def test_unbounded_base_rejects_finite_table(factorial_base, poly15):
    with pytest.raises(AlphabetMismatch):
        tail_sums(poly15, factorial_base, 3)


# -- convergence diagnostic -------------------------------------------------------


def test_ew_analytic_converges(base2, vdc2, geo_half):
    for m in (vdc2, geo_half):
        rep = ew_diagnose(m, base2)
        assert rep.verdict == "converges" and rep.analytic
        assert len(rep.mean_partials) == 64


def test_ew_analytic_diverges(base2):
    rep = ew_diagnose(DigitMap.geometric(1.25, (0.0, 1.0)), base2)
    assert rep.verdict == "diverges" and rep.analytic


def test_ew_heuristic_inconclusive(base2):
    # harmonic-type rows: mean partial sums grow like log and never settle
    rows = [(0.0, 2.0 / (j + 1.0)) for j in range(64)]
    rep = ew_diagnose(DigitMap.custom_table(rows), base2)
    assert rep.verdict == "inconclusive" and not rep.analytic
    assert rep.mean_partials[-1] > rep.mean_partials[len(rep.mean_partials) // 2]


def test_ew_heuristic_converges(base2):
    rows = [(0.0, 2.0 ** -j) for j in range(64)]
    rep = ew_diagnose(DigitMap.custom_table(rows), base2)
    assert rep.verdict == "converges" and not rep.analytic


def test_ew_heuristic_diverges(base2):
    rows = [(0.0, 10.0 ** j) for j in range(30)]
    rep = ew_diagnose(DigitMap.custom_table(rows), base2)
    assert rep.verdict == "diverges" and not rep.analytic


def test_ew_rejects_bad_depth(base2, vdc2):
    with pytest.raises(ValueError):
        ew_diagnose(vdc2, base2, j_max=0)
