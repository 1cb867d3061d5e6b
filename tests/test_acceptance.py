"""Acceptance checklist: thirteen end-to-end checks, one verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the checklist live;
without ``-s`` the lines still appear for any failing check.  Every check
prints exactly one [PASS]/[FAIL] line and asserts the same condition, so a
green run doubles as a readable report.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from cantorlab import (
    DigitMap,
    Interval,
    UniformCDF,
    build_base,
    build_chain,
    cf_truncated,
    compress,
    covariance_decay,
    digit_stats,
    digit_value,
    empirical_cdf,
    ew_diagnose,
    expand,
    kolmogorov,
    limit_cdf_conv,
    limit_cdf_invert,
    optimize_window,
    smoothing_check,
    star_discrepancy,
    value_vector,
    window_variance,
)


def _verdict(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {num:02d} {label}: {detail}")
    assert ok, f"{label}: {detail}"


@pytest.fixture(scope="module")
def bases():
    return {
        "q2": build_base({"kind": "constant", "q": 2}),
        "q3": build_base({"kind": "constant", "q": 3}),
        "q4": build_base({"kind": "constant", "q": 4}),
        "q10": build_base({"kind": "constant", "q": 10}),
        "per23": build_base({"kind": "periodic", "pattern": [2, 3]}),
        "fact": build_base({"kind": "affine", "c": 1, "d": 2}),
    }


def test_01_digit_round_trip(bases):
    names = ("q2", "q3", "q10", "per23", "fact")
    bad = sum(
        compress(bases[nm], expand(bases[nm], n).digits) != n
        for nm in names
        for n in range(100_000)
    )
    _verdict(1, "round trip", bad == 0,
             f"{bad} mismatches over 5 bases x 100000 integers")


def test_02_digit_statistics_oracle(bases):
    pairs = [
        (DigitMap.radical_inverse(), "q2", 0.0),
        (DigitMap.radical_inverse(), "q3", 1e-12),
        (DigitMap.radical_inverse(), "q10", 1e-12),
        (DigitMap.radical_inverse(), "per23", 1e-12),
        (DigitMap.radical_inverse(), "fact", 1e-12),
        (DigitMap.geometric(0.5, (0.0, 1.0)), "q2", 0.0),
        (DigitMap.polynomial(1.5, (0.0, 1.0)), "q2", 1e-12),
        (DigitMap.symmetric_ternary(), "q3", 1e-12),
        (DigitMap.skewed_polyweight(), "q4", 1e-12),
    ]
    worst = 0.0
    checked = 0
    for dmap, nm, tol in pairs:
        base = bases[nm]
        for j in range(21):
            a = base.digit_size(j)
            vals = [Fraction(digit_value(dmap, base, d, j)) for d in range(a)]
            m = sum(vals) / a
            cent = [v - m for v in vals]
            s2 = sum(c * c for c in cent) / a
            mu3 = sum(c**3 for c in cent) / a
            omega = max(abs(c) for c in cent)
            st = digit_stats(dmap, base, j)
            errs = (abs(st.m - float(m)), abs(st.s2 - float(s2)),
                    abs(st.mu3 - float(mu3)), abs(st.omega - float(omega)))
            worst = max(worst, max(errs) - tol)
            assert max(errs) <= tol, (dmap.family, nm, j, errs)
            checked += 1
    _verdict(2, "digit statistics oracle", worst <= 0.0,
             f"{checked} (family, base, level) cells, exact on dyadic tables, "
             f"1e-12 elsewhere")


def test_03_telescoped_cf_uniform_limit(bases):
    vdc = DigitMap.radical_inverse()
    ts = np.linspace(-10.0, 10.0, 200)

    def uniform_cf(t: float) -> complex:
        if t == 0.0:
            return 1.0 + 0.0j
        return np.exp(1j * t / 2.0) * math.sin(t / 2.0) / (t / 2.0)

    worst = 0.0
    for nm in ("q2", "fact"):
        for t in ts:
            phi, _, _ = cf_truncated(vdc, bases[nm], float(t), depth=40)
            worst = max(worst, abs(complex(phi) - uniform_cf(float(t))))
    _verdict(3, "telescoped CF", worst < 1e-9,
             f"max |phi_40 - e^(it/2) sinc(t/2)| = {worst:.3e} "
             f"over 200 t in [-10, 10], two bases")


def test_04_discrepancy_identity(bases):
    vdc = DigitMap.radical_inverse()
    b2 = bases["q2"]
    unif = UniformCDF(0.0, 1.0)
    for n in (16 * 2**i for i in range(13)):  # ladder 16 .. 65536
        dk = kolmogorov(empirical_cdf(vdc, b2, n), unif)
        ds = star_discrepancy(value_vector(vdc, b2, n))
        assert dk == Interval(ds, ds), (n, dk, ds)
    for k in range(3, 13):
        ds = star_discrepancy(value_vector(vdc, b2, 2**k))
        assert ds == 2.0**-k, (k, ds)
    _verdict(4, "discrepancy identity", True,
             "d_K == D* bitwise on the ladder; D* == 2^-k at N = 2^k, k <= 12")


def _scaled_vdc_discrepancy(n_max: int, top: int) -> np.ndarray:
    """2^top N D*_N for N = 1 .. n_max < 2^top, exact in integers.

    For the binary van der Corput sequence N D*_N = sum_{j >= 1} ||N / 2^j||
    (Bejian & Faure 1977), where ||N / 2^j|| = min(r, 2^j - r) / 2^j with
    r = N mod 2^j.  Past j = top every term is N / 2^j, and those terms sum
    to N / 2^top.
    """
    ns = np.arange(1, n_max + 1, dtype=np.int64)
    total = ns.copy()
    for j in range(1, top + 1):
        r = ns % (1 << j)
        total += np.minimum(r, (1 << j) - r) << (top - j)
    return total


def test_05_discrepancy_rate_envelope(bases):
    top = 17
    scaled = _scaled_vdc_discrepancy(1 << 16, top)
    xs = np.asarray(value_vector(DigitMap.radical_inverse(), bases["q2"], 1 << 16))
    # tie the closed form to the library: each side rounds a value in [0, 1]
    # at most twice, and each rounding errs by at most 2^-54
    ties = [*range(1, 3000), *range(3000, 1 << 16, 997), 4096, 65535, 65536]
    for n in ties:
        want = float(scaled[n - 1]) / (n * 2.0 ** top)
        assert abs(star_discrepancy(xs[:n]) - want) <= 2.0 ** -52, n
    ns = np.arange(1, (1 << 16) + 1)
    sel = ns >= 8
    ratio = scaled[sel] / 2.0 ** top / (np.log2(ns[sel]) + 2.0)
    worst = float(ratio.max())
    _verdict(5, "discrepancy rate envelope", worst <= 1.0,
             f"max N D*_N / (log2 N + 2) = {worst:.4f} over 8 <= N <= 2^16")


def test_06_bound_validity_ratio(preset_rows):
    # the preset rows are shared with the slope check and the golden CSV test
    families = {nm: preset_rows(nm)
                for nm in ("regimeB-binary", "regimeC-ternary", "example-II")}
    details = []
    ok = True
    for nm, rows in families.items():
        c_family = max(r["dk_hi"] / r["total"] for r in rows)
        ok = ok and c_family <= 10.0 and not any(r["conditional"] for r in rows)
        details.append(f"{nm} C={c_family:.3f}")
    _verdict(6, "bound validity", ok,
             "max dk_hi/total per family (need <= 10): " + ", ".join(details))


def test_07_geometric_tail_slope(preset_rows):
    pts = [(math.log(r["N"]), math.log(r["dk_hi"]))
           for r in preset_rows("example-II") if r["N"] >= 2**14]
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    slope = float(np.polyfit(xs, ys, 1)[0])
    lim = -1.0 / 3.0 + 0.1
    _verdict(7, "geometric-tail slope", slope <= lim,
             f"log-log slope {slope:.4f} <= {lim:.4f} over N in 2^14..2^20 "
             f"({len(pts)} points)")


def test_08_optimizer_matches_closed_form(bases):
    geo = DigitMap.geometric(0.5, (0.0, 1.0))
    ref = UniformCDF(0.0, 2.0)  # the exact limit law of this map
    worst = 0.0
    for L in range(12, 21):
        h_star, _, _ = optimize_window(geo, bases["q2"], 2**L, "A", ref=ref)
        worst = max(worst, abs(h_star - L / 3.0))
    _verdict(8, "optimizer vs closed form", worst <= 2.0,
             f"max |h* - L/3| = {worst:.2f} over L in 12..20")


def test_09_regime_dominance(bases):
    vdc = DigitMap.radical_inverse()
    tern = DigitMap.symmetric_ternary()
    u01 = UniformCDF(0.0, 1.0)
    u33 = UniformCDF(-1.5, 1.5)
    worst_b = worst_c = 0.0
    for L in range(10, 21):
        _, _, rb = optimize_window(vdc, bases["q2"], 2**L, "B", rho_inf=1.0)
        _, _, ra = optimize_window(vdc, bases["q2"], 2**L, "A", ref=u01)
        _, _, rc = optimize_window(tern, bases["q3"], 3**L, "C", ref=u33)
        _, _, ra3 = optimize_window(tern, bases["q3"], 3**L, "A", ref=u33)
        worst_b = max(worst_b, rb.total / ra.total)
        worst_c = max(worst_c, rc.total / ra3.total)
    _verdict(9, "regime dominance", worst_b < 1.0 and worst_c < 1.0,
             f"optimal totals: B/A <= {worst_b:.3f} (binary), "
             f"C/A <= {worst_c:.3f} (ternary), L in 10..20")


def test_10_smoothing_inequality(bases):
    vdc = DigitMap.radical_inverse()
    unif = UniformCDF(0.0, 1.0)
    bad = []
    for k in range(4, 17):
        rep = smoothing_check(empirical_cdf(vdc, bases["q2"], 1 << k), unif,
                              rho_inf=1.0)
        if not rep.optimized_ok:
            bad.append(1 << k)
    _verdict(10, "smoothing inequality", not bad,
             "d_K <= 2 sqrt(rho W1) at every N in 2^4..2^16"
             + (f"; violations at {bad}" if bad else ""))


def test_11_markov_windows():
    chain = build_chain([[0.9, 0.1], [0.1, 0.9]])  # second eigenvalue 0.8
    flat = DigitMap.geometric(1.0, (-1.0, 1.0))
    geo = DigitMap.geometric(0.5, (-1.0, 1.0))

    dec = covariance_decay(chain, flat, r_max=10, samples=1_000_000, seed=11)
    want = math.log(0.8)
    rel = abs(dec.slope - want) / abs(want)

    worst = 0.0
    for h in range(1, 21):
        wv = window_variance(chain, geo, L=20, h=h, samples=200_000, seed=100 + h)
        worst = max(worst, wv.ratio)

    iid = build_chain([[0.5, 0.5], [0.5, 0.5]])
    wv0 = window_variance(iid, geo, L=20, h=10, samples=400_000, seed=7)
    z = (wv0.var_hat - wv0.tau2_pi) / wv0.se

    ok = rel <= 0.15 and worst <= 5.0 and abs(z) <= 3.0
    _verdict(11, "dependent digits", ok,
             f"cov slope {dec.slope:.4f} vs ln 0.8 = {want:.4f} (rel {rel:.3f}); "
             f"max Var/(tau2+lam^h) = {worst:.2f} over h in 1..20; "
             f"iid z = {z:.2f}")


def test_12_series_diagnosis(bases):
    b2 = bases["q2"]
    rep1 = ew_diagnose(DigitMap.polynomial(1.5, (0.0, 1.0)), b2)
    rep2 = ew_diagnose(DigitMap.geometric(0.5, (0.0, 1.0)), b2)
    harmonic = DigitMap.custom_table([[0.0, 2.0 / (j + 1)] for j in range(64)])
    rep3 = ew_diagnose(harmonic, b2)
    mid = len(rep3.mean_partials) // 2
    drift = rep3.mean_partials[-1] - rep3.mean_partials[mid]
    ok = (rep1.verdict == "converges" and rep2.verdict == "converges"
          and (rep3.verdict == "diverges"
               or (rep3.verdict == "inconclusive" and drift > 0.1)))
    _verdict(12, "series diagnosis", ok,
             f"polynomial: {rep1.verdict}, geometric: {rep2.verdict}, "
             f"harmonic-mean table: {rep3.verdict} "
             f"(mean partials drift {drift:.2f} over the deeper half)")


def test_13_conv_invert_cross_check(bases):
    cases = (
        ("binary radical-inverse", DigitMap.radical_inverse(), bases["q2"],
         0.0, 1.0, 1.0),
        ("symmetric ternary", DigitMap.symmetric_ternary(), bases["q3"],
         -1.6, 1.6, 1.0 / 3.0),
    )
    details = []
    ok = True
    for nm, dmap, base, x0, x1, rho in cases:
        t_max = 2048.0
        grid = limit_cdf_conv(dmap, base, x0, x1, 2.0**-12)
        xs = grid.x0 + grid.w * np.arange(grid.cum.size)
        stride = max(1, xs.size // 2048)
        inv = limit_cdf_invert(dmap, base, xs[::stride], t_max=t_max,
                               n_t=1 << 16, q_hint=rho / t_max)
        assert not inv.conditional
        diff = float(np.max(np.abs(grid.cum[::stride] - inv.values)))
        budget = grid.vertical_slack() + inv.envelope
        ok = ok and diff <= budget
        details.append(f"{nm}: {diff:.2e} <= {budget:.2e}")
    _verdict(13, "convolution vs inversion", ok,
             "max knot gap within summed envelopes (" + "; ".join(details) + ")")
