import math
import types

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gbmdd import pricing
from gbmdd.cli import main
from gbmdd.moments import GbmParams, mean_A, second_moment_A, var_A
from gbmdd.pricing import (
    _variance_fit,
    fixed_strike_asian_approx,
    floating_strike_asian_approx,
    margrabe_price,
    normal_cdf,
)

from references import mp_exp_dd


# ---------------------------------------------------------------------------
# normal CDF kernel


def test_normal_cdf_basic():
    assert normal_cdf(0.0) == 0.5
    assert normal_cdf(1.959964) == pytest.approx(0.9750000009035576, abs=1e-12)
    assert normal_cdf(-8.0) < 1e-15


def test_normal_cdf_against_series_oracle():
    with mp.workdps(40):
        for x in np.linspace(-8.0, 8.0, 33):
            want = float(mp.ncdf(mp.mpf(float(x))))
            assert abs(normal_cdf(float(x)) - want) <= 1e-10


@given(st.floats(min_value=-10, max_value=10))
def test_normal_cdf_symmetry(x):
    assert abs(normal_cdf(-x) - (1.0 - normal_cdf(x))) <= 1e-15


def test_normal_cdf_array_and_validation():
    # scalars only: an array is refused, not priced entry by entry
    with pytest.raises(TypeError):
        normal_cdf(np.array([-1.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        normal_cdf(math.inf)


def test_normal_cdf_scalar_fast_path():
    values = [0.0, -0.0, 0.3, -1.7, 8.5, -40.0, 3, -2, True, np.float64(0.3), np.float64(-6.25)]
    want = [(0.5 * math.erfc(-float(x) / math.sqrt(2.0))).hex() for x in values]
    # 0-d arrays and other numpy scalars convert as a Python float does
    assert [normal_cdf(np.array(x)).hex() for x in values] == want
    assert normal_cdf(np.float32(0.5)) == 0.5 * math.erfc(-0.5 / math.sqrt(2.0))
    # no numpy call on any input: the module holds no numpy module to call
    assert not [name for name, v in vars(pricing).items()
                if isinstance(v, types.ModuleType) and v.__name__.partition(".")[0] == "numpy"]
    got = [normal_cdf(x) for x in values]
    assert all(type(v) is float for v in got)
    assert [v.hex() for v in got] == want
    for bad in (math.inf, -math.inf, math.nan, np.float64(math.nan), np.array(math.inf)):
        with pytest.raises(ValueError):
            normal_cdf(bad)


# ---------------------------------------------------------------------------
# lognormal matching: `_variance_fit`, which the quotes fit A(T) with


def test_lognormal_match_forced_values():
    mu, s2 = _variance_fit(1.0, math.e - 1.0)
    assert mu == pytest.approx(-0.5, abs=1e-15)
    assert s2 == pytest.approx(1.0, abs=1e-15)
    mu, s2 = _variance_fit(2.0, 0.0)
    assert s2 == 0.0
    assert math.exp(mu) == pytest.approx(2.0, rel=1e-15)


def _fit_moments(mu, s2):
    """Mean and second moment of lognormal(mu, s2)."""
    return math.exp(mu + s2 / 2.0), math.exp(2.0 * mu + 2.0 * s2)


def test_lognormal_match_round_trip_benchmark(bench):
    # both quotes fit A(T) to its mean and second moment
    for quote in (floating_strike_asian_approx(bench), fixed_strike_asian_approx(bench, 1.0)):
        mean, second = _fit_moments(quote.inputs["fit_mu"], quote.inputs["fit_s2"])
        assert mean == pytest.approx(mean_A(bench), rel=1e-12)
        assert second == pytest.approx(second_moment_A(bench), rel=1e-12)


@settings(max_examples=200)
@given(st.floats(min_value=0.01, max_value=100.0), st.floats(min_value=0.0, max_value=2.0))
def test_lognormal_match_round_trip_property(mean, s2):
    second = mean * mean * math.exp(s2)
    fit = _variance_fit(mean, mean * mean * math.expm1(s2))
    assert _fit_moments(*fit) == (pytest.approx(mean, rel=1e-12),
                                  pytest.approx(second, rel=1e-12))


# ---------------------------------------------------------------------------
# the exchange-option closed form


def test_margrabe_identical_assets_zero():
    q = margrabe_price(F1=1.3, F2=1.3, s1=0.4, s2=0.4, rho=1.0, discount=0.9)
    assert q.value == pytest.approx(0.0, abs=1e-12)


def test_margrabe_worthless_short_leg():
    q = margrabe_price(F1=1.2, F2=1e-12, s1=0.3, s2=0.2, rho=0.5, discount=0.95)
    assert q.value == pytest.approx(0.95 * 1.2, rel=1e-9)


def test_margrabe_hand_evaluation():
    # benchmark floating-strike inputs, evaluated from the closed form in
    # 40-digit arithmetic and frozen
    F1, F2 = 1.0512710963760240, 1.0254219275204808
    s1, s2, rho, disc = 0.2, 0.11638517951453314, 0.8663842874183117, 0.9512294245007140
    with mp.workdps(40):
        sh = mp.sqrt(s1 * s1 + mp.mpf(s2) * s2 - 2 * mp.mpf(rho) * s1 * s2)
        d1 = (mp.log(mp.mpf(F1) / F2) + sh * sh / 2) / sh
        want = float(disc * (F1 * mp.ncdf(d1) - F2 * mp.ncdf(d1 - sh)))
    got = margrabe_price(F1, F2, s1, s2, rho, disc)
    assert got.value == pytest.approx(want, rel=1e-10)
    assert got.inputs["rho"] == rho


def test_margrabe_degenerate_volatility():
    q = margrabe_price(F1=1.5, F2=1.2, s1=0.0, s2=0.0, rho=0.0, discount=0.9)
    assert q.value == pytest.approx(0.9 * 0.3, rel=1e-14)
    q = margrabe_price(F1=1.0, F2=1.2, s1=0.3, s2=0.3, rho=1.0, discount=0.9)
    assert q.value == 0.0  # identical vols, rho 1: forward intrinsic only
    # s1^2 + s2^2 - 2 s1 s2 rounds to -8.9e-16 here: clamped, not a domain error
    q = margrabe_price(F1=1.2, F2=1.0, s1=1.4620143383955886, s2=1.4620143383955877,
                       rho=1.0, discount=0.9)
    assert q.value == 0.9 * (1.2 - 1.0)


def test_margrabe_validation():
    with pytest.raises(ValueError):
        margrabe_price(1.0, 1.0, 0.2, 0.2, 1.5, 1.0)
    with pytest.raises(ValueError):
        margrabe_price(-1.0, 1.0, 0.2, 0.2, 0.0, 1.0)
    with pytest.raises(ValueError):
        margrabe_price(1.0, 1.0, 0.2, 0.2, 0.0, math.nan)


def test_margrabe_where_the_forward_ratio_overflows():
    # F1 / F2 = inf: the kernel takes log F1 - log F2, d1 is large and the
    # value the discounted first leg; this raised "x must be finite"
    q = margrabe_price(F1=1e300, F2=1e-300, s1=0.3, s2=0.2, rho=0.5, discount=0.9)
    assert q.value == pytest.approx(0.9e300, rel=1e-15)


def test_margrabe_monotone_in_rho():
    rhos = np.linspace(-1.0, 1.0, 21)
    prices = [margrabe_price(1.05, 1.02, 0.25, 0.18, float(r), 0.95).value for r in rhos]
    assert all(a >= b - 1e-15 for a, b in zip(prices, prices[1:]))


def test_margrabe_parity_probe():
    rng = np.random.default_rng(4)
    for _ in range(50):
        F1, F2 = rng.uniform(0.5, 2.0, 2)
        s1, s2 = rng.uniform(0.0, 0.6, 2)
        rho = rng.uniform(-1.0, 1.0)
        disc = rng.uniform(0.8, 1.0)
        long_leg = margrabe_price(F1, F2, s1, s2, rho, disc).value
        swapped = margrabe_price(F2, F1, s2, s1, rho, disc).value
        assert long_leg - swapped == pytest.approx(disc * (F1 - F2), abs=1e-12)


# ---------------------------------------------------------------------------
# the Asian approximations


def test_floating_strike_benchmark(bench):
    quote = floating_strike_asian_approx(bench)
    assert quote.method == "margrabe-approx"
    assert 0.0 < quote.value <= 1.0  # bounded by the discounted long leg
    assert quote.inputs["rho"] == pytest.approx(0.8663842874183117, rel=1e-12)
    # frozen from the constituent closed form in 40-digit arithmetic
    assert quote.value == pytest.approx(0.058617448717988637, rel=1e-10)


def test_floating_strike_small_sigma_limit():
    p = GbmParams(r=0.05, sigma=1e-6, T=1.0)
    want = math.exp(-0.05) * max(math.exp(0.05) - mean_A(p), 0.0)
    assert floating_strike_asian_approx(p).value == pytest.approx(want, rel=1e-3)
    with pytest.raises(ValueError):
        floating_strike_asian_approx(GbmParams(r=0.05, sigma=0.0, T=1.0))


def test_fixed_strike_cases(bench):
    disc = math.exp(-bench.r * bench.T)
    q0 = fixed_strike_asian_approx(bench, 0.0)
    assert q0.value == pytest.approx(disc * mean_A(bench), rel=1e-14)
    assert q0.method == "black-approx"
    q_far = fixed_strike_asian_approx(bench, 100.0)
    assert q_far.value < 1e-12
    q1 = fixed_strike_asian_approx(bench, 1.0)
    assert 0.0 < q1.value < disc * mean_A(bench)
    with pytest.raises(ValueError):
        fixed_strike_asian_approx(bench, -1.0)
    with pytest.raises(ValueError):
        fixed_strike_asian_approx(GbmParams(r=0.05, sigma=0.0, T=1.0), 1.0)
    # sigma^2 underflows: the fit degenerates to s2 = 0, the discounted intrinsic value
    p = GbmParams(r=0.05, sigma=1e-170, T=1.0)
    q = fixed_strike_asian_approx(p, 0.9)
    assert q.inputs["fit_s2"] == 0.0
    assert q.value == disc * (mean_A(p) - 0.9) == pytest.approx(0.119305, rel=1e-5)


def test_fixed_strike_decreasing_in_strike(bench):
    ks = np.linspace(0.0, 2.0, 21)
    vals = [fixed_strike_asian_approx(bench, float(k)).value for k in ks]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_fixed_strike_non_finite_strike_rejected(bench):
    for K in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="strike must be finite and nonnegative"):
            fixed_strike_asian_approx(bench, K)


def test_fixed_strike_tiny_strike_is_discounted_mean(bench):
    # mean_A / 1e-320 overflows; the quote takes log(mean_A) - log(K) instead
    want = fixed_strike_asian_approx(bench, 0.0).value
    for K in (1e-320, 5e-324):
        assert fixed_strike_asian_approx(bench, K).value == want


def _mp_call(F1, F2, v, discount) -> mp.mpf:
    """discount (F1 Phi(d1) - F2 Phi(d1 - sqrt(v))) at 50 digits, d1 =
    (log(F1 / F2) + v / 2) / sqrt(v): Black's call for a strike F2, and
    Margrabe's exchange for the combined variance v."""
    with mp.workdps(50):
        F1, F2, v, discount = (mp.mpf(x) for x in (F1, F2, v, discount))
        if v == 0:
            return discount * max(F1 - F2, 0)
        sd = mp.sqrt(v)
        d1 = (mp.log(F1) - mp.log(F2) + v / 2) / sd
        return discount * (F1 * mp.ncdf(d1) - F2 * mp.ncdf(d1 - sd))


def _market_quote_pool():
    """Seeded points of the market-quotes box (r in [-0.02, 0.12], sigma in
    [0.05, 0.8], T in [0.1, 5]; one in eight at r = 0, one in eight at
    sigma^2 T in [1e-8, 1e-3]), each with a strike in [0.8, 1.2] E A(T) or,
    one in four, below E A(T) / 1.8e308, where E A(T) / K overflows."""
    rng = np.random.default_rng(34)
    pool = []
    for j in range(128):
        T, r, sigma, k = (float(x) for x in rng.uniform([0.1, -0.02, 0.05, 0.8],
                                                          [5.0, 0.12, 0.8, 1.2]))
        if j % 8 == 0:
            r = 0.0
        if j % 8 == 4:
            sigma = math.sqrt(10.0 ** rng.uniform(-8.0, -3.0) / T)
        p = GbmParams(r, sigma, T)
        pool.append((p, mean_A(p) * (k if j % 4 != 3 else 10.0 ** -rng.uniform(308.5, 320.0))))
    return pool


def test_both_quotes_against_the_call_formula_at_50_digits():
    # both quotes price on one kernel; each value against its closed form at
    # 50 digits, from the forwards, variance and discount the quote reports,
    # to 1e-12 of the discounted first forward
    pool = _market_quote_pool()
    assert sum(mean_A(p) / K == math.inf for p, K in pool) == 32
    for p, K in pool:
        q = floating_strike_asian_approx(p)
        x = q.inputs
        with mp.workdps(50):
            s1, s2, rho = mp.mpf(x["s1"]), mp.mpf(x["s2"]), mp.mpf(x["rho"])
            v = s1 ** 2 + s2 ** 2 - 2 * rho * s1 * s2
        want = _mp_call(x["F1"], x["F2"], v, x["discount"])
        assert abs(q.value - want) <= 1e-12 * x["discount"] * x["F1"], (p, q.value)
        q = fixed_strike_asian_approx(p, K)
        x = q.inputs
        with mp.workdps(50):
            F1 = mp.exp(mp.mpf(x["fit_mu"]) + mp.mpf(x["fit_s2"]) / 2)
        want = _mp_call(F1, K, x["fit_s2"], x["discount"])
        assert abs(q.value - want) <= 1e-12 * x["discount"] * F1, (p, K, q.value)


def _mp_fit_s2(p: GbmParams) -> mp.mpf:
    """ln(E A^2 / (E A)^2) at 150 digits."""
    with mp.workdps(150):
        r, sigma, T = mp.mpf(p.r), mp.mpf(p.sigma), mp.mpf(p.T)
        mean = mp_exp_dd([0, r * T])
        return mp.log(2 * mp_exp_dd([0, r * T, (2 * r + sigma ** 2) * T]) / mean ** 2)


def test_fit_s2_against_mpmath_down_to_tiny_sigma():
    # the fit takes var A(T), which no difference of moments cancels: the
    # fit of E A^2 - (E A)^2 was off by up to 6.3e1 relative for sigma in
    # [1e-8, 1e-5] and raised on many points below 1e-8
    rng = np.random.default_rng(71)
    sigmas = 10.0 ** rng.uniform(-12.0, math.log10(1.5), 60)
    rates = np.where(np.arange(60) % 6 == 0, 0.0, rng.uniform(-0.5, 0.5, 60))
    for sigma, r, T in zip(sigmas, rates, rng.uniform(0.1, 5.0, 60)):
        p = GbmParams(float(r), float(sigma), float(T))
        want = _mp_fit_s2(p)
        for quote in (floating_strike_asian_approx(p), fixed_strike_asian_approx(p, 1.0)):
            s2 = quote.inputs["fit_s2"]
            assert float(abs((s2 - want) / want)) <= 1e-12, (p, s2)


def test_approximations_finite_at_tiny_sigma():
    # the fit of E A^2 - (E A)^2 raised the Jensen ValueError on 32 of these
    # 80 quotes
    rng = np.random.default_rng(79)
    for sigma, r, T in zip(10.0 ** rng.uniform(-12.0, -8.0, 40), rng.uniform(-0.1, 0.1, 40),
                           rng.uniform(0.1, 5.0, 40)):
        p = GbmParams(r=float(r), sigma=float(sigma), T=float(T))
        for value in (floating_strike_asian_approx(p).value,
                      fixed_strike_asian_approx(p, mean_A(p)).value):
            assert math.isfinite(value) and value >= 0.0, (p, value)


@pytest.mark.parametrize("style", ["floating", "fixed"])
def test_price_cli_at_tiny_sigma_exits_0(capsys, style):
    assert main(["price", "--style", style, "--sigma", "1e-8"]) == 0
    assert capsys.readouterr().err == ""


def test_fit_s2_where_mean_squared_overflows():
    # E A = 1.67e154: (E A)^2 overflows while var A = 2.8e298 does not, and a
    # fit that divided by (E A)^2 took s2 = 0 and priced the call at the
    # money as worthless
    p = GbmParams(361.0, 1e-5, 1.0)
    quote = fixed_strike_asian_approx(p, mean_A(p))
    want = _mp_fit_s2(p)
    assert float(abs((quote.inputs["fit_s2"] - want) / want)) <= 1e-12
    assert quote.value > 0.0


def test_fit_s2_and_var_A_where_the_mean_centred_matrix_route_overflows():
    # var A's four nodes take the matrix route, whose entries centred on the
    # mean overflow before the factor e^mu; anchored on the largest node they
    # stay in (0, 1].  A fit to E A^2 instead kept the cancellation of
    # E A^2 - (E A)^2, 2.4e-9 relative here.
    p = GbmParams(-600.0, 0.01, 1.0)
    with mp.workdps(150):
        rT, b = mp.mpf(p.r) * p.T, (2 * mp.mpf(p.r) + mp.mpf(p.sigma) ** 2) * p.T
        want = 2 * mp.mpf(p.sigma) ** 2 * p.T * mp_exp_dd([0, rT, 2 * rT, b])
    assert float(abs((var_A(p) - want) / want)) <= 1e-12
    quote = fixed_strike_asian_approx(p, mean_A(p))
    want = _mp_fit_s2(p)
    assert float(abs((quote.inputs["fit_s2"] - want) / want)) <= 1e-12
    assert math.isfinite(quote.value) and quote.value > 0.0


def test_fit_raises_where_var_A_over_mean_squared_overflows(capsys):
    # var A = 1.06e307 and E A = 0.068: var A / (E A)^2 overflows, and s2
    # read inf.  The fixed-strike quote raised ValueError("x must be finite")
    # inside normal_cdf, the floating-strike one, which reads R alone, "s2
    # must be finite"; both now raise OverflowError, and the CLI exits 2
    p = GbmParams(-1.2191642359484631, 7.90553674484721, 11.978709266210858)
    assert math.isfinite(var_A(p)) and math.isinf(var_A(p) / mean_A(p) / mean_A(p))
    for quote in (floating_strike_asian_approx, lambda p: fixed_strike_asian_approx(p, 1.0)):
        with pytest.raises(OverflowError, match="lognormal fit"):
            quote(p)
    assert main(["price", "--style", "floating", "--r", repr(p.r), "--sigma", repr(p.sigma),
                 "--T", repr(p.T)]) == 2
    assert capsys.readouterr().err.startswith("gbmdd: result outside double range:")
