import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gbmdd.cli import main
from gbmdd.moments import GbmParams, mean_A, second_moment_A, var_A
from gbmdd.pricing import (
    fixed_strike_asian_approx,
    floating_strike_asian_approx,
    lognormal_match,
    margrabe_price,
    normal_cdf,
    normal_inv_cdf,
)


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
    out = normal_cdf(np.array([-1.0, 0.0, 1.0]))
    assert out.shape == (3,)
    assert out[1] == 0.5
    with pytest.raises(ValueError):
        normal_cdf(math.inf)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_normal_cdf_array_rejects_non_finite_entries(bad):
    # the array path keeps the scalar path's contract: a finite value or ValueError
    with pytest.raises(ValueError, match="finite"):
        normal_cdf(np.array([bad, 1.0]))
    with pytest.raises(ValueError, match="finite"):
        normal_cdf([[0.0, 1.0], [2.0, bad]])


def test_normal_cdf_scalar_fast_path(monkeypatch):
    values = [0.0, -0.0, 0.3, -1.7, 8.5, -40.0, 3, -2, True, np.float64(0.3), np.float64(-6.25)]
    want = [(0.5 * math.erfc(-float(x) / math.sqrt(2.0))).hex() for x in values]
    # 0-d arrays and other numpy scalars still take the np.ndim route
    assert [normal_cdf(np.array(x)).hex() for x in values] == want
    assert normal_cdf(np.float32(0.5)) == 0.5 * math.erfc(-0.5 / math.sqrt(2.0))

    def no_ndim(x):
        raise AssertionError("np.ndim called on a Python scalar")

    monkeypatch.setattr(np, "ndim", no_ndim)
    got = [normal_cdf(x) for x in values]
    assert all(type(v) is float for v in got)
    assert [v.hex() for v in got] == want
    for bad in (math.inf, -math.inf, math.nan, np.float64(math.nan)):
        with pytest.raises(ValueError):
            normal_cdf(bad)
    monkeypatch.undo()
    with pytest.raises(ValueError):
        normal_cdf(np.array(math.inf))


def test_normal_inv_cdf_round_trip():
    for u in (1e-12, 1e-6, 0.025, 0.5, 0.975, 1.0 - 1e-10):
        x = normal_inv_cdf(u)
        assert normal_cdf(x) == pytest.approx(u, rel=1e-12)
    with pytest.raises(ValueError):
        normal_inv_cdf(0.0)
    with pytest.raises(ValueError):
        normal_inv_cdf(1.0)
    arr = normal_inv_cdf(np.array([0.25, 0.75]))
    assert arr[0] == -arr[1]


def test_normal_inv_cdf_array_rejects_entries_outside_unit_interval():
    for bad in (0.0, 1.0, math.nan, -0.5, 1.5, math.inf):
        with pytest.raises(ValueError, match="strictly between 0 and 1"):
            normal_inv_cdf(np.array([0.25, bad, 0.75]))
        with pytest.raises(ValueError, match="strictly between 0 and 1"):
            normal_inv_cdf(bad)
    out = np.empty(2)
    assert normal_inv_cdf(np.array([0.25, 0.75]), out=out) is out


def test_normal_inv_cdf_against_mpmath():
    # the Monte Carlo clip range [2^-55, 1 - 2^-53], both tails and the middle
    us = np.concatenate([np.geomspace(2.0 ** -55, 0.5, 60),
                         1.0 - np.geomspace(2.0 ** -53, 0.5, 60),
                         np.random.default_rng(3).random(60)])
    xs = normal_inv_cdf(us)
    with mp.workdps(40):
        for u, x in zip(us, xs):
            want = mp.findroot(lambda t: mp.ncdf(t) - mp.mpf(float(u)), mp.mpf(float(x)))
            assert abs(x - want) <= 2e-15 * abs(want), u


# ---------------------------------------------------------------------------
# lognormal matching


def test_lognormal_match_forced_values():
    fit = lognormal_match(1.0, math.e)
    assert fit.mu == pytest.approx(-0.5, abs=1e-15)
    assert fit.s2 == pytest.approx(1.0, abs=1e-15)
    degenerate = lognormal_match(2.0, 4.0)
    assert degenerate.s2 == 0.0
    assert degenerate.mean == pytest.approx(2.0, rel=1e-15)


def test_lognormal_match_round_trip_benchmark(bench):
    fit = lognormal_match(mean_A(bench), second_moment_A(bench))
    assert fit.mean == pytest.approx(mean_A(bench), rel=1e-12)
    assert fit.second_moment == pytest.approx(second_moment_A(bench), rel=1e-12)


@settings(max_examples=200)
@given(st.floats(min_value=0.01, max_value=100.0), st.floats(min_value=0.0, max_value=2.0))
def test_lognormal_match_round_trip_property(mean, s2):
    second = mean * mean * math.exp(s2)
    fit = lognormal_match(mean, second)
    assert fit.mean == pytest.approx(mean, rel=1e-12)
    assert fit.second_moment == pytest.approx(second, rel=1e-12)


def test_lognormal_match_jensen_violation():
    with pytest.raises(ValueError, match="Jensen"):
        lognormal_match(2.0, 3.9)
    with pytest.raises(ValueError):
        lognormal_match(-1.0, 2.0)


def test_lognormal_match_rejects_non_finite_moments():
    for mean, second in ((math.nan, 2.0), (1.0, math.nan), (1.0, math.inf),
                         (math.inf, 2.0), (math.inf, math.inf), (-math.inf, 2.0)):
        with pytest.raises(ValueError, match="finite"):
            lognormal_match(mean, second)


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


def test_margrabe_validation():
    with pytest.raises(ValueError):
        margrabe_price(1.0, 1.0, 0.2, 0.2, 1.5, 1.0)
    with pytest.raises(ValueError):
        margrabe_price(-1.0, 1.0, 0.2, 0.2, 0.0, 1.0)
    with pytest.raises(ValueError):
        margrabe_price(1.0, 1.0, 0.2, 0.2, 0.0, math.nan)


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


def _mp_fit_s2(p: GbmParams) -> mp.mpf:
    """ln(E A^2 / (E A)^2) at 150 digits, each moment from the exponential of
    the bidiagonal matrix of its nodes (confluent nodes included)."""
    with mp.workdps(150):
        def dd(nodes):
            M = mp.zeros(len(nodes))
            for i, x in enumerate(nodes):
                M[i, i] = x
                if i + 1 < len(nodes):
                    M[i, i + 1] = 1
            return mp.expm(M)[0, len(nodes) - 1]
        r, sigma, T = mp.mpf(p.r), mp.mpf(p.sigma), mp.mpf(p.T)
        mean = dd([0, r * T])
        return mp.log(2 * dd([0, r * T, (2 * r + sigma ** 2) * T]) / mean ** 2)


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


def test_fit_falls_back_to_second_moment_where_var_A_overflows():
    # var A's four nodes take the matrix route here and overflow before the
    # factor e^mu; E A^2's three take the recurrence, so the fit uses it and
    # keeps the cancellation of E A^2 - (E A)^2 (2.4e-9 relative here)
    p = GbmParams(-600.0, 0.01, 1.0)
    with pytest.raises(OverflowError):
        var_A(p)
    quote = fixed_strike_asian_approx(p, mean_A(p))
    want = _mp_fit_s2(p)
    assert float(abs((quote.inputs["fit_s2"] - want) / want)) <= 1e-8
    assert math.isfinite(quote.value) and quote.value > 0.0
