"""Approximate Asian option pricing by two-moment lognormal matching of the
time average and the exchange-option closed form, wired to the analytic
correlation coefficient.

The time average is not lognormal and its linear correlation with the asset
is injected as the log-space correlation parameter, so the result is an
approximation on two counts; measure it against the Monte Carlo oracle
rather than trusting a stated accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from . import moments
from .moments import GbmParams

__all__ = [
    "LognormalFit",
    "PriceQuote",
    "normal_cdf",
    "normal_inv_cdf",
    "lognormal_match",
    "margrabe_price",
    "floating_strike_asian_approx",
    "fixed_strike_asian_approx",
]

_SQRT2 = math.sqrt(2.0)


def normal_cdf(x):
    """Standard normal CDF from the complementary error function,
    Phi(x) = erfc(-x / sqrt(2)) / 2; absolute error below 1e-10 and
    Phi(-x) = 1 - Phi(x) at the ulp level.  Accepts scalars (`math.erfc`)
    or arrays (`scipy.special.erfc`, imported on the first array call).
    Raises ValueError unless every entry is finite."""
    if isinstance(x, (float, int)) or np.ndim(x) == 0:   # np.ndim costs ~1 us
        x = float(x)
        if math.isfinite(x):
            return 0.5 * math.erfc(-x / _SQRT2)
    elif np.isfinite(x := np.asarray(x, dtype=float)).all():
        from scipy.special import erfc
        return 0.5 * erfc(x / -_SQRT2)
    raise ValueError("x must be finite")


def normal_inv_cdf(u, out=None):
    """Inverse of `normal_cdf` on (0, 1) by `scipy.special.ndtri`, within a
    few ulp of the exact quantile from 2^-55 to 1 - 2^-53 (worst relative
    error about 5e-16 against mpmath over that range, tails included).
    Accepts scalars or arrays; an array result goes to `out` when given.
    Raises ValueError when any entry lies outside (0, 1) or is nan.
    scipy is imported on the first call, not with the package."""
    uu = np.asarray(u, dtype=float)
    if not ((0.0 < uu) & (uu < 1.0)).all():
        raise ValueError("u must lie strictly between 0 and 1")
    from scipy.special import ndtri
    x = ndtri(uu, out=out)
    return float(x) if np.ndim(u) == 0 else x


@dataclass(frozen=True)
class LognormalFit:
    """Lognormal(mu, s2) with mean exp(mu + s2/2) and second moment
    exp(2 mu + 2 s2)."""

    mu: float
    s2: float

    @property
    def mean(self) -> float:
        return math.exp(self.mu + self.s2 / 2.0)

    @property
    def second_moment(self) -> float:
        return math.exp(2.0 * self.mu + 2.0 * self.s2)


def lognormal_match(mean: float, second_moment: float) -> LognormalFit:
    """Two-moment lognormal fit: s2 = ln(second_moment / mean^2),
    mu = ln(mean) - s2 / 2."""
    if not (math.isfinite(mean) and math.isfinite(second_moment)):
        raise ValueError("moments must be finite")
    if mean <= 0 or second_moment <= 0:
        raise ValueError("moments must be positive")
    variance = second_moment - mean * mean
    if variance < 0:
        raise ValueError("second moment below mean squared violates Jensen")
    return _variance_fit(mean, variance)


def _variance_fit(mean: float, variance: float) -> LognormalFit:
    """The lognormal with this mean and variance; a variance computed on its
    own keeps the digits that second_moment - mean^2 cancels.  Dividing by
    the mean twice stays finite where mean^2 overflows."""
    s2 = math.log1p(variance / mean / mean)
    return LognormalFit(mu=math.log(mean) - s2 / 2.0, s2=s2)


@dataclass(frozen=True)
class PriceQuote:
    value: float
    method: str
    inputs: dict[str, Any]


def margrabe_price(F1: float, F2: float, s1: float, s2: float,
                   rho: float, discount: float) -> PriceQuote:
    """Exchange-option value discount * (F1 Phi(d1) - F2 Phi(d2)) with the
    combined volatility s^2 = s1^2 + s2^2 - 2 rho s1 s2; s1, s2 are total
    (horizon-scaled) lognormal standard deviations."""
    for name, v in (("F1", F1), ("F2", F2), ("s1", s1), ("s2", s2),
                    ("rho", rho), ("discount", discount)):
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite")
    if F1 <= 0 or F2 <= 0:
        raise ValueError("forward legs must be positive")
    if s1 < 0 or s2 < 0:
        raise ValueError("volatilities must be nonnegative")
    if not -1.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [-1, 1]")
    if discount <= 0:
        raise ValueError("discount must be positive")
    inputs = {"F1": F1, "F2": F2, "s1": s1, "s2": s2, "rho": rho, "discount": discount}
    shat2 = s1 * s1 + s2 * s2 - 2.0 * rho * s1 * s2
    if shat2 < 0:
        # roundoff only: mathematically >= (s1 - s2)^2 >= 0 on the domain
        shat2 = 0.0
    if shat2 == 0.0:
        return PriceQuote(discount * max(F1 - F2, 0.0), "margrabe", inputs)
    shat = math.sqrt(shat2)
    d1 = (math.log(F1 / F2) + shat2 / 2.0) / shat
    d2 = d1 - shat
    value = discount * (F1 * normal_cdf(d1) - F2 * normal_cdf(d2))
    return PriceQuote(max(value, 0.0), "margrabe", inputs)


def _fit_A(p: GbmParams) -> tuple[float, LognormalFit]:
    """E A(T) and the lognormal fit of A(T) to it and var A(T), or to E A(T)^2
    where var A(T) overflows (its matrix route, below rT of about -584 at
    small sigma, while E A(T)^2 takes the recurrence)."""
    mA = moments.mean_A(p)
    try:
        return mA, _variance_fit(mA, moments.var_A(p))
    except OverflowError:
        return mA, lognormal_match(mA, moments.second_moment_A(p))


def floating_strike_asian_approx(p: GbmParams) -> PriceQuote:
    """Value of the payoff (S(T) - A(T))^+ by exchanging the exactly
    lognormal S(T) against the moment-matched lognormal fit of A(T), with
    the analytic correlation coefficient as the exchange correlation."""
    if p.sigma == 0:
        raise ValueError("approximation undefined for deterministic paths")
    rT = p.r * p.T
    mA, fit = _fit_A(p)
    rho = moments.correlation(p).R
    quote = margrabe_price(
        F1=math.exp(rT), F2=mA,
        s1=p.sigma * math.sqrt(p.T), s2=math.sqrt(fit.s2),
        rho=rho, discount=math.exp(-rT),
    )
    inputs = dict(quote.inputs)
    inputs.update({"r": p.r, "sigma": p.sigma, "T": p.T,
                   "fit_mu": fit.mu, "fit_s2": fit.s2})
    return PriceQuote(quote.value, "margrabe-approx", inputs)


def fixed_strike_asian_approx(p: GbmParams, K: float) -> PriceQuote:
    """Value of the payoff (A(T) - K)^+ as a discounted call on the
    moment-matched lognormal fit of A(T)."""
    if p.sigma == 0:
        raise ValueError("approximation undefined for deterministic paths")
    if not (math.isfinite(K) and K >= 0):
        raise ValueError("strike must be finite and nonnegative")
    rT = p.r * p.T
    mA, fit = _fit_A(p)
    discount = math.exp(-rT)
    inputs = {"r": p.r, "sigma": p.sigma, "T": p.T, "K": K,
              "fit_mu": fit.mu, "fit_s2": fit.s2, "discount": discount}
    if K == 0.0:
        return PriceQuote(discount * mA, "black-approx", inputs)
    if fit.s2 == 0.0:
        return PriceQuote(discount * max(mA - K, 0.0), "black-approx", inputs)
    sh = math.sqrt(fit.s2)
    ratio = mA / K
    # a strike below about mA / 1.8e308 overflows the quotient, not its log
    log_ratio = math.log(ratio) if math.isfinite(ratio) else math.log(mA) - math.log(K)
    d1 = (log_ratio + fit.s2 / 2.0) / sh
    value = discount * (mA * normal_cdf(d1) - K * normal_cdf(d1 - sh))
    return PriceQuote(max(value, 0.0), "black-approx", inputs)
