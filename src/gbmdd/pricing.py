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

from . import moments
from .moments import GbmParams

__all__ = [
    "PriceQuote",
    "normal_cdf",
    "margrabe_price",
    "floating_strike_asian_approx",
    "fixed_strike_asian_approx",
]

_SQRT2 = math.sqrt(2.0)


def normal_cdf(x: float) -> float:
    """Standard normal CDF Phi(x) = erfc(-x / sqrt(2)) / 2 by `math.erfc`
    for a scalar x; absolute error below 1e-10 and Phi(-x) = 1 - Phi(x) at
    the ulp level.  Raises ValueError unless x is finite."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("x must be finite")
    return 0.5 * math.erfc(-x / _SQRT2)


def _variance_fit(mean: float, variance: float) -> tuple[float, float]:
    """(mu, s2) of the lognormal with this mean and variance, whose mean is
    exp(mu + s2/2) and second moment exp(2 mu + 2 s2); a variance computed
    on its own keeps the digits that second_moment - mean^2 cancels.
    Dividing by the mean twice stays finite where mean^2 overflows;
    OverflowError where the quotient itself does."""
    s2 = math.log1p(variance / mean / mean)
    if s2 == math.inf:
        raise OverflowError("the lognormal fit of A(T) is outside the double range")
    return math.log(mean) - s2 / 2.0, s2


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
    # below 0 by roundoff only: mathematically >= (s1 - s2)^2 >= 0 on the domain
    shat2 = max(s1 * s1 + s2 * s2 - 2.0 * rho * s1 * s2, 0.0)
    return PriceQuote(_lognormal_call(F1, F2, shat2, discount), "margrabe", inputs)


def _lognormal_call(F1: float, F2: float, v: float, discount: float) -> float:
    """discount * (F1 Phi(d1) - F2 Phi(d1 - sqrt(v))), d1 = (log(F1 / F2) +
    v / 2) / sqrt(v), floored at 0; discount * max(F1 - F2, 0) at v = 0.
    Black's (1976) call is Margrabe's (1978) exchange with a deterministic
    second leg, so both quotes price here."""
    if v == 0.0:
        return discount * max(F1 - F2, 0.0)
    sd = math.sqrt(v)
    ratio = F1 / F2
    # an F2 below about F1 / 1.8e308 overflows the quotient, not its log
    log_ratio = math.log(ratio) if math.isfinite(ratio) else math.log(F1) - math.log(F2)
    d1 = (log_ratio + v / 2.0) / sd
    return max(discount * (F1 * normal_cdf(d1) - F2 * normal_cdf(d1 - sd)), 0.0)


def floating_strike_asian_approx(p: GbmParams) -> PriceQuote:
    """Value of the payoff (S(T) - A(T))^+ by exchanging the exactly
    lognormal S(T) against the moment-matched lognormal fit of A(T), with
    the analytic correlation coefficient as the exchange correlation."""
    if p.sigma == 0:
        raise ValueError("approximation undefined for deterministic paths")
    rT = p.r * p.T
    mA = moments.mean_A(p)
    mu, s2 = _variance_fit(mA, moments.var_A(p))
    rho = moments._correlation_R(p)   # finite where a field of `correlation` is not
    quote = margrabe_price(F1=math.exp(rT), F2=mA, s1=p.sigma * math.sqrt(p.T),
                           s2=math.sqrt(s2), rho=rho, discount=math.exp(-rT))
    inputs = {**quote.inputs, "r": p.r, "sigma": p.sigma, "T": p.T, "fit_mu": mu, "fit_s2": s2}
    return PriceQuote(quote.value, "margrabe-approx", inputs)


def fixed_strike_asian_approx(p: GbmParams, K: float) -> PriceQuote:
    """Value of the payoff (A(T) - K)^+ as a discounted call on the
    moment-matched lognormal fit of A(T)."""
    if p.sigma == 0:
        raise ValueError("approximation undefined for deterministic paths")
    if not (math.isfinite(K) and K >= 0):
        raise ValueError("strike must be finite and nonnegative")
    mA = moments.mean_A(p)
    mu, s2 = _variance_fit(mA, moments.var_A(p))
    discount = math.exp(-p.r * p.T)
    inputs = {"r": p.r, "sigma": p.sigma, "T": p.T, "K": K,
              "fit_mu": mu, "fit_s2": s2, "discount": discount}
    if K == 0.0:
        return PriceQuote(discount * mA, "black-approx", inputs)
    return PriceQuote(_lognormal_call(mA, K, s2, discount), "black-approx", inputs)
