"""Closed-form analytics for exponential Brownian motion S(t) and its time
average A(T): means, variances, covariance, correlation, all moments of
A(T), the driftless-case binomial formula, the S(r, a) correlation surface,
and a residual checker for the moment recurrence ODE.

Everything routes through exponential divided differences, which stay finite
and accurate through the r = 0 and sigma = 0 degeneracies where the textbook
closed forms blow up.
"""

from __future__ import annotations

import io
import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .divdiff import (
    EvalMethod,
    OracleEstimate,
    _exp_dd_first_row,
    choose_method,
    exp_dd,
    exp_dd_batch,
    ordered_exp_simplex_quad,
)

__all__ = [
    "GbmParams",
    "BNodes",
    "CorrelationReport",
    "MomentReport",
    "GridSpec",
    "GridResult",
    "mean_S",
    "mean_A",
    "pairwise_expectation",
    "cross_moment_SA",
    "second_moment_A",
    "hull_second_moment",
    "covariance_SA",
    "var_S",
    "var_A",
    "correlation",
    "s_statistic",
    "grid_scan",
    "power_expectation",
    "ordered_product_expectation",
    "moment_A",
    "moment_table",
    "moment_bruteforce",
    "oshanin_yor_moment",
    "moment_ode_residual",
]


@dataclass(frozen=True)
class GbmParams:
    """Model parameters: rate r, volatility sigma, horizon T.

    Negative r is permitted; the divided-difference formulas are entire in rT.
    """

    r: float
    sigma: float
    T: float

    def __post_init__(self):
        for name in ("r", "sigma", "T"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")
        if self.T <= 0:
            raise ValueError("T must be positive")


@dataclass(frozen=True)
class BNodes:
    """Growth rates b_k = k r + sigma^2 k (k-1) / 2 for k = 0..m; the node
    set (scaled by T) of the m-th moment of the time average."""

    m: int
    values: tuple[float, ...]

    @classmethod
    def from_params(cls, p: GbmParams, m: int) -> "BNodes":
        if m < 0:
            raise ValueError("moment order must be nonnegative")
        vals = tuple(k * p.r + p.sigma ** 2 * k * (k - 1) / 2.0 for k in range(m + 1))
        return cls(m=m, values=vals)

    def scaled(self, T: float) -> tuple[float, ...]:
        return tuple(b * T for b in self.values)


@dataclass(frozen=True)
class CorrelationReport:
    """Correlation of (S(T), A(T)) with its constituents.

    R = covariance / sqrt(var_S * var_A) and R = sqrt(s_statistic / 2).
    """

    R: float
    covariance: float
    var_S: float
    var_A: float
    s_statistic: float


@dataclass(frozen=True)
class MomentReport:
    order: int
    value: float
    method: str


def _ddn(p: GbmParams) -> tuple[float, float, float]:
    """The recurring nodes rT, 2rT, (2r + sigma^2) T."""
    rT = p.r * p.T
    return rT, 2.0 * rT, (2.0 * p.r + p.sigma ** 2) * p.T


def mean_S(p: GbmParams) -> float:
    """E S(T) = e^{rT}."""
    return math.exp(p.r * p.T)


def mean_A(p: GbmParams) -> float:
    """E A(T) = exp[0, rT], confluently 1 at rT = 0."""
    return exp_dd([0.0, p.r * p.T])


def pairwise_expectation(p: GbmParams, a: float, b: float) -> float:
    """E S(a) S(b) = exp(a (r + sigma^2) + b r) for 0 <= a <= b."""
    if not (0 <= a <= b):
        raise ValueError("times must satisfy 0 <= a <= b")
    return math.exp(a * (p.r + p.sigma ** 2) + b * p.r)


def cross_moment_SA(p: GbmParams) -> float:
    """E S(T) A(T) = exp[rT, (2r + sigma^2) T]."""
    rT, _, b = _ddn(p)
    return exp_dd([rT, b])


def second_moment_A(p: GbmParams) -> float:
    """E A(T)^2 = 2 exp[0, rT, (2r + sigma^2) T]."""
    rT, _, b = _ddn(p)
    return 2.0 * exp_dd([0.0, rT, b])


def hull_second_moment(p: GbmParams) -> float:
    """E A(T)^2 by the textbook two-term expression; singular at r = 0,
    r + sigma^2 = 0 and 2r + sigma^2 = 0, where `second_moment_A` stays
    finite and should be used instead.

    The two terms cancel almost completely as rT -> 0 (about
    -log10(rT (r+sigma^2) T) digits), so the expression is evaluated in
    compensated double-word arithmetic to keep the cross-check against the
    divided-difference form meaningful on small-rate boxes.
    """
    r, s2, T = p.r, p.sigma ** 2, p.T
    for name, d in (("r", r), ("r + sigma^2", r + s2), ("2r + sigma^2", 2 * r + s2)):
        if d == 0:
            raise ValueError(f"{name} = 0: expression singular, use second_moment_A")
    from .ddarith import DD, dd_exp
    rd, s2d, Td = DD(r), DD(s2), DD(T)
    rs = rd + s2d
    rrs = rd * 2.0 + s2d
    term1 = 2.0 * dd_exp(rrs * Td) / (rs * rrs * Td * Td)
    term2 = (2.0 / (rd * Td * Td)) * (1.0 / rrs - dd_exp(rd * Td) / rs)
    return (term1 + term2).to_float()


def covariance_SA(p: GbmParams) -> float:
    """cov(S(T), A(T)) = sigma^2 T exp[rT, 2rT, (2r + sigma^2) T]."""
    rT, r2T, b = _ddn(p)
    return p.sigma ** 2 * p.T * exp_dd([rT, r2T, b])


def var_S(p: GbmParams) -> float:
    """var S(T) = sigma^2 T exp[2rT, (2r + sigma^2) T]."""
    _, r2T, b = _ddn(p)
    return p.sigma ** 2 * p.T * exp_dd([r2T, b])


def var_A(p: GbmParams) -> float:
    """var A(T) = 2 sigma^2 T exp[0, rT, 2rT, (2r + sigma^2) T]."""
    rT, r2T, b = _ddn(p)
    return 2.0 * p.sigma ** 2 * p.T * exp_dd([0.0, rT, r2T, b])


def correlation(p: GbmParams) -> CorrelationReport:
    """Correlation coefficient of S(T) and A(T) as a quotient of exponential
    divided differences; always in [1/sqrt(2), 1]."""
    if p.sigma == 0:
        raise ValueError("correlation undefined for deterministic paths")
    rT, r2T, b = _ddn(p)
    num = exp_dd([rT, r2T, b])
    d1 = exp_dd([r2T, b])
    d2 = exp_dd([0.0, rT, r2T, b])
    R = num / math.sqrt(2.0 * d1 * d2)
    s2T = p.sigma ** 2 * p.T
    return CorrelationReport(
        R=R,
        covariance=s2T * num,
        var_S=s2T * d1,
        var_A=2.0 * s2T * d2,
        s_statistic=2.0 * R * R,
    )


def s_statistic(r: float, a: float) -> float:
    """S(r, a) = exp[a, 2r, r]^2 / (exp[a, 2r] exp[a, 2r, r, 0]).

    Pure function of the divided-difference expression; negative `a` is the
    formal continuation scanned by the correlation surface, not a model
    state.  R(rT, sigma^2 T) = sqrt(S(rT, (2r + sigma^2) T) / 2).
    """
    num = exp_dd([a, 2.0 * r, r])
    return num * num / (exp_dd([a, 2.0 * r]) * exp_dd([a, 2.0 * r, r, 0.0]))


@dataclass(frozen=True)
class GridSpec:
    """Correlation-surface scan window; defaults reproduce the published
    121 x 100 grid over -20 <= a <= 40, 0.1 <= r <= 10."""

    a_min: float = -20.0
    a_max: float = 40.0
    r_min: float = 0.1
    r_max: float = 10.0
    na: int = 121
    nr: int = 100

    def __post_init__(self):
        if self.na < 1 or self.nr < 1:
            raise ValueError("step counts must be positive")
        if not (self.a_min <= self.a_max and self.r_min <= self.r_max):
            raise ValueError("empty scan window")

    def a_values(self) -> np.ndarray:
        return np.linspace(self.a_min, self.a_max, self.na)

    def r_values(self) -> np.ndarray:
        return np.linspace(self.r_min, self.r_max, self.nr)


@dataclass(frozen=True)
class GridResult:
    """Sampled S(r, a) surface; `values[i, j]` is S(r_i, a_j)."""

    spec: GridSpec
    r_values: np.ndarray
    a_values: np.ndarray
    values: np.ndarray

    @property
    def min_S(self) -> float:
        return float(self.values.min())

    @property
    def argmin(self) -> tuple[float, float]:
        i, j = np.unravel_index(int(self.values.argmin()), self.values.shape)
        return float(self.r_values[i]), float(self.a_values[j])

    @property
    def decreasing_in_a(self) -> bool:
        """Whether S(r, .) decreases along a on every scanned row (observed
        on the published window; reported, not guaranteed)."""
        if self.values.shape[1] < 2:
            return True
        return bool((np.diff(self.values, axis=1) <= 0).all())

    def iter_rows(self):
        """(r, a, S) triples, row-major in r then a."""
        for i, r in enumerate(self.r_values):
            for j, a in enumerate(self.a_values):
                yield float(r), float(a), float(self.values[i, j])

    def to_csv(self, out) -> None:
        """Write `r,a,S` rows at 17 significant digits to a file object."""
        out.write("r,a,S\n")
        a_txt = [f"{a:.17g}" for a in self.a_values.tolist()]
        for r, row in zip(self.r_values.tolist(), self.values.tolist()):
            line = f"{r:.17g},%s,%.17g\n"
            out.write("".join([line % cell for cell in zip(a_txt, row)]))

    def to_csv_string(self) -> str:
        buf = io.StringIO()
        self.to_csv(buf)
        return buf.getvalue()


def grid_scan(spec: GridSpec | None = None) -> GridResult:
    """Evaluate S(r, a) on the grid: `s_statistic` for every cell, with each
    of its three divided differences taken over all cells in one
    `exp_dd_batch` call."""
    spec = spec or GridSpec()
    rv = spec.r_values()
    av = spec.a_values()
    r, a = (x.ravel() for x in np.meshgrid(rv, av, indexing="ij"))
    r2 = 2.0 * r
    num = exp_dd_batch(np.stack([a, r2, r], axis=1))
    d1 = exp_dd_batch(np.stack([a, r2], axis=1))
    d2 = exp_dd_batch(np.stack([a, r2, r, np.zeros_like(r)], axis=1))
    with np.errstate(all="ignore"):
        values = (num * num / (d1 * d2)).reshape(spec.nr, spec.na)
    if not np.isfinite(values).all():
        raise ValueError("S(r, a) is not representable in double precision on this window")
    return GridResult(spec=spec, r_values=rv, a_values=av, values=values)


def power_expectation(p: GbmParams, t: float, k: int) -> float:
    """E S(t)^k = exp(k r t + sigma^2 t k (k-1) / 2) = exp(b_k t)."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    if t < 0:
        raise ValueError("t must be nonnegative")
    return math.exp(k * p.r * t + p.sigma ** 2 * t * k * (k - 1) / 2.0)


def ordered_product_expectation(p: GbmParams, times: Sequence[float]) -> float:
    """E S(t_1) ... S(t_m) = exp(sum_k (r + (m-k) sigma^2) t_k) for
    nondecreasing nonnegative times."""
    ts = [float(t) for t in times]
    if len(ts) < 1:
        raise ValueError("need at least one time")
    if ts[0] < 0 or any(ts[i] > ts[i + 1] for i in range(len(ts) - 1)):
        raise ValueError("times must be nonnegative and nondecreasing")
    m = len(ts)
    return math.exp(math.fsum(
        (p.r + (m - k) * p.sigma ** 2) * ts[k - 1] for k in range(1, m + 1)
    ))


def moment_A(p: GbmParams, m: int) -> float:
    """E A(T)^m = m! exp[b_0 T, b_1 T, ..., b_m T].

    The node set collapses confluently at sigma = 0 or r = 0; the divided
    difference handles that exactly.
    """
    if m < 0:
        raise ValueError("moment order must be nonnegative")
    if m == 0:
        return 1.0
    nodes = BNodes.from_params(p, m).scaled(p.T)
    return math.factorial(m) * exp_dd(nodes)


def moment_table(p: GbmParams, max_m: int) -> list[MomentReport]:
    """Moments of orders 0..max_m with the evaluation method recorded.

    Each order keeps the route AUTO picks for its own nodes.  The node sets
    are nested, so one first row of the bidiagonal exponential on the nodes
    of the highest matrix-route order M gives every matrix-route order up
    to M; an entry that is not a normal positive double is evaluated on its
    own instead.
    """
    nodes = BNodes.from_params(p, max_m).scaled(p.T)
    methods = [choose_method(nodes[:m + 1]) for m in range(1, max_m + 1)]
    top = max((m for m, method in enumerate(methods, 1)
               if method is EvalMethod.TAYLOR_MATRIX), default=0)
    row = []
    if top:
        try:
            row = _exp_dd_first_row(np.array(nodes[:top + 1])).tolist()
        except OverflowError:
            pass
    out = [MomentReport(order=0, value=1.0, method="exact")]
    for m, method in enumerate(methods, 1):
        if (method is EvalMethod.TAYLOR_MATRIX and row
                and sys.float_info.min <= row[m] < math.inf):
            dd = row[m]
        else:
            dd = exp_dd(nodes[:m + 1])
        value = math.factorial(m) * dd
        if value == math.inf:
            raise OverflowError(f"E A(T)^{m} is outside the double range")
        out.append(MomentReport(order=m, value=value, method=method.value))
    return out


def moment_bruteforce(p: GbmParams, m: int, order: int = 24) -> OracleEstimate:
    """E A(T)^m by deterministic nested quadrature of the ordered iterated
    integral with coefficients alpha_k = (r + (m-k) sigma^2) T; test oracle
    for `moment_A`, limited to m <= 4 as a cost guard."""
    if m < 0:
        raise ValueError("moment order must be nonnegative")
    if m > 4:
        raise ValueError("brute-force moment limited to m <= 4")
    if m == 0:
        return OracleEstimate(1.0, 0.0, "quadrature")
    alpha = [(p.r + (m - k) * p.sigma ** 2) * p.T for k in range(1, m + 1)]
    fact = math.factorial(m)
    hi = fact * ordered_exp_simplex_quad(alpha, order=order)
    lo = fact * ordered_exp_simplex_quad(alpha, order=max(4, order - 8))
    return OracleEstimate(hi, abs(hi - lo) + 1e-15 * abs(hi), "quadrature")


def oshanin_yor_moment(m: int, rT: float) -> float:
    """Driftless-case (sigma^2 = 2r) moment of the time average by the
    binomial-sum formula

        (Gamma(m)/Gamma(2m)) (rT)^{-m} [ -1/2 (-1)^m C(2m, m)
            + sum_{l=0}^{m} C(2m, l) (-1)^l e^{rT (m-l)^2} ],

    evaluated with compensated summation.  Equals m! exp[0, rT, 4rT, ...,
    m^2 rT].  The alternating sum loses roughly m^2 rT log10(e) digits of
    headroom as rT shrinks; in double precision trust it for rT >= 0.5 and
    prefer the divided-difference form in production.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    if rT <= 0:
        raise ValueError("rT must be positive")
    terms = [-0.5 * (-1) ** m * math.comb(2 * m, m)]
    terms += [
        math.comb(2 * m, l) * (-1) ** l * math.exp(rT * (m - l) ** 2)
        for l in range(m + 1)
    ]
    prefactor = math.factorial(m - 1) / math.factorial(2 * m - 1)
    return prefactor * rT ** (-m) * math.fsum(terms)


def moment_ode_residual(n: int, t: float, c: Sequence[float]) -> float:
    """Residual |t e_n'(t) - e_n(t)(c_n t - n) - e_{n-1}(t)| of the moment
    recurrence ODE, with e_n(t) = exp[0, c_1 t, ..., c_n t] and e_n' from
    Richardson-extrapolated central differences.

    A small residual certifies the identity; c must be strictly increasing
    and positive.
    """
    if n < 1:
        raise ValueError("order n must be at least 1")
    if t <= 0:
        raise ValueError("t must be positive")
    cs = [float(x) for x in c][:n]
    if len(cs) < n:
        raise ValueError(f"need at least {n} coefficients")
    if cs[0] <= 0 or any(cs[i] >= cs[i + 1] for i in range(len(cs) - 1)):
        raise ValueError("c must be strictly increasing and positive")

    def e(k: int, tau: float) -> float:
        return exp_dd([0.0] + [ci * tau for ci in cs[:k]])

    h = 1e-6 * max(1.0, t)
    d_h = (e(n, t + h) - e(n, t - h)) / (2.0 * h)
    d_h2 = (e(n, t + h / 2) - e(n, t - h / 2)) / h
    deriv = (4.0 * d_h2 - d_h) / 3.0
    return abs(t * deriv - e(n, t) * (cs[-1] * t - n) - e(n - 1, t))
