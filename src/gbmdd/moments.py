"""Closed-form analytics for exponential Brownian motion S(t) and its time
average A(T): means, variances, covariance, correlation, all moments of
A(T), the driftless-case binomial formula, the S(r, a) correlation surface,
and a residual checker for the moment recurrence ODE.

Everything routes through exponential divided differences, which stay finite
and accurate through the r = 0 and sigma = 0 degeneracies where the textbook
closed forms blow up.
"""

from __future__ import annotations

import functools
import io
import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .divdiff import (
    TAYLOR_MIN_ORDER,
    EvalMethod,
    OracleEstimate,
    _coerce_nodes,
    _exp_dd_columns,
    _exp_dd_sorted,
    _first_row,
    _route,
    _times_exp,
    exp_dd,
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
        # plain floats: equal points hash and compute alike (see _memo)
        for name in ("r", "sigma", "T"):
            object.__setattr__(self, name, float(getattr(self, name)))


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


# A market quote (correlation, moment_table, both prices) asks for mean_A,
# correlation and _var_A_dd at least twice at one point.  Each is memoised per
# point and returns the object its first call computed, so no bit changes;
# each holds the last _MEMO_SIZE points.  After rebinding `exp_dd` or changing
# an AUTO constant, call `cache_clear()` on all three.
_MEMO_SIZE = 32
_memo = functools.lru_cache(maxsize=_MEMO_SIZE)


def _ddn(p: GbmParams) -> tuple[float, float, float]:
    """The recurring nodes rT, 2rT, (2r + sigma^2) T."""
    rT = p.r * p.T
    return rT, 2.0 * rT, (2.0 * p.r + p.sigma ** 2) * p.T


def mean_S(p: GbmParams) -> float:
    """E S(T) = e^{rT}."""
    return math.exp(p.r * p.T)


@_memo
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


@_memo
def _var_A_dd(p: GbmParams) -> float:
    """exp[0, rT, 2rT, (2r + sigma^2) T], shared by `var_A` and `correlation`."""
    rT, r2T, b = _ddn(p)
    return exp_dd([0.0, rT, r2T, b])


def var_A(p: GbmParams) -> float:
    """var A(T) = 2 sigma^2 T exp[0, rT, 2rT, (2r + sigma^2) T]; OverflowError
    where that product leaves the double range."""
    v = 2.0 * p.sigma ** 2 * p.T * _var_A_dd(p)
    if v == math.inf:
        raise OverflowError("var A(T) is outside the double range")
    return v


def _log_s(z: list[float]) -> float:
    """log S on z = [a, 2r, r, 0], each exp[nodes] taken as e^t x with t its
    largest node and x = exp[nodes - t] in (0, 1]; `exp_dd`'s OverflowError
    where an x is 0."""
    (tn, xn), (t1, x1), (t2, x2) = ((max(zs), exp_dd([x - max(zs) for x in zs]))
                                    for zs in (z[:3], z[:2], z))
    return 2.0 * tn - t1 - t2 + math.log(xn / x1 * (xn / x2))


@_memo
def correlation(p: GbmParams) -> CorrelationReport:
    """Correlation coefficient of S(T) and A(T) as a quotient of exponential
    divided differences, by `_log_s` outside the normal range (report fields
    may then read 0); OverflowError where one overflows.  In [1/sqrt(2), 1]
    for r >= 0, not for r < 0 at large sigma^2 T (`test_correlation_bound_*`)."""
    if p.sigma == 0:
        raise ValueError("correlation undefined for deterministic paths")
    rT, r2T, b = _ddn(p)
    num = exp_dd([rT, r2T, b])
    d1 = exp_dd([r2T, b])
    d2 = _var_A_dd(p)
    prod = 2.0 * d1 * d2
    if num and sys.float_info.min <= prod < math.inf:
        R = num / math.sqrt(prod)
    else:
        R = math.exp((_log_s([b, r2T, rT, 0.0]) - math.log(2.0)) / 2.0)
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
    state.  R(rT, sigma^2 T) = sqrt(S(rT, (2r + sigma^2) T) / 2).  Outside
    the normal range S = exp(`_log_s`): it may read 0, or raise OverflowError.
    """
    z = [a, 2.0 * r, r, 0.0]
    try:
        num, d1, d2 = exp_dd(z[:3]), exp_dd(z[:2]), exp_dd(z)
        square, prod = num * num, d1 * d2
        if sys.float_info.min <= min(square, prod) and max(square, prod) < math.inf:
            return square / prod
    except OverflowError:
        pass
    return math.exp(_log_s(z))


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
        spans = (self.a_max - self.a_min, 2.0 * self.r_min, 2.0 * self.r_max)
        if not all(map(math.isfinite, spans)):
            raise ValueError("scan window bounds, a_max - a_min and 2r must be finite")
        if not (self.a_min <= self.a_max and self.r_min <= self.r_max):
            raise ValueError("empty scan window")

    def a_values(self) -> np.ndarray:
        return np.linspace(self.a_min, self.a_max, self.na)

    def r_values(self) -> np.ndarray:
        return np.linspace(self.r_min, self.r_max, self.nr)


_CSV_BLOCK_CELLS = 4096     # cells per block of CSV rows: keeps the writer's buffers under 1 MB
_SPLITTER = 134217729.0     # 2^27 + 1: Veltkamp's split into two halves of at most 26 bits
_E16_HI = _SPLITTER * 1e16 - (_SPLITTER * 1e16 - 1e16)
_E16_LO = 1e16 - _E16_HI


@functools.cache
def _digit_words() -> np.ndarray:
    """The four ASCII digits of each of 0..9999 as one uint32 in memory
    order: entries 0..9999 with trailing '0's turned into NULs (four NULs
    for 0), entries 10000..19999 in full.  Built on first use, read-only."""
    digits = np.ascontiguousarray(np.indices((10,) * 4, np.uint8).reshape(4, -1).T) + ord("0")
    kept = digits != ord("0")
    for k in (2, 1, 0):   # up to the last nonzero digit
        kept[:, k] |= kept[:, k + 1]
    words = np.concatenate([digits * kept, digits]).view(np.uint32).ravel()
    words.setflags(write=False)
    return words


def _ascii_fields(texts: list[str], width: int = 0) -> np.ndarray:
    """`texts` as rows of ASCII bytes, NUL-padded to `width` or the longest."""
    width = max([width, *map(len, texts)])
    return np.array(texts, dtype=f"S{width}").view(np.uint8).reshape(len(texts), width)


def _s_fields(v: np.ndarray) -> np.ndarray:
    """`'%.17g' % x` for every x of the float array `v`, as NUL-padded ASCII
    of shape `v.shape + (width,)`.

    For 1 <= x < 2, `%.17g` is "1." and the 16 decimals of
    q = round-half-even(x * 1e16) - 1e16 with trailing zeros dropped ("1"
    for q = 0).  p = fl(x * 1e16) is an even integer (the spacing of doubles
    in [1e16, 2e16) is 2 or 4), Dekker's two-product on Veltkamp splits
    gives the rounding error e = x * 1e16 - p exactly, and so
    q = p + rint(e) - 1e16 exactly, ties to even included.  Every other x
    (below 1, 2 or more, nan, inf) is formatted by `%.17g` itself.
    """
    ok = (v >= 1.0) & (v < 2.0)
    x = np.where(ok, v, 1.0).ravel()
    p = x * 1e16
    c = x * _SPLITTER
    hi = c - (c - x)
    lo = x - hi
    e = ((hi * _E16_HI - p) + hi * _E16_LO + lo * _E16_HI) + lo * _E16_LO
    q = p.astype(np.int64) + np.rint(e).astype(np.int64) - 10 ** 16
    table = _digit_words()
    words = np.empty((len(q), 4), np.uint32)
    nonzero = np.zeros(len(q), bool)    # a less significant group has a nonzero digit
    for k in (3, 2, 1, 0):
        q, group = np.divmod(q, 10000)
        words[:, k] = table[group + 10000 * nonzero]
        nonzero |= group != 0
    others = ["%.17g" % y for y in v[~ok].tolist()]
    width = max([18, *map(len, others)])
    fields = np.zeros((len(x), width), np.uint8)
    fields[:, 0] = ord("1")
    fields[:, 1] = ord(".") * nonzero
    fields[:, 2:18] = words.view(np.uint8)
    fields = fields.reshape(v.shape + (width,))
    if others:
        fields[~ok] = _ascii_fields(others, width)
    return fields


@dataclass(frozen=True)
class GridResult:
    """Sampled S(r, a) surface; `values[i, j]` is S(r_i, a_j)."""

    spec: GridSpec
    r_values: np.ndarray
    a_values: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if np.shape(self.values) != (len(self.r_values), len(self.a_values)):
            raise ValueError("values must have shape (len(r_values), len(a_values))")

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
        a_values = self.a_values.tolist()
        for r, row in zip(self.r_values.tolist(), self.values.tolist()):
            for a, s in zip(a_values, row):
                yield r, a, s

    def to_csv(self, out) -> None:
        """Write `r,a,S` rows at 17 significant digits to a file object.

        Every field is `'%.17g' % x`.  The S column is formatted in bulk:
        R >= 1/sqrt(2) puts S = 2 R^2 in [1, 2], and there `%.17g` reduces to
        exact integer arithmetic (see `_s_fields`).  The rows are assembled
        as NUL-padded ASCII fields, block by block of about
        `_CSV_BLOCK_CELLS` cells, and written with the padding removed.
        """
        out.write("r,a,S\n")
        a_field = _ascii_fields([f"{a:.17g}," for a in self.a_values.tolist()])
        wa = a_field.shape[1]
        rows = max(1, _CSV_BLOCK_CELLS // max(1, len(a_field)))
        for i in range(0, len(self.r_values), rows):
            r_field = _ascii_fields([f"{r:.17g}," for r in self.r_values[i:i + rows].tolist()])
            s_field = _s_fields(np.asarray(self.values[i:i + rows], dtype=float))
            wr, ws = r_field.shape[1], s_field.shape[2]
            line = np.empty(s_field.shape[:2] + (wr + wa + ws + 1,), np.uint8)
            line[:, :, :wr] = r_field[:, None]
            line[:, :, wr:wr + wa] = a_field
            line[:, :, wr + wa:-1] = s_field
            line[:, :, -1] = ord("\n")
            out.write(line[line != 0].tobytes().decode("ascii"))

    def to_csv_string(self) -> str:
        buf = io.StringIO()
        self.to_csv(buf)
        return buf.getvalue()


def grid_scan(spec: GridSpec | None = None) -> GridResult:
    """Evaluate S(r, a) on the grid: `s_statistic` for every cell, with each
    of its three divided differences taken over all cells in one batch that
    reads the node columns in place.  Cells outside `s_statistic`'s normal
    range take its scalar call: finite, or its OverflowError."""
    spec = spec or GridSpec()
    rv = spec.r_values()
    av = spec.a_values()
    r, a = (x.ravel() for x in np.meshgrid(rv, av, indexing="ij"))
    c = [a, 2.0 * r, r, np.zeros_like(r)]
    tiny = sys.float_info.min
    with np.errstate(all="ignore"):
        num, d1, d2 = (_exp_dd_columns(c[:k]) for k in (3, 2, 4))
        square, prod = np.multiply(num, num, out=num), np.multiply(d1, d2, out=d1)
        bad = np.flatnonzero(~((tiny <= square) & (square < math.inf)
                               & (tiny <= prod) & (prod < math.inf)))
        values = np.divide(square, prod, out=square).reshape(spec.nr, spec.na)
    values.flat[bad] = [s_statistic(*x) for x in zip(r[bad].tolist(), a[bad].tolist())]
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


# the largest m with m! below the double range: E A(T)^m = m! exp[...] overflows above it
_MAX_ORDER = max(m for m in range(200) if math.factorial(m) < sys.float_info.max)


def moment_A(p: GbmParams, m: int) -> float:
    """E A(T)^m = m! exp[b_0 T, b_1 T, ..., b_m T].

    The node set collapses confluently at sigma = 0 or r = 0; the divided
    difference handles that exactly.  The value is `moment_table(p, m)`'s
    last entry, with its exceptions and its accuracy at high orders.
    """
    return moment_table(p, m)[m].value


def moment_table(p: GbmParams, max_m: int) -> list[MomentReport]:
    """Moments of orders 0..max_m with the evaluation method recorded.

    Each order keeps the route AUTO picks for its own nodes.  The node sets
    are nested, so one first row of the bidiagonal exponential on the nodes
    of the highest matrix-route order M, anchored as `exp_dd`'s matrix route
    anchors, gives x = exp[nodes - t] for every matrix-route order up to M,
    scaled by e^t; an order whose x is not a normal double is evaluated on
    its own instead, by `exp_dd`'s dispatch on the sorted nodes and the route
    computed here.  Order 1 evaluated on its own is the memoised `mean_A`,
    and order 2 has the bits of `second_moment_A`: the same nodes.  The Taylor
    terms of high offsets underflow: at r = 0.05, sigma = 0.2, T = 1, orders
    150, 160 and 170 (the last below 171!) are 2.5e-13, 1.6e-13 and 1.8e-7 off.
    """
    if max_m > _MAX_ORDER:
        raise OverflowError(f"E A(T)^{max_m} is outside the double range, as {max_m}! is")
    nodes = _coerce_nodes(BNodes.from_params(p, max_m).scaled(p.T))
    # AUTO's rule on each order's sorted nodes; from TAYLOR_MIN_ORDER on it
    # is the matrix method whatever the nodes
    low = min(max_m, TAYLOR_MIN_ORDER - 1)
    methods = ([_route(sorted(nodes[:m + 1])) for m in range(1, low + 1)]
               + [EvalMethod.TAYLOR_MATRIX] * (max_m - low))
    top = max((m for m, method in enumerate(methods, 1)
               if method is EvalMethod.TAYLOR_MATRIX), default=0)
    row = []
    if top:
        t, row = _first_row(np.array(nodes[:top + 1]), max(nodes[:top + 1]))
        row = row.tolist()
    out = [MomentReport(order=0, value=1.0, method="exact")]
    for m, method in enumerate(methods, 1):
        # where e^t x overflows, m! times the order's own value does too
        if method is EvalMethod.TAYLOR_MATRIX and sys.float_info.min <= row[m] < math.inf:
            value = math.factorial(m) * _times_exp(t, row[m])
        elif m == 1:
            value = mean_A(p)
        else:
            value = math.factorial(m) * _exp_dd_sorted(sorted(nodes[:m + 1]), method)
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
