"""Closed-form analytics for exponential Brownian motion S(t) and its time
average A(T): means, variances, covariance, correlation, all moments of
A(T) and the S(r, a) correlation surface with its CSV writer.  The
independent identities that check them (the textbook E A(T)^2, the
driftless-case binomial formula, moments by quadrature and the moment ODE)
live in `oracles`.

Everything routes through exponential divided differences, which stay finite
and accurate through the r = 0 and sigma = 0 degeneracies where the textbook
closed forms blow up.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

from .divdiff import (EvalMethod, _exp_dd_column_pairs, _exp_dd_prefix_pairs,
                      _exp_dd_suffix_pairs, _times_exp, exp_dd)

__all__ = [
    "GbmParams",
    "CorrelationReport",
    "MomentReport",
    "GridSpec",
    "GridResult",
    "mean_S",
    "mean_A",
    "cross_moment_SA",
    "second_moment_A",
    "covariance_SA",
    "var_S",
    "var_A",
    "correlation",
    "s_statistic",
    "grid_scan",
    "moment_A",
    "moment_table",
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


# A market quote (correlation, moment_table, both prices) asks for mean_A
# and _correlation_pairs at least twice at one point.  Each is memoised per
# point and returns the object its first call computed, so no bit changes;
# each holds the last _MEMO_SIZE points.  After rebinding `exp_dd` or
# changing an AUTO constant, call `cache_clear()` on every memo here.
_MEMO_SIZE = 32
_memo = functools.lru_cache(maxsize=_MEMO_SIZE)
_MIN_NORMAL = sys.float_info.min


def _sigma2(p: GbmParams) -> float:
    """sigma^2; OverflowError naming it where `**` raises with the errno alone."""
    try:
        return p.sigma ** 2
    except OverflowError:
        raise OverflowError(f"sigma^2 is outside the double range at sigma = {p.sigma:g}") from None


def _index(value, name: str) -> int:
    """`value` as an int; ValueError naming `name` where `operator.index`
    refuses it (a float, nan or inf), so numpy integers pass."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _b_nodes(p: GbmParams, m: int, T: float) -> list[float]:
    """The growth rates b_k = k r + sigma^2 k (k - 1) / 2 of the m-th moment
    of the time average, times T, for k = 0..m: the node set of E A(T)^m at
    T = p.T.  ValueError unless m is a nonnegative integer and every node
    is finite."""
    if _index(m, "moment order") < 0:
        raise ValueError("moment order must be nonnegative")
    s2 = _sigma2(p)
    nodes = [(k * p.r + s2 * k * (k - 1) / 2.0) * T for k in range(m + 1)]
    if not all(map(math.isfinite, nodes)):
        raise ValueError("nodes must be finite")
    return nodes


def _ddn(p: GbmParams) -> tuple[float, float]:
    """The recurring nodes rT and (2r + sigma^2) T."""
    return p.r * p.T, (2.0 * p.r + _sigma2(p)) * p.T


def mean_S(p: GbmParams) -> float:
    """E S(T) = e^{rT}."""
    return math.exp(p.r * p.T)


@_memo
def mean_A(p: GbmParams) -> float:
    """E A(T) = exp[0, rT], confluently 1 at rT = 0."""
    return exp_dd([0.0, p.r * p.T])


def cross_moment_SA(p: GbmParams) -> float:
    """E S(T) A(T) = exp[rT, (2r + sigma^2) T]."""
    rT, b = _ddn(p)
    return exp_dd([rT, b])


def second_moment_A(p: GbmParams) -> float:
    """E A(T)^2 = 2 exp[0, rT, (2r + sigma^2) T]."""
    rT, b = _ddn(p)
    return 2.0 * exp_dd([0.0, rT, b])


def _s_pairs(r: float, a: float) -> tuple[tuple[float, float], ...]:
    """(t, x) of exp[r, 2r, a], exp[2r, a] and exp[0, r, 2r, a], the
    numerator and denominators of S(r, a), each with the bits of its own
    evaluation: all three are suffixes of [0, r, 2r, a], and for r >= 0,
    where those nodes are in order, the recurrence-route ones come from one
    tableau.  ValueError unless every node is finite."""
    z = [0.0, float(r), float(2.0 * r), float(a)]
    if not all(map(math.isfinite, z)):
        raise ValueError("nodes must be finite")
    return tuple(_exp_dd_suffix_pairs(z, (1, 2, 0)))


@_memo
def _correlation_pairs(p: GbmParams) -> tuple[tuple[float, float], ...]:
    """`_s_pairs` at (rT, (2r + sigma^2) T): the (t, x) of the covariance's,
    var S's and var A's divided differences."""
    rT, b = _ddn(p)
    return _s_pairs(rT, b)


# (k, name) of k sigma^2 T times the divided difference of each `_correlation_pairs` entry
_SCALES = ((1.0, "cov(S(T), A(T))"), (1.0, "var S(T)"), (2.0, "var A(T)"))


def _scaled(p: GbmParams, pairs, i: int) -> float:
    """k sigma^2 T e^t x for (t, x) = pairs[i] and (k, name) = _SCALES[i]:
    the plain product where sigma^2, k sigma^2 T and e^t x are normal
    doubles; elsewhere (sigma below 1.5e-154, or e^t x outside the double
    range while the product is not) the exact product of k, sigma, sigma, T,
    x and e^t (e^{t/2} twice from t = 709 on), rounded once.  0.0 at
    sigma = 0; OverflowError naming the quantity where the value overflows."""
    (t, x), (k, name) = pairs[i], _SCALES[i]
    s2 = p.sigma ** 2   # finite: `_correlation_pairs` has raised otherwise
    c = k * s2 * p.T
    try:
        e = _times_exp(t, x)
    except OverflowError:
        e = 0.0   # not a normal double either: the exact product
    if _MIN_NORMAL <= s2 and _MIN_NORMAL <= c < math.inf and _MIN_NORMAL <= e:
        v = c * e
    else:
        from fractions import Fraction   # on first use: it loads `decimal`
        try:
            h = (math.exp(t), 1.0) if t < 709.0 else (math.exp(t / 2.0),) * 2
            v = float(math.prod(map(Fraction, (k, p.sigma, p.sigma, p.T, x, *h))))
        except OverflowError:   # of e^{t/2}, or of the rounded product
            v = math.inf if p.sigma else 0.0
    if v == math.inf:
        raise OverflowError(f"{name} is outside the double range")
    return v


def covariance_SA(p: GbmParams) -> float:
    """cov(S(T), A(T)) = sigma^2 T exp[rT, 2rT, (2r + sigma^2) T], by `_scaled`."""
    return _scaled(p, _correlation_pairs(p), 0)


def var_S(p: GbmParams) -> float:
    """var S(T) = sigma^2 T exp[2rT, (2r + sigma^2) T], by `_scaled`."""
    return _scaled(p, _correlation_pairs(p), 1)


def var_A(p: GbmParams) -> float:
    """var A(T) = 2 sigma^2 T exp[0, rT, 2rT, (2r + sigma^2) T], by `_scaled`."""
    return _scaled(p, _correlation_pairs(p), 2)


def _log_s(num, d1, d2) -> float:
    """log S = log(num^2 / (d1 d2)) from the (t, x) pairs of its three
    divided differences, finite wherever each x is a normal double."""
    (tn, xn), (t1, x1), (t2, x2) = num, d1, d2
    return 2.0 * tn - t1 - t2 + math.log(xn / x1 * (xn / x2))


def _R(log_s: float) -> float:
    """R = sqrt(S / 2) from log S."""
    return math.exp((log_s - math.log(2.0)) / 2.0)


def _correlation_R(p: GbmParams) -> float:
    """`correlation(p).R` from the pairs alone: finite where a field of the
    report overflows, so the floating-strike quote still reads R there."""
    return _R(_log_s(*_correlation_pairs(p)))


def correlation(p: GbmParams) -> CorrelationReport:
    """Correlation coefficient of S(T) and A(T) as a quotient of exponential
    divided differences, R = exp((log S - log 2) / 2) by `_log_s`; the
    covariance and variances are `covariance_SA`, `var_S` and `var_A`, bit
    for bit, and may read 0 where R does not.  OverflowError where an x of
    the pairs is not a normal double, or where the covariance or a variance
    overflows.  In [1/sqrt(2), 1] for r >= 0, not for r < 0 at large sigma^2 T
    (`test_correlation_bound_*`)."""
    if p.sigma == 0:
        raise ValueError("correlation undefined for deterministic paths")
    pairs = _correlation_pairs(p)
    log_s = _log_s(*pairs)
    return CorrelationReport(_R(log_s), _scaled(p, pairs, 0), _scaled(p, pairs, 1),
                             _scaled(p, pairs, 2), math.exp(log_s))


def s_statistic(r: float, a: float) -> float:
    """S(r, a) = exp[a, 2r, r]^2 / (exp[a, 2r] exp[a, 2r, r, 0]).

    Pure function of the divided-difference expression; negative `a` is the
    formal continuation scanned by the correlation surface, not a model
    state.  R(rT, sigma^2 T) = sqrt(S(rT, (2r + sigma^2) T) / 2).  S is
    exp(`_log_s`) for every input: it may read 0, or raise OverflowError.
    """
    return math.exp(_log_s(*_s_pairs(r, a)))


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
        if min(_index(self.na, "na"), _index(self.nr, "nr")) < 1:
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
    hi = q // 10 ** 8   # two int32 halves of 8 digits, each two groups of 4
    for k, half in ((2, (q - hi * 10 ** 8).astype(np.int32)), (0, hi.astype(np.int32))):
        top = half // 10000
        for j, group in ((k + 1, half - top * 10000), (k, top)):
            words[:, j] = table[group + 10000 * nonzero]
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
        as NUL-padded ASCII fields, in blocks of near-equal rows and about
        `_CSV_BLOCK_CELLS` cells, and written with the padding removed.
        """
        out.write("r,a,S\n")
        a_field = _ascii_fields([f"{a:.17g}," for a in self.a_values.tolist()])
        wa = a_field.shape[1]
        nr = len(self.r_values)
        blocks = min(nr, -(-nr * len(a_field) // _CSV_BLOCK_CELLS))   # ceil(cells / _CSV_BLOCK_CELLS)
        for b in range(blocks):   # row counts differ by at most one
            rows = slice(b * nr // blocks, (b + 1) * nr // blocks)
            r_field = _ascii_fields([f"{r:.17g}," for r in self.r_values[rows].tolist()])
            s_field = _s_fields(np.asarray(self.values[rows], dtype=float))
            wr, ws = r_field.shape[1], s_field.shape[2]
            line = np.empty(s_field.shape[:2] + (wr + wa + ws + 1,), np.uint8)
            line[:, :, :wr] = r_field[:, None]
            line[:, :, wr:wr + wa] = a_field
            line[:, :, wr + wa:-1] = s_field
            line[:, :, -1] = ord("\n")
            out.write(line[line != 0].tobytes().decode("ascii"))


def grid_scan(spec: GridSpec | None = None) -> GridResult:
    """Evaluate S(r, a) on the grid: `s_statistic`'s formula for every cell,
    with the (t, x) pairs of each of its three divided differences taken
    over all cells in one batch that reads the node columns in place.
    OverflowError where a cell's S is not finite, as `s_statistic` raises."""
    spec = spec or GridSpec()
    rv, av = spec.r_values(), spec.a_values()
    r, a = (x.ravel() for x in np.meshgrid(rv, av, indexing="ij"))
    c = [a, 2.0 * r, r, np.zeros_like(r)]
    with np.errstate(all="ignore"):
        # log S = 2 t_n - t_1 - t_2 + log(x_n / x_1 * (x_n / x_2)), as in
        # `_log_s`; the widest pair first, while the fewest columns are held
        t2, x2 = _exp_dd_column_pairs(c)
        log_s, xn = _exp_dd_column_pairs(c[:3])
        np.divide(xn, x2, out=x2)
        t1, x1 = _exp_dd_column_pairs(c[:2])
        np.subtract(np.subtract(np.multiply(2.0, log_s, out=log_s), t1, out=log_s), t2, out=log_s)
        q = np.multiply(np.divide(xn, x1, out=x1), x2, out=x1)
        values = np.exp(np.add(log_s, np.log(q, out=q), out=log_s), out=log_s)
    if not np.isfinite(values).all():
        raise OverflowError("grid_scan: S is not finite at a cell of the window")
    return GridResult(spec=spec, r_values=rv, a_values=av, values=values.reshape(spec.nr, spec.na))


# the largest m with m! below the double range: E A(T)^m = m! exp[...] overflows above it
_MAX_ORDER = max(m for m in range(200) if math.factorial(m) < sys.float_info.max)
# m! as floats: an int times a float is the int rounded to a float times it
_FACTORIALS = tuple(float(math.factorial(m)) for m in range(_MAX_ORDER + 1))
# the route names, picked by identity: an enum's `.value` is a property call
_MATRIX = EvalMethod.TAYLOR_MATRIX
_MATRIX_NAME, _RECURRENCE_NAME = _MATRIX.value, EvalMethod.RECURRENCE.value


def moment_A(p: GbmParams, m: int) -> float:
    """E A(T)^m = m! exp[b_0 T, b_1 T, ..., b_m T].

    The node set collapses confluently at sigma = 0 or r = 0; the divided
    difference handles that exactly.  The value is `moment_table(p, m)`'s
    last entry, with its exceptions and its accuracy at high orders.
    """
    return moment_table(p, m)[m].value


def moment_table(p: GbmParams, max_m: int) -> list[MomentReport]:
    """Moments of orders 0..max_m with the evaluation method recorded.

    The node sets are nested: order m's are the first m + 1 of the list
    `_b_nodes(p, max_m, p.T)`.  So every order is m! e^t x for the
    (route, t, x) that `divdiff._exp_dd_prefix_pairs` gives its prefix,
    which keeps the route AUTO picks for that order alone and takes every
    matrix-route order from one shared first row.  Order 1 has the bits of
    `mean_A`, and order 2 those of `second_moment_A` where it takes the
    recurrence: the same nodes.  A matrix-route order 2 reads the shared
    row, anchored on the highest order's nodes, and may differ from it by a
    few ulps.  The Taylor terms of high offsets underflow: at r = 0.05,
    sigma = 0.2, T = 1, orders 150, 160 and 170 (the last below 171!) are
    8.7e-14, 1.8e-13 and 1.8e-7 off.  ValueError unless max_m is a
    nonnegative integer; OverflowError where an order's value is outside
    the double range, as it is from order 171 on.
    """
    if _index(max_m, "moment order") > _MAX_ORDER:
        raise OverflowError(f"E A(T)^{max_m} is outside the double range, as {max_m}! is")
    nodes = _b_nodes(p, max_m, p.T)
    out = [MomentReport(0, 1.0, "exact")]   # positional: 30% cheaper than by keyword
    for m, (route, t, x) in enumerate(_exp_dd_prefix_pairs(nodes), 1):
        # where e^t x overflows, m! times the order's own value does too
        value = _FACTORIALS[m] * _times_exp(t, x)
        if value == math.inf:
            raise OverflowError(f"E A(T)^{m} is outside the double range")
        out.append(MomentReport(m, value, _MATRIX_NAME if route is _MATRIX else _RECURRENCE_NAME))
    return out
