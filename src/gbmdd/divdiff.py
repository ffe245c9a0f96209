"""Divided differences: generic Newton tableau, stable evaluation for the
exponential function, and independent quadrature/sampling oracles built on
the simplex integral representation.

The exponential evaluator `exp_dd` is the workhorse.  Its two routes: the
plain recurrence is fast and accurate for a handful of well-separated nodes
but cancels catastrophically for clustered nodes, where the bidiagonal
matrix-exponential method (McCurdy, Ng and Parlett, 1984) keeps full
relative accuracy.  `EvalMethod.AUTO` switches between the two by a rule on
node spans alone, module constants, so a shifted set keeps its route.  Two
nodes always take the
recurrence, the closed form e^{z_1} (-expm1(-g))/g from the larger node,
finite for any spread.  A scalar call validates, sorts and routes its
scaled nodes once (`choose_method` is the same rule); `_exp_dd_sorted`, the
only code that acts on a route, then evaluates them, also for `moment_table`,
which sorts and routes its nested node sets itself.  Both routes compute
x = exp[z - t] in (0, 1] for t the largest node (the matrix route anchors
lower where x underflows at high orders), and one step, `_times_exp`, scales
it by e^t, or raises where x is not a normal double.  The matrix method's one
kernel, `_bidiagonal_first_rows`, writes each product into a per-call buffer,
never onto a factor, takes both maxima of the stopping test in one reduction
and skips it where it cannot pass.

`exp_dd_batch` evaluates many node sets of one order at once, one row of an
(N, n+1) array each.  It works on node columns, in place: each step writes
through `out=` into a few columns the kernel owns, not into a new temporary.
A sorting network orders every row on a copy, AUTO's rule runs elementwise
with the same constants in three scratch columns, each recurrence tableau
level overwrites the one before it, and the matrix method runs through the
same kernel as the scalar route, one stack per squaring count, into the
recurrence's x column, scaled once.  `grid_scan` hands its node columns to
this kernel directly.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "EvalMethod",
    "NodeList",
    "DDTable",
    "OracleEstimate",
    "SimplexSpec",
    "newton_table",
    "exp_dd",
    "exp_dd_batch",
    "choose_method",
    "equispaced_dd",
    "symmetric_equispaced_dd",
    "leibniz_dd",
    "square_nodes_dd",
    "hermite_genocchi_oracle",
    "simplex_exp_integral",
    "iterated_ordered_exp_integral",
    "ordered_exp_simplex_quad",
]

# AUTO reads node spans only (anchored, the recurrence's error does not grow
# with the nodes' magnitude; the matrix route's ~log2(spread) squarings lose
# wide sets).  The matrix method takes five or more nodes, three of spread
# below TAYLOR_MIN_SPREAD, and four where the recurrence amplifies rounding by
# 1 / (s2 * spread) > TAYLOR_MAX_AMPLIFICATION (s2 the smallest nonzero span of
# three consecutive nodes) or a gap below TAYLOR_MIN_GAP lies inside a cluster
# (spread < 1): var A(T)'s [0, a, 2a, 2a + 1e-7] read 4.5e-13 on the
# recurrence, 1.3e-15 here.  Exact ties stay: they are confluent-safe.
TAYLOR_MIN_ORDER = 4
TAYLOR_MIN_SPREAD = 0.05
TAYLOR_MAX_AMPLIFICATION = 100.0
TAYLOR_MIN_GAP = 1e-5
# exp[z - max z] <= 1/n! underflows at high orders where the value need not
# (order 140 of moment_A at r = 0.05, sigma = 0.2, T = 1); the matrix route
# anchors this far lower there, so every entry stays below e^700.
_LOW_ANCHOR = 700.0


class EvalMethod(enum.Enum):
    AUTO = "auto"
    RECURRENCE = "recurrence"
    TAYLOR_MATRIX = "taylor-matrix"


def _coerce_nodes(nodes, scale: float = 1.0) -> list[float]:
    """The nodes times `scale` as floats; ValueError unless every product is
    finite."""
    if not math.isfinite(scale):
        raise ValueError("scale must be finite")
    zs = [scale * float(x) for x in nodes]
    if not zs:
        raise ValueError("need at least one node")
    if not all(map(math.isfinite, zs)):
        raise ValueError("nodes must be finite")
    return zs


@dataclass(frozen=True)
class NodeList:
    """Ordered interpolation abscissae; repeats allowed."""

    nodes: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(_coerce_nodes(self.nodes)))

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes)

    def __getitem__(self, i):
        return self.nodes[i]

    def distinct(self) -> tuple[tuple[float, int], ...]:
        """Distinct node values in ascending order with multiplicities."""
        groups: dict[float, int] = {}
        for x in self.nodes:
            groups[x] = groups.get(x, 0) + 1
        return tuple(sorted(groups.items()))

    @property
    def spread(self) -> float:
        return max(self.nodes) - min(self.nodes)


@dataclass(frozen=True)
class DDTable:
    """Triangular Newton tableau: entry (i, j) holds f[x_i, ..., x_j]."""

    nodes: NodeList
    levels: tuple[tuple[float, ...], ...]

    @property
    def order(self) -> int:
        return len(self.nodes) - 1

    @property
    def top(self) -> float:
        """f[x_0, ..., x_n]."""
        return self.levels[-1][0]

    def entry(self, i: int, j: int) -> float:
        if not 0 <= i <= j <= self.order:
            raise IndexError(f"tableau entry ({i}, {j}) out of range")
        return self.levels[j - i][i]


def newton_table(values: Sequence[float], nodes) -> DDTable:
    """Full divided-difference tableau from function values at distinct nodes."""
    xs = _coerce_nodes(nodes)
    fv = tuple(float(v) for v in values)
    if len(fv) != len(xs):
        raise ValueError(f"{len(fv)} values for {len(xs)} nodes")
    if len(set(xs)) != len(xs):
        raise ValueError("coincident nodes require derivative data")
    levels = [fv]
    for k in range(1, len(xs)):
        prev = levels[-1]
        levels.append(tuple(
            (prev[i + 1] - prev[i]) / (xs[i + k] - xs[i])
            for i in range(len(xs) - k)
        ))
    return DDTable(nodes=NodeList(xs), levels=tuple(levels))


def choose_method(nodes, scale: float = 1.0) -> EvalMethod:
    """Deterministic AUTO resolution for `exp_dd` from node geometry; one or
    two nodes always take the recurrence (a closed form at order 1)."""
    return _route(sorted(_coerce_nodes(nodes, scale)))


def _route(zs: list[float]) -> EvalMethod:
    """AUTO's rule on sorted, finite nodes, from their spans alone."""
    n, spread = len(zs) - 1, zs[-1] - zs[0]
    matrix = n >= TAYLOR_MIN_ORDER or n == 2 and spread < TAYLOR_MIN_SPREAD
    if n == 3 and not matrix:
        s2 = min((s for s in (zs[2] - zs[0], zs[3] - zs[1]) if s != 0.0), default=math.inf)
        gap = min((b - a for a, b in zip(zs, zs[1:]) if b != a), default=math.inf)
        matrix = (TAYLOR_MAX_AMPLIFICATION * s2 * spread < 1.0
                  or spread < 1.0 and gap < TAYLOR_MIN_GAP)
    return EvalMethod.TAYLOR_MATRIX if matrix else EvalMethod.RECURRENCE


def _exp_dd_recurrence(zs: list[float]) -> float:
    """Confluent recurrence on sorted nodes; adequate for a few well-spread
    nodes: x = exp[z - z_n], the divided-difference tableau of exp(z - z_n),
    every entry in (0, 1].  First-order entries use exp[z, z+g] =
    e^{z+g} (-expm1(-g))/g, which removes the dominant cancellation when a
    node pair sits much closer than the spread."""
    n, top = len(zs), zs[-1]
    lev = [math.exp(b - top) * (-math.expm1(a - b) / (b - a) if b != a else 1.0)
           for a, b in zip(zs, zs[1:])]
    fact = 1.0
    for k in range(2, n):
        fact *= k
        lev = [math.exp(zs[i] - top) / fact if zs[i + k] == zs[i]
               else (lev[i + 1] - lev[i]) / (zs[i + k] - zs[i]) for i in range(n - k)]
    return lev[0] if lev else 1.0


def _times_exp(t: float, x: float) -> float:
    """e^t x for x = exp[z - t], the scaling step every route ends in: h x h
    with h = e^{t / 2} where e^t overflows (t above 709.78).  OverflowError
    where the value overflows, or where x is not a normal double: it
    underflowed, or a forced route lost it, and its digits with it."""
    if not x >= sys.float_info.min:
        raise OverflowError("exp_dd: exp[z - max z] is not a normal double")
    try:
        value = math.exp(t) * x
    except OverflowError:
        h = math.exp(t / 2.0)
        value = h * x * h
    if value == math.inf:
        raise OverflowError("exp_dd: the value is outside the double range")
    return value


def _bidiagonal_first_rows(z: np.ndarray, t, s=None) -> np.ndarray:
    """x = exp[z_0 - t, ..., z_j - t] for j = 0..m-1, the first row of exp(Z)
    for the upper bidiagonal Z with z - t on the diagonal and ones above it,
    by scaling and squaring of a truncated Taylor series: for one node set z
    (m,) with float t, which computes its own squaring count s, or for a
    stack (K, m) with t of shape (K, 1) and the s it shares.

    Entry (i, j) of exp(Z) is exp[z_i - t, ..., z_j - t], at most
    e^{max z - t} and positive for any node order, so the squarings involve
    no cancellation and every entry keeps full relative accuracy even for
    tightly clustered nodes, until it underflows below the normal range.
    """
    one = z.ndim == 1
    product = np.dot if one else np.matmul   # the same dgemm; np.dot costs ~60% per call
    *stack, m = z.shape
    # Slots: the terms of even and of odd k on either side of the partial sum
    # F, then B and room for |term|, |F|; no product is written onto a factor.
    buf = np.zeros((6, *stack, m, m))
    flat = buf.reshape(6, *stack, m * m)
    np.subtract(z, t, out=flat[3, ..., ::m + 1])
    flat[3, ..., 1::m + 1] = flat[1, ..., ::m + 1] = 1.0
    if one:
        norm = float(np.abs(buf[3]).sum(axis=0).max())   # the largest column sum of |Z|
        s = max(0, math.ceil(math.log2(norm / 0.25))) if norm > 0.25 else 0
    F, B = buf[1], np.divide(buf[3], 2.0 ** s, out=buf[3])
    c = 2.0 ** -s
    # Entry (0, k) of term k is c^k / k! up to k roundings and max|F| <= e^0.25,
    # so the stopping test cannot pass before step k_test: the first k with
    # k = m or c^k / k! <= 1e-19.
    k_test, ck = 1, c
    while k_test < m and ck > 1e-19:
        k_test += 1
        ck *= c / k_test
    # Step 1 adds I B / 1 = B exactly.  Its test cannot pass: B's largest
    # column sum, over at most two entries, exceeds 1/8, or B = 0 (one node).
    np.add(F, B, out=F)
    # each term slot with F as one (term, F) view: one reduction takes both maxima
    slots = [(buf[0], buf[0:2]), (buf[2], buf[2:0:-1])]
    term, axes = B, (z.ndim, z.ndim + 1)   # the matrix axes of a (term, F) pair
    for k in range(2, 64):
        prev, (term, pair) = term, slots[k % 2]
        product(prev, B, out=term)
        np.divide(term, float(k), out=term)   # a float divisor: the same bits, half the cost
        np.add(F, term, out=F)
        if k >= k_test:
            top = np.maximum.reduce(np.absolute(pair, out=buf[4:]), axis=axes)
            passed = top[0] <= 1e-20 * top[1]
            # a stack stops once every row passes; .all() costs ~3 us
            if passed if one else np.logical_and.reduce(passed):
                break
    for i in range(s):
        F = product(F, F, out=buf[i % 2])
    return F[..., 0, :]


def _first_row(z: np.ndarray, t: float) -> tuple[float, np.ndarray]:
    """(t, x): one node set's first row anchored on its largest node t, or on
    t - _LOW_ANCHOR where only that makes the last entry a normal double."""
    x = _bidiagonal_first_rows(z, t)
    if x[-1] < sys.float_info.min:
        low = _bidiagonal_first_rows(z, t - _LOW_ANCHOR)
        if low[-1] >= sys.float_info.min:
            return t - _LOW_ANCHOR, low
    return t, x


def exp_dd(nodes, scale: float = 1.0, method: EvalMethod = EvalMethod.AUTO) -> float:
    """Divided difference of the exponential, exp[s*x_0, ..., s*x_n].

    Repeated nodes are handled confluently (n+1 copies of x give e^x / n!).
    The result is positive for any real nodes.  AUTO reads node spans only:
    clustered nodes take the matrix route, as do four with a near-tie in a
    cluster such as [0, a, 2a, 2a + 1e-7]; exact ties stay.  A `method` other
    than AUTO forces that route.  Raises ValueError for any other `method`
    and unless every scaled node is finite; OverflowError where the value
    overflows, or where x = exp[z - max z] is not a normal double, its
    digits lost to underflow or to a forced route.
    """
    zs = sorted(_coerce_nodes(nodes, scale))
    return _exp_dd_sorted(zs, _route(zs) if method is EvalMethod.AUTO else method)


def _exp_dd_sorted(zs: list[float], method: EvalMethod) -> float:
    """`exp_dd` on sorted, finite nodes by the route `method`, not AUTO."""
    if method is EvalMethod.RECURRENCE:
        return _times_exp(zs[-1], _exp_dd_recurrence(zs))
    if method is EvalMethod.TAYLOR_MATRIX:
        t, row = _first_row(np.array(zs), zs[-1])
        return _times_exp(t, float(row[-1]))
    raise ValueError(f"unknown evaluation method: {method!r}")


def _sort_columns(c) -> list[np.ndarray]:
    """Node columns `c` sorted within each row on a copy: an odd-even
    transposition network of compare-exchanges (Batcher, 1968), each writing
    its minimum into a spare column and its maximum over its upper input."""
    *s, spare = np.array([*c, c[0]])   # a copy of c and a spare row, one buffer
    for step in range(len(s)):
        for i in range(step % 2, len(s) - 1, 2):
            np.minimum(s[i], s[i + 1], out=spare)
            np.maximum(s[i], s[i + 1], out=s[i + 1])
            s[i], spare = spare, s[i]
    return s


def _taylor_columns(c) -> np.ndarray:
    """`choose_method` on every row of sorted node columns `c`: True where
    AUTO takes the matrix method."""
    n = len(c) - 1
    if n <= 1 or n >= TAYLOR_MIN_ORDER:
        return np.full(len(c[0]), n >= TAYLOR_MIN_ORDER)
    spread, span, t = np.empty((3, len(c[0])))
    np.subtract(c[-1], c[0], out=spread)
    if n == 2:
        return spread < TAYLOR_MIN_SPREAD
    s2 = np.multiply(TAYLOR_MAX_AMPLIFICATION, _min_positive_span(c, 2, span, t), out=span)
    taylor = np.multiply(s2, spread, out=s2) < 1.0
    taylor |= (spread < 1.0) & (_min_positive_span(c, 1, span, t) < TAYLOR_MIN_GAP)
    return taylor


def _min_positive_span(c, k: int, out, t):
    """Smallest positive c[i+k] - c[i] on every row into `out`, inf where
    there is none; `t` is scratch."""
    out[...] = np.inf
    for i in range(len(c) - k):
        span = np.subtract(c[i + k], c[i], out=t)
        span[span <= 0.0] = np.inf
        np.minimum(out, span, out=out)
    return out


def _exp_dd_recurrence_columns(c) -> np.ndarray:
    """`_exp_dd_recurrence` on every row of sorted node columns `c` at once,
    each tableau level written over the one before it: m - 1 columns and a
    scratch column.  A tie takes e^{c_i - c_n} / k! on its rows."""
    m, top = len(c), c[-1]
    if m == 1:
        return np.ones(len(top))
    lev = [np.empty(len(top)) for _ in range(m - 1)]
    t = np.empty(len(top))
    fact = 1.0
    for k in range(1, m):
        fact *= k
        for i, x in enumerate(lev[:m - k]):
            span = np.subtract(c[i + k], c[i], out=t)
            if k > 1:
                np.subtract(lev[i + 1], x, out=x)
            else:   # e^{c_{i+1} - c_n} (-expm1(-g)) / g
                np.negative(np.expm1(np.negative(span, out=x), out=x), out=x)
            np.divide(x, span, out=x)
            tie = span == 0.0
            if k == 1:
                np.multiply(np.exp(np.subtract(c[i + 1], top, out=t), out=t), x, out=x)
            if tie.any():
                x[tie] = np.exp(c[i][tie] - top[tie]) / fact
    return lev[0]


def _times_exp_columns(t, x) -> np.ndarray:
    """`_times_exp` on columns, in place on x: inf or nan where it raises."""
    e = np.exp(t)
    e[~(x >= sys.float_info.min)] = np.nan
    big = np.isinf(e)
    if big.any():
        h = np.exp(t[big] / 2.0)
        x[big] = h * x[big] * h
        e[big] = 1.0
    return np.multiply(e, x, out=x)


def exp_dd_batch(nodes) -> np.ndarray:
    """exp[z_0, ..., z_n] for every row of an (N, n+1) array of nodes.

    Each row takes the route AUTO picks for it in `exp_dd` and agrees with
    the scalar value to rounding.  Raises ValueError for a bad shape or
    non-finite nodes, OverflowError where a value overflows or a row's
    x = exp[z - max z] is not a normal double, as `exp_dd` does.
    It works on node columns; the sorting network's buffer is the one copy
    it makes of the nodes.
    """
    z = np.asarray(nodes, dtype=float)
    if z.ndim != 2 or z.shape[1] == 0:
        raise ValueError("nodes must have shape (N, n+1) with n+1 >= 1")
    if not np.isfinite(z).all():
        raise ValueError("nodes must be finite")
    out = _exp_dd_columns(z.T)
    if not np.isfinite(out).all():
        raise OverflowError("exp_dd_batch: a value overflows or its x is not a normal double")
    return out


def _exp_dd_columns(c) -> np.ndarray:
    """`exp_dd_batch` on finite node columns `c`, read without writing to
    them; a value where `exp_dd` raises comes back inf or nan."""
    c = _sort_columns(c)
    with np.errstate(all="ignore"):
        taylor = _taylor_columns(c)
        # every row takes the recurrence, cheaper than masking the columns
        # when few rows take the matrix method, which overwrites its own rows
        x = _exp_dd_recurrence_columns(c)
        if taylor.any():
            z = np.stack([col[taylor] for col in c], axis=1)
            t = z[:, -1:]
            # the largest column sum of |Z| in the kernel's bits, on sorted rows
            norm = np.maximum(t[:, 0] - z[:, 0], 1.0 + (t[:, 0] - z[:, 1]))
            s = np.ceil(np.log2(norm / 0.25)).astype(int)
            rows, top = np.empty(len(z)), c[-1][taylor]
            for sg in np.unique(s):   # each count's rows as one stack
                g = s == sg
                rows[g] = _bidiagonal_first_rows(z[g], t[g], sg)[:, -1]
            for i in np.flatnonzero(rows < sys.float_info.min):   # high orders
                top[i], row = _first_row(z[i], top[i])
                rows[i] = row[-1]
            x[taylor], c[-1][taylor] = rows, top
        return _times_exp_columns(c[-1], x)


def equispaced_dd(fvals: Sequence[float], h: float, n: int | None = None) -> float:
    """Divided difference over x, x+h, ..., x+nh from sampled values, by the
    binomial expansion of the n-th forward difference."""
    if h <= 0:
        raise ValueError("step h must be positive")
    fv = [float(v) for v in fvals]
    if n is None:
        n = len(fv) - 1
    if len(fv) != n + 1:
        raise ValueError(f"need n+1 = {n + 1} values, got {len(fv)}")
    if n == 0:
        return fv[0]
    total = math.fsum(
        math.comb(n, k) * (fv[k] if (n - k) % 2 == 0 else -fv[k])
        for k in range(n + 1)
    )
    return total / (math.factorial(n) * h ** n)


def symmetric_equispaced_dd(fvals: Sequence[float], h: float, n: int | None = None) -> float:
    """Divided difference over -nh, ..., -h, 0, h, ..., nh from sampled values:
    `equispaced_dd` over the same 2n + 1 values."""
    fv = [float(v) for v in fvals]
    if n is None:
        if len(fv) % 2 == 0:
            raise ValueError("need an odd number of values (2n+1)")
        n = (len(fv) - 1) // 2
    if len(fv) != 2 * n + 1:
        raise ValueError(f"need 2n+1 = {2 * n + 1} values, got {len(fv)}")
    return equispaced_dd(fv, h, 2 * n)


def leibniz_dd(vtable: DDTable, wtable: DDTable) -> float:
    """(v*w)[z_0..z_n] = sum_k v[z_0..z_k] w[z_k..z_n] from the two tableaux."""
    if vtable.nodes.nodes != wtable.nodes.nodes:
        raise ValueError("tables are over different nodes")
    n = vtable.order
    return math.fsum(vtable.entry(0, k) * wtable.entry(k, n) for k in range(n + 1))


def square_nodes_dd(f: Callable[[float], float], a: Sequence[float]) -> tuple[float, float]:
    """Evaluate both sides of f[0, a_1^2, .., a_n^2] = g[-a_n, .., 0, .., a_n]
    with g(z) = f(z*z); returns (lhs, rhs), equal up to roundoff."""
    av = [float(x) for x in a]
    if any(x == 0.0 for x in av):
        raise ValueError("a_i must be nonzero")
    if len({abs(x) for x in av}) != len(av):
        raise ValueError("a_i must be distinct in magnitude")
    sq = [0.0] + [x * x for x in av]
    lhs = newton_table([f(x) for x in sq], sq).top
    sym = sorted([-abs(x) for x in av] + [0.0] + [abs(x) for x in av])
    rhs = newton_table([f(z * z) for z in sym], sym).top
    return lhs, rhs


@dataclass(frozen=True)
class OracleEstimate:
    value: float
    error: float
    method: str


def _eval_maybe_vectorized(f: Callable, x: np.ndarray) -> np.ndarray:
    try:
        out = np.asarray(f(x), dtype=float)
        if out.shape == x.shape:
            return out
    except (TypeError, ValueError):
        pass
    return np.array([f(float(v)) for v in x], dtype=float)


def _gauss_legendre_01(order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (x + 1.0), 0.5 * w


def _simplex_quadrature(g: Callable, nodes: np.ndarray, order: int) -> float:
    """Integral of g(t_0 a_0 + ... + t_n a_n) over the standard simplex
    {t_k >= 0, sum t_k <= 1}, by nested Gauss-Legendre rules."""
    u, w = _gauss_legendre_01(order)
    n = len(nodes) - 1
    arg = np.array([nodes[0]])
    rem = np.array([1.0])
    wt = np.array([1.0])
    for d in range(1, n + 1):
        t = np.outer(rem, u).ravel()
        wt = np.outer(wt * rem, w).ravel()
        arg = (np.repeat(arg, order) + t * (nodes[d] - nodes[0]))
        rem = np.repeat(rem, order) - t
    return float(np.sum(wt * _eval_maybe_vectorized(g, arg)))


def hermite_genocchi_oracle(
    deriv_n: Callable[[float], float],
    nodes,
    budget: int = 100_000,
    method: str = "sampling",
    seed: int = 0,
) -> OracleEstimate:
    """Independent estimate of f[a_0..a_n] as the integral of the n-th
    derivative over the standard simplex.

    method="sampling": uniform simplex points from sorted uniform spacings,
    `budget` samples, reported error is one standard error.
    method="quadrature": deterministic nested Gauss-Legendre (n <= 4),
    `budget` is the points-per-dimension order; error is a two-order
    comparison estimate.
    """
    xs = np.asarray(_coerce_nodes(nodes), dtype=float)
    n = len(xs) - 1
    if n < 1:
        raise ValueError("the simplex representation needs n >= 1")
    if budget <= 0:
        raise ValueError("budget must be positive")
    volume = 1.0 / math.factorial(n)
    if method == "sampling":
        rng = np.random.default_rng(seed)
        u = np.sort(rng.random((budget, n)), axis=1)
        t = np.diff(u, axis=1, prepend=0.0, append=1.0)  # uniform barycentric
        vals = _eval_maybe_vectorized(deriv_n, t @ xs)
        est = volume * float(vals.mean())
        err = volume * float(vals.std(ddof=1)) / math.sqrt(budget)
        return OracleEstimate(est, err, "sampling")
    if method == "quadrature":
        if n > 4:
            raise ValueError("nested quadrature supported for n <= 4 only")
        order = max(4, int(budget))
        hi = _simplex_quadrature(deriv_n, xs, order)
        lo = _simplex_quadrature(deriv_n, xs, max(4, order - 6))
        err = abs(hi - lo) + 1e-15 * abs(hi)
        return OracleEstimate(hi, err, "quadrature")
    raise ValueError(f"unknown oracle method: {method!r}")


@dataclass(frozen=True)
class SimplexSpec:
    """Simplex conv{0, v_1, .., v_n} from the columns of a nonsingular V,
    with the linear form coefficients a."""

    V: np.ndarray
    a: np.ndarray
    det_rtol: float = 1e-12

    def __post_init__(self):
        V = np.asarray(self.V, dtype=float)
        a = np.asarray(self.a, dtype=float)
        if V.ndim != 2 or V.shape[0] != V.shape[1]:
            raise ValueError("V must be a square matrix")
        if a.shape != (V.shape[0],):
            raise ValueError("a must be a vector matching V")
        if not (np.isfinite(V).all() and np.isfinite(a).all()):
            raise ValueError("V and a must be finite")
        object.__setattr__(self, "V", V)
        object.__setattr__(self, "a", a)
        scale = float(np.prod(np.linalg.norm(V, axis=0)))
        if abs(self.det) < self.det_rtol * max(scale, np.finfo(float).tiny):
            raise ValueError("V is singular to working precision")

    @property
    def det(self) -> float:
        return float(np.linalg.det(self.V))


def simplex_exp_integral(spec: SimplexSpec) -> float:
    """Integral of e^{a.y} over the simplex K(V), as |det V| times an
    exponential divided difference."""
    nodes = [0.0] + list(spec.V.T @ spec.a)
    return abs(spec.det) * exp_dd(nodes)


def iterated_ordered_exp_integral(a: Sequence[float]) -> float:
    """Ordered iterated integral of exp(sum a_k x_k) over
    0 <= x_1 <= ... <= x_n <= 1, evaluated as an exponential divided
    difference over the suffix sums of a."""
    av = [float(x) for x in a]
    if len(av) < 1:
        raise ValueError("need at least one coefficient")
    nodes = [0.0]
    acc = 0.0
    for x in reversed(av):
        acc += x
        nodes.append(acc)
    return exp_dd(nodes)


def ordered_exp_simplex_quad(alpha: Sequence[float], order: int = 20) -> float:
    """Nested Gauss-Legendre evaluation of the ordered iterated integral of
    exp(sum alpha_k x_k) over 0 <= x_1 <= ... <= x_n <= 1.

    Quadrature oracle for `iterated_ordered_exp_integral` and for the moment
    brute-force check; independent of `exp_dd`.
    """
    al = [float(x) for x in alpha]
    n = len(al)
    if n < 1:
        raise ValueError("need at least one coefficient")
    u, w = _gauss_legendre_01(order)
    upper = np.array([1.0])
    phase = np.array([0.0])
    wt = np.array([1.0])
    for d in range(n, 0, -1):
        x = np.outer(upper, u).ravel()
        wt = np.outer(wt * upper, w).ravel()
        phase = np.repeat(phase, order) + al[d - 1] * x
        upper = x
    return float(np.sum(wt * np.exp(phase)))
