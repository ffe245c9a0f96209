"""Divided differences: generic Newton tableau, stable evaluation for the
exponential function, and independent quadrature/sampling oracles built on
the simplex integral representation.

The exponential evaluator `exp_dd` is the workhorse.  Its two routes: the
plain recurrence is fast and accurate for a handful of well-separated nodes
but cancels catastrophically for clustered nodes, where the bidiagonal
matrix-exponential method (McCurdy, Ng and Parlett, 1984) keeps full
relative accuracy.  `EvalMethod.AUTO` switches between the two with
conservative thresholds, module constants.  Two nodes always take the
recurrence, the closed form e^{z_1} (-expm1(-g))/g from the larger node,
finite for any spread.  A scalar call validates, sorts and routes its
scaled nodes once (`choose_method` is the same rule); `_exp_dd_sorted`, the
only code that acts on a route, then evaluates them, also for `moment_table`,
which sorts and routes its nested node sets itself.  The matrix method's one
kernel, `_bidiagonal_first_rows`, writes each product into a per-call buffer,
never onto a factor, takes both maxima of the stopping test in one reduction
and skips that test where it cannot pass.

`exp_dd_batch` evaluates many node sets of one order at once, one row of an
(N, n+1) array each.  It works on node columns: a sorting network orders
every row, AUTO's rule runs elementwise with the same constants, the
recurrence one tableau level at a time, and the matrix method through the
same kernel as the scalar route, one stack per squaring count.
"""

from __future__ import annotations

import enum
import math
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

# For three or more nodes, AUTO picks the matrix method when the node spread
# is below this fraction of the node magnitude, when the order is at least
# TAYLOR_MIN_ORDER, or when two distinct nodes nearly coincide.  A near-tie
# costs three nodes little (expm1 first level: 1.2e-14), but four such as
# [0, a, 2a, 2a + 1e-7] reached 4.5e-13 on the recurrence, 1.3e-15 here.
TAYLOR_SPREAD_FACTOR = 0.05
TAYLOR_MIN_ORDER = 4
TAYLOR_MIN_GAP_FACTOR = 1e-5
# Four nodes: the recurrence's two cancelling levels amplify rounding by about
# scale_bound / (s2 * spread), s2 the smallest nonzero span of three
# consecutive nodes.  Above this bound AUTO takes the matrix method, on
# clustered node sets that reached 5e-10 without the guard; just below it the
# recurrence stayed within 7.9e-13 of mpmath (worst of 100 000 seeded sets).
TAYLOR_MAX_AMPLIFICATION = 300.0
# Below this mu the recurrence's factor e^mu is subnormal and loses digits.
_LOG_MIN_NORMAL = math.log(2.0 ** -1022)


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
    """AUTO's rule on sorted, finite nodes."""
    n = len(zs) - 1
    if n <= 1:
        return EvalMethod.RECURRENCE
    spread = zs[-1] - zs[0]
    scale_bound = 1.0 + max(abs(zs[0]), abs(zs[-1]))
    if n >= TAYLOR_MIN_ORDER or spread < TAYLOR_SPREAD_FACTOR * scale_bound:
        return EvalMethod.TAYLOR_MATRIX
    # exact ties are confluent-safe on the recurrence; a near-tie among four nodes is not
    min_gap = min((b - a for a, b in zip(zs, zs[1:]) if b != a), default=0.0)
    if 0.0 < min_gap < TAYLOR_MIN_GAP_FACTOR * scale_bound:
        return EvalMethod.TAYLOR_MATRIX
    if n == 3:
        spans = [s for s in (zs[2] - zs[0], zs[3] - zs[1]) if s != 0.0]
        if spans and scale_bound > TAYLOR_MAX_AMPLIFICATION * min(spans) * spread:
            return EvalMethod.TAYLOR_MATRIX
    return EvalMethod.RECURRENCE


def _exp_dd_recurrence(zs: list[float]) -> float:
    """Centered confluent recurrence; adequate for a few well-spread nodes.

    First-order entries use exp[z, z+g] = e^z expm1(g)/g, which removes the
    dominant cancellation when a node pair sits much closer than the spread.
    Two nodes, and wide spreads where the centered form overflows or e^mu is
    subnormal, take the form anchored on the largest node instead, with
    e^{z_{i+1}} (-expm1(-g))/g at the first level: every entry then lies in
    (0, 1], so it stays finite wherever the value is representable.  The
    nodes come sorted.
    """
    n = len(zs)
    if n == 2:
        return _recurrence_tableau(zs, zs[1], anchored=True)
    mu = math.fsum(zs) / n
    if mu >= _LOG_MIN_NORMAL:
        try:
            value = _recurrence_tableau(zs, mu, anchored=False)
        except OverflowError:
            value = math.inf
        if math.isfinite(value):
            return value
    return _recurrence_tableau(zs, zs[-1], anchored=True)


def _recurrence_tableau(zs: list[float], mu: float, anchored: bool) -> float:
    """e^mu times the divided-difference tableau of exp(z - mu) on sorted
    nodes; the first level from the upper node of each pair if `anchored`."""
    n = len(zs)
    lev = []
    for i in range(n - 1):
        g = zs[i + 1] - zs[i]
        if anchored:
            lev.append(math.exp(zs[i + 1] - mu) * (-math.expm1(-g) / g if g != 0.0 else 1.0))
        else:
            lev.append(math.exp(zs[i] - mu) * (math.expm1(g) / g if g != 0.0 else 1.0))
    fact = 1.0
    for k in range(2, n):
        fact *= k
        nxt = []
        for i in range(n - k):
            if zs[i + k] == zs[i]:
                nxt.append(math.exp(zs[i] - mu) / fact)
            else:
                nxt.append((lev[i + 1] - lev[i]) / (zs[i + k] - zs[i]))
        lev = nxt
    return math.exp(mu) * lev[0]


def _bidiagonal_first_rows(z: np.ndarray, mu, e_mu, s=None) -> np.ndarray:
    """e^mu times the first row of exp(Z) for the upper bidiagonal Z with
    z - mu on the diagonal and ones above it, by scaling and squaring of a
    truncated Taylor series: for one node set z (m,) with float mu and e_mu,
    which computes its own squaring count s, or for a stack (K, m) with mu
    and e_mu of shape (K, 1) and the s it shares.  The caller computes e_mu.

    Entry (i, j) of exp(Z) is exp[z_i - mu, ..., z_j - mu], positive for any
    node order, so the squarings involve no cancellation and every entry
    keeps full relative accuracy even for tightly clustered nodes.  An entry
    outside the double range comes back inf or nan, without a warning.
    """
    one = z.ndim == 1
    product = np.dot if one else np.matmul   # the same dgemm; np.dot costs ~60% per call
    *stack, m = z.shape
    # Slots: the terms of even and of odd k on either side of the partial sum
    # F, then B and room for |term|, |F|; no product is written onto a factor.
    buf = np.zeros((6, *stack, m, m))
    flat = buf.reshape(6, *stack, m * m)
    np.subtract(z, mu, out=flat[3, ..., ::m + 1])
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
    # the error state only here: numpy calls under a non-default one cost more
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(s):
            F = product(F, F, out=buf[i % 2])
        return e_mu * F[..., 0, :]


def _exp_dd_first_row(zs: np.ndarray) -> np.ndarray:
    """exp[z_0..z_k] for k = 0..n, the nodes taken in the order given and
    centered on their mean.  Raises OverflowError when an entry leaves the
    double range."""
    mu = float(np.add.reduce(zs)) / len(zs)   # the bits of zs.mean()
    row = _bidiagonal_first_rows(zs, mu, math.exp(mu))
    if not np.isfinite(row).all():
        raise OverflowError("exp_dd: a value is outside the double range")
    return row


def exp_dd(nodes, scale: float = 1.0, method: EvalMethod = EvalMethod.AUTO) -> float:
    """Divided difference of the exponential, exp[s*x_0, ..., s*x_n].

    Repeated nodes are handled confluently (n+1 copies of x give e^x / n!).
    The result is positive for any real nodes.  AUTO sends nearly coincident
    distinct nodes to the matrix route (four such as [0, a, 2a, 2a + 1e-7]
    lose digits on the recurrence); exact ties stay.  A `method` other than
    AUTO forces that route.  Raises ValueError for any other `method` and
    unless every scaled node is finite.
    """
    zs = sorted(_coerce_nodes(nodes, scale))
    return _exp_dd_sorted(zs, _route(zs) if method is EvalMethod.AUTO else method)


def _exp_dd_sorted(zs: list[float], method: EvalMethod) -> float:
    """`exp_dd` on sorted, finite nodes by the route `method`, not AUTO."""
    if len(zs) == 1 and method in (EvalMethod.RECURRENCE, EvalMethod.TAYLOR_MATRIX):
        return math.exp(zs[0])
    if method is EvalMethod.RECURRENCE:
        return _exp_dd_recurrence(zs)
    if method is EvalMethod.TAYLOR_MATRIX:
        return float(_exp_dd_first_row(np.array(zs))[-1])
    raise ValueError(f"unknown evaluation method: {method!r}")


def _sort_columns(c) -> list[np.ndarray]:
    """Node columns `c` sorted within each row, without writing to `c`: an
    odd-even transposition network of compare-exchanges (Batcher, 1968)."""
    c = list(c)
    for step in range(len(c)):
        for i in range(step % 2, len(c) - 1, 2):
            c[i], c[i + 1] = np.minimum(c[i], c[i + 1]), np.maximum(c[i], c[i + 1])
    return c


def _taylor_columns(c) -> np.ndarray:
    """`choose_method` on every row of sorted node columns `c`: True where
    AUTO takes the matrix method."""
    n = len(c) - 1
    if n <= 1 or n >= TAYLOR_MIN_ORDER:
        return np.full(len(c[0]), n >= TAYLOR_MIN_ORDER)
    spread = c[-1] - c[0]
    scale_bound = 1.0 + np.maximum(np.abs(c[0]), np.abs(c[-1]))
    taylor = ((spread < TAYLOR_SPREAD_FACTOR * scale_bound)
              | (_min_positive_span(c, 1) < TAYLOR_MIN_GAP_FACTOR * scale_bound))
    if n == 3:
        taylor |= scale_bound > TAYLOR_MAX_AMPLIFICATION * _min_positive_span(c, 2) * spread
    return taylor


def _min_positive_span(c, k: int):
    """Smallest positive c[i+k] - c[i] on every row; inf where there is none."""
    out = np.inf
    for i in range(len(c) - k):
        span = c[i + k] - c[i]
        out = np.minimum(out, np.where(span > 0.0, span, np.inf))
    return out


def _exp_dd_recurrence_columns(c) -> np.ndarray:
    """`_exp_dd_recurrence` on every row of sorted node columns `c` at once,
    one tableau level at a time: the centered form first, then the anchored
    form on the rows where the scalar route takes it."""
    m = len(c)
    if m == 1:
        return np.exp(c[0])
    if m == 2:
        return _recurrence_tableau_columns(c, c[-1], anchored=True)
    mu = sum(c) / m
    out = _recurrence_tableau_columns(c, mu, anchored=False)
    redo = (mu < _LOG_MIN_NORMAL) | ~np.isfinite(out)
    if redo.any():
        cr = [x[redo] for x in c]
        out[redo] = _recurrence_tableau_columns(cr, cr[-1], anchored=True)
    return out


def _recurrence_tableau_columns(c, mu: np.ndarray, anchored: bool) -> np.ndarray:
    """`_recurrence_tableau` on every row of sorted node columns `c`, with
    per-row `mu`."""
    m = len(c)
    e = [np.exp(x - mu) for x in c]
    g = [c[i + 1] - c[i] for i in range(m - 1)]
    if anchored:
        lev = [e[i + 1] * np.where(x != 0.0, -np.expm1(-x) / x, 1.0) for i, x in enumerate(g)]
    else:
        lev = [e[i] * np.where(x != 0.0, np.expm1(x) / x, 1.0) for i, x in enumerate(g)]
    fact = 1.0
    for k in range(2, m):
        fact *= k
        lev = [np.where(c[i + k] == c[i], e[i] / fact, (lev[i + 1] - lev[i]) / (c[i + k] - c[i]))
               for i in range(m - k)]
    return np.exp(mu) * lev[0]


def exp_dd_batch(nodes) -> np.ndarray:
    """exp[z_0, ..., z_n] for every row of an (N, n+1) array of nodes.

    Each row takes the route AUTO picks for it in `exp_dd` and agrees with
    the scalar value to rounding.  Raises ValueError for a bad shape or
    non-finite nodes, OverflowError where a value leaves the double range.
    It works on node columns: the transpose of a C-contiguous (n+1, N) array
    is read without a copy.
    """
    z = np.asarray(nodes, dtype=float)
    if z.ndim != 2 or z.shape[1] == 0:
        raise ValueError("nodes must have shape (N, n+1) with n+1 >= 1")
    if not np.isfinite(z).all():
        raise ValueError("nodes must be finite")
    c = _sort_columns(np.ascontiguousarray(z.T))
    with np.errstate(all="ignore"):
        taylor = _taylor_columns(c)
        # every row takes the recurrence, cheaper than masking the columns
        # when few rows take the matrix method, which overwrites its own rows
        out = _exp_dd_recurrence_columns(c)
        if taylor.any():
            z = np.stack([x[taylor] for x in c], axis=1)
            mu = z.mean(axis=1)
            d = np.abs(z - mu[:, None])
            # the largest column sum of |Z| in the same bits; the superdiagonal keeps it >= 1
            norm = np.maximum(d[:, 0], 1.0 + d[:, 1:].max(axis=1))
            s = np.ceil(np.log2(norm / 0.25)).astype(int)
            e_mu, rows = np.exp(mu), np.empty(len(z))
            for sg in np.unique(s):   # each count's rows as one stack
                g = s == sg
                rows[g] = _bidiagonal_first_rows(z[g], mu[g, None], e_mu[g, None], sg)[:, -1]
            out[taylor] = rows
    if not np.isfinite(out).all():
        raise OverflowError("exp_dd_batch: a value is outside the double range")
    return out


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
