"""Divided differences of the exponential: the scalar and batched `exp_dd`
kernels that every analytic result runs on.  The Newton tableau, the
quadrature and sampling oracles and the paper's identities live in
`oracles`.

The exponential evaluator `exp_dd` is the workhorse.  Its two routes: the
plain recurrence is fast and accurate for a handful of well-separated nodes
but cancels catastrophically for clustered nodes, where the bidiagonal
matrix-exponential method (McCurdy, Ng and Parlett, 1984) keeps full
relative accuracy.  `EvalMethod.AUTO` switches between the two by a rule on
node spans alone, module constants, so a shifted set keeps its route.  Two
nodes always take the recurrence, the closed form e^{z_1} expm1(d)/d for
d = z_0 - z_1, finite for any spread, the form of its every level-1 entry.
A scalar call validates, sorts and routes its scaled nodes once
(`choose_method` is the same rule).  Every route ends in a pair (t, x) with
value e^t x, x = exp[z - t] in (0, 1] for t the largest node (the matrix
route anchors lower where x underflows at high orders).
`_exp_dd_pair`, its column form `_exp_dd_column_pairs`, its suffix form
`_exp_dd_suffix_pairs` (the sets z_i..z_n of one sorted node list:
`correlation`'s three divided differences) and its prefix form
`_exp_dd_prefix_pairs` (`moment_table`'s nested node sets), the only code
that acts on a route, reject an x that is not a normal double;
`_times_exp` only scales, and `moments` takes S and R from the pairs'
logarithms.  The recurrence, `_recurrence_suffixes`, is one in-place pass
over the tableau that gives x for every suffix of its nodes at once.  The
matrix method's one kernel, `_bidiagonal_first_rows`, takes a degree-15
Taylor polynomial by Paterson and Stockmeyer's scheme in six products into
a per-call buffer and squares it `_squarings` times; a scalar call feeds
it the node list it holds, with no array made of it first.

`exp_dd_batch` evaluates many node sets of one order at once, one row of an
(N, n+1) array each.  It works on node columns, in place: each step writes
through `out=` into a few columns the kernel owns, not into a new temporary.
A sorting network orders every row on a copy, AUTO's rule runs elementwise
with the same constants in three scratch columns, each recurrence tableau
level overwrites the one before it (ties looked for past level 1 only
after one there), and the matrix method runs through the same kernel as the
scalar route, one stack per squaring count, into the recurrence's x column.
`grid_scan` hands its node columns to the pair kernel directly.
"""

from __future__ import annotations

import enum
import math
import sys

import numpy as np

__all__ = [
    "EvalMethod",
    "exp_dd",
    "exp_dd_batch",
    "choose_method",
]

# AUTO reads node spans only (anchored, the recurrence's error does not grow
# with the nodes' magnitude; the matrix route's ~log2(spread) squarings lose
# wide sets).  The matrix method takes five or more nodes, three of spread
# below TAYLOR_MIN_SPREAD, and four where the recurrence amplifies rounding by
# 1 / (s2 * spread) > TAYLOR_MAX_AMPLIFICATION (s2 the smallest nonzero span of
# three consecutive nodes) or a gap below TAYLOR_MIN_GAP, an exact tie
# included, lies inside a cluster (spread < 1): var A(T)'s
# [0, a, 2a, 2a + 1e-7] read 4.5e-13 on the recurrence, 1.3e-15 here, and
# [0, 0, 0.1, 0.2] 2.2e-14 against 4.4e-16.
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


def choose_method(nodes, scale: float = 1.0) -> EvalMethod:
    """Deterministic AUTO resolution for `exp_dd` from node geometry; one or
    two nodes always take the recurrence (a closed form at order 1)."""
    return _route(sorted(_coerce_nodes(nodes, scale)))


def _route(zs: list[float]) -> EvalMethod:
    """AUTO's rule on sorted, finite nodes, from their spans alone."""
    n, spread = len(zs) - 1, zs[-1] - zs[0]
    matrix = n >= TAYLOR_MIN_ORDER or n == 2 and spread < TAYLOR_MIN_SPREAD
    if n == 3 and not matrix:
        a, b = zs[2] - zs[0], zs[3] - zs[1]
        s2 = min(a, b) if a and b else a or b or math.inf   # the smallest nonzero span
        gap = min(zs[1] - zs[0], zs[2] - zs[1], zs[3] - zs[2])
        matrix = (TAYLOR_MAX_AMPLIFICATION * s2 * spread < 1.0
                  or spread < 1.0 and gap < TAYLOR_MIN_GAP)
    return EvalMethod.TAYLOR_MATRIX if matrix else EvalMethod.RECURRENCE


def _recurrence_suffixes(zs: list[float]) -> list[float]:
    """x_i = exp[z_i - z_n, ..., z_n - z_n] for every suffix i = 0..n of
    sorted nodes by the confluent recurrence; adequate for a few well-spread
    nodes.  One pass over the divided-difference tableau of exp(z - z_n),
    each level k = 1..n written over the one before it: level k's last
    entry is x_{n-k}, which no later level rewrites (de Boor, "Divided
    differences", 2005).  Every entry lies in (0, 1].  First-order entries
    use exp[a, b] = e^b expm1(d)/d for d = a - b, which removes the dominant
    cancellation when a node pair sits much closer than the spread."""
    n, top = len(zs), zs[-1]
    x = [math.exp(b - top) * (math.expm1(a - b) / (a - b) if b != a else 1.0)
         for a, b in zip(zs, zs[1:])]
    x.append(1.0)
    fact = 1.0
    for k in range(2, n):
        fact *= k
        for i in range(n - k):
            a, b = zs[i], zs[i + k]
            x[i] = math.exp(a - top) / fact if b == a else (x[i + 1] - x[i]) / (b - a)
    return x


def _times_exp(t: float, x: float) -> float:
    """e^t x, the scaling step every route ends in: h x h with h = e^{t / 2}
    where e^t overflows (t above 709.78); OverflowError where the value
    overflows."""
    try:
        value = math.exp(t) * x
    except OverflowError:
        h = math.exp(t / 2.0)
        value = h * x * h
    if value == math.inf:
        raise OverflowError("exp_dd: the value is outside the double range")
    return value


def _squarings(zs, t: float) -> int:
    """The matrix route's squaring count for nodes `zs`, in any order,
    anchored on t: the least s >= 0 with norm / 2^s <= 1/4, for the largest
    column sum of |Z|, max(|z_0 - t|, 1 + max_{j >= 1} |z_j - t|).  Rounding
    is monotone, so the largest |z_j - t| is at the largest or smallest z_j."""
    norm = abs(zs[0] - t)
    if len(zs) > 1:
        norm = max(norm, 1.0 + max(max(zs[1:]) - t, t - min(zs[1:])))
    return math.ceil(math.log2(norm / 0.25)) if norm > 0.25 else 0


_TAYLOR_BLOCKS = np.array([[1.0 / math.factorial(4 * j + i) for i in range(4)] for j in range(4)])


def _bidiagonal_first_rows(z, t, s=None) -> np.ndarray:
    """x = exp[z_0 - t, ..., z_j - t] for j = 0..m-1, the first row of exp(Z)
    for the upper bidiagonal Z with z - t on the diagonal and ones above it:
    for one node set z, a list or an (m,) array, with float t, which computes
    its own squaring count s, or for a stack (K, m) with t of shape (K, 1)
    and the s it shares.

    The norm of B = Z / 2^s is at most 1/4, so the terms the degree-15
    Taylor polynomial of exp(B) leaves out sum to below 2 * 0.25^16 / 16!,
    under 1e-20 e^-0.25.  Paterson and Stockmeyer's scheme (Higham,
    Functions of Matrices, 2008, 4.2) takes it in six products: B^2, B^3,
    B^4, every block C_j = sum_i B^i / (4j + i)! from `_TAYLOR_BLOCKS`
    times the flattened B^0..B^3, and Horner's rule for sum_j C_j (B^4)^j.
    Entry (i, j) of exp(Z) is exp[z_i - t, ..., z_j - t], at most
    e^{max z - t} and positive for any node order, so the squarings involve
    no cancellation and every entry keeps full relative accuracy even for
    tightly clustered nodes, until it underflows below the normal range.
    """
    if s is None:   # one set: its diagonal from the node list, no array temporary
        m, s = len(z), _squarings(z, t)
        buf = np.zeros((10, m, m))
        flat = buf.reshape(10, m * m)
        h = 2.0 ** s
        flat[0, ::m + 1], flat[1, 1::m + 1] = 1.0, 1.0 / h
        flat[1, ::m + 1] = [(x - t) / h for x in z]
        product = np.dot   # np.matmul costs ~60% more per call; the same dgemm
    else:
        *stack, m = z.shape
        buf = np.zeros((10, *stack, m, m))
        flat = buf.reshape(10, *stack, m * m)
        flat[0, ..., ::m + 1], flat[1, ..., 1::m + 1] = 1.0, 2.0 ** -s
        np.divide(z - t, 2.0 ** s, out=flat[1, ..., ::m + 1])
        product = np.matmul
    # slots: B^0..B^4, C_0..C_3 and one for products, never written onto a factor
    _, B, B2, B3, B4, C0, C1, C2, C3, w = buf
    product(B, B, B2)
    product(B2, B, B3)
    product(B2, B2, B4)
    powers = buf.reshape(10, -1)
    np.dot(_TAYLOR_BLOCKS, powers[:4], powers[5:9])
    for high, low in ((C3, C2), (C2, C1), (C1, C0)):
        low += product(high, B4, w)
    F, targets = C0, (w, C1)
    for i in range(s):
        F = product(F, F, targets[i % 2])
    return F[..., 0, :]


def _first_row(zs: list[float], t: float) -> tuple[float, np.ndarray]:
    """(t, x): the first row of one node list, in its given order, anchored
    on its largest node t, or on t - _LOW_ANCHOR where only that makes the
    last entry a normal double."""
    x = _bidiagonal_first_rows(zs, t)
    if x[-1] < sys.float_info.min:
        low = _bidiagonal_first_rows(zs, t - _LOW_ANCHOR)
        if low[-1] >= sys.float_info.min:
            return t - _LOW_ANCHOR, low
    return t, x


def exp_dd(nodes, scale: float = 1.0, method: EvalMethod = EvalMethod.AUTO) -> float:
    """Divided difference of the exponential, exp[s*x_0, ..., s*x_n].

    Repeated nodes are handled confluently (n+1 copies of x give e^x / n!).
    The result is positive for any real nodes.  AUTO reads node spans only:
    clustered nodes take the matrix route, as do four with a tie or a
    near-tie inside a cluster such as [0, a, 2a, 2a + 1e-7].  A `method`
    other than AUTO forces that route.  Raises ValueError for any other
    `method` and unless every scaled node is finite; OverflowError where the
    value overflows, or where x = exp[z - max z] is not a normal double, its
    digits lost to underflow or to a forced route.
    """
    return _times_exp(*_exp_dd_pair(nodes, scale, method))


def _exp_dd_pair(nodes, scale=1.0, method=EvalMethod.AUTO) -> tuple[float, float]:
    """(t, x) with exp[s*x_0, ..., s*x_n] = e^t x by the route `method`
    (AUTO's rule for AUTO): x = exp[z - t] for t the largest scaled node z,
    or lower where the matrix route anchors lower.  ValueError as `exp_dd`
    raises it; OverflowError unless x is a normal double."""
    zs = sorted(_coerce_nodes(nodes, scale))
    return _sorted_pair(zs, _route(zs) if method is EvalMethod.AUTO else method)


def _sorted_pair(zs: list[float], method: EvalMethod) -> tuple[float, float]:
    """`_exp_dd_pair` on sorted, finite nodes by a route already chosen."""
    if method is EvalMethod.RECURRENCE:
        t, x = zs[-1], _recurrence_suffixes(zs)[0]
    elif method is EvalMethod.TAYLOR_MATRIX:
        t, row = _first_row(zs, zs[-1])
        x = float(row[-1])
    else:
        raise ValueError(f"unknown evaluation method: {method!r}")
    if not x >= sys.float_info.min:
        raise OverflowError("exp_dd: exp[z - max z] is not a normal double")
    return t, x


def _exp_dd_suffix_pairs(z: list[float], starts) -> list[tuple[float, float]]:
    """(t, x) with exp[z_i, ..., z_n] = e^t x for each index i < n of
    `starts`, on finite nodes `z`, with the bits of `_exp_dd_pair(z[i:])`.
    Where `z` is non-decreasing, every suffix AUTO sends to the recurrence
    is an entry of one `_recurrence_suffixes` pass on `z`, anchored on the
    top node as its own recurrence is.  A matrix-route suffix, one whose x
    is not a normal double and every suffix of a `z` out of order take
    `_exp_dd_pair`'s own evaluation."""
    if z != sorted(z):
        return [_exp_dd_pair(z[i:]) for i in starts]
    routes = [_route(z[i:]) for i in starts]
    xs = _recurrence_suffixes(z) if EvalMethod.RECURRENCE in routes else []
    pairs = []
    for i, route in zip(starts, routes):
        x = xs[i] if route is EvalMethod.RECURRENCE else 0.0
        pairs.append((z[-1], x) if x >= sys.float_info.min else _sorted_pair(z[i:], route))
    return pairs


def _exp_dd_prefix_pairs(z: list[float]) -> list[tuple[EvalMethod, float, float]]:
    """(route, t, x) with exp[z_0, ..., z_m] = e^t x for m = 1..n, on finite
    nodes `z` in their given order.  Each prefix takes the route AUTO gives
    it alone, and the nested matrix-route prefixes share one `_first_row` on
    the longest; an entry of it that is not a normal double, and every
    recurrence prefix, takes `_exp_dd_pair`'s evaluation by that route.
    Each prefix below `TAYLOR_MIN_ORDER`, the only ones AUTO may send to
    the recurrence, is sorted once for its route and its evaluation."""
    low = [sorted(z[:m + 1]) for m in range(1, min(len(z), TAYLOR_MIN_ORDER))]
    routes = [_route(zs) for zs in low] + [EvalMethod.TAYLOR_MATRIX] * (len(z) - TAYLOR_MIN_ORDER)
    # the highest matrix-route order, found without a scan where an order reaches TAYLOR_MIN_ORDER
    top = len(routes) if len(routes) >= TAYLOR_MIN_ORDER else max(
        (m for m, route in enumerate(routes, 1) if route is EvalMethod.TAYLOR_MATRIX), default=0)
    if top:   # otherwise no prefix reads the row
        head = z[:top + 1]
        t, row = _first_row(head, max(head))
        row = row.tolist()
    pairs = []
    for m, route in enumerate(routes, 1):
        if route is EvalMethod.TAYLOR_MATRIX and sys.float_info.min <= row[m] < math.inf:
            pairs.append((route, t, row[m]))
        else:
            pairs.append((route, *_sorted_pair(low[m - 1] if m <= len(low) else sorted(z[:m + 1]),
                                               route)))
    return pairs


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
    s2 = np.multiply(TAYLOR_MAX_AMPLIFICATION, _min_span(c, 2, span, t, positive=True), out=span)
    taylor = np.multiply(s2, spread, out=s2) < 1.0
    taylor |= (spread < 1.0) & (_min_span(c, 1, span, t, positive=False) < TAYLOR_MIN_GAP)
    return taylor


def _min_span(c, k: int, out, t, positive: bool):
    """Smallest c[i+k] - c[i] on every row into `out`, over the positive
    spans only where `positive` (inf where there is none); `t` is scratch."""
    out[...] = np.inf
    for i in range(len(c) - k):
        span = np.subtract(c[i + k], c[i], out=t)
        if positive:
            span[span <= 0.0] = np.inf
        np.minimum(out, span, out=out)
    return out


def _exp_dd_recurrence_columns(c) -> np.ndarray:
    """The recurrence's x on every row of sorted node columns `c` at once,
    each tableau level written over the one before it: m - 1 columns and a
    scratch column.  Level 1 is `_recurrence_suffixes`'s e^{c_{i+1} - c_n}
    expm1(d) / d, d = c_i - c_{i+1}, bit for bit.  A tie takes
    e^{c_i - c_n} / k! on its rows; a zero span at level k lies over a tie
    at level 1, so levels k >= 2 look for ties only after level 1 found one."""
    m, top = len(c), c[-1]
    if m == 1:
        return np.ones(len(top))
    lev = [np.empty(len(top)) for _ in range(m - 1)]
    t = np.empty(len(top))
    tied = False
    for i, x in enumerate(lev):
        d = np.subtract(c[i], c[i + 1], out=t)
        np.divide(np.expm1(d, out=x), d, out=x)
        tie = d == 0.0
        if i + 2 < m:   # the top pair's factor is e^0
            np.multiply(np.exp(np.subtract(c[i + 1], top, out=t), out=t), x, out=x)
        if tie.any():
            tied = True
            x[tie] = np.exp(c[i][tie] - top[tie])
    fact = 1.0
    for k in range(2, m):
        fact *= k
        for i, x in enumerate(lev[:m - k]):
            span = np.subtract(c[i + k], c[i], out=t)
            np.divide(np.subtract(lev[i + 1], x, out=x), span, out=x)
            if tied:
                tie = span == 0.0
                if tie.any():
                    x[tie] = np.exp(c[i][tie] - top[tie]) / fact
    return lev[0]


def _times_exp_columns(t, x) -> np.ndarray:
    """`_times_exp` on columns, in place on x; call it inside `np.errstate`."""
    e = np.exp(t)
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
    with np.errstate(all="ignore"):
        out = _times_exp_columns(*_exp_dd_column_pairs(z.T))
    if not np.isfinite(out).all():
        raise OverflowError("exp_dd_batch: a value overflows or its x is not a normal double")
    return out


def _exp_dd_column_pairs(c) -> tuple[np.ndarray, np.ndarray]:
    """`_exp_dd_pair` by AUTO's rule on every row of finite node columns `c`,
    read without writing to them: columns t and x, x nan where the scalar
    form raises."""
    c = _sort_columns(c)
    with np.errstate(all="ignore"):
        taylor = _taylor_columns(c)
        # every row takes the recurrence, cheaper than masking the columns
        # when few rows take the matrix method, which overwrites its own rows
        x = _exp_dd_recurrence_columns(c)
        t = c[-1].copy()   # not a view, which would keep the sort buffer alive
        if taylor.any():
            z = np.stack([col[taylor] for col in c], axis=1)
            s = np.array([_squarings(row, row[-1]) for row in z.tolist()])
            rows, top = np.empty(len(z)), t[taylor]
            for sg in np.unique(s):   # each count's rows as one stack
                g = s == sg
                rows[g] = _bidiagonal_first_rows(z[g], z[g, -1:], sg)[:, -1]
            for i in np.flatnonzero(rows < sys.float_info.min):   # high orders
                top[i], row = _first_row(z[i].tolist(), top[i])
                rows[i] = row[-1]
            x[taylor], t[taylor] = rows, top
        x[~(x >= sys.float_info.min)] = np.nan
    return t, x
