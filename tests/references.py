"""Reference evaluations the tests share: an mpmath `exp_dd`, the textbook
E A(T)^2 on mpmath, the recurrence's level-list tableau, the matrix route's
first row and scaling step, and the row kernels whose (t, x) pairs
`exp_dd_batch` and `grid_scan` reproduce bit for bit."""

import math
import sys

import mpmath as mp
import numpy as np

from gbmdd.divdiff import (
    _LOW_ANCHOR,
    TAYLOR_MAX_AMPLIFICATION,
    TAYLOR_MIN_GAP,
    TAYLOR_MIN_ORDER,
    TAYLOR_MIN_SPREAD,
)


def mp_exp_dd(nodes) -> mp.mpf:
    """exp[x_0..x_n] at the working precision, and at least 50 digits.

    The Newton sum sum_i e^{x_i} / prod_{j != i} (x_i - x_j), with n digits
    more per decade of the smallest gap below 1 for its cancellation.  The
    k-th copy of a tied node moves up by k h, h the least of 1e-40 and 1e-10
    of each distinct gap, so the copies stay below the next node; where a
    copy moves, at enough digits to hold h next to the largest node.
    d log exp[x] / dx_i lies in (0, 1), so that moves the value by under
    n^2 1e-40 relative.  Without a tie the exponentials of wide nodes keep
    the working precision: mp.exp(-1e300) is about 900x slower at 360
    digits than at 101.
    """
    with mp.workdps(max(mp.mp.dps, 50)):
        z = sorted(mp.mpf(x) for x in nodes)
        n = len(z) - 1
        h = min([mp.mpf(10) ** -40] + [(b - a) / 10 ** 10 for a, b in zip(z, z[1:]) if b != a])
        tied = any(a == b for a, b in zip(z, z[1:]))
        top = max(abs(z[0]), abs(z[-1])) if tied else 0
        with mp.extradps(int(-mp.log10(h)) + 1 + int(mp.log10(1 + top))):
            z = sorted(x + z[:i].count(x) * h for i, x in enumerate(z))
            gap = min((b - a for a, b in zip(z, z[1:])), default=mp.mpf(1))
            with mp.extradps(n * max(0, int(-mp.log10(gap)) + 1)):
                return mp.fsum(mp.exp(zi) / mp.fprod(zi - zj for j, zj in enumerate(z) if j != i)
                                for i, zi in enumerate(z))


def mp_hull_second_moment(p) -> mp.mpf:
    """E A(T)^2 at 50 digits by the textbook two-term expression

        2 e^{(2r + s) T} / ((r + s)(2r + s) T^2)
            + 2 / (r T^2) (1 / (2r + s) - e^{rT} / (r + s)),   s = sigma^2,

    singular at r = 0, r + s = 0 and 2r + s = 0.  Its terms cancel about
    -log10(rT (r + s) T) digits as rT -> 0."""
    with mp.workdps(50):
        r, s, T = mp.mpf(p.r), mp.mpf(p.sigma) ** 2, mp.mpf(p.T)
        term1 = 2 * mp.exp((2 * r + s) * T) / ((r + s) * (2 * r + s) * T * T)
        term2 = 2 / (r * T * T) * (1 / (2 * r + s) - mp.exp(r * T) / (r + s))
        return term1 + term2


def recurrence_tableau(zs: list[float]) -> list[list[float]]:
    """The confluent recurrence on sorted nodes, one new list per level:
    level k - 1 holds x = exp[z_i - z_n, ..., z_{i+k} - z_n] for
    i = 0..n-k, the divided-difference tableau of exp(z - z_n) for orders
    k = 1..n.  First-order entries use exp[z, z+g] = e^{z+g} (-expm1(-g))/g;
    a tie takes e^{z_i - z_n} / k!.  `divdiff._recurrence_suffixes` reads
    the last entry of each level from one pass written in place."""
    n, top = len(zs), zs[-1]
    lev = [math.exp(b - top) * (-math.expm1(a - b) / (b - a) if b != a else 1.0)
           for a, b in zip(zs, zs[1:])]
    levels = [lev]
    fact = 1.0
    for k in range(2, n):
        fact *= k
        lev = [math.exp(zs[i] - top) / fact if zs[i + k] == zs[i]
               else (lev[i + 1] - lev[i]) / (zs[i + k] - zs[i]) for i in range(n - k)]
        levels.append(lev)
    return levels


# Reference kernels: the matrix route's first row by the same
# Paterson-Stockmeyer evaluation as the shared kernel, written as plain
# allocating expressions with its own norm, which the kernel reproduces bit
# for bit; the scaling step every route ends in; and for `exp_dd_batch`,
# which works on node columns, AUTO's rule and the recurrence on whole
# sorted rows.

TAYLOR_BLOCKS = np.array([[1.0 / math.factorial(4 * j + i) for i in range(4)] for j in range(4)])


def bidiagonal(z: np.ndarray, t) -> np.ndarray:
    """Z, upper bidiagonal with z - t on its diagonal and ones above it, for
    one node set (m,) or a stack (K, m) with t of shape (K, 1)."""
    *stack, m = z.shape
    Z = np.zeros((*stack, m, m))
    idx = np.arange(m)
    Z[..., idx, idx] = z - t
    Z[..., idx[:-1], idx[1:]] = 1.0
    return Z


def squarings(Z: np.ndarray) -> int:
    """The least s >= 0 with the largest column sum of |Z| / 2^s <= 1/4."""
    norm = float(np.abs(Z).sum(axis=0).max())
    return max(0, math.ceil(math.log2(norm / 0.25))) if norm > 0.25 else 0


def first_rows(z: np.ndarray, t, s=None) -> np.ndarray:
    """exp[z_0 - t, ..., z_j - t] for j = 0..m-1: the first row of exp(Z)
    for Z = `bidiagonal(z, t)`, by scaling and squaring of the degree-15
    Taylor polynomial in B = Z / 2^s, sum_j C_j (B^4)^j with
    C_j = sum_i B^i / (4j + i)!, by Horner's rule in B^4.  One node set
    (m,) with a float t computes its own squaring count s; a stack (K, m)
    with t of shape (K, 1) shares s."""
    Z = bidiagonal(z, t)
    if s is None:
        s = squarings(Z)
    B = Z / (2.0 ** s)
    B2 = B @ B
    B4 = B2 @ B2
    powers = np.stack([np.broadcast_to(np.eye(z.shape[-1]), B.shape), B, B2, B2 @ B])
    C = (TAYLOR_BLOCKS @ powers.reshape(4, -1)).reshape(4, *B.shape)
    F = C[3]
    for j in (2, 1, 0):
        F = F @ B4 + C[j]
    with np.errstate(over="ignore", invalid="ignore"):   # a centre below the largest node
        for _ in range(s):
            F = F @ F
    return F[..., 0, :]


def times_exp(t: float, x: float) -> float:
    """e^t x, as h x h with h = e^{t / 2} where e^t overflows; OverflowError
    where x is not a normal double or the value overflows."""
    x = float(x)
    if not x >= sys.float_info.min:
        raise OverflowError("x is not a normal double")
    try:
        value = math.exp(t) * x
    except OverflowError:
        value = math.exp(t / 2.0) * x * math.exp(t / 2.0)
    if value == math.inf:
        raise OverflowError("the value overflows")
    return value


def _taylor_rows(z: np.ndarray) -> np.ndarray:
    """Row-wise `choose_method` on sorted rows: True where AUTO takes the
    matrix method."""
    n = z.shape[1] - 1
    if n <= 1 or n >= TAYLOR_MIN_ORDER:
        return np.full(len(z), n >= TAYLOR_MIN_ORDER)
    spread = z[:, -1] - z[:, 0]
    if n == 2:
        return spread < TAYLOR_MIN_SPREAD
    spans = z[:, 2:] - z[:, :-2]
    s2 = np.where(spans > 0.0, spans, np.inf).min(axis=1)
    min_gap = np.diff(z, axis=1).min(axis=1)
    return (TAYLOR_MAX_AMPLIFICATION * s2 * spread < 1.0) | ((spread < 1.0) & (min_gap < TAYLOR_MIN_GAP))


def _recurrence_rows(z: np.ndarray) -> np.ndarray:
    """The recurrence's x = exp[z - z_n] on every sorted row at once: the
    Newton tableau of exp(z - z_n), whose first level is e^{z_{i+1} - z_n}
    (-expm1(-g)) / g and whose ties take e^{z_i - z_n} / k!."""
    m = z.shape[1]
    if m == 1:
        return np.ones(len(z))
    e = np.exp(z - z[:, -1:])
    g = np.diff(z, axis=1)
    lev = e[:, 1:] * np.where(g != 0.0, -np.expm1(-g) / g, 1.0)
    fact = 1.0
    for k in range(2, m):
        fact *= k
        span = z[:, k:] - z[:, :-k]
        lev = np.where(span == 0.0, e[:, :-k] / fact, (lev[:, 1:] - lev[:, :-1]) / span)
    return lev[:, 0]


def anchored_first_row(z: np.ndarray, t: float):
    """(t, row): `first_rows` of one node set anchored on its largest node
    t, or on t - 700 where only that makes the row's last entry a normal
    double."""
    row = first_rows(z, t)
    if row[-1] < sys.float_info.min:
        low = first_rows(z, t - _LOW_ANCHOR)
        if low[-1] >= sys.float_info.min:
            return t - _LOW_ANCHOR, low
    return t, row


def _matrix_rows(z: np.ndarray):
    """(t, x) of the matrix route on every sorted row: rows that share a
    squaring count share one `first_rows` stack anchored on their largest
    nodes, and a row whose x is not a normal double takes
    `anchored_first_row`."""
    t = z[:, -1].copy()
    s = np.array([squarings(bidiagonal(row, row[-1])) for row in z])
    x = np.empty(len(z))
    for sg in np.unique(s):
        rows = s == sg
        x[rows] = first_rows(z[rows], z[rows, -1:], sg)[:, -1]
    for i in np.flatnonzero(x < sys.float_info.min):
        t[i], row = anchored_first_row(z[i], t[i])
        x[i] = row[-1]
    return t, x


def _row_exp_dd_pairs(nodes):
    """(t, x) of every row of `nodes`, through the reference row kernels on
    the sorted rows: x = exp[z - t] by each row's route, nan where it is not
    a normal double."""
    z = np.sort(np.asarray(nodes, dtype=float), axis=1)
    x = np.empty(len(z))
    t = z[:, -1].copy()
    with np.errstate(all="ignore"):
        taylor = _taylor_rows(z)
        x[~taylor] = _recurrence_rows(z[~taylor])
        if taylor.any():
            t[taylor], x[taylor] = _matrix_rows(z[taylor])
    return t, np.where(x >= sys.float_info.min, x, np.nan)


def _row_exp_dd_batch(nodes):
    """`exp_dd_batch` through the reference row kernels: e^t x of every
    row's pair, h x h with h = e^{t / 2} where e^t overflows; inf where the
    value overflows, nan where x is not a normal double."""
    t, x = _row_exp_dd_pairs(nodes)
    with np.errstate(all="ignore"):
        h = np.exp(t / 2.0)
        return np.where(np.isinf(np.exp(t)), h * x * h, np.exp(t) * x)


def _row_log_s(nodes):
    """log S on rows [a, 2r, r, 0] from the reference pairs of their first
    three, first two and four nodes: 2 t_n - t_1 - t_2 + log(x_n / x_1 * (x_n / x_2))."""
    (tn, xn), (t1, x1), (t2, x2) = (_row_exp_dd_pairs(nodes[:, :k]) for k in (3, 2, 4))
    with np.errstate(all="ignore"):
        return 2.0 * tn - t1 - t2 + np.log(xn / x1 * (xn / x2))
