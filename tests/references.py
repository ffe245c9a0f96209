"""Reference evaluations the tests share: an mpmath `exp_dd`, the matrix
route's first row and scaling step, and the row kernels that
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

    Distinct nodes take the Newton sum sum_i e^{x_i} / prod_{j != i} (x_i - x_j),
    with n digits more per decade of the smallest gap below 1 for its
    cancellation; nodes with a tie take entry (0, n) of the exponential of
    the upper bidiagonal matrix with the sorted nodes on its diagonal.
    """
    with mp.workdps(max(mp.mp.dps, 50)):
        z = sorted(mp.mpf(x) for x in nodes)
        n = len(z) - 1
        gap = min((b - a for a, b in zip(z, z[1:])), default=mp.mpf(1))
        if gap == 0:
            M = mp.zeros(n + 1)
            for i, x in enumerate(z):
                M[i, i] = x
                if i < n:
                    M[i, i + 1] = 1
            return mp.expm(M)[0, n]
        with mp.extradps(n * max(0, int(-mp.log10(gap)) + 1)):
            return mp.fsum(mp.exp(zi) / mp.fprod(zi - zj for j, zj in enumerate(z) if j != i)
                           for i, zi in enumerate(z))


# Reference kernels: the matrix route's first row as one self-contained
# Taylor loop, which the shared kernel reproduces bit for bit, the scaling
# step every route ends in, and for `exp_dd_batch`, which works on node
# columns, AUTO's rule and the recurrence on whole sorted rows.


def first_rows(z: np.ndarray, t, s=None) -> np.ndarray:
    """exp[z_0 - t, ..., z_j - t] for j = 0..m-1: the first row of exp(Z),
    Z upper bidiagonal with z - t on its diagonal and ones above it, by
    scaling and squaring of a truncated Taylor series tested at every step.
    One node set (m,) with a float t computes its own squaring count s; a
    stack (K, m) with t of shape (K, 1) shares s and stops once every row
    passes the test."""
    *stack, m = z.shape
    Z = np.zeros((*stack, m, m))
    idx = np.arange(m)
    Z[..., idx, idx] = z - t
    Z[..., idx[:-1], idx[1:]] = 1.0
    if s is None:
        norm = float(np.abs(Z).sum(axis=0).max())
        s = max(0, math.ceil(math.log2(norm / 0.25))) if norm > 0.25 else 0
    B = Z / (2.0 ** s)
    F = np.broadcast_to(np.eye(m), B.shape).copy()
    term = F.copy()
    for k in range(1, 64):
        term = term @ B / k
        F = F + term
        if (np.abs(term).max(axis=(-2, -1)) <= 1e-20 * np.abs(F).max(axis=(-2, -1))).all():
            break
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
    gaps = np.diff(z, axis=1)
    min_gap = np.where(gaps > 0.0, gaps, np.inf).min(axis=1)
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
    Z = z[:, -1:] - z
    # the largest column sum of |Z|: the superdiagonal ones keep it >= 1
    norm = np.maximum(Z[:, 0], 1.0 + Z[:, 1:].max(axis=1))
    s = np.ceil(np.log2(norm / 0.25)).astype(int)
    x = np.empty(len(z))
    for sg in np.unique(s):
        rows = s == sg
        x[rows] = first_rows(z[rows], z[rows, -1:], sg)[:, -1]
    for i in np.flatnonzero(x < sys.float_info.min):
        t[i], row = anchored_first_row(z[i], t[i])
        x[i] = row[-1]
    return t, x


def _row_exp_dd_batch(nodes):
    """`exp_dd_batch` on sorted rows, through the reference row kernels: t
    and x by each row's route, then e^t x, h x h with h = e^{t / 2} where
    e^t overflows; inf where the value overflows, nan where x is not a
    normal double."""
    z = np.sort(np.asarray(nodes, dtype=float), axis=1)
    x = np.empty(len(z))
    t = z[:, -1].copy()
    with np.errstate(all="ignore"):
        taylor = _taylor_rows(z)
        x[~taylor] = _recurrence_rows(z[~taylor])
        if taylor.any():
            t[taylor], x[taylor] = _matrix_rows(z[taylor])
        h = np.exp(t / 2.0)
        value = np.where(np.isinf(np.exp(t)), h * x * h, np.exp(t) * x)
    return np.where(x >= sys.float_info.min, value, np.nan)
