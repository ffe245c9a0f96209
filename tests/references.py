"""Reference evaluations the tests share: an mpmath `exp_dd` and the row
kernels that `exp_dd_batch` and `grid_scan` reproduce bit for bit."""

import mpmath as mp
import numpy as np

from gbmdd.divdiff import (
    TAYLOR_MAX_AMPLIFICATION,
    TAYLOR_MIN_GAP_FACTOR,
    TAYLOR_MIN_ORDER,
    TAYLOR_SPREAD_FACTOR,
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


# Row kernels for `exp_dd_batch`, which works on node columns: AUTO's rule
# and the recurrence on whole sorted rows, and the stacked Taylor loop its
# matrix route ran before it shared the scalar first-row kernel, kept
# verbatim.


def _taylor_rows(z: np.ndarray) -> np.ndarray:
    """Row-wise `choose_method` on sorted rows: True where AUTO takes the
    matrix method."""
    n = z.shape[1] - 1
    if n <= 1 or n >= TAYLOR_MIN_ORDER:
        return np.full(len(z), n >= TAYLOR_MIN_ORDER)
    spread = z[:, -1] - z[:, 0]
    scale_bound = 1.0 + np.maximum(np.abs(z[:, 0]), np.abs(z[:, -1]))
    gaps = np.diff(z, axis=1)
    min_gap = np.where(gaps > 0.0, gaps, np.inf).min(axis=1)
    taylor = ((spread < TAYLOR_SPREAD_FACTOR * scale_bound)
              | (min_gap < TAYLOR_MIN_GAP_FACTOR * scale_bound))
    if n == 3:
        spans = z[:, 2:] - z[:, :-2]
        s2 = np.where(spans > 0.0, spans, np.inf).min(axis=1)
        taylor |= scale_bound > TAYLOR_MAX_AMPLIFICATION * s2 * spread
    return taylor


def _exp_dd_recurrence_rows(z: np.ndarray) -> np.ndarray:
    """The recurrence on every sorted row at once: e^{z_n} times the Newton
    tableau of exp(z - z_n), whose first level is e^{z_{i+1} - z_n}
    (-expm1(-g)) / g and whose ties take e^{z_i - z_n} / k!; h x h with
    h = e^{z_n / 2} where e^{z_n} overflows, nan there if the tableau is 0."""
    m = z.shape[1]
    if m == 1:
        return np.exp(z[:, 0])
    top = z[:, -1]
    e = np.exp(z - top[:, None])
    g = np.diff(z, axis=1)
    lev = e[:, 1:] * np.where(g != 0.0, -np.expm1(-g) / g, 1.0)
    fact = 1.0
    for k in range(2, m):
        fact *= k
        span = z[:, k:] - z[:, :-k]
        lev = np.where(span == 0.0, e[:, :-k] / fact, (lev[:, 1:] - lev[:, :-1]) / span)
    h = np.exp(top / 2.0)
    big = np.isinf(np.exp(top)) & (lev[:, 0] > 0.0)
    return np.where(big, h * lev[:, 0] * h, np.exp(top) * lev[:, 0])


def _exp_dd_taylor_matrix_rows(z: np.ndarray) -> np.ndarray:
    """The last entry of `_exp_dd_first_row` on every sorted row, as a stack
    of bidiagonal matrices; rows sharing a squaring count share one Taylor
    loop, which stops once every row in it passes the scalar route's test."""
    K, m = z.shape
    mu = z.mean(axis=1)
    Z = np.zeros((K, m, m))
    idx = np.arange(m)
    Z[:, idx, idx] = z - mu[:, None]
    Z[:, idx[:-1], idx[1:]] = 1.0
    # the superdiagonal ones keep every norm >= 1, above the scalar route's 0.25
    norm = np.abs(Z).sum(axis=1).max(axis=1)
    s = np.ceil(np.log2(norm / 0.25)).astype(int)
    out = np.empty(K)
    for sg in np.unique(s):
        rows = s == sg
        B = Z[rows] / (2.0 ** sg)
        F = np.broadcast_to(np.eye(m), B.shape).copy()
        term = F.copy()
        for k in range(1, 64):
            term = term @ B / k
            F += term
            if (np.abs(term).max(axis=(1, 2)) <= 1e-20 * np.abs(F).max(axis=(1, 2))).all():
                break
        for _ in range(sg):
            F = F @ F
        out[rows] = F[:, 0, -1]
    return np.exp(mu) * out


def _row_exp_dd_batch(nodes):
    """`exp_dd_batch` on sorted rows, through the reference row kernels; a
    value outside the double range comes back inf or nan."""
    z = np.sort(np.asarray(nodes, dtype=float), axis=1)
    out = np.empty(len(z))
    with np.errstate(all="ignore"):
        taylor = _taylor_rows(z)
        out[~taylor] = _exp_dd_recurrence_rows(z[~taylor])
        out[taylor] = _exp_dd_taylor_matrix_rows(z[taylor])
    return out
