"""Extended-precision references for the benchmark's untimed output checks.

exp[x_0, ..., x_n] is entry (0, n) of the exponential of the upper
bidiagonal matrix with the nodes on its diagonal and ones above it; more
generally entry (i, j) holds exp[x_i, ..., x_j].  mpmath evaluates that
matrix exponential at 50 digits, with no code from gbmdd, so it is an
independent oracle for every divided difference the workloads produce.
The float inputs are taken as exact, so the reference is the true value
for the inputs the program saw.
"""

from __future__ import annotations

import math

import mpmath

DIGITS = 50


def _bidiagonal_expm(nodes):
    n = len(nodes)
    M = mpmath.zeros(n)
    for i, x in enumerate(nodes):
        M[i, i] = x
        if i + 1 < n:
            M[i, i + 1] = 1
    return mpmath.expm(M)


def exp_dd(nodes) -> float:
    """exp[x_0, ..., x_n] for float nodes."""
    with mpmath.workdps(DIGITS):
        E = _bidiagonal_expm([mpmath.mpf(x) for x in nodes])
        return float(E[0, len(nodes) - 1])


def correlation_R(r: float, sigma: float, T: float) -> float:
    """R = exp[rT, 2rT, b] / sqrt(2 exp[2rT, b] exp[0, rT, 2rT, b]),
    b = (2r + sigma^2) T."""
    with mpmath.workdps(DIGITS):
        r, s, T = mpmath.mpf(r), mpmath.mpf(sigma), mpmath.mpf(T)
        E = _bidiagonal_expm([0, r * T, 2 * r * T, (2 * r + s * s) * T])
        return float(E[1, 3] / mpmath.sqrt(2 * E[2, 3] * E[0, 3]))


def moments_A(r: float, sigma: float, T: float, max_m: int) -> list[float]:
    """E A(T)^m = m! exp[b_0 T, ..., b_m T] for m = 0..max_m, with
    b_k = k r + sigma^2 k (k - 1) / 2, all from one matrix exponential."""
    with mpmath.workdps(DIGITS):
        r, s, T = mpmath.mpf(r), mpmath.mpf(sigma), mpmath.mpf(T)
        nodes = [(k * r + s * s * k * (k - 1) / 2) * T for k in range(max_m + 1)]
        E = _bidiagonal_expm(nodes)
        return [float(math.factorial(m) * E[0, m]) for m in range(max_m + 1)]


def s_statistic(r: float, a: float) -> float:
    """S(r, a) = exp[a, 2r, r]^2 / (exp[a, 2r] exp[a, 2r, r, 0])."""
    with mpmath.workdps(DIGITS):
        r, a = mpmath.mpf(r), mpmath.mpf(a)
        E = _bidiagonal_expm([a, 2 * r, r, 0])
        return float(E[0, 2] ** 2 / (E[0, 1] * E[0, 3]))


def rel_err(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref)
