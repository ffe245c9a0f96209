"""Independent Monte Carlo oracle: simulates exponential Brownian motion
with exact lognormal increments and estimates every analytic quantity with
standard errors.

Reproducibility contract: all uniforms come from one counter-based Philox
stream keyed by the seed, path i owning draws [i*steps, (i+1)*steps).  Each
block of paths advances its own copy of the stream straight to its first
draw, and per-block statistics are merged in block-index order, so an
estimate depends only on (seed, paths, steps, averaging), never on the
thread count or the order in which blocks finish.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterator

import numpy as np
from numpy.random import Generator, Philox

from .moments import GbmParams
from .pricing import normal_inv_cdf

__all__ = [
    "McConfig",
    "McEstimate",
    "FloatingStrikeAsianCall",
    "FixedStrikeAsianCall",
    "simulate_terminal_and_average",
    "iter_terminal_and_average",
    "estimate_moment_A",
    "estimate_correlation",
    "estimate_payoff",
    "estimate_suite",
]

BLOCK_PATHS = 4096   # fixed block size: the reduction tree must not depend on scheduling
# Philox.advance(k) skips 4k draws, so every block start lo*steps must be a multiple of 4
assert BLOCK_PATHS % 4 == 0
CORR_BATCHES = 32    # batch-means batches for nonlinear statistics

_AVERAGING = ("trapezoid", "left-riemann")
_U_LO = 2.0 ** -55
_U_HI = 1.0 - 2.0 ** -53


@dataclass(frozen=True)
class McConfig:
    """Simulation controls: path count, time steps, 64-bit seed, and the
    path-averaging rule (trapezoid has O(1/steps^2) bias, left-riemann
    O(1/steps))."""

    paths: int
    steps: int
    seed: int
    averaging: str = "trapezoid"

    def __post_init__(self):
        if self.paths < 2:
            raise ValueError("need at least 2 paths")
        if self.steps < 1:
            raise ValueError("need at least 1 step")
        if self.averaging not in _AVERAGING:
            raise ValueError(f"averaging must be one of {_AVERAGING}")
        object.__setattr__(self, "seed", int(self.seed) & (2 ** 64 - 1))


@dataclass(frozen=True)
class McEstimate:
    value: float
    stderr: float
    paths_used: int

    def to_dict(self, cfg: McConfig) -> dict:
        return {"value": self.value, "stderr": self.stderr,
                "paths": self.paths_used, "steps": cfg.steps, "seed": cfg.seed}


@dataclass(frozen=True)
class FloatingStrikeAsianCall:
    """Payoff (S(T) - A(T))^+."""


@dataclass(frozen=True)
class FixedStrikeAsianCall:
    """Payoff (A(T) - K)^+."""

    strike: float

    def __post_init__(self):
        if not (math.isfinite(self.strike) and self.strike >= 0):
            raise ValueError("strike must be finite and nonnegative")


def _block_ranges(paths: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + BLOCK_PATHS, paths)) for lo in range(0, paths, BLOCK_PATHS)]


def _block_uniforms(cfg: McConfig, lo: int, hi: int) -> np.ndarray:
    """Uniforms of paths [lo, hi) as rows of cfg.steps draws: draws
    [lo*steps, hi*steps) of the Philox stream keyed by cfg.seed.  `lo` is a
    block start, a multiple of BLOCK_PATHS."""
    bitgen = Philox(key=cfg.seed)
    bitgen.advance(lo * cfg.steps // 4)
    return Generator(bitgen).random((hi - lo, cfg.steps))


def _simulate_block(p: GbmParams, cfg: McConfig, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact-increment simulation of paths [lo, hi): returns (S(T), A_hat)."""
    steps = cfg.steps
    u = _block_uniforms(cfg, lo, hi)
    z = normal_inv_cdf(np.clip(u, _U_LO, _U_HI, out=u))
    dt = p.T / steps
    # in place, one (paths, steps) buffer: increments, then log S, then the
    # grid values S(t_1), ..., S(T); S(0) = 1
    z *= p.sigma * math.sqrt(dt)
    z += (p.r - 0.5 * p.sigma ** 2) * dt
    s_grid = np.exp(np.cumsum(z, axis=1, out=z), out=z)
    s_T = s_grid[:, -1].copy()  # a view would keep the whole block alive
    if cfg.averaging == "trapezoid":
        a_hat = (0.5 + s_grid[:, :-1].sum(axis=1) + 0.5 * s_grid[:, -1]) / steps
    else:
        a_hat = (1.0 + s_grid[:, :-1].sum(axis=1)) / steps
    return s_T, a_hat


def iter_terminal_and_average(p: GbmParams, cfg: McConfig,
                              threads: int = 1) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Stream of per-block (S(T), A_hat) arrays in block order; block
    contents do not depend on the thread count."""
    ranges = _block_ranges(cfg.paths)
    if threads <= 1:
        for lo, hi in ranges:
            yield _simulate_block(p, cfg, lo, hi)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        yield from pool.map(lambda r: _simulate_block(p, cfg, *r), ranges)


def simulate_terminal_and_average(p: GbmParams, cfg: McConfig,
                                  threads: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """All (S(T), A_hat) pairs as two arrays of length cfg.paths."""
    s_parts, a_parts = [], []
    for s_T, a_hat in iter_terminal_and_average(p, cfg, threads=threads):
        s_parts.append(s_T)
        a_parts.append(a_hat)
    return np.concatenate(s_parts), np.concatenate(a_parts)


def _block_stats(x: np.ndarray) -> tuple[int, float, float]:
    """(count, mean, M2) of one block, M2 the sum of squared deviations.
    Centring on the block's first value first makes a constant block exact:
    mean == x[0] and M2 == 0."""
    d = x - x[0]
    dm = d.mean()
    return len(x), float(x[0] + dm), float(((d - dm) ** 2).sum())


def _merge(a: tuple[int, float, float], b: tuple[int, float, float]) -> tuple[int, float, float]:
    """Pairwise update of (count, mean, M2) (Chan, Golub and LeVeque)."""
    na, ma, qa = a
    nb, mb, qb = b
    n = na + nb
    delta = mb - ma
    return n, ma + delta * nb / n, qa + qb + delta * delta * na * nb / n


def _mean_stderr(block_stats: list[tuple[int, float, float]]) -> McEstimate:
    """Merge per-block (count, mean, M2) in block order."""
    n, mean, m2 = functools.reduce(_merge, block_stats)
    return McEstimate(value=mean, stderr=math.sqrt(m2 / (n - 1) / n), paths_used=n)


def estimate_moment_A(p: GbmParams, cfg: McConfig, m: int, threads: int = 1) -> McEstimate:
    """Sample mean of A_hat^m with standard error.  Carries the quadrature
    discretization bias of the averaging rule, O(1/steps^2) for trapezoid."""
    if m < 0:
        raise ValueError("moment order must be nonnegative")
    return _mean_stderr([_block_stats(a_hat ** m) for _, a_hat
                         in iter_terminal_and_average(p, cfg, threads=threads)])


def estimate_payoff(p: GbmParams, cfg: McConfig, payoff, threads: int = 1) -> McEstimate:
    """Discounted sample mean of the Asian payoff with standard error."""
    disc = math.exp(-p.r * p.T)
    stats = []
    for s_T, a_hat in iter_terminal_and_average(p, cfg, threads=threads):
        if isinstance(payoff, FloatingStrikeAsianCall):
            x = disc * np.maximum(s_T - a_hat, 0.0)
        elif isinstance(payoff, FixedStrikeAsianCall):
            x = disc * np.maximum(a_hat - payoff.strike, 0.0)
        else:
            raise ValueError(f"unknown payoff: {payoff!r}")
        stats.append(_block_stats(x))
    return _mean_stderr(stats)


def _pearson(row: np.ndarray) -> float:
    n, ss, sa, sss, saa, ssa = row
    cov = ssa / n - (ss / n) * (sa / n)
    vs = sss / n - (ss / n) ** 2
    va = saa / n - (sa / n) ** 2
    return cov / math.sqrt(vs * va)


def estimate_correlation(p: GbmParams, cfg: McConfig, threads: int = 1) -> McEstimate:
    """Sample Pearson correlation of (S(T), A_hat); the standard error comes
    from batch means over CORR_BATCHES path batches."""
    if p.sigma == 0:
        raise ValueError("correlation undefined for deterministic paths")
    return estimate_suite(p, cfg, threads)["correlation"]


def estimate_suite(p: GbmParams, cfg: McConfig, threads: int = 1) -> dict[str, McEstimate]:
    """One simulation pass estimating mean S(T), mean A, E A^2, E S A and
    (for sigma > 0) the correlation; used by the CLI cross-check.  The
    correlation pools per-batch sums [n, sum S, sum A, sum S^2, sum A^2,
    sum SA], batches assigned by path index, so sigma > 0 needs at least
    2 * CORR_BATCHES paths."""
    if p.sigma > 0 and cfg.paths < 2 * CORR_BATCHES:
        raise ValueError(f"need at least {2 * CORR_BATCHES} paths for batch means")
    acc = np.zeros((CORR_BATCHES, 6))
    stats = {"mean_S": [], "mean_A": [], "second_moment_A": [], "cross_moment_SA": []}
    lo = 0
    for s_T, a_hat in iter_terminal_and_average(p, cfg, threads=threads):
        n = len(s_T)
        batch = (np.arange(lo, lo + n) * CORR_BATCHES) // cfg.paths
        a2 = a_hat * a_hat
        sa = s_T * a_hat
        np.add.at(acc, batch, np.stack([np.ones(n), s_T, a_hat, s_T * s_T, a2, sa], axis=1))
        for block_stats, x in zip(stats.values(), (s_T, a_hat, a2, sa)):
            block_stats.append(_block_stats(x))
        lo += n
    out = {name: _mean_stderr(block_stats) for name, block_stats in stats.items()}
    if p.sigma > 0:
        batch_r = np.array([_pearson(row) for row in acc])
        out["correlation"] = McEstimate(_pearson(acc.sum(axis=0)),
                                        float(batch_r.std(ddof=1)) / math.sqrt(CORR_BATCHES),
                                        cfg.paths)
    return out
