"""Independent Monte Carlo oracle: simulates exponential Brownian motion
with exact lognormal increments and estimates every analytic quantity with
standard errors.

Reproducibility contract: block b of BLOCK_PATHS paths draws its normals
from its own PCG64DXSM stream, seeded by child b of the seed's SeedSequence,
row-major, one row of `steps` normals per path (numpy's ziggurat
`standard_normal`).  Per-block statistics are merged in block-index order,
so an estimate depends only on (seed, paths, steps, averaging) and the fixed
BLOCK_PATHS, never on the thread count or the order in which blocks finish.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterator

import numpy as np
from numpy.random import PCG64DXSM, Generator, SeedSequence

from .moments import GbmParams

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

BLOCK_PATHS = 4096   # fixed block size: part of the stream layout and the reduction tree
CORR_BATCHES = 32    # batch-means batches for nonlinear statistics
TILE_DRAWS = 2 ** 16  # normals per simulation tile (512 KiB of float64), whole paths at a time

_AVERAGING = ("trapezoid", "left-riemann")


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

    def values(self, s_T: np.ndarray, a_hat: np.ndarray) -> np.ndarray:
        return np.maximum(s_T - a_hat, 0.0)


@dataclass(frozen=True)
class FixedStrikeAsianCall:
    """Payoff (A(T) - K)^+."""

    strike: float

    def __post_init__(self):
        if not (math.isfinite(self.strike) and self.strike >= 0):
            raise ValueError("strike must be finite and nonnegative")

    def values(self, s_T: np.ndarray, a_hat: np.ndarray) -> np.ndarray:
        return np.maximum(a_hat - self.strike, 0.0)


def _block_ranges(paths: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + BLOCK_PATHS, paths)) for lo in range(0, paths, BLOCK_PATHS)]


def _block_generator(cfg: McConfig, lo: int) -> Generator:
    """The stream of the block starting at path `lo` (a multiple of
    BLOCK_PATHS): PCG64DXSM seeded by child b = lo // BLOCK_PATHS of
    SeedSequence(cfg.seed), the child `.spawn` would give as its b-th."""
    return Generator(PCG64DXSM(SeedSequence(cfg.seed, spawn_key=(lo // BLOCK_PATHS,))))


def _block_normals(cfg: McConfig, lo: int, hi: int) -> np.ndarray:
    """Standard normals of paths [lo, hi) of the block starting at `lo`, as
    rows of cfg.steps draws, in the order the simulator draws them."""
    return _block_generator(cfg, lo).standard_normal((hi - lo, cfg.steps))


def _simulate_block(p: GbmParams, cfg: McConfig, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact-increment simulation of paths [lo, hi): returns (S(T), A_hat).

    The block's normals stream through one reused tile of about TILE_DRAWS
    draws, whole paths at a time, filled in stream order; every step below
    acts on each row alone, so the result does not depend on the tile size."""
    steps = cfg.steps
    gen = _block_generator(cfg, lo)
    dt = p.T / steps
    scale = p.sigma * math.sqrt(dt)
    drift = (p.r - 0.5 * p.sigma ** 2) * dt
    s_T = np.empty(hi - lo)
    a_hat = np.empty(hi - lo)
    buf = np.empty((min(max(1, TILE_DRAWS // steps), hi - lo), steps))
    for t0 in range(0, hi - lo, len(buf)):
        t1 = min(t0 + len(buf), hi - lo)
        # in place: normals, increments, log S, then S(t_1), ..., S(T); S(0) = 1
        z = buf[:t1 - t0]
        gen.standard_normal(out=z)
        z *= scale
        z += drift
        s_grid = np.exp(np.cumsum(z, axis=1, out=z), out=z)
        s_T[t0:t1] = s_grid[:, -1]
        if cfg.averaging == "trapezoid":
            a_hat[t0:t1] = (0.5 + s_grid[:, :-1].sum(axis=1) + 0.5 * s_grid[:, -1]) / steps
        else:
            a_hat[t0:t1] = (1.0 + s_grid[:, :-1].sum(axis=1)) / steps
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


def _path_mean(p: GbmParams, cfg: McConfig, f, threads: int) -> McEstimate:
    """Sample mean of f(S(T), A_hat) over all paths with standard error."""
    return _mean_stderr([_block_stats(f(s_T, a_hat)) for s_T, a_hat
                         in iter_terminal_and_average(p, cfg, threads=threads)])


def estimate_moment_A(p: GbmParams, cfg: McConfig, m: int, threads: int = 1) -> McEstimate:
    """Sample mean of A_hat^m with standard error.  Carries the quadrature
    discretization bias of the averaging rule, O(1/steps^2) for trapezoid."""
    if m < 0:
        raise ValueError("moment order must be nonnegative")
    return _path_mean(p, cfg, lambda s_T, a_hat: a_hat ** m, threads)


def estimate_payoff(p: GbmParams, cfg: McConfig, payoff, threads: int = 1) -> McEstimate:
    """Discounted sample mean of the Asian payoff with standard error."""
    if not isinstance(payoff, (FloatingStrikeAsianCall, FixedStrikeAsianCall)):
        raise ValueError(f"unknown payoff: {payoff!r}")
    disc = math.exp(-p.r * p.T)
    return _path_mean(p, cfg, lambda s_T, a_hat: disc * payoff.values(s_T, a_hat), threads)


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
