"""Independent Monte Carlo oracle: simulates exponential Brownian motion
with exact lognormal increments and estimates every analytic quantity with
standard errors.

Reproducibility contract: block b of BLOCK_PATHS paths draws its normals
from its own PCG64DXSM stream, seeded by child b of the seed's SeedSequence,
row-major, one row of `steps` normals (numpy's ziggurat `standard_normal`)
per antithetic pair: row i of the block at path lo drives path lo + 2i with
+z and lo + 2i + 1 with -z.  Every mean is taken over pair means, an odd
count's last path a unit of its own, so an estimate needs 3 paths.
Per-block statistics are merged in block-index order, so an estimate depends
only on (seed, paths, steps, averaging) and the fixed BLOCK_PATHS, never on
the thread count or the order in which blocks finish.  Each call gives each
worker thread one (walk, work) tile pair of about 2 x TILE_DRAWS doubles for
all its blocks; nothing is kept after the call.
"""

from __future__ import annotations

import functools
import math
import threading
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
TILE_DRAWS = 2 ** 16  # normals per simulation tile (512 KiB of float64), whole rows at a time

_AVERAGING = ("trapezoid", "left-riemann")


@dataclass(frozen=True)
class McConfig:
    """Simulation controls: path count (at least 3, two sampling units),
    time steps, 64-bit seed, and the path-averaging rule (trapezoid has
    O(1/steps^2) bias, left-riemann O(1/steps))."""

    paths: int
    steps: int
    seed: int
    averaging: str = "trapezoid"

    def __post_init__(self):
        if self.paths < 3:
            raise ValueError("need at least 3 paths")
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
    """Standard normals of paths [lo, hi) of the block starting at `lo`, one
    row of cfg.steps draws per pair, in the order the simulator draws them."""
    return _block_generator(cfg, lo).standard_normal(((hi - lo + 1) // 2, cfg.steps))


def _workspace(cfg: McConfig) -> np.ndarray:
    """One call's (walk, work) tile pair for one worker: whole rows of about
    TILE_DRAWS draws each, no more rows than the call's first block has."""
    tile = min(max(1, TILE_DRAWS // cfg.steps), (min(cfg.paths, BLOCK_PATHS) + 1) // 2)
    return np.empty((2, tile, cfg.steps))


def _simulate_block(p: GbmParams, cfg: McConfig, lo: int, hi: int,
                    buf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact-increment simulation of paths [lo, hi): returns (S(T), A_hat).

    Row i of the block's normals, with running sums C, drives path lo + 2i
    by log S(t_k) = k drift + scale C_k and its mirror by k drift - scale C_k.
    The rows stream through `buf`, the worker's `_workspace`, whole rows at a
    time, filled in stream order; every step below acts on each row alone, so
    the result depends on neither the tile size nor the tiles' old contents."""
    steps = cfg.steps
    gen = _block_generator(cfg, lo)
    dt = p.T / steps
    scale = p.sigma * math.sqrt(dt)
    ramp = np.arange(1, steps + 1) * ((p.r - 0.5 * p.sigma ** 2) * dt)
    rows = (hi - lo + 1) // 2
    # each row's +z path, then its mirror; an odd block drops the last mirror
    s_T, a_hat = np.empty((rows, 2)), np.empty((rows, 2))
    walk, work = buf
    tile = len(walk)
    for t0 in range(0, rows, tile):
        t1 = min(t0 + tile, rows)
        c, w = walk[:t1 - t0], work[:t1 - t0]
        gen.standard_normal(out=c)
        np.cumsum(c, axis=1, out=c)
        c *= scale
        for sign, step in enumerate((np.add, np.subtract)):
            # log S, then S(t_1), ..., S(T) in place; S(0) = 1
            s_grid = np.exp(step(ramp, c, out=w), out=w)
            s_T[t0:t1, sign] = s_grid[:, -1]
            if cfg.averaging == "trapezoid":
                a_hat[t0:t1, sign] = (0.5 + s_grid[:, :-1].sum(axis=1) + 0.5 * s_grid[:, -1]) / steps
            else:
                a_hat[t0:t1, sign] = (1.0 + s_grid[:, :-1].sum(axis=1)) / steps
    return s_T.ravel()[:hi - lo], a_hat.ravel()[:hi - lo]


def iter_terminal_and_average(p: GbmParams, cfg: McConfig,
                              threads: int = 1) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Stream of per-block (S(T), A_hat) arrays in block order; block
    contents do not depend on the thread count.  Runs on at most one worker
    thread per block; raises ValueError unless `threads` >= 1."""
    if threads < 1:
        raise ValueError("threads must be at least 1")
    ranges = _block_ranges(cfg.paths)
    workers = min(threads, len(ranges))
    if workers == 1:
        buf = _workspace(cfg)
        return (_simulate_block(p, cfg, lo, hi, buf) for lo, hi in ranges)
    return _pooled_blocks(p, cfg, ranges, workers)


def _pooled_blocks(p: GbmParams, cfg: McConfig, ranges: list[tuple[int, int]],
                   workers: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    # each worker thread's tile pair, made on its first block, dropped with the call
    tiles = functools.cache(lambda thread: _workspace(cfg))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(lambda r: _simulate_block(p, cfg, *r, tiles(threading.get_ident())),
                            ranges)


def simulate_terminal_and_average(p: GbmParams, cfg: McConfig,
                                  threads: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """All (S(T), A_hat) pairs as two arrays of length cfg.paths."""
    s_parts, a_parts = [], []
    for s_T, a_hat in iter_terminal_and_average(p, cfg, threads=threads):
        s_parts.append(s_T)
        a_parts.append(a_hat)
    return np.concatenate(s_parts), np.concatenate(a_parts)


def _block_stats(x: np.ndarray) -> tuple[int, float, float]:
    """(count, mean, M2) over the sampling units of one block's per-path
    values: the pair means, and the last path alone when the count is odd.
    M2 is the sum of squared deviations; centring on the first unit makes a
    constant block exact: mean == x[0] and M2 == 0."""
    x = np.concatenate((0.5 * (x[:-1:2] + x[1::2]), x[len(x) - len(x) % 2:]))
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


def _mean_stderr(block_stats: list[tuple[int, float, float]], paths: int) -> McEstimate:
    """Merge per-block (count, mean, M2) in block order."""
    n, mean, m2 = functools.reduce(_merge, block_stats)
    return McEstimate(value=mean, stderr=math.sqrt(m2 / (n - 1) / n), paths_used=paths)


def _path_mean(p: GbmParams, cfg: McConfig, f, threads: int) -> McEstimate:
    """Sample mean of f(S(T), A_hat) over all paths with standard error."""
    return _mean_stderr([_block_stats(f(s_T, a_hat)) for s_T, a_hat
                         in iter_terminal_and_average(p, cfg, threads=threads)], cfg.paths)


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


def estimate_suite(p: GbmParams, cfg: McConfig, threads: int = 1,
                   m: int | None = None) -> dict[str, McEstimate]:
    """One simulation pass estimating mean S(T), mean A, E A^2, E S A,
    (for sigma > 0) the correlation and, when `m` is given, E A^m under the
    key "moment_A_<m>", bit-identical to `estimate_moment_A`; used by the
    CLI cross-check.  The correlation pools per-batch sums [n, sum S, sum A,
    sum S^2, sum A^2, sum SA] over paths; batch b holds the antithetic pairs
    [ceil(b q), ceil((b + 1) q)), q = (paths // 2) / CORR_BATCHES, and the
    last batch also an odd count's last path, so sigma > 0 needs at least
    2 * CORR_BATCHES paths."""
    if p.sigma > 0 and cfg.paths < 2 * CORR_BATCHES:
        raise ValueError(f"need at least {2 * CORR_BATCHES} paths for batch means")
    if m is not None and m < 0:
        raise ValueError("moment order must be nonnegative")
    # the first path of each batch, and the path count
    edges = np.append(2 * -(-np.arange(CORR_BATCHES) * (cfg.paths // 2) // CORR_BATCHES), cfg.paths)
    acc = np.zeros((CORR_BATCHES, 6))
    stats = {"mean_S": [], "mean_A": [], "second_moment_A": [], "cross_moment_SA": []}
    moment_stats = []
    lo = 0
    for s_T, a_hat in iter_terminal_and_average(p, cfg, threads=threads):
        hi = lo + len(s_T)
        a2 = a_hat * a_hat
        sa = s_T * a_hat
        if p.sigma > 0:
            # batches b0 .. b1 - 1 meet this block, each in one contiguous slice
            b0, b1 = np.searchsorted(edges, lo, side="right") - 1, np.searchsorted(edges, hi)
            cut = np.clip(edges[b0:b1 + 1], lo, hi) - lo
            batches = acc[b0:b1]
            batches[:, 0] += np.diff(cut)
            for k, x in enumerate((s_T, a_hat, s_T * s_T, a2, sa), 1):
                batches[:, k] += np.add.reduceat(x, cut[:-1])
        for block_stats, x in zip(stats.values(), (s_T, a_hat, a2, sa)):
            block_stats.append(_block_stats(x))
        if m is not None:
            moment_stats.append(_block_stats(a_hat ** m))
        lo = hi
    out = {name: _mean_stderr(block_stats, cfg.paths) for name, block_stats in stats.items()}
    if p.sigma > 0:
        batch_r = np.array([_pearson(row) for row in acc])
        out["correlation"] = McEstimate(_pearson(acc.sum(axis=0)),
                                        float(batch_r.std(ddof=1)) / math.sqrt(CORR_BATCHES),
                                        cfg.paths)
    if m is not None:
        out[f"moment_A_{m}"] = _mean_stderr(moment_stats, cfg.paths)
    return out
