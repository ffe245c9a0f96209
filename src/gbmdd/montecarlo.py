"""Independent Monte Carlo oracle: simulates exponential Brownian motion
with exact lognormal increments and estimates every analytic quantity with
standard errors.

Reproducibility contract: block b of BLOCK_PATHS paths draws its normals
from its own PCG64DXSM stream, seeded by child b of the seed's SeedSequence,
with numpy's ziggurat `standard_normal`, step-major: the block's antithetic
pairs are one panel, and each step draws one row of PANEL normals, whose
column i drives path lo + 2i with +z and lo + 2i + 1 with -z.  A partial
block, only ever a call's last, draws full rows and uses their first
columns, so a call draws fewer than PANEL x steps normals it does not use.
Every mean is taken over pair means, an odd count's last path a unit of its
own, so an estimate needs 3 paths.  Per-block statistics are merged in
block-index order, so an estimate depends only on (seed, paths, steps,
averaging) and the fixed BLOCK_PATHS, never on the thread count or the
order in which blocks finish.  Each call gives each worker thread one
(walk, work) tile pair of at most 2 x TILE_DRAWS doubles for all its
blocks; nothing is kept after the call.
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
CORR_BATCHES = 32    # jackknife batches for the correlation
PANEL = BLOCK_PATHS // 2  # pairs per step-major panel: a full block's pairs
TILE_DRAWS = 2 ** 16  # normals per simulation tile (512 KiB of float64), whole panel rows at a time

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
    """Standard normals of paths [lo, hi) of the block starting at `lo`, as
    the simulator draws them: row k holds step k + 1's normals of the
    block's pairs, taken from full PANEL-wide rows, one row at a time."""
    gen, pairs = _block_generator(cfg, lo), (hi - lo + 1) // 2
    return np.stack([gen.standard_normal(PANEL)[:pairs] for _ in range(cfg.steps)])


def _workspace(cfg: McConfig) -> np.ndarray:
    """One call's (walk, work) tile pair for one worker: up to
    TILE_DRAWS // PANEL steps of a panel each, no more steps than a path has."""
    return np.empty((2, min(TILE_DRAWS // PANEL, cfg.steps), PANEL))


def _simulate_block(p: GbmParams, cfg: McConfig, lo: int, hi: int,
                    buf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact-increment simulation of paths [lo, hi): returns (S(T), A_hat).

    The block's pairs are one panel, drawn step-major: with W_k = scale
    (z_1 + ... + z_k) the running sum of column i's scaled normals, pair i
    drives path lo + 2i by log S(t_k) = k drift + W_k and its mirror by
    k drift - W_k.  The steps stream through `buf`, the worker's
    `_workspace`, a tile of whole PANEL-wide rows at a time, filled in
    stream order; the running sum takes one add per step, carried from tile
    to tile.  Every step below acts on each column alone and in step order,
    on all PANEL columns however few the block uses, so the result depends
    on neither the tile size, nor the tiles' old contents, nor the block's
    path count."""
    steps = cfg.steps
    gen = _block_generator(cfg, lo)
    dt = p.T / steps
    scale = p.sigma * math.sqrt(dt)
    ramp = (np.arange(1, steps + 1) * ((p.r - 0.5 * p.sigma ** 2) * dt))[:, None]
    # the +z paths, then their mirrors.  a_hat holds the running sums of
    # S(0) / 2 (trapezoid) or S(0), and the S(t_k) before the last step;
    # S(0) = 1
    s_T, a_hat = np.empty((2, PANEL)), np.empty((2, PANEL))
    a_hat.fill(0.5 if cfg.averaging == "trapezoid" else 1.0)
    carry = np.zeros(PANEL)
    walk, work = buf
    tile = len(walk)
    for s0 in range(0, steps, tile):
        k = min(tile, steps - s0)
        z, w = walk[:k], work[:k]
        gen.standard_normal(out=z)
        z *= scale
        np.add(carry, z[0], out=z[0])
        for i in range(1, k):
            np.add(z[i - 1], z[i], out=z[i])
        carry[:] = z[-1]
        last = s0 + k == steps
        head = k - 1 if last else k
        for sign, step in enumerate((np.add, np.subtract)):
            np.exp(step(ramp[s0:s0 + k], z, out=w), out=w)
            if head:
                w[0] += a_hat[sign]
                np.sum(w[:head], axis=0, out=a_hat[sign])
            if last:
                s_T[sign] = w[-1]
    if cfg.averaging == "trapezoid":
        a_hat += 0.5 * s_T
    a_hat /= steps
    # path lo + 2i is pair i's +z path, lo + 2i + 1 its mirror
    return s_T.T.ravel()[:hi - lo], a_hat.T.ravel()[:hi - lo]


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
    """Sample Pearson correlation of (S(T), A_hat); the standard error is
    the delete-one-batch jackknife over CORR_BATCHES path batches."""
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
    2 * CORR_BATCHES paths.  Its stderr is the delete-one-batch jackknife:
    sqrt((B - 1) / B sum_b (r_b - mean r)^2), r_b the correlation of every
    batch but b."""
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
        total = acc.sum(axis=0)
        loo = np.array([_pearson(total - row) for row in acc])
        stderr = math.sqrt((CORR_BATCHES - 1) / CORR_BATCHES * ((loo - loo.mean()) ** 2).sum())
        out["correlation"] = McEstimate(_pearson(total), stderr, cfg.paths)
    if m is not None:
        out[f"moment_A_{m}"] = _mean_stderr(moment_stats, cfg.paths)
    return out
