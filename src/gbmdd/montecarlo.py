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
Every estimate comes from one reduction: per block, a record (count,
means, centred co-moment matrix) of stacked statistics, merged in block
order (Chan, Golub and LeVeque).  Means are over pair means, an odd
count's last path a unit of its own, so an estimate needs 3 paths; the
correlation is over the paths of its jackknife batches.  An estimate
depends only on (seed, paths, steps, averaging) and the fixed BLOCK_PATHS,
never on the thread count or the order in which blocks finish.  Each call
gives each worker thread one (walk, work) tile pair of at most 2 x
TILE_DRAWS doubles for all its blocks; nothing is kept after the call.
"""

from __future__ import annotations

import functools
import itertools
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
    s_parts, a_parts = zip(*iter_terminal_and_average(p, cfg, threads=threads))
    return np.concatenate(s_parts), np.concatenate(a_parts)


def _record(x: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """(count, means, centred co-moments C[i, j] = sum_u (x[i, u] - mean_i)
    (x[j, u] - mean_j)) of stacked statistic rows over sampling units, the
    columns of `x`.  Centring on the first unit keeps a constant row exact;
    each entry is one row's pairwise sum, whatever rows share the record."""
    d = x - x[:, :1]
    dm = d.mean(axis=1)
    e = d - dm[:, None]
    return x.shape[1], x[:, 0] + dm, (e[:, None] * e).sum(axis=-1)


def _merge(a: tuple, b: tuple) -> tuple[int, np.ndarray, np.ndarray]:
    """Pairwise update of two records (Chan, Golub and LeVeque)."""
    (na, ma, ca), (nb, mb, cb) = a, b
    n, delta = na + nb, mb - ma
    return n, ma + delta * nb / n, ca + cb + np.outer(delta, delta) * na * nb / n


def _block_pass(p: GbmParams, cfg: McConfig, rows, threads: int,
                batches: bool = False) -> tuple[list[McEstimate], list[tuple]]:
    """One pass over the blocks, records merged in block order: the mean
    estimates of the stacked statistics `rows(s_T, a_hat)` over pair units
    and, if `batches`, each correlation batch's record over its paths of
    (S(T), A_hat) less the call's first path, whose means then keep digits
    below an ulp of S.  Batch b holds the pairs [ceil(b q), ceil((b + 1) q)),
    q = (paths // 2) / CORR_BATCHES, and the last an odd count's last path."""
    edges = [2 * -(-b * (cfg.paths // 2) // CORR_BATCHES) for b in range(CORR_BATCHES)]
    edges.append(cfg.paths)
    units, parts, lo = [], [[] for _ in range(CORR_BATCHES)], 0
    for s_T, a_hat in iter_terminal_and_average(p, cfg, threads=threads):
        x, n = np.stack(rows(s_T, a_hat)), len(s_T)
        origin = origin if lo else np.stack((s_T[:1], a_hat[:1]))
        units.append(_record(np.concatenate((0.5 * (x[:, :-1:2] + x[:, 1::2]),
                                             x[:, n - n % 2:]), axis=1)))
        for b in range(CORR_BATCHES) if batches else ():
            i, j = max(edges[b] - lo, 0), min(edges[b + 1] - lo, n)
            if i < j:
                parts[b].append(_record(np.stack((s_T[i:j], a_hat[i:j])) - origin))
        lo += n
    n, mean, c = functools.reduce(_merge, units)
    means = [McEstimate(float(mean[i]), math.sqrt(c[i, i] / (n - 1) / n), cfg.paths)
             for i in range(len(mean))]
    return means, [functools.reduce(_merge, part) for part in parts if part]


def estimate_moment_A(p: GbmParams, cfg: McConfig, m: int, threads: int = 1) -> McEstimate:
    """Sample mean of A_hat^m with standard error.  Carries the quadrature
    discretization bias of the averaging rule, O(1/steps^2) for trapezoid."""
    if m < 0:
        raise ValueError("moment order must be nonnegative")
    means, _ = _block_pass(p, cfg, lambda s_T, a_hat: [a_hat ** m], threads)
    return means[0]


def estimate_payoff(p: GbmParams, cfg: McConfig, payoff, threads: int = 1) -> McEstimate:
    """Discounted sample mean of the Asian payoff with standard error."""
    if not isinstance(payoff, (FloatingStrikeAsianCall, FixedStrikeAsianCall)):
        raise ValueError(f"unknown payoff: {payoff!r}")
    disc = math.exp(-p.r * p.T)
    means, _ = _block_pass(p, cfg, lambda s_T, a_hat: [disc * payoff.values(s_T, a_hat)], threads)
    return means[0]


def _pearson(record: tuple) -> float:
    """The correlation of an (S(T), A_hat) record, clipped to [-1, 1]."""
    _, _, c = record
    if not (c[0, 0] > 0 and c[1, 1] > 0):
        raise ValueError("correlation undefined: S(T) or A_hat takes one float64 value "
                         "on every path; sigma is below the resolution of S")
    return float(np.clip(c[0, 1] / math.sqrt(c[0, 0]) / math.sqrt(c[1, 1]), -1.0, 1.0))


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
    key "moment_A_<m>", last and bit-identical to `estimate_moment_A`; used
    by the CLI cross-check.  The correlation is Pearson's over all paths,
    from the merged records of the CORR_BATCHES batches, so sigma > 0 needs
    2 * CORR_BATCHES paths.  Its stderr is the delete-one-batch jackknife
    sqrt((B - 1) / B sum_b (r_b - mean r)^2), r_b the correlation of the
    record before batch b merged with the record after it."""
    if p.sigma > 0 and cfg.paths < 2 * CORR_BATCHES:
        raise ValueError(f"need at least {2 * CORR_BATCHES} paths for the correlation's "
                         f"{CORR_BATCHES} jackknife batches")
    if m is not None and m < 0:
        raise ValueError("moment order must be nonnegative")
    names = ["mean_S", "mean_A", "second_moment_A", "cross_moment_SA"]
    names += [] if m is None else [f"moment_A_{m}"]

    def rows(s_T, a_hat):
        return [s_T, a_hat, a_hat * a_hat, s_T * a_hat] + ([] if m is None else [a_hat ** m])

    means, batch = _block_pass(p, cfg, rows, threads, batches=p.sigma > 0)
    out = dict(zip(names, means))
    if p.sigma > 0:
        pre = list(itertools.accumulate(batch, _merge))
        suf = list(itertools.accumulate(batch[::-1], lambda a, b: _merge(b, a)))[::-1]
        loo = np.array([_pearson(r) for r in [suf[1], *map(_merge, pre[:-2], suf[2:]), pre[-2]]])
        stderr = math.sqrt((CORR_BATCHES - 1) / CORR_BATCHES * ((loo - loo.mean()) ** 2).sum())
        out["correlation"] = McEstimate(_pearson(pre[-1]), stderr, cfg.paths)
        out.update({name: out.pop(name) for name in names[4:]})  # moment_A_<m> last
    return out
