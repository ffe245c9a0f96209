"""Independent Monte Carlo oracle: simulates exponential Brownian motion
with exact lognormal increments and estimates every analytic quantity with
standard errors.

Reproducibility contract: block b of BLOCK_PATHS paths draws its uniforms
from its own PCG64DXSM stream, seeded by child b of the seed's SeedSequence,
step-major: the block's antithetic pairs are one panel, and each step takes
one row of PANEL normals, whose column i drives path lo + 2i with +z and
lo + 2i + 1 with -z; a call's last block may use only the first columns.
The steps run in tiles of min(TILE_DRAWS // PANEL - 1, steps) rows, and
`_fill_normals` maps each tile's uniforms to normals by Box and Muller, one
uniform per normal: the first half of the tile's uniforms gives the radii
and the second half the angles, so the normal pairs form within a tile
and TILE_DRAWS is part of the stream layout, as BLOCK_PATHS is.  The law
is cut at |z| = 8.5717.  Every estimate comes from one reduction: per
block, a record (count, means, centred co-moment matrix) of stacked
statistics, merged in block order (Chan, Golub and LeVeque).  Means are
over pair means, an odd count's last path a unit of its own, so an
estimate needs 3 paths; the correlation is over the paths of its jackknife
batches.  An estimate depends only on (seed, paths, steps, averaging) and
the fixed BLOCK_PATHS and TILE_DRAWS, never on the thread count or the
order in which blocks finish; its last bits may differ between numpy's
SIMD dispatch levels, whose exp, log and tan round differently.  Each call
gives each worker thread one 64-byte aligned (walk, work) tile pair of at
most 2 x TILE_DRAWS doubles, whose placement changes no bit; nothing is
kept after the call.
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

from .moments import GbmParams, _index, _order, _sigma2

__all__ = [
    "McConfig",
    "McEstimate",
    "FloatingStrikeAsianCall",
    "FixedStrikeAsianCall",
    "iter_terminal_and_average",
    "estimate_moment_A",
    "estimate_payoff",
    "estimate_suite",
]

BLOCK_PATHS = 4096   # fixed block size: part of the stream layout and the reduction tree
CORR_BATCHES = 32    # jackknife batches for the correlation
PANEL = BLOCK_PATHS // 2  # pairs per step-major panel: a full block's pairs
TILE_DRAWS = 2 ** 16  # doubles per simulation tile (512 KiB), whole panel rows: part of the stream layout

_AVERAGING = ("trapezoid", "left-riemann")
_OVERFLOW = "Monte Carlo paths, statistics or their co-moments outside float64 range"


@dataclass(frozen=True)
class McConfig:
    """Simulation controls: path count (at least 3, two sampling units),
    time steps, seed (any integer, taken modulo 2^64), and the path-averaging
    rule (trapezoid has O(1/steps^2) bias, left-riemann O(1/steps))."""

    paths: int
    steps: int
    seed: int
    averaging: str = "trapezoid"

    def __post_init__(self):
        for name in ("paths", "steps", "seed"):  # plain ints, numpy integers included
            object.__setattr__(self, name, _index(getattr(self, name), name))
        if self.paths < 3:
            raise ValueError("need at least 3 paths")
        if self.steps < 1:
            raise ValueError("need at least 1 step")
        if self.averaging not in _AVERAGING:
            raise ValueError(f"averaging must be one of {_AVERAGING}")
        object.__setattr__(self, "seed", self.seed & (2 ** 64 - 1))


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


def _block_generator(cfg: McConfig, lo: int) -> Generator:
    """The stream of the block starting at path `lo` (a multiple of
    BLOCK_PATHS): PCG64DXSM seeded by child b = lo // BLOCK_PATHS of
    SeedSequence(cfg.seed), the child `.spawn` would give as its b-th."""
    return Generator(PCG64DXSM(SeedSequence(cfg.seed, spawn_key=(lo // BLOCK_PATHS,))))


def _workspace(cfg: McConfig) -> np.ndarray:
    """One call's (walk, work) tile pair for one worker: a carried row, then
    steps.  It starts on a 64-byte boundary, and so each 16 KiB row: for speed."""
    raw = np.empty(2 * min(TILE_DRAWS // PANEL, cfg.steps + 1) * PANEL + 8)  # 8 spare doubles
    return raw[-raw.ctypes.data % 64 // 8:][:raw.size - 8].reshape(2, -1, PANEL)


def _fill_normals(gen: Generator, z: np.ndarray, scratch: np.ndarray) -> None:
    """Fill the contiguous tile `z` (even size) with standard normals by
    Box and Muller (1958), one uniform per normal: with u and v the two flat
    halves of `gen.random` uniforms in [0, 1), r = sqrt(-2 log(1 - u)),
    t = tan(pi (v - 1/2)) and d = 2r / (1 + t^2), the halves become
    d - r = r cos theta and t d = r sin theta, theta = 2 pi (v - 1/2).
    `scratch` (contiguous, at least z.size / 2 doubles) is overwritten.  As
    1 - u >= 2^-53, |z| <= sqrt(106 ln 2) = 8.5717: the law is cut where
    the normal mass beyond is 1.0e-17.  On an AVX-512 x86-64 host it costs
    5.8 ns per normal against 12.5 for numpy's ziggurat `standard_normal`,
    but 16.4 ns where numpy's float64 log and tan run without AVX-512."""
    gen.random(out=z)
    u, v = z.reshape(2, -1)
    d = scratch.reshape(-1)[:v.size]
    np.log(np.subtract(1.0, u, out=u), out=u)
    np.sqrt(np.multiply(u, -2.0, out=u), out=u)  # r
    np.tan(np.multiply(np.subtract(v, 0.5, out=v), math.pi, out=v), out=v)  # t
    np.add(np.multiply(v, v, out=d), 1.0, out=d)
    np.multiply(np.divide(u, d, out=d), 2.0, out=d)  # d
    np.subtract(d, u, out=u)
    np.multiply(v, d, out=v)


@np.errstate(all="ignore")  # values outside the double range show in the estimates
def _simulate_block(p: GbmParams, cfg: McConfig, lo: int, hi: int,
                    buf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact-increment simulation of paths [lo, hi): returns (S(T), A_hat).

    With W_k = sigma sqrt(dt) (z_1 + ... + z_k) the running sum of panel
    column i's scaled normals and g_k = e^{k drift}, pair i drives path lo + 2i by
    S(t_k) = g_k e^{W_k} and its mirror by g_k / e^{W_k}: one exp and one
    reciprocal per pair-step, e^{k drift +- W_k} to 2 (|k drift| + |W_k| +
    steps) ulps while both factors are normal doubles (|k drift|, |W_k| < 708).
    A_hat = (c_0 + sum_k c_k g_k e^{+-W_k}) / steps, c_k = 1 but c_0 = c_n =
    1/2 (trapezoid) or c_n = 0.  The steps stream through `buf`, the worker's
    `_workspace`, a tile of PANEL-wide rows at a time, the work tile's step
    rows the normal transform's scratch before the exp: row 0 of the walk
    tile carries W, row 0 of the work tile the weighted sum, which one einsum
    (never BLAS) per tile and sign extends in step order.  Each column is
    built alone, all PANEL of them however few the block uses, so the result
    depends on neither the tiles' old contents nor the path count; the tile
    size sets only which uniforms the transform pairs.  Every pass is
    elementwise or sums rows in step order: no placement of `buf` moves a bit."""
    steps, gen = cfg.steps, _block_generator(cfg, lo)
    dt = p.T / steps
    scale = p.sigma * math.sqrt(dt)
    g = np.exp(np.arange(steps + 1) * ((p.r - 0.5 * _sigma2(p)) * dt))
    trapezoid = cfg.averaging == "trapezoid"
    weight = np.append(g[:-1], 0.5 * g[-1] if trapezoid else 0.0)  # c_k g_k in slot k >= 1
    a_hat = np.full((2, PANEL), 0.5 if trapezoid else 1.0)  # +z paths, then mirrors
    walk, work = buf
    rows = list(walk)
    walk[0] = 0.0
    tile = len(walk) - 1
    for s0 in range(0, steps, tile):
        k = min(tile, steps - s0)
        z, w = walk[:k + 1], work[:k + 1]
        _fill_normals(gen, z[1:], w[1:])
        z[1:] *= scale
        for i in range(1, k + 1):
            np.add(rows[i - 1], rows[i], out=rows[i])
        np.exp(z[1:], out=w[1:])
        z[0] = z[k]
        weight[s0] = 1.0  # the carried slot: the sum so far, weight 1
        for sign in (0, 1):
            if sign:
                np.reciprocal(w[1:], out=w[1:])
            w[0] = a_hat[sign]
            np.einsum("k,kp->p", weight[s0:s0 + k + 1], w, out=a_hat[sign])
    s_T = work[:2]  # S(T) = g_n e^{+-W_n} in free rows; the ravel below copies it out
    np.reciprocal(np.exp(walk[0], out=s_T[0]), out=s_T[1])
    s_T *= g[-1]
    a_hat /= steps
    return s_T.T.ravel()[:hi - lo], a_hat.T.ravel()[:hi - lo]


def iter_terminal_and_average(p: GbmParams, cfg: McConfig,
                              threads: int = 1) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Stream of per-block (S(T), A_hat) arrays in block order; block
    contents do not depend on the thread count.  Runs on at most one worker
    thread per block; raises ValueError unless `threads` is an integer >= 1."""
    if _index(threads, "threads") < 1:
        raise ValueError("threads must be at least 1")
    ranges = [(lo, min(lo + BLOCK_PATHS, cfg.paths)) for lo in range(0, cfg.paths, BLOCK_PATHS)]
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


def _record(x: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """(count, means, centred co-moments C[i, j] = sum_u (x[i, u] - mean_i)
    (x[j, u] - mean_j)) of stacked statistic rows over sampling units, the
    columns of `x`.  Centring on the first unit keeps a constant row exact;
    each entry is one row's pairwise sum, whatever rows share the record."""
    d = x - x[:, :1]
    dm = d.mean(axis=1)
    e = d - dm[:, None]
    return x.shape[1], x[:, 0] + dm, (e[:, None] * e).sum(axis=-1)


def _merge(a: tuple, b: tuple) -> tuple:
    """Pairwise update of two records (Chan, Golub and LeVeque), or of each
    pair of records in two stacks of them along a last axis."""
    (na, ma, ca), (nb, mb, cb) = a, b
    n, delta = na + nb, mb - ma
    return n, ma + delta * nb / n, ca + cb + delta[:, None] * delta[None, :] * na * nb / n


def _merge_floats(a: tuple, b: tuple) -> tuple:
    """`_merge` of two 2-statistic records as Python floats (count, means,
    C_00, C_01, C_11): the same IEEE operations in the same order."""
    (na, a0, a1, a00, a01, a11), (nb, b0, b1, b00, b01, b11) = a, b
    n, d0, d1 = na + nb, b0 - a0, b1 - a1
    return (n, a0 + d0 * nb / n, a1 + d1 * nb / n, a00 + b00 + d0 * d0 * na * nb / n,
            a01 + b01 + d0 * d1 * na * nb / n, a11 + b11 + d1 * d1 * na * nb / n)


@np.errstate(all="ignore")  # an overflow shows as a non-finite record, checked below
def _block_pass(p: GbmParams, cfg: McConfig, rows, threads: int,
                batches: bool = False) -> tuple[list[McEstimate], list[tuple]]:
    """One pass over the blocks, records merged in block order: the mean
    estimates of the stacked statistics `rows(s_T, a_hat)` over pair units
    and, if `batches`, each correlation batch's record over its paths of
    (S(T), A_hat) less the call's first path, whose means then keep digits
    below an ulp of S.  Batch b holds the pairs [ceil(b q), ceil((b + 1) q)),
    q = (paths // 2) / CORR_BATCHES, and the last an odd count's last path.
    Rows are scaled by 2^-e, 2^e above their first block's magnitudes: every
    in-range bit is kept, co-moments stay finite, or else OverflowError."""
    edges = [2 * -(-b * (cfg.paths // 2) // CORR_BATCHES) for b in range(CORR_BATCHES)]
    edges.append(cfg.paths)
    units, parts, lo = [], [[] for _ in range(CORR_BATCHES)], 0
    for s_T, a_hat in iter_terminal_and_average(p, cfg, threads=threads):
        u, n = np.stack(rows(s_T, a_hat)), len(s_T)
        u = np.concatenate((0.5 * (u[:, :-1:2] + u[:, 1::2]), u[:, n - n % 2:]), axis=1)
        if not lo:  # S(T), A_hat >= 0
            e, origin = np.frexp(abs(u).max(axis=1))[1], np.stack((s_T[:1], a_hat[:1]))
            e_sa = np.frexp([[s_T.max()], [a_hat.max()]])[1]
        units.append(_record(np.ldexp(u, -e[:, None], out=u)))
        if batches:  # one scaled (S(T), A_hat) stack per block, made in place
            sa = np.stack((s_T, a_hat))
            np.ldexp(np.subtract(sa, origin, out=sa), -e_sa, out=sa)
            for b in range(CORR_BATCHES):
                i, j = max(edges[b] - lo, 0), min(edges[b + 1] - lo, n)
                if i < j:
                    parts[b].append(_record(sa[:, i:j]))
        lo += n
    n, mean, c = functools.reduce(_merge, units)
    if not np.isfinite(c).all():  # so are the means
        raise OverflowError(_OVERFLOW)
    means = [McEstimate(math.ldexp(m, k), math.ldexp(math.sqrt(v / (n - 1) / n), k), cfg.paths)
             for m, v, k in zip(mean, c.diagonal(), e.tolist())]
    return means, [functools.reduce(_merge, part) for part in parts if part]


def estimate_moment_A(p: GbmParams, cfg: McConfig, m: int, threads: int = 1) -> McEstimate:
    """Sample mean of A_hat^m with standard error; ValueError before any block
    is simulated unless `moments._order` takes m.  Carries the quadrature
    discretization bias of the averaging rule, O(1/steps^2) for trapezoid."""
    m = _order(m)
    means, _ = _block_pass(p, cfg, lambda s_T, a_hat: [a_hat ** m], threads)
    return means[0]


def estimate_payoff(p: GbmParams, cfg: McConfig, payoff, threads: int = 1) -> McEstimate:
    """Discounted sample mean of the Asian payoff with standard error."""
    if not isinstance(payoff, (FloatingStrikeAsianCall, FixedStrikeAsianCall)):
        raise ValueError(f"unknown payoff: {payoff!r}")
    disc = math.exp(-p.r * p.T)
    means, _ = _block_pass(p, cfg, lambda s_T, a_hat: [disc * payoff.values(s_T, a_hat)], threads)
    return means[0]


def estimate_suite(p: GbmParams, cfg: McConfig, threads: int = 1,
                   m: int | None = None) -> dict[str, McEstimate]:
    """One simulation pass estimating mean S(T), mean A, E A^2, E S A, (for
    sigma > 0) the correlation and, when `m` is given, E A^m under the key
    "moment_A_<m>", last and bit-identical to `estimate_moment_A`, m checked
    as there.  The correlation is Pearson's over all paths, from the merged
    records of the CORR_BATCHES batches, so sigma > 0 needs 2 * CORR_BATCHES
    paths.  Its stderr is the delete-one-batch jackknife sqrt((B - 1) / B
    sum_b (r_b - mean r)^2), r_b the correlation of the record before batch
    b merged with the record after it."""
    if p.sigma > 0 and cfg.paths < 2 * CORR_BATCHES:
        raise ValueError(f"need at least {2 * CORR_BATCHES} paths for the correlation's "
                         f"{CORR_BATCHES} jackknife batches")
    m = None if m is None else _order(m)
    names = ["mean_S", "mean_A", "second_moment_A", "cross_moment_SA"]
    names += [] if m is None else [f"moment_A_{m}"]

    def rows(s_T, a_hat):
        return [s_T, a_hat, a_hat * a_hat, s_T * a_hat] + ([] if m is None else [a_hat ** m])

    means, batch = _block_pass(p, cfg, rows, threads, batches=p.sigma > 0)
    out = dict(zip(names, means))
    if p.sigma > 0:
        batch = [(n, *m.tolist(), *c.take([0, 1, 3]).tolist()) for n, m, c in batch]
        pre = list(itertools.accumulate(batch, _merge_floats))
        suf = list(itertools.accumulate(batch[::-1], lambda a, b: _merge_floats(b, a)))[::-1]
        # (C_SS, C_SA, C_AA) of each leave-one-out record, then of the whole
        recs = [suf[1], *map(_merge_floats, pre[:-2], suf[2:]), pre[-2], pre[-1]]
        c = np.array([rec[3:] for rec in recs]).T
        if not np.isfinite(c).all():
            raise OverflowError(_OVERFLOW)
        if not ((c[0] > 0) & (c[2] > 0)).all():
            raise ValueError("correlation undefined: S(T) or A_hat takes one float64 value "
                             "on every path; sigma is below the resolution of S")
        *loo, r = np.clip(c[1] / np.sqrt(c[0]) / np.sqrt(c[2]), -1.0, 1.0)
        stderr = math.sqrt((CORR_BATCHES - 1) / CORR_BATCHES * ((loo - np.mean(loo)) ** 2).sum())
        out["correlation"] = McEstimate(float(r), stderr, cfg.paths)
        out.update({name: out.pop(name) for name in names[4:]})  # moment_A_<m> last
    return out
