import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gbmdd import montecarlo
from gbmdd.moments import GbmParams, cross_moment_SA, mean_A, mean_S, second_moment_A
from gbmdd.oracles import ordered_product_expectation
from gbmdd.montecarlo import (
    BLOCK_PATHS,
    PANEL,
    FixedStrikeAsianCall,
    FloatingStrikeAsianCall,
    McConfig,
    _block_generator,
    estimate_moment_A,
    estimate_payoff,
    estimate_suite,
    iter_terminal_and_average,
)

BENCH = GbmParams(r=0.05, sigma=0.2, T=1.0)


def _block_normals(cfg: McConfig, lo: int, hi: int) -> np.ndarray:
    """Standard normals of paths [lo, hi) of the block starting at `lo`, as
    the simulator draws them: row k holds step k + 1's normals of the
    block's pairs, taken from full PANEL-wide rows that the engine's
    `_fill_normals` makes a tile of min(31, steps) rows at a time in the
    engine's own workspace."""
    gen, pairs = _block_generator(cfg, lo), (hi - lo + 1) // 2
    walk, work = montecarlo._workspace(cfg)
    tile, out = len(walk) - 1, np.empty((cfg.steps, pairs))
    for s0 in range(0, cfg.steps, tile):
        k = min(tile, cfg.steps - s0)
        montecarlo._fill_normals(gen, walk[1:k + 1], work[1:k + 1])
        out[s0:s0 + k] = walk[1:k + 1, :pairs]
    return out


def _paths(p, cfg, threads=1):
    """All (S(T), A_hat) of a call: its blocks' arrays joined in block order."""
    s_parts, a_parts = zip(*iter_terminal_and_average(p, cfg, threads=threads))
    return np.concatenate(s_parts), np.concatenate(a_parts)


def test_config_validation():
    # an estimate needs two sampling units: one antithetic pair and a lone path
    for paths in (1, 2):
        with pytest.raises(ValueError, match="at least 3 paths"):
            McConfig(paths=paths, steps=10, seed=0)
    with pytest.raises(ValueError):
        McConfig(paths=100, steps=0, seed=0)
    with pytest.raises(ValueError):
        McConfig(paths=100, steps=10, seed=0, averaging="midpoint")
    cfg = McConfig(paths=100, steps=10, seed=-1)
    assert cfg.seed == 2 ** 64 - 1  # stored as a 64-bit word


def test_payoff_validation():
    with pytest.raises(ValueError):
        FixedStrikeAsianCall(strike=-1.0)


def test_sigma_zero_deterministic_paths():
    p = GbmParams(r=0.05, sigma=0.0, T=1.0)
    cfg = McConfig(paths=16, steps=64, seed=1)
    s_T, a_hat = _paths(p, cfg)
    assert np.all(s_T == s_T[0])
    assert s_T[0] == pytest.approx(math.exp(0.05), rel=1e-14)
    # trapezoid value of the deterministic exponential
    grid = np.linspace(0.0, 1.0, 65)
    want = np.trapezoid(np.exp(0.05 * grid), grid)
    assert a_hat[0] == pytest.approx(want, rel=1e-13)


def test_seed_determinism_and_block_streaming():
    cfg = McConfig(paths=10_000, steps=16, seed=99)
    s1, a1 = _paths(BENCH, cfg)
    s2, a2 = _paths(BENCH, cfg)
    assert np.array_equal(s1, s2) and np.array_equal(a1, a2)
    # streaming yields the same paths in fixed 4096-path blocks
    blocks = list(iter_terminal_and_average(BENCH, cfg))
    assert [len(b[0]) for b in blocks] == [4096, 4096, 1808]
    assert np.array_equal(np.concatenate([b[0] for b in blocks]), s1)
    # a different seed changes the draw
    s3, _ = _paths(BENCH, McConfig(paths=10_000, steps=16, seed=100))
    assert not np.array_equal(s1, s3)


def test_thread_count_invariance():
    cfg = McConfig(paths=9_000, steps=32, seed=5)
    results = {}
    for threads in (1, 2, 8):
        suite = estimate_suite(BENCH, cfg, threads=threads)
        results[threads] = {k: (v.value, v.stderr) for k, v in suite.items()}
    assert results[1] == results[2] == results[8]


_DISPATCH_SCRIPT = """
import json
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
print(json.dumps([f for f in __cpu_dispatch__ if __cpu_features__[f]]))
"""


def test_estimates_agree_across_simd_dispatch():
    # numpy dispatches exp, log and tan on the CPU features it finds, and
    # their last bits differ between dispatch levels; the same command with
    # every found feature disabled (NPY_DISABLE_CPU_FEATURES) must agree to
    # 1e-12 relative in every value and stderr (bit-equal values and 2e-14
    # stderrs measured with AVX-512 off)
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    found = json.loads(subprocess.run([sys.executable, "-c", _DISPATCH_SCRIPT], env=env, check=True,
                                      capture_output=True, text=True, timeout=120).stdout)
    if not found:
        pytest.skip("numpy finds no SIMD extension above its baseline")
    argv = [sys.executable, "-m", "gbmdd.cli", "mc", "--paths", "8192", "--steps", "64",
            "--seed", "5"]
    runs = []
    for disabled in ({}, {"NPY_DISABLE_CPU_FEATURES": " ".join(found)}):
        proc = subprocess.run(argv, env={**env, **disabled}, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout)["estimates"])
    assert list(runs[0]) == list(runs[1])
    for name, est in runs[0].items():
        for key in ("value", "stderr"):
            assert est[key] == pytest.approx(runs[1][name][key], rel=1e-12, abs=0.0), (name, key)


def test_thread_counts_below_one_rejected():
    cfg = McConfig(paths=100, steps=4, seed=5)
    for threads in (0, -1):
        with pytest.raises(ValueError, match="threads"):
            iter_terminal_and_average(BENCH, cfg, threads=threads)


def test_pool_workers_capped_at_block_count(monkeypatch):
    # 8 threads over 2 blocks start 2 workers and give the 1-thread blocks
    started = []

    class Pool(montecarlo.ThreadPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", Pool)
    cfg = McConfig(paths=BLOCK_PATHS + 100, steps=8, seed=11)
    one = list(iter_terminal_and_average(BENCH, cfg, threads=1))
    eight = list(iter_terminal_and_average(BENCH, cfg, threads=8))
    assert started == [2]
    assert len(one) == len(eight) == 2
    for (s1, a1), (s8, a8) in zip(one, eight):
        assert s1.tobytes() == s8.tobytes() and a1.tobytes() == a8.tobytes()


def test_single_stream_layout():
    # block b draws its uniforms step-major from a PCG64DXSM stream seeded by
    # child b of the seed's SeedSequence, one row of PANEL per step; 7 steps
    # are one tile, whose first half of uniforms gives the radii and second
    # half the angles, so the normal at flat index j < 7 PANEL / 2 is
    # r cos theta and the one at j + 7 PANEL / 2 is r sin theta of uniforms j
    # and j + 7 PANEL / 2.  Rebuilt with scalar math.log and math.tan, every
    # normal is within eight ulps of the largest |z|, 8.57 (1.3e-15 measured).
    # The last block holds 1809 paths, so it uses the first 905 columns of
    # each row and its last column drives one path
    from numpy.random import PCG64DXSM, Generator, SeedSequence

    cfg = McConfig(paths=10_001, steps=7, seed=2 ** 64 - 3)
    starts = range(0, cfg.paths, BLOCK_PATHS)
    children = SeedSequence(cfg.seed).spawn(len(starts))
    half = cfg.steps * PANEL // 2
    blocks = []
    for child, lo in zip(children, starts):
        hi = min(lo + BLOCK_PATHS, cfg.paths)
        uniforms = Generator(PCG64DXSM(child)).random(cfg.steps * PANEL).tolist()
        rebuilt = []
        for u, v in zip(uniforms[:half], uniforms[half:]):
            r, t = math.sqrt(-2.0 * math.log(1.0 - u)), math.tan(math.pi * (v - 0.5))
            d = 2.0 * r / (1.0 + t * t)
            rebuilt.append((d - r, t * d))
        want = np.array(rebuilt).T.reshape(cfg.steps, PANEL)[:, :(hi - lo + 1) // 2]
        blocks.append(_block_normals(cfg, lo, hi))
        assert np.abs(blocks[-1] - want).max() <= 8 * math.ulp(8.0)
    # column i drives path 2i with +z and path 2i + 1 with -z
    s_T, _ = _paths(BENCH, cfg)
    dt = BENCH.T / cfg.steps
    walk = BENCH.sigma * math.sqrt(dt) * np.concatenate(blocks, axis=1).sum(axis=0)
    drift_T = (BENCH.r - 0.5 * BENCH.sigma ** 2) * BENCH.T
    assert len(s_T) == cfg.paths and len(walk) == (cfg.paths + 1) // 2
    assert np.allclose(s_T[0::2], np.exp(drift_T + walk), rtol=1e-13, atol=0.0)
    assert np.allclose(s_T[1::2], np.exp(drift_T - walk[:-1]), rtol=1e-13, atol=0.0)
    # so the log terminal values of a pair sum to twice the drift
    log_s = np.log(s_T[:-1])
    assert np.allclose(log_s[0::2] + log_s[1::2], 2 * drift_T, rtol=0.0, atol=1e-14)


def test_block_normals_against_mpmath_distribution():
    # 2^22 draws from eight blocks of 256 steps of PANEL = 2048 draws:
    # chi-square over 100 bins equiprobable under mpmath's normal quantile,
    # and the counts beyond |z| > 4 and > 5
    import mpmath

    cfg = McConfig(paths=8 * BLOCK_PATHS, steps=256, seed=20_100_611)
    z = np.concatenate([_block_normals(cfg, lo, lo + BLOCK_PATHS).ravel()
                        for lo in range(0, cfg.paths, BLOCK_PATHS)])
    n = z.size
    assert n == 2 ** 22
    bins = 100
    edges = [float(mpmath.sqrt(2) * mpmath.erfinv(mpmath.mpf(2 * k) / bins - 1))
             for k in range(1, bins)]
    counts = np.bincount(np.searchsorted(edges, z), minlength=bins)
    stat = float(((counts - n / bins) ** 2).sum() / (n / bins))
    # the chi-square(bins - 1) upper 1e-6 quantile, about 180.8
    assert stat < _chi2_quantile(bins - 1, 1e-6, upper=True)
    for x in (4, 5):
        tail = float(mpmath.erfc(x / mpmath.sqrt(2)))
        beyond = int((np.abs(z) > x).sum())
        assert abs(beyond - n * tail) <= 5.0 * math.sqrt(n * tail * (1.0 - tail)), x


class _FixedUniforms:
    """A stand-in generator whose `random` fills its tile with given uniforms."""

    def __init__(self, uniforms):
        self.uniforms = np.asarray(uniforms, dtype=float)

    def random(self, out):
        out[...] = self.uniforms.reshape(out.shape)


def test_normal_transform_edges_against_mpmath():
    # u = 0 gives r = 0 and u = 1 - 2^-53 the largest radius, sqrt(106 ln 2);
    # v = 0 gives t = tan(-pi/2 rounded) = -1.6e16 and normals near (-r, 0),
    # v = 1/4, 1/2, 3/4 the axes.  Each output is finite and within 4 ulps
    # of r, 4 * 2^-52 r, of r cos theta and r sin theta, theta = 2 pi (v - 1/2),
    # at 40 digits (1.41 * 2^-52 r measured)
    import mpmath

    edge = 1.0 - 2.0 ** -53
    cases = [(u, v) for u in (0.0, edge) for v in (0.0, 0.25, 0.5, 0.75, edge)]
    z, scratch = np.empty((2, len(cases))), np.empty(len(cases))
    montecarlo._fill_normals(_FixedUniforms([u for u, _ in cases] + [v for _, v in cases]),
                             z, scratch)
    assert np.isfinite(z).all()
    with mpmath.workdps(40):
        r_max = mpmath.sqrt(106 * mpmath.log(2))
        assert abs(r_max - 8.5717) < 1e-4
        assert mpmath.erfc(r_max / mpmath.sqrt(2)) == pytest.approx(1.0e-17, rel=0.02)
        for j, (u, v) in enumerate(cases):
            r = mpmath.sqrt(-2 * mpmath.log(1 - mpmath.mpf(u)))
            theta = 2 * mpmath.pi * (mpmath.mpf(v) - mpmath.mpf(0.5))
            assert r == (0 if u == 0.0 else r_max)
            for got, want in zip(z[:, j], (r * mpmath.cos(theta), r * mpmath.sin(theta))):
                assert abs(got - want) <= 4 * 2.0 ** -52 * r, (u, v)


def test_fewer_paths_give_a_prefix():
    # odd counts end in a row that drives one path, in either block
    big = _paths(BENCH, McConfig(paths=10_000, steps=16, seed=8))
    for paths in (4096, 4095, 4097, 3):
        small = _paths(BENCH, McConfig(paths=paths, steps=16, seed=8))
        assert np.array_equal(small[0], big[0][:paths]), paths
        assert np.array_equal(small[1], big[1][:paths]), paths


def _one_shot_paths(p, cfg, normals):
    """(S(T), A_hat) built one step at a time from each block's panel,
    `normals` the `_block_normals` of cfg's blocks, with sequential sums:
    column i, scaled and summed in step order to W, drives its path 2i by
    S(t_k) = g_k e^{W_k} and path 2i + 1 by g_k / e^{W_k}, g_k = e^{k drift};
    A_hat starts at S(0) / 2 (trapezoid) or S(0) and adds g_k e^{+-W_k},
    then the trapezoid's g_n e^{+-W_n} / 2, by one einsum per step over the
    stack [sum; e^{+-W_k}], over steps."""
    dt = p.T / cfg.steps
    g = np.exp(np.arange(cfg.steps + 1) * ((p.r - 0.5 * p.sigma ** 2) * dt))
    scale = p.sigma * math.sqrt(dt)
    trapezoid = cfg.averaging == "trapezoid"
    weight = np.append(g[1:-1], 0.5 * g[-1] if trapezoid else 0.0)
    s_parts, a_parts = [], []
    for lo, z in zip(range(0, cfg.paths, BLOCK_PATHS), normals):
        hi = min(lo + BLOCK_PATHS, cfg.paths)
        e = np.exp(np.cumsum(z * scale, axis=0))  # add.accumulate sums in step order
        paths = np.stack((e, np.reciprocal(e)), axis=1)  # (step, sign, column)
        a = np.full(paths.shape[1:], 0.5 if trapezoid else 1.0)
        for wk, sk in zip(weight, paths):
            a = np.einsum("k,ksp->sp", [1.0, wk], np.stack((a, sk)))
        s_parts.append((g[-1] * paths[-1]).T.ravel()[:hi - lo])
        a_parts.append((a / cfg.steps).T.ravel()[:hi - lo])
    return np.concatenate(s_parts), np.concatenate(a_parts)


@pytest.mark.parametrize("paths, steps", [(9_000, 333), (4_100, 1), (4_097, 1000),
                                          (3, 70_000)])
def test_tiled_simulation_equals_one_shot_reference(paths, steps):
    # tiles of 2^16 // PANEL = 32 rows, a carried row and 31 steps: 333 and
    # 1000 end in a partial tile, 1 step is a tile of one; each case ends in
    # a partial block, 4 097 and 3 paths in a column that drives one path
    p = GbmParams(r=0.07, sigma=0.4, T=1.5)
    cfg = McConfig(paths=paths, steps=steps, seed=41)
    normals = [_block_normals(cfg, lo, min(lo + BLOCK_PATHS, paths))
               for lo in range(0, paths, BLOCK_PATHS)]
    for averaging in ("trapezoid", "left-riemann"):
        cfg = McConfig(paths=paths, steps=steps, seed=41, averaging=averaging)
        want = _one_shot_paths(p, cfg, normals)
        for threads in (1, 2):
            got = _paths(p, cfg, threads=threads)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@pytest.mark.parametrize("steps", [1, 52, 1000])
@pytest.mark.parametrize("r, sigma, T", [(0.05, 1e-13, 1.0), (0.05, 5.0, 1.0), (0.05, 20.0, 1.0),
                                         (-88.0, 0.2, 8.0), (44.0, 0.2, 8.0)])
def test_paths_against_mpmath_from_the_same_normals(r, sigma, T, steps):
    # three pairs rebuilt at 50 digits from the engine's own normals: W_k the
    # exact sum of sigma sqrt(dt) z, S(t_k) = exp(k drift +- W_k) and both
    # averaging rules.  Here g_k = e^{k drift} and e^{W_k} are normal doubles
    # (|k drift| and |W_k| below 708), and S(T) is within 2 ulp (|n drift| +
    # |W_n| + steps), A_hat within 2 ulp (max_k (|k drift| + |W_k|) + steps);
    # the largest error measured is 0.46 of that.  r = -88 at T = 8 puts some
    # S(T) below the normal range, where the bound adds the smallest subnormal
    import mpmath

    ulp, tiny = 2.0 ** -52, mpmath.mpf(2.0 ** -1074)
    p = GbmParams(r=r, sigma=sigma, T=T)
    runs = [_paths(p, McConfig(paths=6, steps=steps, seed=2024, averaging=averaging))
            for averaging in ("trapezoid", "left-riemann")]
    z = _block_normals(McConfig(paths=6, steps=steps, seed=2024), 0, 6)
    with mpmath.workdps(50):
        dt = mpmath.mpf(T) / steps
        drift = (mpmath.mpf(r) - mpmath.mpf(sigma) ** 2 / 2) * dt
        scale = sigma * mpmath.sqrt(dt)
        for i in range(z.shape[1]):
            w, head, big = mpmath.mpf(0), [mpmath.mpf(0)] * 2, 0.0
            for k in range(1, steps + 1):
                w += scale * mpmath.mpf(z[k - 1, i])
                s = [mpmath.exp(k * drift + w), mpmath.exp(k * drift - w)]
                big = max(big, float(abs(k * drift) + abs(w)))
                if k < steps:
                    head = [h + x for h, x in zip(head, s)]
            assert big < 708
            end = float(abs(steps * drift) + abs(w))
            for sign in (0, 1):
                a_want = [(head[sign] + (1 + s[sign]) / 2) / steps, (1 + head[sign]) / steps]
                for (s_T, a_hat), want in zip(runs, a_want):
                    err = abs(mpmath.mpf(s_T[2 * i + sign]) - s[sign])
                    assert err <= 2 * ulp * (end + steps) * s[sign] + tiny, (i, sign)
                    err = abs(mpmath.mpf(a_hat[2 * i + sign]) - want)
                    assert err <= 2 * ulp * (big + steps) * want, (i, sign)


def test_one_workspace_per_worker_and_call(monkeypatch):
    # the blocks of a call stream through one tile pair per worker thread,
    # each of at most 2 x TILE_DRAWS doubles here; holding every pair seen
    # keeps a freed one's address from coming back
    seen = []
    simulate = montecarlo._simulate_block

    def recorded(p, cfg, lo, hi, buf):
        seen.append(buf)
        return simulate(p, cfg, lo, hi, buf)

    monkeypatch.setattr(montecarlo, "_simulate_block", recorded)
    cfg = McConfig(paths=4 * BLOCK_PATHS + 1, steps=300, seed=3)
    for threads, most in ((1, 1), (2, 2)):
        seen.clear()
        assert len(list(iter_terminal_and_average(BENCH, cfg, threads=threads))) == 5
        assert len(seen) == 5 and 1 <= len({buf.ctypes.data for buf in seen}) <= most, threads
        assert all(buf.size <= 2 * montecarlo.TILE_DRAWS for buf in seen)


def test_workspace_starts_on_a_cache_line():
    # the tile pair, and with it each 16 KiB row, starts on a 64-byte boundary
    for steps in (1, 30, 31, 1000):
        walk, work = montecarlo._workspace(McConfig(paths=3, steps=steps, seed=0))
        assert walk.ctypes.data % 64 == 0 and work.ctypes.data % 64 == 0, steps
        assert walk.shape == work.shape == (min(32, steps + 1), PANEL)
        assert walk.flags.c_contiguous and work.base is walk.base


def test_no_tile_placement_moves_a_bit():
    # tile pairs placed 8, 16, ..., 56 bytes past a cache line, their old
    # contents nan, give the aligned workspace's (S(T), A_hat) bit for bit:
    # 40 steps end in a partial tile, and the second block holds 5 paths
    p = GbmParams(r=0.07, sigma=0.4, T=1.5)
    for averaging in ("trapezoid", "left-riemann"):
        cfg = McConfig(paths=BLOCK_PATHS + 5, steps=40, seed=23, averaging=averaging)
        shape = montecarlo._workspace(cfg).shape
        for lo, hi in ((0, BLOCK_PATHS), (BLOCK_PATHS, BLOCK_PATHS + 5)):
            want = montecarlo._simulate_block(p, cfg, lo, hi, montecarlo._workspace(cfg))
            for offset in range(8, 64, 8):
                raw = np.full(math.prod(shape) + 16, np.nan)
                start = (-raw.ctypes.data % 64 + offset) // 8
                buf = raw[start:start + math.prod(shape)].reshape(shape)
                assert buf.ctypes.data % 64 == offset
                got = montecarlo._simulate_block(p, cfg, lo, hi, buf)
                assert len(got[0]) == hi - lo, (averaging, lo, offset)
                for g, w in zip(got, want):
                    assert g.tobytes() == w.tobytes(), (averaging, lo, offset)


def test_workers_never_share_tiles():
    # more workers than cores and a short switch interval interleave the
    # workers' numpy steps, so tiles shared between workers would mix rows
    cfg = McConfig(paths=16 * BLOCK_PATHS, steps=24, seed=13)
    want = list(iter_terminal_and_average(BENCH, cfg))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = list(iter_terminal_and_average(BENCH, cfg, threads=4))
    finally:
        sys.setswitchinterval(interval)
    for (s_T, a_hat), (s_want, a_want) in zip(got, want, strict=True):
        assert s_T.tobytes() == s_want.tobytes() and a_hat.tobytes() == a_want.tobytes()


def test_interleaved_calls_give_the_blocks_of_each_call_alone():
    # two streams of different tile shapes, advanced alternately in one
    # thread, each keep their own tiles
    one = (GbmParams(r=0.07, sigma=0.4, T=1.5), McConfig(paths=3 * BLOCK_PATHS, steps=333, seed=41))
    two = (BENCH, McConfig(paths=3 * BLOCK_PATHS - 5, steps=52, seed=7, averaging="left-riemann"))
    alone = [list(iter_terminal_and_average(p, cfg)) for p, cfg in (one, two)]
    mixed = zip(iter_terminal_and_average(*one), iter_terminal_and_average(*two), strict=True)
    for got, want_one, want_two in zip(mixed, *alone, strict=True):
        for (s_T, a_hat), (s_want, a_want) in zip(got, (want_one, want_two)):
            assert s_T.tobytes() == s_want.tobytes() and a_hat.tobytes() == a_want.tobytes()


def test_sigma_zero_suite_stderr_is_exact_zero():
    # a one-pass sum-of-squares variance reported stderr ~ 1e-9 here
    p = GbmParams(r=0.05, sigma=0.0, T=1.0)
    for paths, steps in ((64, 1), (10_000, 8)):
        suite = estimate_suite(p, McConfig(paths=paths, steps=steps, seed=4))
        assert suite["mean_S"].stderr == 0.0
        assert suite["cross_moment_SA"].stderr == 0.0
        assert suite["mean_S"].value == pytest.approx(math.exp(0.05), rel=1e-15)


def test_mean_estimates_within_three_stderr():
    cfg = McConfig(paths=40_000, steps=100, seed=11)
    suite = estimate_suite(BENCH, cfg)
    truth = {
        "mean_S": mean_S(BENCH),
        "mean_A": mean_A(BENCH),
        "second_moment_A": second_moment_A(BENCH),
        "cross_moment_SA": cross_moment_SA(BENCH),
    }
    for name, want in truth.items():
        est = suite[name]
        assert abs(est.value - want) <= 3.0 * est.stderr, name


def test_martingale_check():
    for p in (BENCH, GbmParams(r=0.12, sigma=0.4, T=0.5)):
        cfg = McConfig(paths=40_000, steps=50, seed=21)
        est = estimate_suite(p, cfg)["mean_S"]
        discounted = math.exp(-p.r * p.T) * est.value
        assert abs(discounted - 1.0) <= 3.0 * math.exp(-p.r * p.T) * est.stderr


def test_stderr_scales_with_paths():
    a = estimate_moment_A(BENCH, McConfig(paths=8_000, steps=16, seed=3), 2)
    b = estimate_moment_A(BENCH, McConfig(paths=16_000, steps=16, seed=3), 2)
    ratio = a.stderr / b.stderr
    assert ratio == pytest.approx(math.sqrt(2.0), rel=0.15)
    assert a.paths_used == 8_000 and b.paths_used == 16_000


def test_fourth_moment_within_four_stderr():
    from gbmdd.moments import moment_A
    est = estimate_moment_A(BENCH, McConfig(paths=40_000, steps=100, seed=31), 4)
    assert abs(est.value - moment_A(BENCH, 4)) <= 4.0 * est.stderr


def _chi2_quantile(df: int, tail: float, upper: bool) -> float:
    """The chi-square(df) quantile with probability `tail` above it (upper)
    or below it, a root of the log of mpmath's regularized incomplete gamma
    function over `tail`."""
    import mpmath

    a = mpmath.mpf(df) / 2
    limits = (lambda x: (x / 2, mpmath.inf)) if upper else (lambda x: (0, x / 2))
    return float(mpmath.findroot(
        lambda x: mpmath.log(mpmath.gammainc(a, *limits(x), regularized=True) / tail),
        df + (5 if upper else -4) * math.sqrt(2 * df)))


@pytest.mark.parametrize("estimate", [
    lambda cfg: estimate_payoff(BENCH, cfg, FloatingStrikeAsianCall()),
    lambda cfg: estimate_moment_A(BENCH, cfg, 2),
    lambda cfg: estimate_suite(BENCH, cfg)["correlation"],
], ids=["payoff-floating", "moment-A-2", "correlation"])
def test_stderr_is_calibrated(estimate):
    # over 512 seeds the estimates' sample variance over the mean reported
    # variance is about chi-square(511) / 511 when the stderr is right.  A
    # per-path stderr on antithetic pairs reads too large: about 1.3x for
    # the floating strike, whose pair values correlate by about -0.5, which
    # 64 seeds cannot tell from chance, and about 4x for E A^2.  The
    # correlation's stderr, the delete-one-batch jackknife over its 32
    # batches of 8 pairs, reads a ratio of about 1.0; batch means over the
    # same batches read about 1.3x too large (the ratio about 0.59)
    runs = [estimate(McConfig(paths=512, steps=8, seed=seed)) for seed in range(512)]
    values = np.array([est.value for est in runs])
    ratio = values.var(ddof=1) / np.mean([est.stderr ** 2 for est in runs])
    df = len(runs) - 1
    assert _chi2_quantile(df, 1e-6, upper=False) / df < ratio
    assert ratio < _chi2_quantile(df, 1e-6, upper=True) / df


def test_correlation_stderr_shrinks_on_doubling():
    # one seed's ratio has SD ~0.21 (jackknife stderr over 32 batches);
    # the mean over eight seeds has SD ~0.075
    ratios = []
    for seed in range(31, 39):
        a = estimate_suite(BENCH, McConfig(paths=20_000, steps=50, seed=seed))["correlation"]
        b = estimate_suite(BENCH, McConfig(paths=40_000, steps=50, seed=seed))["correlation"]
        ratios.append(a.stderr / b.stderr)
    assert np.mean(ratios) == pytest.approx(math.sqrt(2.0), rel=0.25)


def test_trapezoid_bias_shrinks_quadratically():
    # sigma = 0 isolates the quadrature bias of the averaging rule
    p = GbmParams(r=0.4, sigma=0.0, T=1.0)
    errs = []
    for steps in (8, 16, 32):
        est = estimate_moment_A(p, McConfig(paths=3, steps=steps, seed=0), 1)
        errs.append(abs(est.value - mean_A(p)))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.1)


def test_left_riemann_bias_is_first_order():
    p = GbmParams(r=0.4, sigma=0.0, T=1.0)
    errs = []
    for steps in (8, 16, 32):
        cfg = McConfig(paths=3, steps=steps, seed=0, averaging="left-riemann")
        errs.append(abs(estimate_moment_A(p, cfg, 1).value - mean_A(p)))
    assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.1)
    assert errs[1] / errs[2] == pytest.approx(2.0, rel=0.1)


def test_suite_moment_order_matches_estimate_moment_A():
    cfg = McConfig(paths=5000, steps=20, seed=13)
    for m in (0, 1, 4):
        for threads in (1, 2):
            suite = estimate_suite(BENCH, cfg, threads=threads, m=m)
            alone = estimate_moment_A(BENCH, cfg, m)
            assert list(suite)[-1] == f"moment_A_{m}"
            assert suite[f"moment_A_{m}"] == alone
    with pytest.raises(ValueError, match="moment order"):
        estimate_suite(BENCH, cfg, m=-1)


def test_estimate_correlation():
    cfg = McConfig(paths=40_000, steps=100, seed=13)
    from gbmdd.moments import correlation
    est = estimate_suite(BENCH, cfg)["correlation"]
    assert abs(est.value - correlation(BENCH).R) <= 3.0 * est.stderr
    assert est.stderr > 0
    # deterministic paths have no correlation to estimate
    assert "correlation" not in estimate_suite(GbmParams(r=0.05, sigma=0.0, T=1.0),
                                               McConfig(paths=64, steps=4, seed=0))
    with pytest.raises(ValueError, match="batch"):
        estimate_suite(BENCH, McConfig(paths=32, steps=4, seed=0))


def test_correlation_at_small_sigma_within_its_z_bound():
    # each batch record is centred; raw power sums read 1.55 +- 0.77 at
    # sigma = 1e-12 here.  Below about 1e-14 float64 cannot resolve S(T)
    from gbmdd.moments import correlation
    cfg = McConfig(paths=8192, steps=16, seed=1)
    for sigma in (1e-4, 1e-8, 1e-12, 1e-13):
        p = GbmParams(r=0.05, sigma=sigma, T=1.0)
        est = estimate_suite(p, cfg)["correlation"]
        assert -1.0 <= est.value <= 1.0 and 0.0 < est.stderr < math.inf, sigma
        assert abs(est.value - correlation(p).R) <= 4.0 * est.stderr, sigma


@pytest.mark.parametrize("sigma, paths, steps", [(1e-8, 256, 2), (1e-13, 8192, 16)])
def test_correlation_equals_two_pass_pearson_of_the_same_paths(sigma, paths, steps):
    # raw power sums read 1.069 with stderr 0 at 256 x 2; records of
    # absolute values read 8e-9 off at 1e-13, where S(T) takes 2094 values
    p = GbmParams(r=0.05, sigma=sigma, T=1.0)
    cfg = McConfig(paths=paths, steps=steps, seed=1)
    est = estimate_suite(p, cfg)["correlation"]
    s_T, a_hat = _paths(p, cfg)
    assert est.value == pytest.approx(np.corrcoef(s_T - s_T[0], a_hat - a_hat[0])[0, 1], rel=1e-14)
    assert est.stderr > 0


def test_correlation_at_one_step_stays_in_range():
    # one step makes A_hat = (1 + S(T)) / 2, so R is 1 up to rounding; raw
    # power sums read up to 1 + 6.4e-8 here, or a negative variance
    for sigma in (0.2, 1e-4, 1e-8):
        for seed in range(1, 6):
            est = estimate_suite(GbmParams(r=0.05, sigma=sigma, T=1.0),
                                 McConfig(paths=256, steps=1, seed=seed))["correlation"]
            assert 1.0 - 1e-14 <= est.value <= 1.0, (sigma, seed)


def test_correlation_below_the_resolution_of_S_raises():
    # sigma = 1e-300 leaves every S(T) on one double: no correlation to estimate
    p = GbmParams(r=0.05, sigma=1e-300, T=1.0)
    with pytest.raises(ValueError, match=r"correlation undefined: S\(T\) or A_hat takes one"):
        estimate_suite(p, McConfig(paths=4096, steps=4, seed=1))


FAR = GbmParams(r=44.0, sigma=0.2, T=8.0)  # S(T) near 2^508: its square near 2^1016


def test_correlation_where_squares_of_S_overflow():
    # co-moments of S(T) ~ 2^508 overflow float64 unscaled: the correlation
    # read 0.0 +- 0.0.  At 16 steps A_hat is S(T) / 32 to 1e-9, so R ~ 1
    cfg = McConfig(paths=4096, steps=16, seed=1)
    est = estimate_suite(FAR, cfg)["correlation"]
    s_T, a_hat = _paths(FAR, cfg)
    s, a = (np.ldexp(x - x[0], -508) for x in (s_T, a_hat))
    assert est.value == pytest.approx(np.corrcoef(s, a)[0, 1], rel=1e-14)
    assert 0.0 < est.stderr < 1e-12


@pytest.mark.parametrize("threads", [1, 2])
def test_estimates_where_squares_of_statistics_overflow_keep_finite_stderrs(threads):
    # unscaled records read stderr inf for E A^2 and E S A here, and for
    # E A at r = 80, where A_hat ~ 2^918
    cfg = McConfig(paths=8192, steps=16, seed=1)
    suite = estimate_suite(FAR, cfg, threads=threads)
    far = estimate_moment_A(GbmParams(r=80.0, sigma=0.2, T=8.0), cfg, 1, threads=threads)
    for name, est in [*suite.items(), ("mean_A at r = 80", far)]:
        assert math.isfinite(est.value) and 0.0 < est.stderr < math.inf, name
        assert est.stderr < 0.05 * abs(est.value), name


@pytest.mark.parametrize("threads", [1, 2])
def test_statistics_outside_double_range_raise_overflow(threads):
    # at r = 80 A_hat^2 overflows on every path (the suite read nan); at
    # sigma = 150, T = 8 the drift factor underflows where e^{W_k} overflows,
    # and A_hat read 0.03125 +- 0 from all-zero paths
    cfg = McConfig(paths=8192, steps=16, seed=3)
    with pytest.raises(OverflowError, match="outside float64 range"):
        estimate_suite(GbmParams(r=80.0, sigma=0.2, T=8.0), cfg, threads=threads)
    with pytest.raises(OverflowError, match="outside float64 range"):
        estimate_moment_A(GbmParams(r=0.05, sigma=150.0, T=8.0), cfg, 1, threads=threads)
    # e^{-rT} at rT = -800 raised with "math range error" alone
    with pytest.raises(OverflowError, match=r"the discount e\^\{-rT\} is outside the double range"):
        estimate_payoff(GbmParams(r=-100.0, sigma=0.2, T=8.0), cfg, FloatingStrikeAsianCall(),
                        threads=threads)


def test_sigma_squared_overflow_raises_naming_it():
    # from sigma = 1.34e154 on, a bare `sigma ** 2` in the drift factor
    # raises OverflowError with the errno alone
    p, cfg = GbmParams(r=0.05, sigma=1e160, T=1.0), McConfig(paths=64, steps=4, seed=1)
    with pytest.raises(OverflowError, match=r"sigma\^2 is outside the double range"):
        estimate_payoff(p, cfg, FloatingStrikeAsianCall())
    with pytest.raises(OverflowError, match=r"sigma\^2 is outside the double range"):
        estimate_suite(p, cfg)


def test_merge_equals_numpy_chan_update_bit_for_bit():
    # `_merge` on Python floats against Chan, Golub and LeVeque's update
    # evaluated in numpy, chained as the jackknife chains its batch records
    # (prefixes, suffixes, each middle record the merge of the two around
    # it): every mean and co-moment keeps the reference's bits, so an
    # operation taken in another order fails here
    def chan(a, b):
        (na, ma, ca), (nb, mb, cb) = a, b
        ma, mb, ca, cb = map(np.array, (ma, mb, ca, cb))
        n, d = na + nb, mb - ma
        return n, ma + d * nb / n, ca + cb + d[:, None] * d[None, :] * na * nb / n

    rng = np.random.default_rng(5)
    for k in (1, 2, 5):
        recs = [montecarlo._record(rng.standard_normal((k, n)) * 10.0 ** rng.integers(-8, 9, (k, 1))
                                   + rng.standard_normal((k, 1)) * 10.0 ** rng.integers(-8, 9))
                for n in rng.integers(1, 50, 12)]
        pairs = []
        for merge in (montecarlo._merge, chan):
            pre = list(itertools.accumulate(recs, merge))
            suf = list(itertools.accumulate(recs[::-1], lambda a, b: merge(b, a)))[::-1]
            pairs.append([*pre, *suf, *map(merge, pre[:-2], suf[2:])])
        for got, (n, mean, c) in zip(*pairs):
            assert type(got[0]) is int and got[0] == n, k
            assert np.array(got[1]).tobytes() == np.array(mean).tobytes(), k
            assert np.array(got[2]).tobytes() == np.array(c).tobytes(), k


def test_ordered_product_mc_cross_check():
    # E S(t1) S(t2) S(t3) against the analytic formula, using path pairs
    # rebuilt from the simulator's own normals; the pair means are i.i.d.
    p = BENCH
    cfg = McConfig(paths=60_000, steps=64, seed=17)
    times = (0.25, 0.5, 1.0)
    idx = [int(t * cfg.steps) - 1 for t in times]  # row k holds S((k+1) dt)
    dt = p.T / cfg.steps
    prods = []
    for lo in range(0, cfg.paths, BLOCK_PATHS):
        z = _block_normals(cfg, lo, min(lo + BLOCK_PATHS, cfg.paths))
        pair = []
        for sign in (1.0, -1.0):
            s = np.exp(np.cumsum((p.r - 0.5 * p.sigma ** 2) * dt
                                 + sign * p.sigma * math.sqrt(dt) * z, axis=0))
            pair.append(s[idx[0]] * s[idx[1]] * s[idx[2]])
        prods.append(0.5 * (pair[0] + pair[1]))
    prods = np.concatenate(prods)
    want = ordered_product_expectation(p, times)
    stderr = prods.std(ddof=1) / math.sqrt(len(prods))
    assert abs(prods.mean() - want) <= 4.0 * stderr


def test_estimate_payoff_degenerate_cases():
    cfg = McConfig(paths=5_000, steps=32, seed=7)
    # zero-strike fixed call degenerates to the discounted average
    est = estimate_payoff(BENCH, cfg, FixedStrikeAsianCall(strike=0.0))
    avg = estimate_moment_A(BENCH, cfg, 1)
    assert est.value == pytest.approx(math.exp(-0.05) * avg.value, rel=1e-13)
    # sigma = 0 floating strike is exact
    p0 = GbmParams(r=0.05, sigma=0.0, T=1.0)
    est0 = estimate_payoff(p0, McConfig(paths=3, steps=256, seed=0), FloatingStrikeAsianCall())
    _, a_det = _paths(p0, McConfig(paths=3, steps=256, seed=0))
    want = math.exp(-0.05) * max(math.exp(0.05) - a_det[0], 0.0)
    assert est0.value == pytest.approx(want, rel=1e-14)
    assert est0.stderr == 0.0
    with pytest.raises(ValueError, match="payoff"):
        estimate_payoff(BENCH, cfg, "call")


def test_estimate_to_dict_round_trips():
    cfg = McConfig(paths=1_000, steps=8, seed=42)
    est = estimate_moment_A(BENCH, cfg, 1)
    doc = est.to_dict(cfg)
    assert set(doc) == {"value", "stderr", "paths", "steps", "seed"}
    blob = json.dumps(doc)
    again = json.loads(blob)
    assert again["value"] == est.value and again["stderr"] == est.stderr
    assert again["paths"] == 1_000 and again["steps"] == 8 and again["seed"] == 42


def test_numpy_integer_counts_are_stored_as_ints():
    # numpy integer counts are kept as plain ints, so every estimate's dict
    # serialises to JSON
    cfg = McConfig(paths=np.int64(16), steps=np.int64(4), seed=np.uint64(1))
    assert type(cfg.paths) is int and type(cfg.steps) is int
    assert cfg == McConfig(paths=16, steps=4, seed=1)
    est = estimate_moment_A(BENCH, cfg, 1)
    assert type(est.paths_used) is int
    doc = json.loads(json.dumps(est.to_dict(cfg)))
    assert doc["paths"] == 16 and doc["steps"] == 4 and doc["seed"] == 1
