import json
import math

import numpy as np
import pytest

from gbmdd.moments import (
    GbmParams,
    cross_moment_SA,
    mean_A,
    mean_S,
    ordered_product_expectation,
    second_moment_A,
)
from gbmdd.montecarlo import (
    BLOCK_PATHS,
    FixedStrikeAsianCall,
    FloatingStrikeAsianCall,
    McConfig,
    _block_normals,
    estimate_correlation,
    estimate_moment_A,
    estimate_payoff,
    estimate_suite,
    iter_terminal_and_average,
    simulate_terminal_and_average,
)

BENCH = GbmParams(r=0.05, sigma=0.2, T=1.0)


def test_config_validation():
    with pytest.raises(ValueError):
        McConfig(paths=1, steps=10, seed=0)
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
    s_T, a_hat = simulate_terminal_and_average(p, cfg)
    assert np.all(s_T == s_T[0])
    assert s_T[0] == pytest.approx(math.exp(0.05), rel=1e-14)
    # trapezoid value of the deterministic exponential
    grid = np.linspace(0.0, 1.0, 65)
    want = np.trapezoid(np.exp(0.05 * grid), grid)
    assert a_hat[0] == pytest.approx(want, rel=1e-13)


def test_seed_determinism_and_block_streaming():
    cfg = McConfig(paths=10_000, steps=16, seed=99)
    s1, a1 = simulate_terminal_and_average(BENCH, cfg)
    s2, a2 = simulate_terminal_and_average(BENCH, cfg)
    assert np.array_equal(s1, s2) and np.array_equal(a1, a2)
    # streaming yields the same paths in fixed 4096-path blocks
    blocks = list(iter_terminal_and_average(BENCH, cfg))
    assert [len(b[0]) for b in blocks] == [4096, 4096, 1808]
    assert np.array_equal(np.concatenate([b[0] for b in blocks]), s1)
    # a different seed changes the draw
    s3, _ = simulate_terminal_and_average(BENCH, McConfig(paths=10_000, steps=16, seed=100))
    assert not np.array_equal(s1, s3)


def test_thread_count_invariance():
    cfg = McConfig(paths=9_000, steps=32, seed=5)
    results = {}
    for threads in (1, 2, 8):
        suite = estimate_suite(BENCH, cfg, threads=threads)
        results[threads] = {k: (v.value, v.stderr) for k, v in suite.items()}
    assert results[1] == results[2] == results[8]


def test_single_stream_layout():
    # block b draws its normals row-major from a PCG64DXSM stream seeded by
    # child b of the seed's SeedSequence
    from numpy.random import PCG64DXSM, Generator, SeedSequence

    cfg = McConfig(paths=10_000, steps=7, seed=2 ** 64 - 3)
    starts = range(0, cfg.paths, BLOCK_PATHS)
    children = SeedSequence(cfg.seed).spawn(len(starts))
    blocks = []
    for child, lo in zip(children, starts):
        hi = min(lo + BLOCK_PATHS, cfg.paths)
        want = Generator(PCG64DXSM(child)).standard_normal((hi - lo) * cfg.steps)
        blocks.append(_block_normals(cfg, lo, hi))
        assert np.array_equal(blocks[-1], want.reshape(hi - lo, cfg.steps))
    # the simulator builds its paths from exactly those rows
    s_T, _ = simulate_terminal_and_average(BENCH, cfg)
    dt = BENCH.T / cfg.steps
    z = np.concatenate(blocks)
    log_inc = (BENCH.r - 0.5 * BENCH.sigma ** 2) * dt + BENCH.sigma * math.sqrt(dt) * z
    want = np.exp(log_inc.sum(axis=1))
    assert np.allclose(s_T, want, rtol=1e-13, atol=0.0)


def test_block_normals_against_mpmath_distribution():
    # 2^22 draws from four blocks: chi-square over 100 bins equiprobable under
    # mpmath's normal quantile, and the counts beyond |z| > 4 and > 5
    import mpmath

    cfg = McConfig(paths=4 * BLOCK_PATHS, steps=256, seed=20_100_611)
    z = np.concatenate([_block_normals(cfg, lo, lo + BLOCK_PATHS)
                        for lo in range(0, cfg.paths, BLOCK_PATHS)]).ravel()
    n = z.size
    assert n == 2 ** 22
    bins = 100
    edges = [float(mpmath.sqrt(2) * mpmath.erfinv(mpmath.mpf(2 * k) / bins - 1))
             for k in range(1, bins)]
    counts = np.bincount(np.searchsorted(edges, z), minlength=bins)
    stat = float(((counts - n / bins) ** 2).sum() / (n / bins))
    # the chi-square(bins - 1) upper 1e-6 quantile, about 180.8
    crit = mpmath.findroot(lambda x: mpmath.gammainc(mpmath.mpf(bins - 1) / 2, x / 2, mpmath.inf,
                                                     regularized=True) - mpmath.mpf("1e-6"), 180)
    assert stat < crit
    for x in (4, 5):
        tail = float(mpmath.erfc(x / mpmath.sqrt(2)))
        beyond = int((np.abs(z) > x).sum())
        assert abs(beyond - n * tail) <= 5.0 * math.sqrt(n * tail * (1.0 - tail)), x


def test_fewer_paths_give_a_prefix():
    small = simulate_terminal_and_average(BENCH, McConfig(paths=4096, steps=16, seed=8))
    first = next(iter_terminal_and_average(BENCH, McConfig(paths=10_000, steps=16, seed=8)))
    assert np.array_equal(small[0], first[0]) and np.array_equal(small[1], first[1])


def _one_shot_paths(p, cfg):
    """(S(T), A_hat) built from each block's whole normal array at once."""
    dt = p.T / cfg.steps
    s_parts, a_parts = [], []
    for lo in range(0, cfg.paths, BLOCK_PATHS):
        z = _block_normals(cfg, lo, min(lo + BLOCK_PATHS, cfg.paths))
        s = np.exp(np.cumsum(z * (p.sigma * math.sqrt(dt)) + (p.r - 0.5 * p.sigma ** 2) * dt,
                             axis=1))
        head = s[:, :-1].sum(axis=1)
        if cfg.averaging == "trapezoid":
            a_parts.append((0.5 + head + 0.5 * s[:, -1]) / cfg.steps)
        else:
            a_parts.append((1.0 + head) / cfg.steps)
        s_parts.append(s[:, -1])
    return np.concatenate(s_parts), np.concatenate(a_parts)


@pytest.mark.parametrize("paths, steps", [(9_000, 333), (4_100, 1), (4_097, 1000),
                                          (3, 70_000)])
def test_tiled_simulation_equals_one_shot_reference(paths, steps):
    # tiles of 2^16 // steps whole paths: 333 and 1000 do not divide 2^16,
    # 70 000 steps exceed it (one path per tile); each case ends in a partial block
    p = GbmParams(r=0.07, sigma=0.4, T=1.5)
    for averaging in ("trapezoid", "left-riemann"):
        cfg = McConfig(paths=paths, steps=steps, seed=41, averaging=averaging)
        want = _one_shot_paths(p, cfg)
        for threads in (1, 2):
            got = simulate_terminal_and_average(p, cfg, threads=threads)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


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


def test_correlation_stderr_shrinks_on_doubling():
    # one seed's ratio has SD ~0.23 (batch-means stderr over 32 batches);
    # the mean over eight seeds has SD ~0.08
    ratios = []
    for seed in range(31, 39):
        a = estimate_correlation(BENCH, McConfig(paths=20_000, steps=50, seed=seed))
        b = estimate_correlation(BENCH, McConfig(paths=40_000, steps=50, seed=seed))
        ratios.append(a.stderr / b.stderr)
    assert np.mean(ratios) == pytest.approx(math.sqrt(2.0), rel=0.25)


def test_trapezoid_bias_shrinks_quadratically():
    # sigma = 0 isolates the quadrature bias of the averaging rule
    p = GbmParams(r=0.4, sigma=0.0, T=1.0)
    errs = []
    for steps in (8, 16, 32):
        est = estimate_moment_A(p, McConfig(paths=2, steps=steps, seed=0), 1)
        errs.append(abs(est.value - mean_A(p)))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.1)


def test_left_riemann_bias_is_first_order():
    p = GbmParams(r=0.4, sigma=0.0, T=1.0)
    errs = []
    for steps in (8, 16, 32):
        cfg = McConfig(paths=2, steps=steps, seed=0, averaging="left-riemann")
        errs.append(abs(estimate_moment_A(p, cfg, 1).value - mean_A(p)))
    assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.1)
    assert errs[1] / errs[2] == pytest.approx(2.0, rel=0.1)


def test_estimate_correlation():
    cfg = McConfig(paths=40_000, steps=100, seed=13)
    from gbmdd.moments import correlation
    est = estimate_correlation(BENCH, cfg)
    assert abs(est.value - correlation(BENCH).R) <= 3.0 * est.stderr
    assert est.stderr > 0
    with pytest.raises(ValueError, match="deterministic"):
        estimate_correlation(GbmParams(r=0.05, sigma=0.0, T=1.0), cfg)
    with pytest.raises(ValueError, match="batch"):
        estimate_correlation(BENCH, McConfig(paths=32, steps=4, seed=0))


def test_ordered_product_mc_cross_check():
    # E S(t1) S(t2) S(t3) against the analytic formula, using paths rebuilt
    # from the simulator's own normals
    p = BENCH
    cfg = McConfig(paths=60_000, steps=64, seed=17)
    times = (0.25, 0.5, 1.0)
    idx = [int(t * cfg.steps) - 1 for t in times]  # column i holds S((i+1) dt)
    dt = p.T / cfg.steps
    prods = []
    for lo in range(0, cfg.paths, BLOCK_PATHS):
        z = _block_normals(cfg, lo, min(lo + BLOCK_PATHS, cfg.paths))
        log_s = np.cumsum((p.r - 0.5 * p.sigma ** 2) * dt + p.sigma * math.sqrt(dt) * z,
                          axis=1)
        s = np.exp(log_s)
        prods.append(s[:, idx[0]] * s[:, idx[1]] * s[:, idx[2]])
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
    est0 = estimate_payoff(p0, McConfig(paths=2, steps=256, seed=0), FloatingStrikeAsianCall())
    _, a_det = simulate_terminal_and_average(p0, McConfig(paths=2, steps=256, seed=0))
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
