"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured margin.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import time

import mpmath as mp
import numpy as np
import pytest

from gbmdd import cli
from gbmdd.divdiff import EvalMethod, exp_dd
from gbmdd.moments import GbmParams, _b_nodes, correlation, moment_A, s_statistic
from gbmdd.oracles import (
    hermite_genocchi_oracle,
    moment_bruteforce,
    moment_ode_residual,
    newton_table,
    oshanin_yor_moment,
)
from gbmdd.montecarlo import (
    FloatingStrikeAsianCall,
    McConfig,
    estimate_payoff,
    estimate_suite,
)
from gbmdd.moments import cross_moment_SA, mean_A, mean_S, second_moment_A
from gbmdd.pricing import floating_strike_asian_approx, margrabe_price

from references import mp_exp_dd, mp_hull_second_moment

BENCH = GbmParams(r=0.05, sigma=0.2, T=1.0)


def test_criterion_1_correlation_bound():
    """R in [1/sqrt(2), 1] over the 200 x 200 log-spaced (rT, sigma^2 T) grid."""
    t0 = time.perf_counter()
    r_min, r_max = 2.0, 0.0
    for rT in np.logspace(-3.0, 1.0, 200):
        for s2T in np.logspace(-3.0, 1.0, 200):
            R = correlation(GbmParams(r=float(rT), sigma=math.sqrt(s2T), T=1.0)).R
            r_min = min(r_min, R)
            r_max = max(r_max, R)
    elapsed = time.perf_counter() - t0
    assert r_min >= 0.707106
    assert r_max <= 1.0 + 1e-12
    assert elapsed < 10.0
    print(f"\nPASS criterion 1: min R = {r_min:.9f} >= 0.707106, "
          f"max R = {r_max:.12f} <= 1+1e-12, {elapsed:.1f}s < 10s")


def _R(x, s):
    """R at rT = x, sigma^2 T = s as sqrt(S(x, 2x + s) / 2); defined where
    e^{2x + s} overflows and `correlation` raises."""
    return math.sqrt(s_statistic(x, 2.0 * x + s) / 2.0)


def test_correlation_bound_holds_for_nonnegative_rates():
    """R >= 1/sqrt(2) for rT in [0, 5] out to sigma^2 T = 3000, beyond
    criterion 1's grid; at rT = 0 the bound is tight as sigma^2 T grows."""
    r_min = 2.0
    for x in np.linspace(0.0, 5.0, 26).tolist():
        for s in np.logspace(-3.0, math.log10(3000.0), 80).tolist():
            R = _R(x, s)
            r_min = min(r_min, R)
            if 2.0 * x + s < 700.0:
                assert R == pytest.approx(correlation(GbmParams(x, math.sqrt(s), 1.0)).R,
                                          rel=1e-12)
    assert r_min >= 1.0 / math.sqrt(2.0) - 1e-12
    print(f"\nPASS bound region: min R = {r_min!r} on rT in [0, 5], sigma^2 T <= 3000")


@pytest.mark.parametrize("x", [-0.1, -0.001, 0.001, 0.1])
def test_correlation_bound_fails_for_negative_rates_at_large_variance(x):
    """R - 1/sqrt(2) ~ x / (2 sqrt(2) s) as s = sigma^2 T grows at fixed
    x = rT: the bound is approached from above for r > 0 and fails for every
    r < 0 once s is large enough."""
    for s in (1000.0, 3000.0):
        gap = _R(x, s) - 1.0 / math.sqrt(2.0)
        want = x / (2.0 * math.sqrt(2.0) * s)
        assert gap * x > 0.0, (x, s)
        assert abs(gap / want - 1.0) <= 0.01, (x, s)


def test_correlation_on_the_line_sigma2_equals_r():
    """sigma^2 = r puts the nodes 3x, 2x, x, 0 equispaced: S = 3/2, so
    R = sqrt(3)/2, at every rate; e^{3x} overflows from x = 237."""
    for x in [*range(-20000, 20001, 37), 236, 237, 20000]:
        assert abs(s_statistic(float(x), 3.0 * x) - 1.5) <= 2e-15, x


def _R0(x):
    """R's limit as sigma -> 0 at rT = x, on confluent nodes:
    exp[x, 2x, 2x] / sqrt(2 exp[2x, 2x] exp[0, x, 2x, 2x])."""
    return exp_dd([x, 2.0 * x, 2.0 * x]) / math.sqrt(
        2.0 * exp_dd([2.0 * x, 2.0 * x]) * exp_dd([0.0, x, 2.0 * x, 2.0 * x]))


def _mp_R0(x):
    return mp_exp_dd([x, 2 * x, 2 * x]) / mp.sqrt(
        2 * mp_exp_dd([2 * x, 2 * x]) * mp_exp_dd([0, x, 2 * x, 2 * x]))


def test_correlation_sigma_zero_limit():
    """R0 = lim R as sigma -> 0 against 50-digit mpmath: sqrt(3)/2 at rT = 0,
    sqrt(2 / |rT|) as rT -> -inf, and 1/sqrt(2) at rT = x* ~ -3.2453045:
    below x* the bound fails even as sigma -> 0."""
    with mp.workdps(50):
        for x in [*np.linspace(-100.0, 5.0, 43).tolist(), -1e-3, 1e-3]:
            assert abs(_R0(x) / _mp_R0(x) - 1) <= 2e-14, x
        x_star = mp.findroot(lambda x: _mp_R0(x) - 1 / mp.sqrt(2), -3.2453)
    assert abs(x_star + 3.2453045) <= 1e-7
    x_star = float(x_star)
    assert abs(_R0(x_star) - 1.0 / math.sqrt(2.0)) <= 4e-16
    assert _R0(x_star - 1e-9) < 1.0 / math.sqrt(2.0) < _R0(x_star + 1e-9)
    assert abs(_R0(0.0) - math.sqrt(3.0) / 2.0) <= 2e-16
    assert abs(_R0(-100.0) - math.sqrt(0.02)) <= 1e-15
    print(f"\nPASS sigma -> 0 limit: R0(0) = {_R0(0.0)!r}, R0(-100) = {_R0(-100.0)!r}, "
          f"R0 = 1/sqrt(2) at rT = {x_star!r}")


def test_criterion_2_figure_grid(capsys):
    """Default scan reproduces the published window; the surface obeys the
    S >= 1 bound and approaches its two limiting values: at fixed r,
    S -> 2 as a -> -infinity and S -> 1 as a -> +infinity.  (S(r, a) with
    r -> infinity at fixed a tends to 2 as well, so only the a-direction
    probes the lower limit.)
    """
    t0 = time.perf_counter()
    code = cli.main(["scan"])
    out = capsys.readouterr().out
    elapsed = time.perf_counter() - t0
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "r,a,S"
    rows = [tuple(float(x) for x in ln.split(",")) for ln in lines[1:] if not ln.startswith("#")]
    assert len(rows) == 121 * 100
    min_S = min(s for _, _, s in rows)
    assert min_S >= 1.0 - 1e-9
    low_a = s_statistic(1.0, -40.0)
    high_a = s_statistic(1.0, 50.0)
    assert abs(low_a - 2.0) <= 0.05 * 2.0
    assert abs(high_a - 1.0) <= 0.05
    assert elapsed < 5.0
    print(f"\nPASS criterion 2: grid 121x100 emitted, min S = {min_S:.9f} >= 1-1e-9, "
          f"S(1,-40) = {low_a:.4f} (limit 2), S(1,50) = {high_a:.4f} (limit 1), "
          f"{elapsed:.1f}s < 5s")


def test_criterion_3_stated_range():
    """R(0.05, 0.04) at T = 1 sits in the 0.8-0.9 range and matches 50-digit
    mpmath to 1e-10."""
    R = correlation(BENCH).R
    assert 0.80 <= R <= 0.90
    with mp.workdps(50):
        num = mp_exp_dd([0.05, 0.10, 0.14])
        den = mp.sqrt(2 * mp_exp_dd([0.10, 0.14]) * mp_exp_dd([0.0, 0.05, 0.10, 0.14]))
        R_ref = float(num / den)
    rel = abs(R - R_ref) / R_ref
    assert rel <= 1e-10
    assert R == pytest.approx(0.8663842874183117, abs=5e-5)  # the ~0.8663 claim
    print(f"\nPASS criterion 3: R = {R:.10f} in [0.80, 0.90], "
          f"vs extended precision rel = {rel:.2e} <= 1e-10")


def test_criterion_4_moment_formula_vs_bruteforce():
    """Moment formula against nested quadrature for m = 1..4, plus the m = 2
    agreement with the textbook two-term expression."""
    t0 = time.perf_counter()
    worst = 0.0
    for m in range(1, 5):
        diff = abs(moment_A(BENCH, m) - moment_bruteforce(BENCH, m).value)
        worst = max(worst, diff)
        assert diff <= 1e-8
    hull_rel = abs(moment_A(BENCH, 2) - float(mp_hull_second_moment(BENCH))) / moment_A(BENCH, 2)
    assert hull_rel <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"\nPASS criterion 4: max |moment - quadrature| = {worst:.2e} <= 1e-8, "
          f"m=2 vs two-term form rel = {hull_rel:.2e} <= 1e-12, {elapsed:.1f}s < 5s")


def test_criterion_5_oshanin_yor_equivalence():
    """Binomial-sum formula and symmetric-node form against the
    divided-difference moment for m = 1..8, rT in {0.5, 1, 2}."""
    worst_binom = worst_sym = 0.0
    for rT in (0.5, 1.0, 2.0):
        for m in range(1, 9):
            dd_form = math.factorial(m) * exp_dd([k * k * rT for k in range(m + 1)])
            binom = oshanin_yor_moment(m, rT)
            worst_binom = max(worst_binom, abs(binom - dd_form) / dd_form)
            ints = list(range(-m, m + 1))
            h_top = newton_table([math.exp(rT * x * x) for x in ints], ints).top
            sym = math.factorial(m) * rT ** (-m) * h_top
            worst_sym = max(worst_sym, abs(sym - dd_form) / dd_form)
    assert worst_binom <= 1e-8
    assert worst_sym <= 1e-8
    print(f"\nPASS criterion 5: binomial form rel <= {worst_binom:.2e}, "
          f"symmetric-node form rel <= {worst_sym:.2e} (tolerance 1e-8)")


def test_criterion_6_divided_difference_engine():
    """Permutation invariance, shift identity, confluent exactness, matrix
    method versus mpmath, and the sampling oracle."""
    rng = np.random.default_rng(2024)
    # permutation invariance: 1000 random node sets, n <= 8; nodes drawn from
    # a coarse jittered lattice so the unsorted tableau stays well conditioned
    worst_perm = 0.0
    lattice = np.arange(-8.0, 9.0, 2.0)
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        nodes = (rng.choice(lattice, size=n + 1, replace=False)
                 + rng.uniform(-0.1, 0.1, n + 1))
        vals = np.exp(nodes)
        t1 = newton_table(vals, nodes).top
        perm = rng.permutation(n + 1)
        t2 = newton_table(vals[perm], nodes[perm]).top
        worst_perm = max(worst_perm, abs(t1 - t2) / abs(t1))
    assert worst_perm <= 1e-12

    # shift identity
    worst_shift = 0.0
    for _ in range(300):
        n = int(rng.integers(1, 8))
        nodes = rng.uniform(-4.0, 4.0, n + 1)
        mu = float(rng.uniform(-3.0, 3.0))
        lhs = math.exp(mu) * exp_dd(nodes)
        rhs = exp_dd(nodes + mu)
        worst_shift = max(worst_shift, abs(lhs - rhs) / abs(rhs))
    assert worst_shift <= 1e-12

    # confluent exactness
    worst_conf = 0.0
    for x in np.linspace(-5.0, 5.0, 11):
        for n in range(0, 9):
            got = exp_dd([float(x)] * (n + 1))
            want = math.exp(x) / math.factorial(n)
            worst_conf = max(worst_conf, abs(got - want) / want)
    assert worst_conf <= 1e-14

    # matrix method vs mpmath on equispaced nodes, at the orders n up to
    # n log10(n/spread) <= 18 for each spread
    worst_tm = 0.0
    for spread, nmax in [(1.0, 8), (1e-1, 8), (1e-2, 6), (1e-3, 4), (1e-4, 3), (1e-5, 3),
                         (1e-6, 2)]:
        for n in range(1, nmax + 1):
            base = float(rng.uniform(-2.0, 2.0))
            nodes = base + np.linspace(0.0, spread, n + 1)
            tm = exp_dd(nodes, method=EvalMethod.TAYLOR_MATRIX)
            ref = float(mp_exp_dd(nodes))
            worst_tm = max(worst_tm, abs(tm - ref) / abs(ref))
    assert worst_tm <= 1e-10

    # sampling oracle within 4 reported standard errors at 1e5 samples
    worst_z = 0.0
    for n in range(1, 6):
        nodes = np.sort(rng.uniform(-1.0, 1.5, n + 1))
        est = hermite_genocchi_oracle(np.exp, nodes, budget=100_000, seed=100 + n)
        z = abs(est.value - exp_dd(nodes)) / est.error
        worst_z = max(worst_z, z)
    assert worst_z <= 4.0

    print(f"\nPASS criterion 6: permutation {worst_perm:.2e} <= 1e-12, "
          f"shift {worst_shift:.2e} <= 1e-12, confluent {worst_conf:.2e} <= 1e-14, "
          f"matrix vs mpmath {worst_tm:.2e} <= 1e-10, sampling |z| {worst_z:.2f} <= 4")


def test_criterion_7_ode_recurrence():
    """Moment ODE residual below 1e-6 for 50 random admissible cases with
    n <= 6 and for the benchmark growth-rate nodes."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 7))
        c = np.cumsum(rng.uniform(0.05, 0.5, n))
        t = float(rng.uniform(0.1, 5.0))
        worst = max(worst, moment_ode_residual(n, t, c))
    for n in range(1, 7):
        c = _b_nodes(BENCH, n, 1.0)[1:]
        worst = max(worst, moment_ode_residual(n, 1.0, c))
    assert worst <= 1e-6
    print(f"\nPASS criterion 7: max ODE residual = {worst:.2e} <= 1e-6")


def test_criterion_8_monte_carlo_oracle():
    """1e5 paths x 1e3 steps at the shipped seed: five analytic quantities
    within three standard errors, under 60 s, bit-identical across 1, 2 and
    8 threads."""
    cfg = McConfig(paths=100_000, steps=1000, seed=cli.DEFAULT_SEED)
    t0 = time.perf_counter()
    suite = estimate_suite(BENCH, cfg, threads=1)
    elapsed = time.perf_counter() - t0
    truth = {
        "mean_S": mean_S(BENCH),
        "mean_A": mean_A(BENCH),
        "second_moment_A": second_moment_A(BENCH),
        "cross_moment_SA": cross_moment_SA(BENCH),
        "correlation": correlation(BENCH).R,
    }
    zs = {}
    for name, want in truth.items():
        est = suite[name]
        zs[name] = (est.value - want) / est.stderr
        assert abs(zs[name]) <= 3.0, name
    assert elapsed < 60.0
    flat = {k: (v.value, v.stderr, v.paths_used) for k, v in suite.items()}
    for threads in (2, 8):
        other = estimate_suite(BENCH, cfg, threads=threads)
        assert {k: (v.value, v.stderr, v.paths_used) for k, v in other.items()} == flat
    zs_text = ", ".join(f"{k} z={v:+.2f}" for k, v in zs.items())
    print(f"\nPASS criterion 8: {zs_text}; {elapsed:.1f}s < 60s; "
          f"bit-identical across 1/2/8 threads")


def test_criterion_9_pricing_sanity():
    """Floating-strike approximation within 5% of a 1e6-path Monte Carlo
    price; exchange-formula degenerate cases exact."""
    quote = floating_strike_asian_approx(BENCH)
    cfg = McConfig(paths=1_000_000, steps=256, seed=cli.DEFAULT_SEED)
    est = estimate_payoff(BENCH, cfg, FloatingStrikeAsianCall())
    gap = abs(quote.value - est.value) / est.value
    assert gap <= 0.05
    same = margrabe_price(F1=1.3, F2=1.3, s1=0.4, s2=0.4, rho=1.0, discount=0.9)
    assert abs(same.value) <= 1e-12
    tiny = margrabe_price(F1=1.2, F2=1e-13, s1=0.3, s2=0.2, rho=0.5, discount=0.95)
    assert abs(tiny.value - 0.95 * 1.2) <= 1e-12
    print(f"\nPASS criterion 9: approx {quote.value:.6f} vs MC {est.value:.6f} "
          f"(+-{est.stderr:.1e}), gap = {gap:.3%} <= 5%; degenerate cases exact")
