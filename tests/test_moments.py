import dataclasses
import io
import itertools
import math
import sys
import tracemalloc
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from gbmdd import divdiff, moments, pricing
from gbmdd.ddarith import DD, dd_exp, exp_dd_reference
from gbmdd.divdiff import exp_dd, newton_table
from gbmdd.moments import (
    BNodes,
    GbmParams,
    GridResult,
    GridSpec,
    correlation,
    covariance_SA,
    cross_moment_SA,
    grid_scan,
    hull_second_moment,
    mean_A,
    mean_S,
    moment_A,
    moment_bruteforce,
    moment_ode_residual,
    moment_table,
    ordered_product_expectation,
    oshanin_yor_moment,
    pairwise_expectation,
    power_expectation,
    s_statistic,
    second_moment_A,
    var_A,
    var_S,
)

from conftest import MEMOISED
from references import _row_exp_dd_batch, _taylor_rows, mp_exp_dd

BENCH_R = 0.86638428741831168064  # 50-digit recurrence value at r=.05, s=.2, T=1


def _bits(x):
    """A float, a report of floats or a list of them, as exact hex strings."""
    if isinstance(x, float):
        return x.hex()
    if dataclasses.is_dataclass(x):
        return [(f.name, _bits(getattr(x, f.name))) for f in dataclasses.fields(x)]
    if isinstance(x, dict):
        return {k: _bits(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_bits(v) for v in x]
    return x


def test_params_validation():
    with pytest.raises(ValueError):
        GbmParams(r=0.05, sigma=-0.1, T=1.0)
    with pytest.raises(ValueError):
        GbmParams(r=0.05, sigma=0.2, T=0.0)
    with pytest.raises(ValueError):
        GbmParams(r=math.inf, sigma=0.2, T=1.0)
    GbmParams(r=-0.03, sigma=0.0, T=2.0)  # negative rate is fine


@pytest.mark.parametrize("args", [(0, 1, 2), (np.float64(0.05), np.float64(0.2), np.float64(1.5))])
def test_params_store_plain_floats(args):
    p = GbmParams(*args)
    q = GbmParams(*map(float, args))
    assert [type(x) for x in (p.r, p.sigma, p.T)] == [float] * 3
    assert p == q and hash(p) == hash(q)
    rep = correlation.__wrapped__(p)
    assert all(type(x) is float for x in dataclasses.astuple(rep))
    assert _bits(rep) == _bits(correlation.__wrapped__(q))
    for fn in (mean_A.__wrapped__, moments._var_A_dd.__wrapped__, second_moment_A):
        assert _bits(fn(p)) == _bits(fn(q))


def test_b_nodes():
    p = GbmParams(r=0.05, sigma=0.2, T=1.0)
    b = BNodes.from_params(p, 4)
    assert b.values == pytest.approx((0.0, 0.05, 0.14, 0.27, 0.44), rel=1e-15)
    assert b.values[0] == 0.0 and b.values[1] == p.r
    assert all(x < y for x, y in zip(b.values, b.values[1:]))
    assert b.scaled(2.0) == tuple(2.0 * x for x in b.values)


# ---------------------------------------------------------------------------
# first and second order quantities


def test_mean_S(bench):
    assert mean_S(GbmParams(r=0.0, sigma=0.2, T=1.0)) == 1.0
    assert mean_S(bench) == pytest.approx(1.0512710963760240397, rel=1e-15)


def test_mean_A(bench):
    assert mean_A(GbmParams(r=0.0, sigma=0.2, T=1.0)) == pytest.approx(1.0, rel=1e-15)
    assert mean_A(bench) == pytest.approx(1.025421927520480794, rel=1e-14)
    assert mean_A(bench) == pytest.approx(exp_dd([0.0, 0.05]), rel=1e-15)


def test_pairwise_expectation(bench):
    assert pairwise_expectation(bench, 1.0, 1.0) == pytest.approx(
        math.exp(0.14), rel=1e-15)
    assert pairwise_expectation(bench, 0.0, 0.7) == pytest.approx(
        mean_S(GbmParams(r=0.05, sigma=0.2, T=0.7)), rel=1e-15)
    assert pairwise_expectation(bench, 0.5, 1.0) == pytest.approx(
        math.exp(0.095), rel=1e-15)
    with pytest.raises(ValueError):
        pairwise_expectation(bench, 1.0, 0.5)
    with pytest.raises(ValueError):
        pairwise_expectation(bench, -0.1, 0.5)


def test_cross_moment(bench):
    assert cross_moment_SA(bench) == pytest.approx(1.1000300275689247603, rel=1e-13)
    # sigma = 0 factorizes through the shift identity
    p0 = GbmParams(r=0.07, sigma=0.0, T=1.3)
    assert cross_moment_SA(p0) == pytest.approx(mean_S(p0) * mean_A(p0), rel=1e-13)


def test_second_moment_and_hull(bench):
    assert second_moment_A(bench) == pytest.approx(1.065830000692056662, rel=1e-13)
    assert hull_second_moment(bench) == pytest.approx(second_moment_A(bench), rel=1e-12)
    # r = sigma = 0 limit: the average is identically 1
    assert second_moment_A(GbmParams(r=0.0, sigma=0.0, T=5.0)) == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(ValueError, match="singular"):
        hull_second_moment(GbmParams(r=0.0, sigma=0.2, T=1.0))
    with pytest.raises(ValueError, match="singular"):
        hull_second_moment(GbmParams(r=-0.125, sigma=0.5, T=1.0))  # 2r + sigma^2 = 0


def test_hull_agreement_sweep():
    # conditioning of the two-term form is handled by compensated evaluation,
    # so the stated tolerance holds over the whole box
    for r in np.geomspace(0.01, 1.0, 8):
        for s2 in np.geomspace(0.01, 1.0, 8):
            for T in np.geomspace(0.1, 10.0, 8):
                p = GbmParams(r=float(r), sigma=float(math.sqrt(s2)), T=float(T))
                assert hull_second_moment(p) == pytest.approx(
                    second_moment_A(p), rel=1e-12)


def test_variances_and_covariance(bench):
    p0 = GbmParams(r=0.05, sigma=0.0, T=1.0)
    assert covariance_SA(p0) == 0.0
    assert var_S(p0) == 0.0
    assert var_A(p0) == 0.0
    # var_S equals the expanded first-order form identically
    for p in (bench, GbmParams(r=0.3, sigma=0.5, T=2.0)):
        direct = math.exp((2 * p.r + p.sigma ** 2) * p.T) - math.exp(2 * p.r * p.T)
        assert var_S(p) == pytest.approx(direct, rel=1e-13)
    assert covariance_SA(bench) == pytest.approx(0.04 * 0.55083983941132645014, rel=1e-13)


def test_var_A_raises_where_it_overflows():
    # its divided difference is finite; 2 sigma^2 T times it is not, and
    # var_A returned inf where var_S and covariance_SA raise, so a quote
    # failed inside normal_cdf with "x must be finite"
    p = GbmParams(361.198439088731, 12.887404419744092, 0.8174306735674376)
    assert math.isfinite(moments._var_A_dd(p))
    for fn in (var_A, var_S, covariance_SA, pricing.floating_strike_asian_approx,
               lambda p: pricing.fixed_strike_asian_approx(p, 1.0)):
        with pytest.raises(OverflowError):
            fn(p)


def test_dd_consistency_invariants(bench):
    # one recurrence step relates the covariance to the raw cross moment
    for p in (bench, GbmParams(r=0.3, sigma=0.4, T=0.5), GbmParams(r=-0.1, sigma=0.3, T=2.0)):
        assert covariance_SA(p) == pytest.approx(
            cross_moment_SA(p) - mean_S(p) * mean_A(p), rel=1e-10)
        assert var_A(p) == pytest.approx(
            second_moment_A(p) - mean_A(p) ** 2, rel=1e-10)


# ---------------------------------------------------------------------------
# per-point memo of correlation, mean_A and var_A's divided difference


def _quote_points():
    """Seeded points of the benchmark's market box, with an r = 0.0, an
    r = -0.0 and a tiny sigma^2 T among them; one strike each."""
    rng = np.random.default_rng(2024)
    points = [GbmParams(r, s, T) for r, s, T in zip(rng.uniform(-0.02, 0.12, 12),
                                                    rng.uniform(0.05, 0.8, 12),
                                                    rng.uniform(0.1, 5.0, 12))]
    points += [GbmParams(0.0, 0.3, 2.0), GbmParams(-0.0, 0.3, 2.0),
               GbmParams(0.04, math.sqrt(1e-7 / 3.0), 3.0)]
    return [(p, mean_A.__wrapped__(p) * k) for p, k in zip(points, rng.uniform(0.8, 1.2, 15))]


def _quote_sequence(points):
    """What one market quote computes at each point, in its order."""
    return [(moments.correlation(p), moments.moment_table(p, 8),
             pricing.floating_strike_asian_approx(p), pricing.fixed_strike_asian_approx(p, K))
            for p, K in points]


def _count_exp_dd(monkeypatch) -> list:
    calls = []
    exp_dd = moments.exp_dd

    def counted(*args, **kwargs):
        calls.append(args)
        return exp_dd(*args, **kwargs)

    monkeypatch.setattr(moments, "exp_dd", counted)
    return calls


def test_memo_saves_divided_differences_and_keeps_bits(monkeypatch):
    points = _quote_points()
    calls = _count_exp_dd(monkeypatch)
    cached = _quote_sequence(points)
    n_cached = len(calls)
    # a quote asks for each of the three at least twice and computes it once
    # per distinct point; the r = -0.0 point equals the r = 0.0 one
    for fn in MEMOISED:
        info = fn.cache_info()
        assert info.misses == len(points) - 1, fn
        assert info.hits >= len(points) + 1, fn
    assert correlation.cache_info().hits == len(points) + 1
    calls.clear()
    for fn in MEMOISED:
        monkeypatch.setattr(moments, fn.__name__, fn.__wrapped__)
    uncached = _quote_sequence(points)
    assert n_cached < len(calls)
    assert _bits(cached) == _bits(uncached)


def test_memo_negative_zero_rate_gives_the_bits_of_zero():
    for sigma, T in ((0.3, 2.0), (1e-4, 0.5), (0.8, 5.0)):
        zero, neg = GbmParams(0.0, sigma, T), GbmParams(-0.0, sigma, T)
        assert zero == neg and hash(zero) == hash(neg)
        for fn in MEMOISED:
            want = _bits(fn.__wrapped__(zero))
            assert _bits(fn.__wrapped__(neg)) == want
            assert _bits(fn(neg)) == want and _bits(fn(zero)) == want


def test_memo_is_small_and_bounded():
    for fn in MEMOISED:
        assert fn.cache_info().maxsize is not None
        assert 1 <= fn.cache_info().maxsize <= 64


# ---------------------------------------------------------------------------
# correlation and the S surface


def test_correlation_benchmark(bench):
    rep = correlation(bench)
    assert rep.R == pytest.approx(BENCH_R, rel=1e-12)
    assert 0.80 <= rep.R <= 0.90
    assert rep.R == pytest.approx(rep.covariance / math.sqrt(rep.var_S * rep.var_A),
                                  rel=1e-12)
    assert rep.s_statistic == pytest.approx(2.0 * rep.R ** 2, rel=1e-15)
    assert rep.covariance == pytest.approx(covariance_SA(bench), rel=1e-14)


def test_correlation_sigma_zero():
    with pytest.raises(ValueError, match="deterministic"):
        correlation(GbmParams(r=0.05, sigma=0.0, T=1.0))


def test_correlation_gaussian_limit():
    # rT, sigma^2 T -> 0: R -> sqrt(3)/2 (Brownian-limit covariances T/2, T, T/3)
    rep = correlation(GbmParams(r=1e-9, sigma=1e-4, T=1.0))
    assert rep.R == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-6)


def test_s_statistic_relation(bench):
    rep = correlation(bench)
    S = s_statistic(bench.r * bench.T, (2 * bench.r + bench.sigma ** 2) * bench.T)
    assert S == pytest.approx(2.0 * rep.R ** 2, rel=1e-10)
    assert S == pytest.approx(1.501243466970671407, rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=-3, max_value=1), st.floats(min_value=-3, max_value=1))
def test_s_statistic_relation_property(log_rT, log_s2T):
    rT, s2T = 10.0 ** log_rT, 10.0 ** log_s2T
    R = correlation(GbmParams(r=rT, sigma=math.sqrt(s2T), T=1.0)).R
    S = s_statistic(rT, 2.0 * rT + s2T)
    assert S == pytest.approx(2.0 * R * R, rel=1e-10)
    assert 1.0 / math.sqrt(2.0) - 1e-9 <= R <= 1.0 + 1e-12


def test_s_statistic_limits():
    # at fixed r: a -> -infinity gives 2, a -> +infinity gives 1
    assert abs(s_statistic(1.0, -40.0) - 2.0) <= 0.05 * 2.0
    assert abs(s_statistic(1.0, 50.0) - 1.0) <= 0.05


def test_correlation_at_wide_rates_against_mpmath():
    # 2 d1 d2 overflows from rT of about 178 (R read 0.0, S(r, a) nan) or
    # leaves the normal range at wide negative rates: R was off by 7e-9 at
    # the fourth point, by 5.7e-2 at the fifth (d1 subnormal), and raised
    # at the last three, where d1 (and at the last num) underflows to 0 and
    # the report's var_S (covariance) reads 0.  There each divided difference
    # is taken as e^t x with t its largest node, whose subtraction rounds each
    # node by up to 1.1e-16 |node| (about 1e-13 relative here).
    for r, sigma, T in ((180.0, 1.0, 1.0), (300.0, 1.0, 1.0), (354.85, 1e-3, 1.0),
                        (-208.87911432654286, 0.9661561164116761, 1.6998192890824302),
                        (-179.71162324938604, 0.05673902273430583, 2.0159407597153876),
                        (-328.90861086454083, 0.8528190821690533, 1.133038795044639),
                        (-268.6425722144426, 7.886271062952987, 1.9296876647912937),
                        (-600.0, 0.01, 1.0),
                        (-124.25323661389916, 10.132275730097296, 7.841856606558624)):
        p = GbmParams(r, sigma, T)
        rT, b = r * T, (2.0 * r + sigma ** 2) * T
        with mp.workdps(800):
            R = mp_exp_dd([rT, 2 * rT, b]) / mp.sqrt(2 * mp_exp_dd([2 * rT, b])
                                                     * mp_exp_dd([0, rT, 2 * rT, b]))
            assert abs(correlation(p).R / R - 1) <= 1e-12, p
            S = 2 * R * R
            if S > sys.float_info.min:
                assert abs(s_statistic(rT, b) / S - 1) <= 1e-12, p
            else:   # S = 1.5e-348 at the last point
                assert s_statistic(rT, b) == 0.0
        if rT > -700.0:
            assert pricing.floating_strike_asian_approx(p).inputs["rho"] == correlation(p).R
        else:   # R = 8.6e-175, but the quote's discount e^{-rT} overflows
            with pytest.raises(OverflowError):
                pricing.floating_strike_asian_approx(p)


def test_s_statistic_at_wide_negative_a_against_mpmath():
    # a = -10^k: the matrix route's squarings took S 2.0% off at r = 0.1,
    # a = -1e14, without a sign; on the recurrence every cell, scalar and
    # scanned, is within 1e-14 of mpmath
    for r in (0.1, 1.0, 10.0):
        for x in (-10.0 ** k for k in range(1, 301)):
            with mp.workdps(60):
                want = mp_exp_dd([x, 2 * r, r]) ** 2 / (mp_exp_dd([x, 2 * r]) * mp_exp_dd([x, 2 * r, r, 0.0]))
            cell = grid_scan(GridSpec(a_min=x, a_max=x, r_min=r, r_max=r, na=1, nr=1)).values[0, 0]
            for got in (s_statistic(r, x), cell):
                assert abs(got / want - 1) <= 1e-14, (r, x)


_WIDE = st.floats(min_value=-1e300, max_value=1e300)


@seed(17)
@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-1e4, max_value=1e4), st.floats(min_value=-1e4, max_value=1e4),
       _WIDE, _WIDE)
def test_s_statistic_range_contract(r, a, wide_r, wide_a):
    # finite on |r|, |a| <= 1e4; out to 1e300 finite or OverflowError, where
    # the scaled form's x_1 x_2 underflowed and S raised ZeroDivisionError
    S = s_statistic(r, a)
    assert math.isfinite(S) and S >= 0.0, (r, a)
    try:
        S = s_statistic(wide_r, wide_a)
    except OverflowError:
        return
    assert math.isfinite(S) and S >= 0.0, (wide_r, wide_a)


@seed(17)
@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-1e5, max_value=1e5), st.floats(min_value=1e-6, max_value=1e3),
       st.floats(min_value=1e-3, max_value=1e2))
def test_correlation_range_contract(r, sigma, T):
    try:
        R = correlation(GbmParams(r, sigma, T)).R
    except OverflowError:
        return
    assert 0.0 <= R <= 1.0 + 1e-12, (r, sigma, T)


def test_grid_scan_defaults_match_published_window():
    res = grid_scan()
    assert res.values.shape == (100, 121)
    assert res.r_values[0] == 0.1 and res.r_values[-1] == 10.0
    assert res.a_values[0] == -20.0 and res.a_values[-1] == 40.0
    assert np.isfinite(res.values).all()
    assert (res.values > 0).all()
    assert res.min_S >= 1.0 - 1e-9
    assert res.decreasing_in_a  # observed on this window; reported, not proven


def test_grid_scan_degenerate_cell():
    spec = GridSpec(a_min=0.14, a_max=0.14, r_min=0.05, r_max=0.05, na=1, nr=1)
    res = grid_scan(spec)
    assert res.values[0, 0] == pytest.approx(s_statistic(0.05, 0.14), rel=1e-15)
    assert res.min_S == res.values[0, 0]
    assert res.decreasing_in_a   # one column: nothing to compare


def _per_cell(res):
    return np.array([[s_statistic(r, a) for a in res.a_values.tolist()]
                     for r in res.r_values.tolist()])


def _scan_window(seed):
    """The published window, or it moved by a seeded fraction of one step."""
    if seed is None:
        return GridSpec()
    fa, fr = np.random.default_rng(seed).uniform(size=2)
    da, dr = 60.0 / 120, 9.9 / 99
    return GridSpec(a_min=-20.0 + fa * da, a_max=40.0 + fa * da,
                    r_min=0.1 + fr * dr, r_max=10.0 + fr * dr)


@pytest.mark.parametrize("seed", [None, 0], ids=["published", "shifted"])
def test_grid_scan_matches_per_cell_s_statistic(seed):
    res = grid_scan(_scan_window(seed))
    want = _per_cell(res)
    assert np.abs(res.values / want - 1.0).max() <= 1e-13


def test_grid_scan_matrix_route_window():
    # r, a near 0: both three- and four-node sets of every cell are clustered
    spec = GridSpec(a_min=0.0, a_max=1e-3, r_min=1e-3, r_max=2e-3, na=7, nr=5)
    res = grid_scan(spec)
    r, a = (x.ravel() for x in np.meshgrid(res.r_values, res.a_values, indexing="ij"))
    for nodes in ([a, 2 * r, r], [a, 2 * r, r, 0 * r]):
        assert divdiff._taylor_columns(np.sort(np.stack(nodes, axis=1), axis=1).T).all()
    assert np.abs(res.values / _per_cell(res) - 1.0).max() <= 1e-13
    one = grid_scan(GridSpec(a_min=40.0, a_max=40.0, r_min=10.0, r_max=10.0, na=1, nr=1))
    assert one.values.shape == (1, 1)
    assert one.values[0, 0] == pytest.approx(s_statistic(10.0, 40.0), rel=1e-13)


def test_grid_scan_unrepresentable_window():
    # exp[a, 2r, r]^2 overflows at (r, a) = (180, 361); exp[a, 2r] and
    # exp[a, 2r, r]^2 underflow to 0 at (-400, -800), where S read 0/0; at
    # (-360, -860) and (-360, -840) they are subnormal, and S read 1.0 and
    # 0.5 for 0.9632 and 0.875; exp[a, 2r, r] itself overflows at (237, 711),
    # where S is 3/2 and the scan raised.  Those cells take s_statistic's
    # scaled form.
    for spec in (GridSpec(361.0, 361.0, 180.0, 180.0, 1, 1),
                 GridSpec(711.0, 711.0, 237.0, 237.0, 1, 1),
                 GridSpec(-800.0, -800.0, -400.0, -400.0, 1, 1),
                 GridSpec(-860.0, -840.0, -360.0, -350.0, 3, 2)):
        res = grid_scan(spec)
        assert res.values.tolist() == _per_cell(res).tolist()
        for (i, r), (j, a) in itertools.product(enumerate(res.r_values.tolist()),
                                                enumerate(res.a_values.tolist())):
            with mp.workdps(800):
                z = [a + mp.mpf(10) ** -300, 2 * r, r, 0]   # off the tie a = 2r by 1e-300
                S = mp_exp_dd(z[:3]) ** 2 / (mp_exp_dd(z[:2]) * mp_exp_dd(z))
                assert abs(res.values[i, j] / S - 1) <= 1e-12, (r, a)


@pytest.mark.parametrize("spec", [GridSpec(), _scan_window(1),
                                  GridSpec(a_min=-0.5, a_max=0.5, r_min=-0.25, r_max=0.25)],
                         ids=["published", "shifted", "near-origin"])
def test_grid_scan_bit_identical_to_row_kernels(spec):
    res = grid_scan(spec)
    r, a = (x.ravel() for x in np.meshgrid(res.r_values, res.a_values, indexing="ij"))
    nodes = np.stack([a, 2.0 * r, r, np.zeros_like(r)], axis=1)
    num, d1, d2 = (_row_exp_dd_batch(nodes[:, :k]) for k in (3, 2, 4))
    assert res.values.ravel().tobytes() == (num * num / (d1 * d2)).tobytes()
    if spec.r_min < 0.0:   # the near-origin window, with matrix rows
        assert _taylor_rows(np.sort(nodes, axis=1)).sum() > 500


def test_grid_scan_traced_peak():
    # the column kernels write into columns they own: the published scan
    # peaked at 28.3 columns of 12 100 doubles when every step allocated one
    grid_scan()
    tracemalloc.start()
    try:
        grid_scan()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 18 * 12_100 * 8


def test_grid_csv_matches_per_cell_writer():
    for spec in (GridSpec(a_min=-3.3, a_max=7.1, r_min=0.1, r_max=2.9, na=13, nr=9),
                 _scan_window(None), _scan_window(1)):
        res = grid_scan(spec)
        old = io.StringIO()
        old.write("r,a,S\n")
        for r, a, s in res.iter_rows():
            old.write(f"{r:.17g},{a:.17g},{s:.17g}\n")
        assert res.to_csv_string() == old.getvalue(), spec


def test_grid_csv_fields_match_percent_format_on_adversarial_values():
    # the S column's bulk formatter against '%.17g', field by field: the ends
    # of [1, 2), exact ties of v * 1e16, seeded uniforms, and values it must
    # hand to '%.17g' itself
    edges = [1.0, 1.0 + 2.0 ** -52, 2.0 - 2.0 ** -52, 1.5, 1.25]
    ties = (1.0 + np.arange(1, 2 ** 17, 2) * 2.0 ** -17).tolist()
    others = [2.0, 0.9999999999999999, 0.5, 3.0, 1e300, 5e-324, -0.0, -1.5,
              math.nan, math.inf, -math.inf, -1.7976931348623157e308]
    uniform = np.random.default_rng(20240613).uniform(1.0, 2.0, 10 ** 5).tolist()
    cells = edges + others + ties + uniform
    na = 128
    cells += [1.0] * (-len(cells) % na)
    values = np.array(cells).reshape(-1, na)
    r_values = np.linspace(-1.0, 3.0, len(values))
    a_values = np.linspace(-20.0, 40.0, na)
    res = GridResult(spec=GridSpec(), r_values=r_values, a_values=a_values, values=values)
    lines = res.to_csv_string().split("\n")
    assert lines[0] == "r,a,S" and lines[-1] == ""
    want = [("%.17g" % r, "%.17g" % a, "%.17g" % s)
            for r, row in zip(r_values.tolist(), values.tolist())
            for a, s in zip(a_values.tolist(), row)]
    assert [tuple(ln.split(",")) for ln in lines[1:-1]] == want
    # iter_rows reads the same cells as Python floats
    rows = list(res.iter_rows())
    assert all(type(x) is float for row in rows for x in row)
    grid = np.column_stack([np.repeat(r_values, na), np.tile(a_values, len(r_values)),
                            values.ravel()])
    assert np.array_equal(np.array(rows), grid, equal_nan=True)
    with pytest.raises(ValueError, match="shape"):
        GridResult(spec=GridSpec(), r_values=r_values[:-1], a_values=a_values, values=values)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(na=0)
    with pytest.raises(ValueError):
        GridSpec(a_min=1.0, a_max=0.0)


def test_grid_csv_round_trip():
    spec = GridSpec(a_min=-1.0, a_max=1.0, r_min=0.5, r_max=2.0, na=3, nr=2)
    res = grid_scan(spec)
    text = res.to_csv_string()
    lines = text.strip().splitlines()
    assert lines[0] == "r,a,S"
    assert len(lines) == 1 + 2 * 3
    # row-major in r then a, 17 significant digits round-trip exactly
    rows = [tuple(float(x) for x in ln.split(",")) for ln in lines[1:]]
    expect = list(res.iter_rows())
    for got, want in zip(rows, expect):
        assert got == want
    buf = io.StringIO()
    res.to_csv(buf)
    assert buf.getvalue() == text


# ---------------------------------------------------------------------------
# higher moments


def test_power_expectation(bench):
    assert power_expectation(bench, 1.0, 1) == pytest.approx(mean_S(bench), rel=1e-15)
    assert power_expectation(bench, 1.0, 2) == pytest.approx(
        var_S(bench) + mean_S(bench) ** 2, rel=1e-13)
    assert power_expectation(bench, 1.0, 3) == pytest.approx(math.exp(0.15 + 0.12), rel=1e-15)
    with pytest.raises(ValueError):
        power_expectation(bench, 1.0, 0)


def test_ordered_product_expectation(bench):
    assert ordered_product_expectation(bench, [0.7]) == pytest.approx(
        math.exp(0.05 * 0.7), rel=1e-15)
    assert ordered_product_expectation(bench, [0.5, 1.0]) == pytest.approx(
        pairwise_expectation(bench, 0.5, 1.0), rel=1e-14)
    with pytest.raises(ValueError):
        ordered_product_expectation(bench, [1.0, 0.5])
    with pytest.raises(ValueError):
        ordered_product_expectation(bench, [-0.5, 1.0])


def test_moment_A_low_orders(bench):
    assert moment_A(bench, 0) == 1.0
    assert moment_A(bench, 1) == pytest.approx(mean_A(bench), rel=1e-14)
    assert moment_A(bench, 2) == pytest.approx(second_moment_A(bench), rel=1e-13)
    assert moment_A(bench, 2) == pytest.approx(1.065830000692056662, rel=1e-13)
    with pytest.raises(ValueError):
        moment_A(bench, -1)


def test_moment_A_degenerate_params():
    # sigma = 0: A is the deterministic average exp[0, rT]^(dd of order m)
    p = GbmParams(r=0.0, sigma=0.0, T=3.0)
    for m in range(5):
        assert moment_A(p, m) == pytest.approx(1.0, rel=1e-13)
    # r = 0 keeps b_0 = b_1 = 0: confluent pair handled exactly
    p = GbmParams(r=0.0, sigma=0.2, T=1.0)
    assert moment_A(p, 1) == pytest.approx(1.0, rel=1e-14)
    assert moment_A(p, 2) == pytest.approx(2.0 * exp_dd([0.0, 0.0, 0.04]), rel=1e-13)


def test_moment_A_vs_bruteforce(bench):
    for m in range(1, 5):
        est = moment_bruteforce(bench, m)
        assert abs(moment_A(bench, m) - est.value) <= 1e-8
        assert est.error <= 1e-8
    assert moment_bruteforce(bench, 0).value == 1.0
    with pytest.raises(ValueError, match="m <= 4"):
        moment_bruteforce(bench, 5)


def test_moment_bruteforce_zero_coefficients():
    # alpha = 0 integrand: m! times the ordered-simplex volume 1/m!
    p = GbmParams(r=0.0, sigma=0.0, T=1.0)
    for m in (1, 2, 3):
        assert moment_bruteforce(p, m).value == pytest.approx(1.0, rel=1e-12)


def test_moment_positivity_and_log_convexity(bench):
    for p in (bench, GbmParams(r=0.12, sigma=0.35, T=2.0)):
        vals = [moment_A(p, m) for m in range(9)]
        assert all(v > 0 for v in vals)
        # Cauchy-Schwarz: (E A^m)^2 <= E A^{m-1} E A^{m+1}
        for m in range(1, 8):
            assert vals[m] ** 2 <= vals[m - 1] * vals[m + 1] * (1.0 + 1e-12)


def test_moment_table(bench):
    table = moment_table(bench, 4)
    assert [t.order for t in table] == [0, 1, 2, 3, 4]
    assert table[0].value == 1.0 and table[0].method == "exact"
    assert table[2].value == pytest.approx(second_moment_A(bench), rel=1e-13)
    assert table[4].method == "taylor-matrix"  # order guard
    assert table[2].method == "recurrence"


def mp_bidiagonal_row(nodes, bits=320):
    """exp[z_0..z_m] for m = 0..n as mpf: the first row of the exponential of
    the upper bidiagonal matrix with the nodes on its diagonal and ones above
    it.  The diagonal is shifted by the smallest node, so every Taylor term
    and every product of the scaling and squaring adds nonnegative numbers
    only; both run in `bits`-bit fixed point on Python integers, and mpmath
    supplies e^{min node}."""
    n = len(nodes)
    lo = min(nodes)
    shifted = [Fraction(x) - Fraction(lo) for x in nodes]
    s = math.ceil(math.log2(float(max(shifted)) + 1.0)) + 3
    unit = 1 << bits
    diag = [int(x * unit) >> s for x in shifted]   # (Z - lo I) / 2^s
    sup = unit >> s
    F = [[unit if i == j else 0 for j in range(n)] for i in range(n)]
    term = [row[:] for row in F]
    k = 0
    while any(any(row) for row in term):
        k += 1
        term = [[((term[i][j] * diag[j] + (term[i][j - 1] * sup if j > i else 0)) >> bits) // k
                 if j >= i else 0 for j in range(n)] for i in range(n)]
        F = [[a + b for a, b in zip(Fi, ti)] for Fi, ti in zip(F, term)]
    for _ in range(s):
        F = [[sum(F[i][q] * F[q][j] for q in range(i, j + 1)) >> bits if j >= i else 0
              for j in range(n)] for i in range(n)]
    with mp.workdps(40):
        return [mp.exp(lo) * mp.ldexp(x, -bits) for x in F[0]]


def test_mp_bidiagonal_row_against_mpmath_expm():
    for nodes in ([0.0, 0.0, 1e-9, 3e-9], [0.0, -1.5, -2.0, 0.5, 4.0, 11.0],
                  [(k * 2.0 + 2.25 * k * (k - 1) / 2) * 5.0 for k in range(9)]):
        row = mp_bidiagonal_row(nodes)
        with mp.workdps(40):
            M = mp.zeros(len(nodes))
            for i, x in enumerate(nodes):
                M[i, i] = mp.mpf(x)
                if i + 1 < len(nodes):
                    M[i, i + 1] = 1
            E = mp.expm(M)
            for j, x in enumerate(row):
                assert abs(x / E[0, j] - 1) < mp.mpf(10) ** -30


def _moment_points(count):
    """(r, sigma, T) with r in [-2, 2], sigma in [0, 1.5], T in [0.01, 5];
    every eighth point has r = 0 and every eighth sigma^2 T <= 1e-8."""
    rng = np.random.default_rng(2024)
    points = [(0.0, 0.0, 1.0), (0.7, 0.0, 2.0), (0.0, 1e-4, 1.0), (0.0, 1e-5, 0.01)]
    for j in range(count - len(points)):
        r, sigma, T = rng.uniform(-2, 2), rng.uniform(0, 1.5), rng.uniform(0.01, 5)
        if j % 8 == 0:
            r = 0.0
        if j % 8 == 4:
            sigma = math.sqrt(10.0 ** rng.uniform(-12, -8) / T)
        points.append((float(r), float(sigma), float(T)))
    return points


def test_moment_table_against_mpmath_bidiagonal_expm():
    # scaling and squaring amplifies rounding by about 2^s, which grows with
    # the spread of the table's nodes: the bound is 1e-12 up to a spread of
    # 250 and grows in proportion beyond (worst seen: 0.64 of the bound; the
    # flat 1e-12 failed at 1.1e-12, also for one exp_dd call per order)
    for r, sigma, T in _moment_points(504):
        p = GbmParams(r=r, sigma=sigma, T=T)
        nodes = BNodes.from_params(p, 12).scaled(T)
        ref = [float(math.factorial(m) * x) for m, x in enumerate(mp_bidiagonal_row(nodes))]
        for max_m in (8, 12):
            try:
                table = moment_table(p, max_m)
            except OverflowError:
                assert ref[max_m] > 1e300, (r, sigma, T)
                with pytest.raises(OverflowError):
                    moment_A(p, max_m)
                continue
            assert [t.order for t in table] == list(range(max_m + 1))
            assert table[0].value == 1.0 and table[0].method == "exact"
            spread = max(nodes[:max_m + 1]) - min(nodes[:max_m + 1])
            bound = 1e-12 * max(1.0, spread / 250.0)
            for m in range(1, max_m + 1):
                assert table[m].method == divdiff.choose_method(nodes[:m + 1]).value
                assert abs(table[m].value / ref[m] - 1.0) <= bound, (r, sigma, T, m)
            assert abs(moment_A(p, max_m) / ref[max_m] - 1.0) <= bound, (r, sigma, T)


def test_moment_table_recomputes_unusable_row_entries(monkeypatch):
    # an entry of the shared row that is zero, subnormal or not finite falls
    # back to exp_dd for that order
    p = GbmParams(r=0.3, sigma=0.9, T=2.0)
    nodes = BNodes.from_params(p, 10).scaled(p.T)
    scalar = [math.factorial(m) * exp_dd(nodes[:m + 1]) for m in range(11)]
    first_row = divdiff._first_row

    def damaged(zs, t):
        t, row = first_row(zs, t)
        row[[4, 6, 9]] = [0.0, 5e-324, math.inf]
        return t, row

    monkeypatch.setattr("gbmdd.moments._first_row", damaged)
    table = moment_table(p, 10)
    for m in (4, 6, 9):
        assert table[m].value == scalar[m], m
    assert [t.method for t in table[1:]] == [
        divdiff.choose_method(nodes[:m + 1]).value for m in range(1, 11)]


def test_moment_table_evaluates_without_exp_dd(monkeypatch, bench):
    # the table sorts and routes each order's nodes once and hands them to the
    # dispatch itself: with order 1 memoised, `exp_dd` is never called
    nodes = BNodes.from_params(bench, 8).scaled(bench.T)
    assert divdiff.choose_method(nodes[:4]) is divdiff.EvalMethod.RECURRENCE
    assert divdiff.choose_method(nodes[:5]) is divdiff.EvalMethod.TAYLOR_MATRIX
    mean_A(bench)           # order 1 comes from the memo
    want = moment_table(bench, 8)

    def refused(*args, **kwargs):
        raise AssertionError("moment_table called exp_dd")

    monkeypatch.setattr(moments, "exp_dd", refused)
    assert moment_table(bench, 8) == want


def test_orders_beyond_the_factorial_range_fail_fast(monkeypatch, bench):
    # 171! is not a double, so m! exp[...] overflows for every point: both
    # raise before building a node set (an order of 10^5 asked for 80 GB)
    assert moments._MAX_ORDER == 170
    with pytest.raises(OverflowError):
        float(math.factorial(moments._MAX_ORDER + 1))
    assert math.isfinite(moment_A(bench, moments._MAX_ORDER))

    def refused(*args, **kwargs):
        raise AssertionError("built a node set")

    monkeypatch.setattr(BNodes, "from_params", refused)
    for m in (moments._MAX_ORDER + 1, 10 ** 5, 10 ** 12):
        with pytest.raises(OverflowError, match="outside the double range"):
            moment_A(bench, m)
        with pytest.raises(OverflowError, match="outside the double range"):
            moment_table(bench, m)


def _outcome(fn, *args):
    """`fn(*args)` as exact hex, or the type of the exception it raises."""
    try:
        return fn(*args).hex()
    except (ValueError, OverflowError) as exc:
        return type(exc)


def test_moment_A_is_the_table_entry():
    # moment_A(p, m) is the last entry of moment_table(p, m), bit for bit, or
    # the same exception; the mirrored points bring r < 0, r = -0.0 and sigma = 0
    points = _moment_points(1000)
    points += [(-r, 0.0 if j % 2 else sigma, T) for j, (r, sigma, T) in enumerate(points)]
    points += [(94.0, 0.0, 1.0), (-94.0, 14.0, 1.0), (60.0, 2.0, 1.0), (300.0, 0.1, 1.0)]
    for r, sigma, T in points:
        p = GbmParams(r=r, sigma=sigma, T=T)
        for m in range(13):
            want = _outcome(lambda: moment_table(p, m)[m].value)
            assert _outcome(moment_A, p, m) == want, (r, sigma, T, m)


def test_moment_A_overflows_where_m_factorial_times_the_dd_does():
    # exp[0, 94, ..., 752] = 1.6e306 is a double; 8! times it is not
    p = GbmParams(r=94.0, sigma=0.0, T=1.0)
    assert math.isfinite(moment_A(p, 7))
    with pytest.raises(OverflowError, match="outside the double range"):
        moment_A(p, 8)


def test_moment_A_at_wide_negative_rates_against_mpmath():
    # the matrix route centred on the mean read 0.0 at order 10 of the first
    # point (its e^mean is subnormal) and overflowed at orders 4 and 5 of
    # the second, so its order 6 raised
    for (r, sigma, T), m in (((-294.18111374533737, 8.030179567610869, 1.522390629675763), 10),
                             ((-400.63, 11.85, 1.4585), 6)):
        p = GbmParams(r, sigma, T)
        nodes = BNodes.from_params(p, m).scaled(T)
        with mp.workdps(1000):
            want = math.factorial(m) * mp_exp_dd(nodes)
            bound = 1e-12 * max(1.0, (max(nodes) - min(nodes)) / 250.0)
            assert abs(moment_A(p, m) / want - 1) <= bound, p


def test_moment_table_with_subnormal_row_entries_against_mpmath():
    # the largest order-8 node at r = -70, sigma^2 = 45, T = 1 is 700, so the
    # shared row's entries 2 to 4 are subnormal (read from the row, order 4
    # was 2e-13 off); those orders are evaluated on their own
    p = GbmParams(-70.0, math.sqrt(45.0), 1.0)
    nodes = BNodes.from_params(p, 8).scaled(p.T)
    row = divdiff._bidiagonal_first_rows(np.array(nodes), max(nodes))
    assert ((0.0 < row[2:5]) & (row[2:5] < sys.float_info.min)).all()
    bound = 1e-12 * max(1.0, (max(nodes) - min(nodes)) / 250.0)
    with mp.workdps(60):
        for m, entry in enumerate(moment_table(p, 8)):
            assert abs(entry.value / (math.factorial(m) * mp_exp_dd(nodes[:m + 1])) - 1) <= bound, m


def test_high_moment_orders_anchor_lower(bench):
    # exp[z - max z] <= 1/n! underflows from about order 133 at the benchmark
    # point, where E A^m is representable: there the matrix route anchors
    # 700 below the largest node, in the table, in exp_dd and in the batch.
    # Orders up to 160 stay within the spread-scaled bound of mpmath; at 170
    # the high Taylor terms underflow (1.8e-7 off, 0.82 off centred)
    nodes = BNodes.from_params(bench, 160).scaled(bench.T)
    table = moment_table(bench, 160)
    batch_rows = np.array([nodes[:151], [x - 1.0 for x in nodes[:151]]])
    assert divdiff._bidiagonal_first_rows(np.array(nodes), max(nodes))[140] == 0.0
    with mp.workdps(60):
        for m in (20, 100, 140, 150, 160):
            want = mp_exp_dd(nodes[:m + 1])
            bound = 1e-12 * max(1.0, (max(nodes[:m + 1]) - min(nodes[:m + 1])) / 250.0)
            assert abs(table[m].value / (math.factorial(m) * want) - 1) <= bound, m
            assert abs(exp_dd(nodes[:m + 1]) / want - 1) <= bound, m
        for row, value in zip(batch_rows, divdiff.exp_dd_batch(batch_rows)):
            bound = 1e-12 * max(1.0, (row.max() - row.min()) / 250.0)
            assert abs(value / mp_exp_dd(row) - 1) <= bound
    assert divdiff._exp_dd_columns(batch_rows.T).tobytes() == _row_exp_dd_batch(batch_rows).tobytes()
    assert math.isfinite(moment_A(bench, 170))


def test_scaled_form_serves_s_statistic_grid_scan_and_correlation(monkeypatch):
    # where a divided difference or a product leaves the normal range all
    # three still reach `_log_s`
    calls = []
    log_s = moments._log_s
    monkeypatch.setattr(moments, "_log_s", lambda z: calls.append(z) or log_s(z))
    assert s_statistic(180.0, 361.0) == pytest.approx(1.9912740744957953, rel=1e-12)
    assert grid_scan(GridSpec(361.0, 361.0, 180.0, 180.0, 1, 1)).values[0, 0] == pytest.approx(
        1.9912740744957953, rel=1e-12)
    R = correlation(GbmParams(-268.6425722144426, 7.886271062952987, 1.9296876647912937)).R
    assert R == pytest.approx(7.241482451818302e-27, rel=1e-12)
    assert len(calls) == 3


# ---------------------------------------------------------------------------
# the driftless-case binomial formula


def test_oshanin_yor_collapse_m1():
    for rT in (0.25, 0.5, 1.0, 2.0):
        assert oshanin_yor_moment(1, rT) == pytest.approx(
            math.expm1(rT) / rT, rel=1e-13)


def test_oshanin_yor_m3_unit():
    want = 6.0 * exp_dd([0.0, 1.0, 4.0, 9.0])
    assert oshanin_yor_moment(3, 1.0) == pytest.approx(want, rel=1e-9)
    assert oshanin_yor_moment(3, 1.0) == pytest.approx(130.10448758005673753, rel=1e-12)


def test_oshanin_yor_errors():
    with pytest.raises(ValueError):
        oshanin_yor_moment(0, 1.0)
    with pytest.raises(ValueError):
        oshanin_yor_moment(3, 0.0)


@pytest.mark.parametrize("rT", [0.5, 1.0, 2.0])
def test_oshanin_yor_equals_dd_form(rT):
    for m in range(1, 9):
        dd_form = math.factorial(m) * exp_dd([k * k * rT for k in range(m + 1)])
        assert oshanin_yor_moment(m, rT) == pytest.approx(dd_form, rel=1e-8)


@pytest.mark.parametrize("rT", [0.5, 1.0, 2.0])
def test_symmetric_node_form(rT):
    # exp[0, rT, .., m^2 rT] = (rT)^-m H[-m..m], H(x) = exp(rT x^2): the
    # squared-node lemma plus node scaling (the factor is invisible at rT=1)
    for m in range(1, 9):
        ints = list(range(-m, m + 1))
        h_top = newton_table([math.exp(rT * x * x) for x in ints], ints).top
        sym = math.factorial(m) * rT ** (-m) * h_top
        dd_form = math.factorial(m) * exp_dd([k * k * rT for k in range(m + 1)])
        assert sym == pytest.approx(dd_form, rel=1e-8)


def test_moment_at_two_r_equals_oy(bench):
    # sigma^2 = 2r makes b_k T = k^2 rT: the driftless special case
    for rT in (0.5, 1.0, 2.0):
        p = GbmParams(r=rT, sigma=math.sqrt(2.0 * rT), T=1.0)
        for m in range(1, 9):
            assert moment_A(p, m) == pytest.approx(oshanin_yor_moment(m, rT), rel=1e-8)


def test_oshanin_yor_small_rT_extended_precision():
    # below the double-precision validity domain the check runs on the
    # double-double path: the binomial sum keeps ~32 digits of headroom
    rT = 0.125
    for m in (2, 3, 4):
        terms = [DD(-0.5 * (-1) ** m * math.comb(2 * m, m))]
        for l in range(m + 1):
            sign = 1.0 if l % 2 == 0 else -1.0
            terms.append(sign * math.comb(2 * m, l) * dd_exp(DD(rT * (m - l) ** 2)))
        total = DD(0.0)
        for t in terms:
            total = total + t
        pref = DD(math.factorial(m - 1)) / DD(math.factorial(2 * m - 1))
        val = pref * total
        for _ in range(m):
            val = val / rT
        dd_form = math.factorial(m) * exp_dd_reference([k * k * rT for k in range(m + 1)])
        assert val.to_float() == pytest.approx(dd_form, rel=1e-10)


# ---------------------------------------------------------------------------
# the moment recurrence ODE


def test_ode_residual_first_order():
    for t in (0.3, 1.0, 4.0):
        assert moment_ode_residual(1, t, [0.7]) <= 1e-8


def test_ode_residual_benchmark(bench):
    c = BNodes.from_params(bench, 3).values[1:]
    assert moment_ode_residual(3, 1.0, c) <= 1e-6


def test_ode_residual_random_sweep():
    rng = np.random.default_rng(99)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        c = np.cumsum(rng.uniform(0.05, 0.5, n))
        t = float(rng.uniform(0.1, 5.0))
        assert moment_ode_residual(n, t, c) <= 1e-6


def test_ode_residual_validation():
    with pytest.raises(ValueError):
        moment_ode_residual(2, 1.0, [0.5, 0.3])
    with pytest.raises(ValueError):
        moment_ode_residual(2, 1.0, [-0.5, 0.3])
    with pytest.raises(ValueError):
        moment_ode_residual(2, 0.0, [0.3, 0.5])
    with pytest.raises(ValueError):
        moment_ode_residual(3, 1.0, [0.3, 0.5])  # too few coefficients
