"""The ValueError contract: a public function given input outside its domain
raises ValueError with a message that names the problem; an oracle whose
result lies outside the double range raises OverflowError."""

import math

import mpmath as mp
import numpy as np
import pytest

from gbmdd.moments import GbmParams, GridSpec, _b_nodes, moment_table, s_statistic
from gbmdd.montecarlo import McConfig, estimate_moment_A, iter_terminal_and_average
from gbmdd.oracles import (
    SimplexSpec,
    equispaced_dd,
    hermite_genocchi_oracle,
    iterated_ordered_exp_integral,
    moment_bruteforce,
    moment_ode_residual,
    newton_table,
    ordered_exp_simplex_quad,
    ordered_product_expectation,
    oshanin_yor_moment,
    pairwise_expectation,
    power_expectation,
    simplex_exp_integral,
    symmetric_equispaced_dd,
)
from gbmdd.pricing import margrabe_price

from references import mp_exp_dd

BENCH = GbmParams(r=0.05, sigma=0.2, T=1.0)

_CASES = [
    pytest.param(lambda: symmetric_equispaced_dd([1.0, 2.0], 0.1), "odd number of values",
                 id="symmetric_equispaced_dd-even-count"),
    pytest.param(lambda: hermite_genocchi_oracle(math.exp, [0.0, 1.0], budget=0),
                 "budget must be positive", id="hermite_genocchi_oracle-budget"),
    pytest.param(lambda: hermite_genocchi_oracle(math.exp, [0.0, 1.0], budget=1),
                 "budget of at least 2 samples", id="hermite_genocchi_oracle-one-sample"),
    pytest.param(lambda: hermite_genocchi_oracle(math.exp, [0.0, 1.0], method="simpson"),
                 "unknown oracle method", id="hermite_genocchi_oracle-method"),
    pytest.param(lambda: equispaced_dd([], 0.1), "need at least one value",
                 id="equispaced_dd-no-values"),
    pytest.param(lambda: equispaced_dd([1.0, 2.0, 3.0], math.nan),
                 "step h must be positive and finite", id="equispaced_dd-nan-step"),
    pytest.param(lambda: equispaced_dd([1.0, 2.0, 3.0], math.inf),
                 "step h must be positive and finite", id="equispaced_dd-infinite-step"),
    pytest.param(lambda: symmetric_equispaced_dd([1.0, math.nan, 2.0], 0.1),
                 "function values must be finite", id="symmetric_equispaced_dd-nan-value"),
    pytest.param(lambda: newton_table([math.nan, 1.0], [0.0, 1.0]),
                 "function values must be finite", id="newton_table-nan-value"),
    pytest.param(lambda: oshanin_yor_moment(2, math.nan), "rT must be positive and finite",
                 id="oshanin_yor_moment-nan-rT"),
    pytest.param(lambda: oshanin_yor_moment(2, math.inf), "rT must be positive and finite",
                 id="oshanin_yor_moment-infinite-rT"),
    pytest.param(lambda: SimplexSpec(V=np.ones((2, 3)), a=np.ones(2)),
                 "V must be a square matrix", id="SimplexSpec-non-square"),
    pytest.param(lambda: SimplexSpec(V=np.array([[1.0, math.inf], [0.0, 1.0]]), a=np.ones(2)),
                 "V and a must be finite", id="SimplexSpec-non-finite-V"),
    pytest.param(lambda: SimplexSpec(V=np.eye(2), a=np.array([1.0, math.nan])),
                 "V and a must be finite", id="SimplexSpec-non-finite-a"),
    *(pytest.param(lambda scale=scale: SimplexSpec(V=scale * np.array([[1.0, 2.0], [2.0, 4.0]]),
                                                   a=np.ones(2)),
                   "singular", id=f"SimplexSpec-singular-{scale:g}")
      for scale in (1e-200, 1.0, 1e200)),
    pytest.param(lambda: iterated_ordered_exp_integral([]), "need at least one coefficient",
                 id="iterated_ordered_exp_integral-empty"),
    pytest.param(lambda: ordered_exp_simplex_quad([]), "need at least one coefficient",
                 id="ordered_exp_simplex_quad-empty"),
    pytest.param(lambda: pairwise_expectation(BENCH, 0.0, math.inf),
                 "times must be finite", id="pairwise_expectation-infinite-time"),
    pytest.param(lambda: power_expectation(BENCH, -0.5, 2), "t must be nonnegative",
                 id="power_expectation-negative-t"),
    pytest.param(lambda: power_expectation(BENCH, math.nan, 2), "t must be finite",
                 id="power_expectation-nan-t"),
    pytest.param(lambda: ordered_product_expectation(BENCH, []), "need at least one time",
                 id="ordered_product_expectation-empty"),
    pytest.param(lambda: ordered_product_expectation(BENCH, [math.nan]),
                 "times must be finite", id="ordered_product_expectation-nan-time"),
    pytest.param(lambda: moment_bruteforce(BENCH, -1), "moment order must be nonnegative",
                 id="moment_bruteforce-negative-m"),
    pytest.param(lambda: moment_ode_residual(0, 1.0, [1.0]), "order n must be at least 1",
                 id="moment_ode_residual-n-0"),
    pytest.param(lambda: estimate_moment_A(BENCH, McConfig(paths=16, steps=4, seed=1), -1),
                 "moment order must be nonnegative", id="estimate_moment_A-negative-m"),
    pytest.param(lambda: moment_table(BENCH, -1), "moment order must be nonnegative",
                 id="moment_table-negative-m"),
    pytest.param(lambda: _b_nodes(GbmParams(1e308, 0.2, 1.0), 3, 1.0), "nodes must be finite",
                 id="_b_nodes-nodes-overflow"),
    # counts: ValueError naming the argument where `operator.index` refuses it
    pytest.param(lambda: McConfig(paths=math.nan, steps=4, seed=1),
                 "paths must be an integer, got nan", id="McConfig-nan-paths"),
    pytest.param(lambda: McConfig(paths=4096.0, steps=4, seed=1),
                 "paths must be an integer, got 4096.0", id="McConfig-float-paths"),
    pytest.param(lambda: McConfig(paths=16, steps=math.inf, seed=1),
                 "steps must be an integer, got inf", id="McConfig-infinite-steps"),
    pytest.param(lambda: GridSpec(na=5.0), "na must be an integer, got 5.0", id="GridSpec-float-na"),
    pytest.param(lambda: moment_table(BENCH, 8.0), "moment order must be an integer, got 8.0",
                 id="moment_table-float-m"),
    pytest.param(lambda: _b_nodes(BENCH, 3.0, 1.0), "moment order must be an integer, got 3.0",
                 id="_b_nodes-float-m"),
    pytest.param(lambda: iter_terminal_and_average(BENCH, McConfig(paths=16, steps=4, seed=1), 1.5),
                 "threads must be an integer, got 1.5", id="iter_terminal_and_average-float-threads"),
    pytest.param(lambda: s_statistic(1e308, 0.0), "nodes must be finite",
                 id="s_statistic-2r-overflows"),
    pytest.param(lambda: moment_table(GbmParams(1e10, 0.2, 1e300), 3), "nodes must be finite",
                 id="moment_table-nodes-overflow"),
    pytest.param(lambda: margrabe_price(1.0, 1.0, -0.2, 0.2, 0.5, 0.9),
                 "volatilities must be nonnegative", id="margrabe_price-negative-s1"),
    pytest.param(lambda: margrabe_price(1.0, 1.0, 0.2, -0.2, 0.5, 0.9),
                 "volatilities must be nonnegative", id="margrabe_price-negative-s2"),
    pytest.param(lambda: margrabe_price(1.0, 1.0, 0.2, 0.2, 0.5, 0.0),
                 "discount must be positive", id="margrabe_price-zero-discount"),
    pytest.param(lambda: margrabe_price(1.0, 1.0, 0.2, 0.2, 0.5, -1.0),
                 "discount must be positive", id="margrabe_price-negative-discount"),
]


@pytest.mark.parametrize("call, message", _CASES)
def test_out_of_domain_input_raises_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_numpy_integer_counts_pass():
    cfg = McConfig(paths=np.int64(16), steps=np.int32(4), seed=1)
    blocks = iter_terminal_and_average(BENCH, cfg, threads=np.int64(2))
    want = iter_terminal_and_average(BENCH, McConfig(paths=16, steps=4, seed=1))
    assert [[a.tobytes() for a in block] for block in blocks] == \
        [[a.tobytes() for a in block] for block in want]
    assert GridSpec(na=np.int64(5), nr=np.uint8(2)).a_values().tolist() == GridSpec(na=5).a_values().tolist()
    assert moment_table(BENCH, np.int64(4)) == moment_table(BENCH, 4)


# Outside the double range an oracle raises OverflowError, as `math.exp` does,
# and on a nan integrand ValueError; with `np.exp` the first read inf, with an
# error of nan.


def test_ordered_exp_simplex_quad_outside_the_double_range_raises_overflow():
    with pytest.raises(OverflowError):
        ordered_exp_simplex_quad([800.0])


def test_moment_bruteforce_outside_the_double_range_raises_overflow():
    with pytest.raises(OverflowError):
        moment_bruteforce(GbmParams(r=800.0, sigma=0.2, T=1.0), 2)


@pytest.mark.parametrize("method", ["sampling", "quadrature"])
def test_hermite_genocchi_oracle_outside_the_double_range_raises_overflow(method):
    with pytest.raises(OverflowError):
        hermite_genocchi_oracle(np.exp, [0.0, 800.0], budget=24, method=method)


@pytest.mark.parametrize("method", ["sampling", "quadrature"])
def test_hermite_genocchi_oracle_of_a_nan_integrand_raises_value_error(method):
    with pytest.raises(ValueError, match="is nan"):
        hermite_genocchi_oracle(lambda x: np.full_like(x, np.nan), [0.0, 1.0], budget=24,
                                method=method)


def test_hermite_genocchi_oracle_samples_an_integral_near_the_top_of_the_range():
    # e^x reaches 3e307 on [0, 708]: summed unscaled, the samples overflow, yet
    # the integral expm1(708) / 708 = 4.27e304 is a normal double
    est = hermite_genocchi_oracle(np.exp, [0.0, 708.0], budget=20_000)
    assert 0 < est.error < 0.2 * est.value
    assert est.value == pytest.approx(math.expm1(708.0) / 708.0, abs=4 * est.error)


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_simplex_spec_det_outside_the_double_range_raises_overflow(scale):
    # a scaled identity is no nearer singular than the identity; its det
    # 1e-400 or 1e400, and so the integral of e^0, is not a double
    spec = SimplexSpec(V=np.diag([scale, scale]), a=np.zeros(2))
    with pytest.raises(OverflowError):
        spec.det
    with pytest.raises(OverflowError):
        simplex_exp_integral(spec)


def test_simplex_exp_integral_in_range_where_det_is_not():
    # det V = 1e-400 and exp[0, 700, 700] = 1.4e301 lie outside the double
    # range, their product 1.4e-99 does not
    spec = SimplexSpec(V=np.diag([1e-200, 1e-200]), a=np.full(2, 7e202))
    node = 1e-200 * 7e202
    want = mp.mpf(1e-200) ** 2 * mp_exp_dd([0.0, node, node])
    assert simplex_exp_integral(spec) == pytest.approx(float(want), rel=1e-13)


def test_simplex_exp_integral_of_a_node_outside_the_double_range_raises_overflow():
    spec = SimplexSpec(V=np.diag([1e200, 1e200]), a=np.array([1e200, 0.0]))
    with pytest.raises(OverflowError, match="node"):
        simplex_exp_integral(spec)
