"""The ValueError contract: a public function given input outside its domain
raises ValueError with a message that names the problem."""

import math

import numpy as np
import pytest

from gbmdd.divdiff import (
    SimplexSpec,
    hermite_genocchi_oracle,
    iterated_ordered_exp_integral,
    ordered_exp_simplex_quad,
    symmetric_equispaced_dd,
)
from gbmdd.moments import (
    GbmParams,
    moment_bruteforce,
    moment_ode_residual,
    ordered_product_expectation,
    power_expectation,
)
from gbmdd.montecarlo import McConfig, estimate_moment_A
from gbmdd.pricing import margrabe_price

BENCH = GbmParams(r=0.05, sigma=0.2, T=1.0)

_CASES = [
    pytest.param(lambda: symmetric_equispaced_dd([1.0, 2.0], 0.1), "odd number of values",
                 id="symmetric_equispaced_dd-even-count"),
    pytest.param(lambda: symmetric_equispaced_dd([1.0, 2.0, 3.0], 0.1, n=2),
                 r"need 2n\+1 = 5 values, got 3", id="symmetric_equispaced_dd-wrong-length"),
    pytest.param(lambda: hermite_genocchi_oracle(math.exp, [0.0, 1.0], budget=0),
                 "budget must be positive", id="hermite_genocchi_oracle-budget"),
    pytest.param(lambda: hermite_genocchi_oracle(math.exp, [0.0, 1.0], method="simpson"),
                 "unknown oracle method", id="hermite_genocchi_oracle-method"),
    pytest.param(lambda: SimplexSpec(V=np.ones((2, 3)), a=np.ones(2)),
                 "V must be a square matrix", id="SimplexSpec-non-square"),
    pytest.param(lambda: SimplexSpec(V=np.array([[1.0, math.inf], [0.0, 1.0]]), a=np.ones(2)),
                 "V and a must be finite", id="SimplexSpec-non-finite-V"),
    pytest.param(lambda: SimplexSpec(V=np.eye(2), a=np.array([1.0, math.nan])),
                 "V and a must be finite", id="SimplexSpec-non-finite-a"),
    pytest.param(lambda: iterated_ordered_exp_integral([]), "need at least one coefficient",
                 id="iterated_ordered_exp_integral-empty"),
    pytest.param(lambda: ordered_exp_simplex_quad([]), "need at least one coefficient",
                 id="ordered_exp_simplex_quad-empty"),
    pytest.param(lambda: power_expectation(BENCH, -0.5, 2), "t must be nonnegative",
                 id="power_expectation-negative-t"),
    pytest.param(lambda: ordered_product_expectation(BENCH, []), "need at least one time",
                 id="ordered_product_expectation-empty"),
    pytest.param(lambda: moment_bruteforce(BENCH, -1), "moment order must be nonnegative",
                 id="moment_bruteforce-negative-m"),
    pytest.param(lambda: moment_ode_residual(0, 1.0, [1.0]), "order n must be at least 1",
                 id="moment_ode_residual-n-0"),
    pytest.param(lambda: estimate_moment_A(BENCH, McConfig(paths=16, steps=4, seed=1), -1),
                 "moment order must be nonnegative", id="estimate_moment_A-negative-m"),
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
