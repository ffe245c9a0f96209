"""Stable exponential divided differences with exact moment, correlation and
approximate option-price analytics for geometric Brownian motion and its
time average, plus an independent Monte Carlo verification harness and the
paper's identities as oracles."""

from .divdiff import EvalMethod, choose_method, exp_dd, exp_dd_batch
from .moments import (
    BNodes,
    CorrelationReport,
    GbmParams,
    GridResult,
    GridSpec,
    MomentReport,
    correlation,
    covariance_SA,
    cross_moment_SA,
    grid_scan,
    mean_A,
    mean_S,
    moment_A,
    moment_table,
    s_statistic,
    second_moment_A,
    var_A,
    var_S,
)
from .montecarlo import (
    FixedStrikeAsianCall,
    FloatingStrikeAsianCall,
    McConfig,
    McEstimate,
    estimate_moment_A,
    estimate_payoff,
    estimate_suite,
    iter_terminal_and_average,
)
from .pricing import (
    PriceQuote,
    fixed_strike_asian_approx,
    floating_strike_asian_approx,
    margrabe_price,
    normal_cdf,
)

__version__ = "0.1.0"

# `oracles` loads on first use of one of these names (PEP 562), not with the
# package: the fast path and the CLI run without it.
_ORACLE_NAMES = frozenset({
    "DDTable", "OracleEstimate", "SimplexSpec", "equispaced_dd",
    "hermite_genocchi_oracle", "iterated_ordered_exp_integral",
    "leibniz_dd", "moment_bruteforce", "moment_ode_residual", "newton_table",
    "ordered_exp_simplex_quad", "ordered_product_expectation", "oshanin_yor_moment",
    "pairwise_expectation", "power_expectation", "simplex_exp_integral",
    "square_nodes_dd", "symmetric_equispaced_dd",
})


def __getattr__(name):
    if name in _ORACLE_NAMES:
        from . import oracles
        return getattr(oracles, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
