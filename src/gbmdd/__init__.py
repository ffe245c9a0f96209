"""Stable exponential divided differences with exact moment, correlation and
approximate option-price analytics for geometric Brownian motion and its
time average, plus an independent Monte Carlo verification harness."""

from .divdiff import (
    DDTable,
    EvalMethod,
    NodeList,
    OracleEstimate,
    SimplexSpec,
    choose_method,
    equispaced_dd,
    exp_dd,
    exp_dd_batch,
    hermite_genocchi_oracle,
    iterated_ordered_exp_integral,
    leibniz_dd,
    newton_table,
    ordered_exp_simplex_quad,
    simplex_exp_integral,
    square_nodes_dd,
    symmetric_equispaced_dd,
)
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
    hull_second_moment,
    mean_A,
    mean_S,
    moment_A,
    moment_bruteforce,
    moment_ode_residual,
    moment_table,
    oshanin_yor_moment,
    ordered_product_expectation,
    pairwise_expectation,
    power_expectation,
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
    estimate_correlation,
    estimate_moment_A,
    estimate_payoff,
    estimate_suite,
    iter_terminal_and_average,
    simulate_terminal_and_average,
)
from .pricing import (
    LognormalFit,
    PriceQuote,
    fixed_strike_asian_approx,
    floating_strike_asian_approx,
    lognormal_match,
    margrabe_price,
    normal_cdf,
    normal_inv_cdf,
)

__version__ = "0.1.0"
