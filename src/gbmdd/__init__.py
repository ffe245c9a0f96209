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
from .oracles import (
    DDTable,
    NodeList,
    OracleEstimate,
    SimplexSpec,
    equispaced_dd,
    hermite_genocchi_oracle,
    hull_second_moment,
    iterated_ordered_exp_integral,
    leibniz_dd,
    moment_bruteforce,
    moment_ode_residual,
    newton_table,
    ordered_exp_simplex_quad,
    ordered_product_expectation,
    oshanin_yor_moment,
    pairwise_expectation,
    power_expectation,
    simplex_exp_integral,
    square_nodes_dd,
    symmetric_equispaced_dd,
)
from .pricing import (
    LognormalFit,
    PriceQuote,
    fixed_strike_asian_approx,
    floating_strike_asian_approx,
    margrabe_price,
    normal_cdf,
)

__version__ = "0.1.0"
