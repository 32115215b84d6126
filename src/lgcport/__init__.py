"""Local Gaussian correlation estimation and mean-variance portfolio backtests."""

__version__ = "0.1.0"

from .backtest import (
    BacktestConfig,
    BacktestResult,
    StrategyResult,
    apply_transaction_costs,
    drifted_weights,
    max_adjustments,
    run_backtest,
    turnover,
    wealth_path,
    weight_dispersion,
)
from .errors import (
    ConfigError,
    DegenerateSampleError,
    InfeasibleError,
    InsufficientDataError,
    InsufficientLocalDataError,
    LgcportError,
    NonConvergenceError,
    NonSymmetricError,
    PanelAlignmentError,
    PanelParseError,
    PortfolioWipeoutError,
    SolverError,
)
from .lgc import (
    FitDiagnostics,
    LocalParams,
    bivariate_normal_density,
    estimate_local_params,
    gaussian_kernel_weight,
    global_gaussian_mle,
    local_loglik,
    local_score,
    penalty_integral,
    plugin_bandwidth,
)
from .localcov import (
    CovStack,
    LocalCovMatrix,
    global_covariance,
    local_covariance_stack,
    moving_grid,
    nearest_correlation,
    nearest_pd,
    pairwise_local_covariance,
    percentile_grid,
)
from .metrics import (
    DescriptiveStats,
    PerformanceReport,
    ann_sharpe,
    ceq,
    ceq_from_moments,
    descriptive_stats,
    drawdowns,
    es_sharpe,
    historical_es,
    historical_var,
    jarque_bera,
    max_drawdown,
    omega,
    performance_report,
    sharpe,
    sortino,
    var_sharpe,
)
from .optimizer import StrategySpec, equal_weights, solve_minvar, solve_mv
from .panel import PanelGapWarning, ReturnPanel, load_panel, write_panel
from .report import RunConfig, execute_run
from .synth import synth_panel
