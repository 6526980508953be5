"""Incentive design for federated learning with user-driven data revocation.

The package models a four-stage interaction: a server posts a menu of
(data size, reward) contract items, users self-select by type, trained
users may later revoke their data, and the server chooses which revokers
to win back with retention offers.  A synthetic quadratic learning lab
backs the convergence and valuation experiments.
"""
from .config import ConfigError, ExperimentSetup, default_config_path, load_config
from .contract import (
    IRICReport,
    PoolingSolution,
    design_contract,
    optimal_data_sizes,
    optimal_rewards,
    verify_ir_ic,
)
from .experiments import (
    MECHANISMS,
    Outcome,
    StationarySearch,
    compare_costs,
    find_stationary_rates,
    mechanism_contract,
    run_pipeline,
)
from .learning import (
    LearnProblem,
    StepSchedule,
    TrainTrace,
    UnlearnSpec,
    check_gap_bound,
    federated_shapley_exact,
    make_problem,
    restrict_problem,
    scaffold_train,
    training_loss_metric,
    unlearn_continue,
)
from .model import (
    Contract,
    ContractItem,
    GameConfig,
    Population,
    UserTerms,
    UserTypeSpec,
    aggregated_marginal_cost,
    cost_coefficients,
    expected_unlearning_load,
    mean_retention_rate,
    retention_discounted_cost,
    stage1_expected_cost,
    stage2_expected_payoff,
    stage3_payoff,
    stage4_realized_cost,
    truncated_normal_moments,
)
from .population import SamplingModel, realized_rates, sample_population
from .retention import (
    RetentionResult,
    RetentionSizeError,
    optimal_retention_exact,
    optimal_retention_heuristic,
    retention_incentives,
    retention_objective,
)
from .revocation import (
    RevocationProfile,
    lower_equilibrium,
    upper_equilibrium,
    verify_nash,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "Contract",
    "ContractItem",
    "ExperimentSetup",
    "GameConfig",
    "IRICReport",
    "LearnProblem",
    "MECHANISMS",
    "Outcome",
    "PoolingSolution",
    "Population",
    "RetentionResult",
    "RetentionSizeError",
    "RevocationProfile",
    "SamplingModel",
    "StationarySearch",
    "StepSchedule",
    "TrainTrace",
    "UnlearnSpec",
    "UserTerms",
    "UserTypeSpec",
    "aggregated_marginal_cost",
    "check_gap_bound",
    "compare_costs",
    "cost_coefficients",
    "default_config_path",
    "design_contract",
    "expected_unlearning_load",
    "federated_shapley_exact",
    "find_stationary_rates",
    "load_config",
    "lower_equilibrium",
    "make_problem",
    "mean_retention_rate",
    "mechanism_contract",
    "optimal_data_sizes",
    "optimal_retention_exact",
    "optimal_retention_heuristic",
    "optimal_rewards",
    "realized_rates",
    "restrict_problem",
    "retention_discounted_cost",
    "retention_incentives",
    "retention_objective",
    "run_pipeline",
    "sample_population",
    "scaffold_train",
    "stage1_expected_cost",
    "stage2_expected_payoff",
    "stage3_payoff",
    "stage4_realized_cost",
    "training_loss_metric",
    "truncated_normal_moments",
    "unlearn_continue",
    "upper_equilibrium",
    "verify_ir_ic",
    "verify_nash",
]
