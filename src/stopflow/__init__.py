"""Best-choice stopping on powers of a directed path.

Exact success probabilities, analytic bounds, seeded simulation, and
brute-force/backward-induction oracles, plus a CLI harness (``stopflow``).
"""
from .exact import (
    BoundReport,
    ExactTables,
    best_epsilon,
    bound_report,
    compositions,
    conditional_success,
    exact_tables,
    lower_bound_tau_p,
    recommended_p,
    success_probabilities_exact,
    success_probability_exact,
    success_probability_k2,
    upper_bound,
    v_mh,
)
from .graph import PathPower, ResourceGuardError
from .observer import ComponentView, ObservationEvent, Observer
from .oracle import (
    ContinuousArrival,
    brute_force_win_probability,
    canonical_info_state,
    continuous_win_indicator,
    dp_optimal_value,
    info_class_audit,
)
from .simulate import SimulationReport, continuous_win_rate, simulate, splitmix64, trial_seed
from .strategies import StopRecord, Strategy, default_threshold, run_strategy

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "ComponentView",
    "ContinuousArrival",
    "ExactTables",
    "ObservationEvent",
    "Observer",
    "PathPower",
    "ResourceGuardError",
    "SimulationReport",
    "StopRecord",
    "Strategy",
    "best_epsilon",
    "bound_report",
    "brute_force_win_probability",
    "canonical_info_state",
    "compositions",
    "conditional_success",
    "continuous_win_indicator",
    "continuous_win_rate",
    "default_threshold",
    "dp_optimal_value",
    "exact_tables",
    "info_class_audit",
    "lower_bound_tau_p",
    "recommended_p",
    "run_strategy",
    "simulate",
    "splitmix64",
    "success_probabilities_exact",
    "success_probability_exact",
    "success_probability_k2",
    "trial_seed",
    "upper_bound",
    "v_mh",
    "__version__",
]
