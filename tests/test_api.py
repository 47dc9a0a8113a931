"""The package's public names, pinned: adding or dropping an export is a
deliberate edit of this list."""

import proxyline

PUBLIC_API = [
    # submodules imported by the package
    "claims", "dynamics", "errors", "intervals", "manipulation", "metrics", "model", "oracle",
    "partial_info",
    # claims
    "MetaSegment", "check_bound_invariant", "check_delta_lemmas", "detect_meta_moves",
    "trace_is_monotone",
    # dynamics
    "DynamicsTrace", "MoveRecord", "PolicyKind", "PolicySpec", "Scheduler", "StopReason",
    "run_dynamics", "step",
    # errors
    "ConfigurationError", "EmptyElectorateError", "InconsistentObservationError",
    "ProxylineError", "ScenarioValidationError",
    # intervals
    "Interval",
    # manipulation
    "ManipulationVerdict", "better_response_set", "characterize_truthful_manipulability",
    "follower_manipulation_scan", "is_better_response", "is_pne",
    # metrics
    "delta", "social_cost", "true_median",
    # model
    "Scenario", "Space", "delegate", "delegation_weights", "nearest_proxy_to_median",
    "unweighted_median", "weighted_median", "wm_winner",
    # oracle
    "DominatingCheck", "DominatingVerdict", "GridSpec", "deviation_reports",
    "oracle_best_deviation", "oracle_dominating_check", "oracle_max_regret",
    # partial_info
    "BeliefState", "ObservedState", "dominating_set_nonwinner",
    "dominating_set_winner", "init_belief", "minimax_regret_strategy", "observe",
    "update_belief", "update_median_interval",
]


def test_public_api_is_pinned():
    assert sorted(proxyline.__all__) == sorted(PUBLIC_API)
