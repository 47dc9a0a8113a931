"""Strategic proxy voting on the real line.

Weighted-median elections with Tullock delegation, exact better-response
machinery, iterative dynamics with convergence checking, and the
winner-only partial-information layer, all backed by brute-force oracles.
Proxy ids are 0-based in this API and 1-based in CLI reports.
"""

from .claims import (
    MetaSegment,
    check_bound_invariant,
    check_delta_lemmas,
    detect_meta_moves,
    trace_is_monotone,
)
from .dynamics import (
    DynamicsTrace,
    MoveRecord,
    PolicyKind,
    PolicySpec,
    Scheduler,
    StopReason,
    run_dynamics,
    step,
)
from .errors import (
    ConfigurationError,
    EmptyElectorateError,
    InconsistentObservationError,
    ProxylineError,
    ScenarioValidationError,
)
from .intervals import Interval
from .manipulation import (
    ManipulationVerdict,
    better_response_set,
    characterize_truthful_manipulability,
    follower_manipulation_scan,
    is_better_response,
    is_pne,
)
from .metrics import delta, social_cost, true_median
from .model import (
    Scenario,
    Space,
    delegate,
    delegation_weights,
    nearest_proxy_to_median,
    unweighted_median,
    weighted_median,
    wm_winner,
)
from .oracle import (
    DominatingCheck,
    DominatingVerdict,
    GridSpec,
    deviation_reports,
    oracle_best_deviation,
    oracle_dominating_check,
    oracle_max_regret,
)
from .partial_info import (
    BeliefState,
    ObservedState,
    dominating_set_nonwinner,
    dominating_set_winner,
    init_belief,
    minimax_regret_strategy,
    observe,
    update_belief,
    update_median_interval,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
