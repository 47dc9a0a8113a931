"""Strategic proxy voting on the real line.

Weighted-median elections with Tullock delegation, exact better-response
machinery, iterative dynamics with convergence checking, and the
winner-only partial-information layer, all backed by brute-force oracles.
Proxy ids are 0-based in this API and 1-based in CLI reports.

The play layers load with the package. The verification layers, the claim
checks (``claims``) and the brute-force oracles (``oracle``), load on first
use of one of their names, so a run that only plays never builds them.
"""

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

_LAZY = {  # submodule -> the names the package exports from it on first use
    "claims": (
        "MetaSegment", "check_bound_invariant", "check_delta_lemmas", "detect_meta_moves",
        "trace_is_monotone",
    ),
    "oracle": (
        "DominatingCheck", "DominatingVerdict", "GridSpec", "deviation_reports",
        "oracle_best_deviation", "oracle_dominating_check", "oracle_max_regret",
    ),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    """Load a verification layer on first use (PEP 562). The name is read
    from its module on every access and never bound here, so a caller that
    rebinds the module's name sees the new binding through the package."""
    from importlib import import_module

    if name in _LAZY:
        return import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})


__all__ = [name for name in dir() if not name.startswith("_")] + [*_LAZY, *_HOME]
__version__ = "0.1.0"
