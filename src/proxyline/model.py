"""Ground-truth types, Tullock delegation, and the weighted-median rule.

Proxy ids are 0-based throughout the API; the CLI adds 1 when reporting.
All functions here are pure and deterministic: delegation ties go to the
lower proxy index and weighted-median ties to the smallest (position,
index) pair, never to randomness or history.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import EmptyElectorateError, ScenarioValidationError


@dataclass(frozen=True)
class Space:
    """The report space: the real line when ``step`` is None, else the
    multiples of ``step``."""

    step: float | None = None

    def __post_init__(self):
        if self.step is not None and not (math.isfinite(self.step) and self.step > 0):
            raise ScenarioValidationError("scenario.space.step", "step must be finite and positive")

    @staticmethod
    def continuous() -> "Space":
        return Space()

    @staticmethod
    def discrete(step: float = 1.0) -> "Space":
        return Space(step)

    @property
    def is_discrete(self) -> bool:
        return self.step is not None

    def on_grid(self, x: float) -> bool:
        if self.step is None:
            return True
        q = x / self.step
        return abs(q - round(q)) <= 1e-9


@dataclass(frozen=True)
class Scenario:
    """Immutable ground truth: peaks, follower positions, space."""

    proxy_peaks: tuple[float, ...]
    follower_positions: tuple[float, ...] = ()
    space: Space = field(default_factory=Space.continuous)

    def __post_init__(self):
        object.__setattr__(self, "proxy_peaks", tuple(float(p) for p in self.proxy_peaks))
        object.__setattr__(
            self, "follower_positions", tuple(float(p) for p in self.follower_positions)
        )
        if not self.proxy_peaks:
            raise ScenarioValidationError("scenario.proxies", "at least one proxy required")
        discrete = self.space.is_discrete
        if discrete or not all(map(math.isfinite, self.proxy_peaks + self.follower_positions)):
            named = (("proxies", self.proxy_peaks), ("followers", self.follower_positions))
            for name, values in named:
                for i, p in enumerate(values):
                    if not math.isfinite(p):
                        raise ScenarioValidationError(f"scenario.{name}[{i}]", f"{p} is not finite")
                    if discrete and not self.space.on_grid(p):
                        raise ScenarioValidationError(
                            f"scenario.{name}[{i}]",
                            f"{p} is not a multiple of step {self.space.step}",
                        )

    @property
    def num_proxies(self) -> int:
        return len(self.proxy_peaks)

    @property
    def num_followers(self) -> int:
        return len(self.follower_positions)

    def truthful_state(self) -> list[float]:
        return list(self.proxy_peaks)

    def all_positions(self) -> list[float]:
        return list(self.proxy_peaks) + list(self.follower_positions)

    def bounding_box(self) -> tuple[float, float]:
        """Generous scan box: population span padded by itself on each side."""
        pts = self.all_positions()
        lo, hi = min(pts), max(pts)
        span = max(hi - lo, 1.0)
        return lo - span, hi + span

    def with_space(self, space: Space) -> "Scenario":
        return Scenario(self.proxy_peaks, self.follower_positions, space)

    def with_followers(self, followers: tuple[float, ...]) -> "Scenario":
        return Scenario(self.proxy_peaks, followers, self.space)


def _check_state(scenario: Scenario, declared: list[float]) -> None:
    if len(declared) != scenario.num_proxies:
        raise ScenarioValidationError(
            "state", f"expected {scenario.num_proxies} declared positions, got {len(declared)}"
        )


def delegate(scenario: Scenario, declared: list[float]) -> list[int]:
    """Map each follower to its nearest declared proxy (Tullock delegation).

    Exact distance ties go to the lower proxy index.
    """
    _check_state(scenario, declared)
    out = []
    for fp in scenario.follower_positions:
        best_j, best_d = 0, abs(declared[0] - fp)
        for j in range(1, len(declared)):
            d = abs(declared[j] - fp)
            if d < best_d:
                best_j, best_d = j, d
        out.append(best_j)
    return out


def weighted_median(values: list[float], weights: list[float]) -> tuple[int, float]:
    """Weighted median element of ``values``.

    Returns the (index, value) of an element whose strictly-smaller
    complement weight and strictly-larger complement weight are each at
    most half the total. Among qualifying elements the smallest
    (value, index) pair wins.
    """
    if not values:
        raise EmptyElectorateError("empty electorate")
    if len(values) != len(weights):
        raise ValueError("values and weights must have equal length")
    if any(w <= 0 for w in weights):
        raise ValueError("weights must be positive")
    total = sum(weights)
    order = sorted(range(len(values)), key=lambda i: (values[i], i))
    # prefix[k] = weight of elements sorted strictly before rank k
    below = 0.0
    best: tuple[float, int] | None = None
    k = 0
    n = len(order)
    while k < n:
        v = values[order[k]]
        run = [order[k]]
        w_run = weights[order[k]]
        k += 1
        while k < n and values[order[k]] == v:
            run.append(order[k])
            w_run += weights[order[k]]
            k += 1
        above = total - below - w_run
        # each element of the run shares the same strict-complement sums,
        # except that equal-valued siblings never count as strictly smaller
        if below <= total / 2 and above <= total / 2:
            idx = min(run)
            if best is None or (v, idx) < best:
                best = (v, idx)
        below += w_run
    if best is None:  # unreachable: some element always qualifies
        raise EmptyElectorateError("no qualifying weighted-median element")
    return best[1], best[0]


def unweighted_median(scenario: Scenario, declared: list[float]) -> float:
    """Median of the combined multiset (declared proxies + followers).

    Even-sized multisets resolve to the lower of the two middle elements
    (that is what the position-first tie rule yields with unit weights).
    """
    _check_state(scenario, declared)
    pool = list(declared) + list(scenario.follower_positions)
    _, value = weighted_median(pool, [1.0] * len(pool))
    return value


def delegation_weights(scenario: Scenario, declared: list[float]) -> list[float]:
    """w_j = (# followers delegating to j) + 1."""
    weights = [1.0] * scenario.num_proxies
    for j in delegate(scenario, declared):
        weights[j] += 1.0
    return weights


def wm_winner(scenario: Scenario, declared: list[float]) -> tuple[int, float]:
    """Winner under the weighted-median rule: (proxy id, winning position)."""
    _check_state(scenario, declared)
    weights = delegation_weights(scenario, declared)
    return weighted_median(declared, weights)


def nearest_proxy_to_median(scenario: Scenario, declared: list[float]) -> int:
    """Winner via the median-voter route: nearest proxy to the full median.

    Distance ties resolve like a delegation tie (lower proxy index): an
    argmin tie here is exactly the median voter's delegation tie, which is
    what keeps this route identical to :func:`wm_winner`.
    """
    _check_state(scenario, declared)
    med = unweighted_median(scenario, declared)
    best_j, best_d = 0, abs(declared[0] - med)
    for j in range(1, len(declared)):
        d = abs(declared[j] - med)
        if d < best_d:
            best_j, best_d = j, d
    return best_j

