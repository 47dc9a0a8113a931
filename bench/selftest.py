"""Tracer self-test: call counts on the paper's Example 1 match hand counts.

Example 1 has proxies at -1 and 1.5 and one follower at 0 (continuous
space). Each probe below is called through a different module's binding,
so a tracer that patched only the home modules would miss calls.

Run it alone with ``python3 bench/selftest.py`` (exit code 0 on success).
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

from tracer import Tracer

# Hand counts. Unit 1, ``step`` for proxy 2 (monotone, fraction 0.5,
# truth-oriented): the truth override returns early (the proxy is at its
# peak); the monotone proposal evaluates the median once and the winner
# once and proposes 0.5; ``is_better_response`` evaluates the winner twice;
# the move record evaluates the winner before and after and the median
# after. So 5 winner evaluations (each one delegation and one weighted
# median) plus 2 medians (each one more weighted median).
# Unit 2, ``metrics.delta`` plus one ``with_followers``: 1 median and 1
# winner evaluation. Unit 3, ``partial_info.observe`` (1 winner
# evaluation) and ``oracle_best_deviation`` on a 3-point grid (1 + 3).
EXPECTED = {
    1: {"dynamics.step": 1, "manipulation.is_better_response": 1, "model.wm_winner": 5,
        "model.delegate": 5, "model.weighted_median": 7, "model.unweighted_median": 2},
    2: {"metrics.delta": 1, "model.unweighted_median": 1, "model.wm_winner": 1,
        "model.delegate": 1, "model.weighted_median": 2, "model.Scenario.init": 1},
    3: {"partial_info.observe": 1, "oracle.oracle_best_deviation": 1, "model.wm_winner": 5,
        "model.delegate": 5, "model.weighted_median": 5},
}
EXPECTED_WINNER_PARENTS = {"dynamics.step": 3, "manipulation.is_better_response": 2}
EXPECTED_MOVES = 1
EXPECTED_FOLLOWERS_SCANNED = 11  # 11 delegations of one follower


def run_selftest(package: str = "proxyline") -> list[str]:
    """Returns the failures (empty when the tracer counts right)."""
    pl = importlib.import_module(package)
    oracle = importlib.import_module(f"{package}.oracle")
    scenario = pl.Scenario((-1.0, 1.5), (0.0,))
    truthful = scenario.truthful_state()
    spec = pl.PolicySpec(pl.PolicyKind.MONOTONE_BETTER_RESPONSE, fraction=0.5, truth_oriented=True)
    tracer = Tracer(package)
    with tracer.unit(1):
        moved = pl.step(scenario, truthful, 1, spec)
    with tracer.unit(2):
        pl.metrics.delta(scenario.with_followers((0.0,)), truthful)
    with tracer.unit(3):
        pl.partial_info.observe(scenario, truthful)
        pl.oracle_best_deviation(scenario, truthful, 1, oracle.GridSpec(0.0, 1.0, 0.5))

    failures = []
    if moved is None or moved.to_pos != 0.5:
        failures.append(f"step proposal: expected a move to 0.5, got {moved}")
    for unit, expected in EXPECTED.items():
        counts = dict.fromkeys(tracer.names, 0)
        for i in range(len(tracer.start)):
            if tracer.unit_of_span[i] == unit:
                counts[tracer.names[tracer.name_of_span[i]]] += 1
        counts.pop("unit")
        got = {name: c for name, c in counts.items() if c}
        if got != expected:
            failures.append(f"unit {unit}: counts {got}, expected {expected}")
    if tracer.moves != EXPECTED_MOVES:
        failures.append(f"moves {tracer.moves}, expected {EXPECTED_MOVES}")
    if tracer.followers_scanned != EXPECTED_FOLLOWERS_SCANNED:
        failures.append(
            f"followers_scanned {tracer.followers_scanned}, expected {EXPECTED_FOLLOWERS_SCANNED}"
        )

    # parents: each delegation runs inside a winner evaluation; in unit 1,
    # ``step`` evaluates the winner 3 times itself and 2 times through
    # ``is_better_response``
    parents: dict[str | None, int] = {}
    for i in range(len(tracer.start)):
        name = tracer.names[tracer.name_of_span[i]]
        parent = tracer.names[tracer.name_of_span[tracer.parent[i]]] if tracer.parent[i] >= 0 else None
        if name == "model.delegate" and parent != "model.wm_winner":
            failures.append(f"model.delegate span {i} has parent {parent}, expected model.wm_winner")
        if name == "model.wm_winner" and tracer.unit_of_span[i] == 1:
            parents[parent] = parents.get(parent, 0) + 1
    if parents != EXPECTED_WINNER_PARENTS:
        failures.append(f"unit 1: wm_winner parents {parents}, expected {EXPECTED_WINNER_PARENTS}")
    if min(tracer.self_times()) < 0:
        failures.append("negative self time")

    # uninstall restores every binding
    wrappers = {id(w) for w in tracer._wrappers.values()}
    for mod in tracer._modules():
        for attr, value in vars(mod).items():
            if id(value) in wrappers:
                failures.append(f"{mod.__name__}.{attr} still wrapped after uninstall")
    if id(pl.Scenario.__init__) in wrappers:
        failures.append("Scenario.__init__ still wrapped after uninstall")
    return failures


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    problems = run_selftest()
    for line in problems:
        print(f"FAIL  {line}")
    print("PASS  tracer self-test" if not problems else "FAIL  tracer self-test")
    sys.exit(1 if problems else 0)
