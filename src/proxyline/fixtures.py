"""Named replication fixtures and their assertion suites.

Each replication plays the scenario, policies, scheduler and step budget
of its ``fixtures/<file>.json`` and records the quantities the paper
states; ``replicate(name)`` then compares every recorded value with its
entry in ``fixtures/expected/<name>.json``. The CLI renders the resulting
report and the acceptance tests call the same functions.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path

from . import claims
from . import dynamics as dyn
from . import manipulation as manip
from . import metrics, model, partial_info as pinfo
from .dynamics import PolicyKind, PolicySpec, Scheduler, StopReason
from .model import Scenario, Space
from .scenario_io import ScenarioFile, load_scenario_file, run_scenario_file


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class ReplicationReport:
    name: str
    checks: list[Check] = field(default_factory=list)
    values: dict = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append(Check(name, bool(ok), detail))

    def record(self, name: str, value: float) -> None:
        """Keep a value for comparison with the expected file."""
        self.values[name] = value

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def fixtures_dir() -> Path:
    return Path(str(resources.files("proxyline") / "fixtures"))


def load_fixture(name: str) -> ScenarioFile:
    return load_scenario_file(fixtures_dir() / f"{name}.json")


def _diff_expected(report: ReplicationReport) -> None:
    """Compare each recorded value, once, with its committed expected entry.

    A recorded value without an entry fails, and so does an entry that no
    value was recorded for.
    """
    path = fixtures_dir() / "expected" / f"{report.name}.json"
    expected = json.loads(path.read_text()) if path.exists() else {}
    for key, got in report.values.items():
        if key not in expected:
            report.check(key, False, f"got {got!r}; no entry in expected/{path.name}")
            continue
        want, tol = float(expected[key]["value"]), float(expected[key].get("tol", 0.0))
        report.check(key, abs(got - want) <= tol, f"got {got!r}, want {want!r} ± {tol}")
    for key in sorted(expected.keys() - report.values.keys()):
        report.check(key, False, "value not produced")


# ---------------------------------------------------------------------------
# replications


def replicate_example1(r: ReplicationReport) -> None:
    sc = load_fixture("example1").scenario
    truthful = sc.truthful_state()
    r.check("delegation_to_proxy_1", model.delegate(sc, truthful) == [1, 0])
    wid, wpos = model.wm_winner(sc, truthful)
    r.check("winner_is_proxy_1", wid == 0, f"winner id {wid + 1}")
    r.record("winner_position", wpos)
    r.record("median", model.unweighted_median(sc, truthful))
    r.record("delta", metrics.delta(sc, truthful))
    r.check("nearest_proxy_agrees", *claims.lemma1_equivalence(sc, [truthful]))


def replicate_example2(r: ReplicationReport) -> None:
    sc = load_fixture("example2").scenario
    truthful = sc.truthful_state()
    for eps in (0.25, 0.5, 1.0):
        cand = 1.0 - eps
        state = [truthful[0], cand]
        wid, wpos = model.wm_winner(sc, state)
        r.check(f"eps_{eps}_proxy2_wins", wid == 1, f"winner {wid + 1} at {wpos}")
        r.record(f"eps_{eps}_outcome", wpos)
        r.check(
            f"eps_{eps}_strict_improvement",
            manip.is_better_response(sc, truthful, 1, cand),
        )


def replicate_theorem2_fig2(r: ReplicationReport) -> None:
    sc = load_fixture("theorem2_fig2").scenario
    verdict = manip.characterize_truthful_manipulability(sc)
    r.check("manipulable", verdict.manipulable)
    r.check("witness_is_proxy_2", verdict.witness_proxy == 1)
    r.record("witness_position_is_median", verdict.witness_position)
    r.check(
        "witness_improves",
        manip.is_better_response(sc, sc.truthful_state(), verdict.witness_proxy, verdict.witness_position),
    )
    state = sc.truthful_state()
    state[verdict.witness_proxy] = verdict.witness_position
    r.record("outcome_after_witness", model.wm_winner(sc, state)[1])


def replicate_fig3_one_side(r: ReplicationReport) -> None:
    sf = load_fixture("fig3_one_side")
    sc = sf.scenario
    med = metrics.true_median(sc)
    r.record("median", med)
    r.check("all_proxies_left", all(p < med for p in sc.proxy_peaks))
    verdict = manip.characterize_truthful_manipulability(sc)
    r.check("not_manipulable", not verdict.manipulable)
    r.check("truthful_is_pne", manip.is_pne(sc, sc.truthful_state()))
    trace = run_scenario_file(sf)
    r.check("immediate_pne", trace.stop_reason == StopReason.PNE and not trace.records)
    r.record("outcome_unchanged", trace.final_outcome())


def replicate_fig5_metamove(r: ReplicationReport) -> None:
    trace = run_scenario_file(load_fixture("fig5_metamove"))
    r.record("initial_delta", trace.initial_delta)
    deltas = [rec.delta_after for rec in trace.records]
    for t, d in enumerate(deltas, start=1):
        r.record(f"delta_after_{t}", d)
    segments = claims.detect_meta_moves(trace)
    r.check("one_segment", len(segments) == 1, f"got {len(segments)}")
    seg = segments[0]
    r.check("segment_length_1", seg.length == 1, f"length {seg.length}")
    r.check("exit_above_inside", seg.exit_delta > deltas[0], f"{seg.exit_delta} vs {deltas[0]}")
    r.check("exit_below_entry", seg.exit_delta < seg.entry_delta)
    r.check("trace_monotone", claims.trace_is_monotone(trace))


def replicate_example3(r: ReplicationReport) -> None:
    sf = load_fixture("example3")
    trace = run_scenario_file(sf)
    r.check("oscillation_detected", trace.stop_reason == StopReason.OSCILLATION_DETECTED,
            f"stopped {trace.stop_reason.value} after {len(trace.records)} moves")
    r.check("within_max_steps", len(trace.records) <= sf.max_steps)
    r.record("limit_delta", trace.limit_delta or math.nan)
    last_two = sorted(rec.wm_after for rec in trace.records[-2:])
    r.record("oscillation_low", last_two[0])
    r.record("oscillation_high", last_two[1])
    r.check("not_pne", trace.stop_reason != StopReason.PNE)


def replicate_appendix_a(r: ReplicationReport) -> None:
    sf = load_fixture("appendix_a")
    sc = sf.scenario
    trace = run_scenario_file(sf)
    r.check("stop_pne", trace.stop_reason == StopReason.PNE, trace.stop_reason.value)
    initial, final = trace.initial_outcome(), trace.final_outcome()
    r.record("initial_outcome", initial)
    r.record("final_outcome", final)
    r.record("sc_truthful", metrics.social_cost(sc, initial))
    r.record("sc_final", metrics.social_cost(sc, final))
    r.check("first_mover_is_proxy_5", trace.records[0].mover == 4)
    r.record("first_move_to", trace.records[0].to_pos)
    r.check("is_pne_discrete", manip.is_pne(sc, trace.final_declared))
    continuous = sc.with_space(Space.continuous())
    r.check("not_pne_continuous", not manip.is_pne(continuous, trace.final_declared))
    brs = manip.better_response_set(continuous, trace.final_declared, 4)
    r.check(
        "winner_has_continuous_br",
        any(iv.contains(5.5) for iv in brs),
        f"winner BR {brs}",
    )
    r.check("bound_invariant", *claims.delta_lemmas_and_bound(trace))


OPENING_MOVES = 2  # the published opening: proxy 2 to 29, then proxy 1 to 25


def appendix_b_opening(sf: ScenarioFile):
    """Play the fixture's published opening and return (state, belief, trace)."""
    trace = run_scenario_file(replace(sf, max_steps=OPENING_MOVES))
    declared = list(trace.final_declared)
    # the run's last poll, with the median interval it ended on
    belief = pinfo.BeliefState(pinfo.observe(sf.scenario, declared), trace.interval_history[-1])
    return declared, belief, trace


def replicate_appendix_b(r: ReplicationReport) -> None:
    sf = load_fixture("appendix_b")
    sc = sf.scenario
    declared, belief, trace = appendix_b_opening(sf)
    ivs = trace.interval_history
    r.check("three_intervals", len(ivs) == 3, f"got {len(ivs)}")
    r.check("i0_unbounded_left", math.isinf(ivs[0].lo) and ivs[0].lo < 0)
    r.record("i0_hi", ivs[0].hi)
    r.record("i1_lo", ivs[1].lo)
    r.record("i1_hi", ivs[1].hi)
    r.record("i2_lo", ivs[2].lo)
    r.record("i2_hi", ivs[2].hi)
    r.check("i1_lo_open", ivs[1].lo_open, "tie at -0.5 goes to proxy 1, not the winner")
    initial, final = trace.initial_outcome(), trace.final_outcome()
    r.record("initial_outcome", initial)
    r.record("outcome_s3", final)
    r.record("sc_truthful", metrics.social_cost(sc, initial))
    r.record("sc_final", metrics.social_cost(sc, final))

    dom2 = pinfo.dominating_set_nonwinner(belief, 1, sc.proxy_peaks[1])
    r.check(
        "dominating_p2_one_open_interval",
        dom2 is not None and dom2.lo_open and dom2.hi_open,
        f"got {dom2}",
    )
    if dom2 is not None:
        r.record("dominating_p2_lo", dom2.lo)
        r.record("dominating_p2_hi", dom2.hi)
    dom1 = pinfo.dominating_set_winner(belief, sc.proxy_peaks[0])
    r.check("dominating_p1_empty", dom1 is None, f"got {dom1}")

    # regret-averse tail: proxy 2 walks the shrinking upper bound, outcome pinned
    tail = dyn.run_dynamics(
        sc,
        Scheduler.round_robin(),
        [PolicySpec(PolicyKind.MINIMAX_REGRET)] * sc.num_proxies,
        max_steps=sf.max_steps,
        mode="partial_info",
        initial_declared=declared,
        initial_belief=belief,
    )
    r.record("limit_outcome", tail.final_outcome())
    r.check("proxy1_never_moves", all(rec.mover != 0 for rec in tail.records))
    moves2 = [rec.to_pos for rec in tail.records if rec.mover == 1]
    r.check("proxy2_monotone_decreasing", all(a > b for a, b in zip(moves2, moves2[1:])))
    r.record("first_tail_move", moves2[0] if moves2 else math.nan)
    script = sf.policies[1].positions[1:]
    r.check("script_is_regret_tail", moves2 == list(script[: len(moves2)]), f"got {moves2[:3]}")
    r.check("intervals_sound", *claims.interval_holds_each_state_median(trace))


def replicate_footnote_sc_vs_median(r: ReplicationReport) -> None:
    near_two = load_fixture("footnote_sc_vs_median").scenario
    k = near_two.follower_positions.count(near_two.proxy_peaks[0])
    reverse = Scenario((near_two.proxy_peaks[0], 1.0 + 2.0 / k), near_two.follower_positions)
    med = metrics.true_median(near_two)
    r.record("median", med)

    wid, wpos = model.wm_winner(near_two, near_two.truthful_state())
    r.check("winner_is_far_proxy", wid == 1, f"winner {wid + 1} at {wpos}")
    sc_winner = metrics.social_cost(near_two, wpos)
    sc_other = metrics.social_cost(near_two, near_two.proxy_peaks[0])
    r.check("winner_sc_exceeds_other", sc_winner > sc_other, f"{sc_winner} vs {sc_other}")
    r.record("sc_winner", sc_winner)
    r.record("sc_other", sc_other)
    r.check("winner_sc_order_3k_vs_k", sc_winner > 2.5 * k > 1.5 * k > sc_other)

    wid2, wpos2 = model.wm_winner(reverse, reverse.truthful_state())
    r.check("reverse_winner_is_near_proxy", wid2 == 1, f"winner {wid2 + 1} at {wpos2}")
    sc_low = metrics.social_cost(reverse, reverse.proxy_peaks[0])
    sc_high = metrics.social_cost(reverse, reverse.proxy_peaks[1])
    r.check("reverse_low_sc_proxy_is_0", sc_low < sc_high, f"{sc_low} vs {sc_high}")
    d_low = abs(reverse.proxy_peaks[0] - med)
    d_high = abs(reverse.proxy_peaks[1] - med)
    r.check("low_sc_proxy_farther_from_median", d_low > d_high, f"{d_low} vs {d_high}")


def replicate_fig7_indistinguishable(r: ReplicationReport) -> None:
    sf = load_fixture("fig7_pair")
    top, state = sf.scenario, sf.scenario.truthful_state()
    r.check("identical_observations", *claims.identical_observed_state(top, sf.alt_followers, state))
    r.check("winner_is_proxy_2", pinfo.observe(top, state).winner_id == 1)


REPLICATIONS = {
    "example1": replicate_example1,
    "example2": replicate_example2,
    "theorem2_fig2": replicate_theorem2_fig2,
    "fig3_one_side": replicate_fig3_one_side,
    "fig5_metamove": replicate_fig5_metamove,
    "example3": replicate_example3,
    "appendix_a": replicate_appendix_a,
    "appendix_b": replicate_appendix_b,
    "footnote_sc_vs_median": replicate_footnote_sc_vs_median,
    "fig7_indistinguishable": replicate_fig7_indistinguishable,
}


def replicate(name: str) -> ReplicationReport:
    report = ReplicationReport(name)
    REPLICATIONS[name](report)
    _diff_expected(report)
    return report
