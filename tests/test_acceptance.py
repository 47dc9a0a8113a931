"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings. Tolerances are pinned here and nowhere else.
"""

import math
import random
import time
from contextlib import contextmanager

import proxyline as px
from proxyline import (
    PolicyKind,
    PolicySpec,
    Scheduler,
    Space,
    StopReason,
)
from proxyline.dynamics import check_delta_lemmas, trace_is_monotone
from proxyline.fixtures import appendix_b_opening, load_fixture, replicate
from proxyline.scenario_io import run_scenario_file
from proxyline.generators import random_scenario


@contextmanager
def criterion(num, desc, budget=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\n[criterion {num:2d}] {desc}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"\n[criterion {num:2d}] {desc}: PASS ({elapsed:.2f}s)")
    if budget is not None:
        assert elapsed < budget, f"criterion {num} exceeded {budget}s budget"


def test_criterion_1_example1_replication():
    with criterion(1, "Example 1: truthful winner is proxy 1 at -1", budget=1.0):
        sc = load_fixture("example1").scenario
        wid, wpos = px.wm_winner(sc, sc.truthful_state())
        assert wid == 0 and wpos == -1.0
        assert replicate("example1").ok


def test_criterion_2_example2_replication():
    with criterion(2, "Example 2: report 1-eps wins and strictly improves", budget=1.0):
        sc = load_fixture("example1").scenario
        truthful = sc.truthful_state()
        for eps in (0.25, 0.5, 1.0):
            report = 1.0 - eps
            wid, wpos = px.wm_winner(sc, [truthful[0], report])
            assert wid == 1 and wpos == report
            assert px.is_better_response(sc, truthful, 1, report)
        assert replicate("example2").ok


def test_criterion_3_follower_strategyproofness():
    with criterion(3, "Theorem 1: zero improving follower misreports (200 seeds)", budget=30.0):
        for i in range(200):
            rng = random.Random(40_000 + i)
            sc = random_scenario(rng)
            assert px.follower_manipulation_scan(sc) is None


def test_criterion_4_manipulability_characterization():
    with criterion(4, "Theorem 2: analytic = oracle on 500 seeds, zero disagreements", budget=60.0):
        disagreements = 0
        for i in range(500):
            rng = random.Random(50_000 + i)
            sc = random_scenario(rng)
            verdict = px.characterize_truthful_manipulability(sc)
            truthful = sc.truthful_state()
            oracle_found = any(
                px.oracle_best_deviation(sc, truthful, j, px.deviation_reports(sc, truthful, j))
                is not None
                for j in range(sc.num_proxies)
            )
            if verdict.manipulable != oracle_found:
                disagreements += 1
            if verdict.manipulable:
                assert px.is_better_response(
                    sc, truthful, verdict.witness_proxy, verdict.witness_position
                )
        assert disagreements == 0


def _mixed_truth_oriented_runs(count):
    """Seeded truth-oriented traces over mixed policies and spaces."""
    traces = []
    for i in range(count):
        rng = random.Random(20_000 + i)
        discrete = rng.random() < 0.5
        space = Space.discrete(1.0) if discrete else Space.continuous()
        sc = random_scenario(rng, space=space, both_sides=True)
        base_delta = px.delta(sc, sc.truthful_state())
        policies = []
        for _ in range(sc.num_proxies):
            roll = rng.random()
            if discrete:
                kind = (
                    PolicyKind.DISCRETE_BEST_RESPONSE
                    if roll < 0.4
                    else PolicyKind.MONOTONE_BETTER_RESPONSE
                )
                # drawn for every kind, so each seed plays the same runs
                fraction = rng.choice([0.25, 0.5, 1.0])
                params = {"fraction": fraction} if kind == PolicyKind.MONOTONE_BETTER_RESPONSE else {}
                policies.append(PolicySpec(kind, truth_oriented=True, **params))
            elif roll < 0.35 and base_delta > 0:
                policies.append(
                    PolicySpec(
                        PolicyKind.OSCILLATING_ALPHA,
                        alpha1=base_delta / 4,
                        decay=0.5,
                        truth_oriented=True,
                    )
                )
            else:
                policies.append(
                    PolicySpec(
                        PolicyKind.MONOTONE_BETTER_RESPONSE,
                        fraction=rng.choice([0.25, 0.5, 1.0]),
                        truth_oriented=True,
                    )
                )
        traces.append(px.run_dynamics(sc, Scheduler.round_robin(), policies, max_steps=60))
    return traces


def _discrete_monotone_runs(count):
    runs = []
    for i in range(count):
        rng = random.Random(1000 + i)
        sc = random_scenario(
            rng, space=Space.discrete(1.0), both_sides=True, no_peak_at_median=True
        )
        policies = [
            PolicySpec(
                PolicyKind.MONOTONE_BETTER_RESPONSE,
                fraction=rng.choice([0.25, 0.5, 0.75, 1.0]),
                truth_oriented=True,
            )
            for _ in range(sc.num_proxies)
        ]
        runs.append((sc, px.run_dynamics(sc, Scheduler.round_robin(), policies, max_steps=400)))
    return runs


def test_criterion_5_and_6_bounds_and_delta_lemmas():
    traces = _mixed_truth_oriented_runs(500)
    with criterion(5, "Theorem 3: bound invariant on 500 truth-oriented runs"):
        for trace in traces:
            assert px.check_bound_invariant(trace), trace.scenario
    with criterion(6, "Lemmas 3-4: strict contraction on monotone traces"):
        monotone = [t for t in traces if trace_is_monotone(t) and t.records]
        assert len(monotone) >= 100  # the pool must actually exercise the lemmas
        for trace in monotone:
            assert check_delta_lemmas(trace), trace.scenario


def test_criterion_7_example3_divergence():
    with criterion(7, "Example 3: oscillation at delta = 1/2, points +-1/2"):
        sc = load_fixture("example1").scenario
        base_delta = px.delta(sc, sc.truthful_state())
        policies = [
            PolicySpec(PolicyKind.OSCILLATING_ALPHA, alpha1=base_delta / 4, decay=0.5)
        ] * 2
        trace = px.run_dynamics(sc, Scheduler.round_robin(), policies, max_steps=200)
        assert trace.stop_reason == StopReason.OSCILLATION_DETECTED
        assert trace.stop_reason != StopReason.PNE
        assert len(trace.records) <= 200
        assert abs(trace.limit_delta - base_delta / 2) <= 1e-6
        last_two = sorted(rec.wm_after for rec in trace.records[-2:])
        assert abs(last_two[0] - (-0.5)) <= 1e-6
        assert abs(last_two[1] - 0.5) <= 1e-6


def test_criterion_8_discrete_convergence_and_fbrp():
    with criterion(8, "Discrete monotone play: PNE at the true median; FBRP from truth"):
        runs = _discrete_monotone_runs(200)
        for sc, trace in runs:
            med = px.true_median(sc)
            assert trace.stop_reason == StopReason.PNE, sc
            assert trace.final_outcome() == med, (sc, trace.final_outcome(), med)
            # equilibrium of the tie-free game (policies never play tie-won
            # boundary reports; see the better_response_set docstring)
            assert px.is_pne(sc, trace.final_declared, include_tie_wins=False), sc
        for i in (0, 50, 100, 150):  # FBRP: best-response play always terminates
            rng = random.Random(1000 + i)
            sc = random_scenario(
                rng, space=Space.discrete(1.0), both_sides=True, no_peak_at_median=True
            )
            policies = [PolicySpec(PolicyKind.DISCRETE_BEST_RESPONSE, truth_oriented=True)] * sc.num_proxies
            t = px.run_dynamics(sc, Scheduler.round_robin(), policies, max_steps=400)
            assert t.stop_reason == StopReason.PNE
        for i in range(200):
            rng = random.Random(60_000 + i)
            sc = random_scenario(
                rng, space=Space.discrete(1.0), both_sides=True, no_peak_at_median=True
            )
            policies = [PolicySpec(PolicyKind.DISCRETE_BEST_RESPONSE, truth_oriented=True)] * sc.num_proxies
            t = px.run_dynamics(sc, Scheduler.round_robin(), policies, max_steps=400)
            assert t.stop_reason == StopReason.PNE, sc


def test_criterion_9_appendix_a():
    with criterion(9, "Appendix A: scripted discrete play ends at 5; SC 84 -> 86"):
        sf = load_fixture("appendix_a")
        sc = sf.scenario
        trace = run_scenario_file(sf)
        assert trace.stop_reason == StopReason.PNE
        assert trace.final_outcome() == 5.0
        assert px.social_cost(sc, trace.initial_outcome()) == 84.0
        assert px.social_cost(sc, trace.final_outcome()) == 86.0
        assert px.is_pne(sc, trace.final_declared)
        continuous = sc.with_space(Space.continuous())
        assert not px.is_pne(continuous, trace.final_declared)


def test_criterion_10_appendix_b():
    with criterion(10, "Appendix B: intervals exact; outcome 25; dominating sets"):
        sf = load_fixture("appendix_b")
        sc = sf.scenario
        declared, belief, trace = appendix_b_opening(sf)
        history = trace.interval_history
        assert math.isinf(history[0].lo) and history[0].hi == 30.0
        assert (history[1].lo, history[1].hi) == (-0.5, 30.0)
        assert (history[2].lo, history[2].hi) == (-0.5, 27.0)
        assert trace.final_outcome() == 25.0
        assert px.social_cost(sc, -30.0) == 210.0
        assert px.social_cost(sc, 25.0) == 235.0
        assert px.dominating_set_winner(belief, sc.proxy_peaks[0]).is_empty()
        dom2 = px.dominating_set_nonwinner(belief, 1, sc.proxy_peaks[1])
        assert len(dom2.intervals) == 1
        assert (dom2.intervals[0].lo, dom2.intervals[0].hi) == (25.0, 29.0)
        tail = px.run_dynamics(
            sc,
            Scheduler.round_robin(),
            [PolicySpec(PolicyKind.MINIMAX_REGRET)] * 2,
            max_steps=80,
            mode="partial_info",
            initial_declared=declared,
            initial_belief=belief,
        )
        assert abs(tail.final_outcome() - 25.0) <= 1e-6


def _harvest_beliefs(target):
    """(scenario, pre-move belief, mover, peak) snapshots from minimax play."""
    snapshots = []
    seed = 0
    while len(snapshots) < target and seed < 500:
        rng = random.Random(30_000 + seed)
        seed += 1
        sc = random_scenario(rng, min_proxies=2, both_sides=True, no_peak_at_median=True)
        if sc.num_followers == 0:
            continue
        policies = [PolicySpec(PolicyKind.MINIMAX_REGRET)] * sc.num_proxies
        trace = px.run_dynamics(
            sc, Scheduler.round_robin(), policies, max_steps=40, mode="partial_info"
        )
        declared = list(trace.initial_declared)
        belief = px.init_belief(px.observe(sc, declared))
        taken = 0
        for rec in trace.records:
            if rec.mover != belief.observed.winner_id and taken < 10:
                peak = sc.proxy_peaks[rec.mover]
                w = belief.winner_position
                bound = belief.interval.lo if peak < w else belief.interval.hi
                if math.isfinite(bound) and peak != w:
                    snapshots.append((sc, belief, rec.mover, peak))
                    taken += 1
            declared[rec.mover] = rec.to_pos
            belief = px.update_belief(belief, px.observe(sc, declared))
    return snapshots[:target]


def test_criterion_11_minimax_regret():
    with criterion(11, "Theorem 7: minimax choice optimal, strong-monotone, dominating"):
        snapshots = _harvest_beliefs(200)
        assert len(snapshots) == 200
        step = 0.05
        for sc, belief, mover, peak in snapshots:
            w = belief.winner_position
            chosen = px.minimax_regret_strategy(belief, mover, peak)
            chosen_regret = px.max_regret(belief, mover, chosen, peak)
            # (a) matches grid minimization of the regret function
            pts = sorted(set(belief.observed.declared) | {w, chosen})
            k0 = math.ceil((min(pts) - 5.0) / step)
            k1 = math.floor((max(pts) + 5.0) / step)
            grid_best = min(
                px.max_regret(belief, mover, k * step, peak) for k in range(k0, k1 + 1)
            )
            assert chosen_regret <= grid_best + 1e-9
            # (b) strong-monotone: chosen and prior report flank the interval together
            prior = belief.observed.declared[mover]
            iv = belief.interval
            assert (chosen >= iv.hi and prior >= iv.hi) or (
                chosen <= iv.lo and prior <= iv.lo
            )
            # (c) lands in the dominating set whenever that set is nonempty
            dom = px.dominating_set_nonwinner(belief, mover, peak)
            if not dom.is_empty():
                assert dom.contains(chosen)
            # (d) regret at the relevant bound equals the bound-to-winner gap
            bound = iv.lo if peak < w else iv.hi
            assert abs(px.max_regret(belief, mover, bound, peak) - abs(bound - w)) <= 1e-9


def test_criterion_12_footnote_fixture():
    with criterion(12, "Footnote: WM winner can be the socially worse proxy (k=10)"):
        report = replicate("footnote_sc_vs_median")
        assert report.ok, [c for c in report.checks if not c.ok]
        assert report.values["sc_winner"] > report.values["sc_other"]
