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
    claims,
)
from proxyline.fixtures import replicate
from proxyline.generators import random_scenario
from test_partial_info import cut_points


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


def holds(claim):
    """Assert a claim's ``(ok, detail)`` verdict, showing the detail on failure."""
    ok, detail = claim
    assert ok, detail


def test_criterion_1_example1_replication():
    with criterion(1, "Example 1: truthful winner is proxy 1 at -1", budget=1.0):
        assert replicate("example1").ok


def test_criterion_2_example2_replication():
    with criterion(2, "Example 2: report 1-eps wins and strictly improves", budget=1.0):
        assert replicate("example2").ok


def test_criterion_3_follower_strategyproofness():
    with criterion(3, "Theorem 1: zero improving follower misreports (200 seeds)", budget=30.0):
        for i in range(200):
            rng = random.Random(40_000 + i)
            holds(claims.theorem1_no_follower_manipulation(random_scenario(rng)))


def test_criterion_4_manipulability_characterization():
    with criterion(4, "Theorem 2: analytic = oracle on 500 seeds, zero disagreements", budget=60.0):
        for i in range(500):
            rng = random.Random(50_000 + i)
            holds(claims.theorem2_oracle_agreement(random_scenario(rng)))


def _mono(fraction):
    return PolicySpec(PolicyKind.MONOTONE_BETTER_RESPONSE, fraction=fraction, truth_oriented=True)


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
                # the fraction is drawn for every kind, so each seed plays the same runs
                fraction = rng.choice([0.25, 0.5, 1.0])
                best = PolicySpec(PolicyKind.DISCRETE_BEST_RESPONSE, truth_oriented=True)
                spec = best if roll < 0.4 else _mono(fraction)
            elif roll < 0.35 and base_delta > 0:
                spec = PolicySpec(PolicyKind.OSCILLATING_ALPHA, alpha1=base_delta / 4, decay=0.5,
                                  truth_oriented=True)
            else:
                spec = _mono(rng.choice([0.25, 0.5, 1.0]))
            policies.append(spec)
        traces.append(px.run_dynamics(sc, Scheduler.round_robin(), policies, max_steps=60))
    return traces


def _discrete_scenario(rng):
    return random_scenario(rng, space=Space.discrete(1.0), both_sides=True, no_peak_at_median=True)


def _discrete_monotone_runs(count):
    runs = []
    for i in range(count):
        rng = random.Random(1000 + i)
        sc = _discrete_scenario(rng)
        policies = [_mono(rng.choice([0.25, 0.5, 0.75, 1.0])) for _ in range(sc.num_proxies)]
        runs.append(px.run_dynamics(sc, Scheduler.round_robin(), policies, max_steps=400))
    return runs


def test_criterion_5_and_6_bounds_and_delta_lemmas():
    traces = _mixed_truth_oriented_runs(500)
    with criterion(5, "Theorem 3 and Lemmas 3-4 on 500 truth-oriented runs"):
        for trace in traces:
            holds(claims.delta_lemmas_and_bound(trace))
    with criterion(6, "Lemmas 3-4: at least 100 monotone traces exercise them"):
        # criterion 5's claim decides the lemmas on every monotone trace
        assert sum(1 for t in traces if claims.trace_is_monotone(t) and t.records) >= 100


def test_criterion_7_example3_divergence():
    with criterion(7, "Example 3: oscillation at delta = 1/2, points +-1/2"):
        assert replicate("example3").ok


def test_criterion_8_discrete_convergence_and_fbrp():
    with criterion(8, "Discrete monotone play: PNE at the true median; FBRP from truth"):
        for trace in _discrete_monotone_runs(200):
            holds(claims.discrete_monotone_converges_to_median(trace))
        # FBRP: best-response play always terminates
        for seed in [1000 + i for i in (0, 50, 100, 150)] + [60_000 + i for i in range(200)]:
            sc = _discrete_scenario(random.Random(seed))
            policies = [PolicySpec(PolicyKind.DISCRETE_BEST_RESPONSE, truth_oriented=True)] * sc.num_proxies
            t = px.run_dynamics(sc, Scheduler.round_robin(), policies, max_steps=400)
            assert t.stop_reason == StopReason.PNE, sc


def test_criterion_9_appendix_a():
    with criterion(9, "Appendix A: scripted discrete play ends at 5; SC 84 -> 86"):
        assert replicate("appendix_a").ok


def test_criterion_10_appendix_b():
    with criterion(10, "Appendix B: intervals exact; outcome 25; dominating sets"):
        assert replicate("appendix_b").ok


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
    desc = "Theorem 7: minimax choice optimal, strong-monotone, dominating"
    with criterion(11, desc, budget=30.0):
        snapshots = _harvest_beliefs(200)
        assert len(snapshots) == 200
        for sc, belief, mover, peak in snapshots:
            w = belief.winner_position
            chosen = px.minimax_regret_strategy(belief, mover, peak)
            chosen_regret = px.oracle_max_regret(belief, mover, chosen, peak)
            # (a) no cut point of the belief has a lower regret
            for x in cut_points(belief, peak):
                assert chosen_regret <= px.oracle_max_regret(belief, mover, x, peak) + 1e-9
            # (b) strong-monotone: chosen and prior report flank the interval together
            prior = belief.observed.declared[mover]
            iv = belief.interval
            assert (chosen >= iv.hi and prior >= iv.hi) or (
                chosen <= iv.lo and prior <= iv.lo
            )
            # (c) lands in the dominating set whenever that set is nonempty
            dom = px.dominating_set_nonwinner(belief, mover, peak)
            if dom is not None:
                assert dom.contains(chosen)
            # (d) regret at the relevant bound equals the bound-to-winner gap
            bound = iv.lo if peak < w else iv.hi
            assert abs(px.oracle_max_regret(belief, mover, bound, peak) - abs(bound - w)) <= 1e-9


def test_criterion_12_footnote_fixture():
    with criterion(12, "Footnote: WM winner can be the socially worse proxy (k=10)"):
        report = replicate("footnote_sc_vs_median")
        assert report.ok, [c for c in report.checks if not c.ok]
        assert report.values["sc_winner"] > report.values["sc_other"]
