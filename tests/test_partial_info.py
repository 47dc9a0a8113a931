"""Winner-only polls: median intervals, dominating sets, minimax regret."""

import itertools
import math
import random

import pytest

from proxyline import (
    BeliefState,
    InconsistentObservationError,
    Interval,
    ObservedState,
    PolicyKind,
    PolicySpec,
    Scenario,
    Scheduler,
    Space,
    StopReason,
    dominating_set_nonwinner,
    dominating_set_winner,
    init_belief,
    minimax_regret_strategy,
    observe,
    run_dynamics,
    step,
    true_median,
    update_belief,
    update_median_interval,
    wm_winner,
)
from proxyline.claims import interval_holds_each_state_median, minimax_regret_reaches_median
from proxyline.fixtures import appendix_b_opening, load_fixture
from proxyline.generators import random_scenario
from proxyline.oracle import DominatingVerdict, oracle_dominating_check, oracle_max_regret


class TestObserve:
    def test_fig7_pair_indistinguishable(self):
        sf = load_fixture("fig7_pair")
        top, bottom = sf.scenario, sf.scenario.with_followers(sf.alt_followers)
        assert observe(top, top.truthful_state()) == observe(bottom, bottom.truthful_state())

    def test_appendix_b_truthful(self):
        sc = load_fixture("appendix_b").scenario
        obs = observe(sc, sc.truthful_state())
        assert obs.declared == (-30.0, 90.0)
        assert obs.winner_id == 0
        assert obs.winner_position == -30.0

    def test_single_proxy_always_wins(self):
        sc = Scenario((5.0,), (0.0, 100.0))
        assert observe(sc, [5.0]).winner_id == 0


class TestInitInterval:
    def test_appendix_b_unbounded_left(self):
        sc = load_fixture("appendix_b").scenario
        iv = init_belief(observe(sc, sc.truthful_state())).interval
        assert math.isinf(iv.lo) and iv.lo < 0
        assert iv.hi == 30.0
        # the winner (lower index) keeps the exact-midpoint tie, so 30 stays in
        assert not iv.hi_open

    def test_symmetric_neighbors(self):
        sc = Scenario((-3.0, 0.0, 3.0), (-0.1, 0.1))
        obs = observe(sc, sc.truthful_state())
        assert obs.winner_id == 1
        iv = init_belief(obs).interval
        assert (iv.lo, iv.hi) == (-1.5, 1.5)

    def test_three_proxies_winner_in_middle(self):
        obs = ObservedState((0.0, 4.0, 10.0), 1)
        iv = init_belief(obs).interval
        assert (iv.lo, iv.hi) == (2.0, 7.0)
        assert iv.lo_open  # tie at 2 goes to the lower-index neighbor
        assert not iv.hi_open  # tie at 7 stays with the winner

    def test_midpoint_of_huge_positions_does_not_overflow(self):
        # (1e308 + 1.7e308) / 2 would be inf; the bound is the midpoint
        sc = Scenario((1e308, 1.7e308), (1.2e308,))
        iv = init_belief(observe(sc, sc.truthful_state())).interval
        assert (iv.lo, iv.hi, iv.hi_open) == (-math.inf, 1.35e308, False)

    def test_subnormal_midpoints_round_onto_the_winner(self):
        # the exact midpoints -4.5 and -3.5 times 5e-324 both round to the
        # winner's -4 times 5e-324, where the winner wins: a closed point
        sc = Scenario((-2.5e-323, -2e-323, -1.5e-323))
        obs = observe(sc, sc.truthful_state())
        assert obs.winner_id == 1
        iv = init_belief(obs).interval
        assert iv == Interval.point(-2e-323)
        assert iv.contains(true_median(sc))


class TestUpdateInterval:
    def test_appendix_b_updates(self):
        sc = load_fixture("appendix_b").scenario
        _, belief, trace = appendix_b_opening(load_fixture("appendix_b"))
        history = trace.interval_history
        assert [iv.lo for iv in history] == [-math.inf, -0.5, -0.5]
        assert [iv.hi for iv in history] == [30.0, 30.0, 27.0]
        # at -0.5 the displaced proxy 1 would win the tie, so the bound is open
        assert history[1].lo_open and history[2].lo_open
        # the helper's belief is the one fresh polls of the opening build
        declared = list(trace.initial_declared)
        replayed = init_belief(observe(sc, declared))
        for rec in trace.records:
            declared[rec.mover] = rec.to_pos
            replayed = update_belief(replayed, observe(sc, declared))
        assert belief == replayed

    def test_winner_nudge_right_is_midpoint_cut(self):
        # the winner moving right and winning again reveals only its new
        # midpoint interval (2.5, 7.5], not which side of it the median is
        belief = init_belief(ObservedState((0.0, 4.0, 10.0), 1))
        assert belief.interval == Interval(2.0, 7.0, True, False)
        iv = update_median_interval(belief, ObservedState((0.0, 5.0, 10.0), 1))
        assert iv == Interval(2.5, 7.0, True, False)

    def test_empty_intersection_raises(self):
        # one state announced with two different winners: proxy 1 wins only
        # for medians in (2, 7], proxy 2 only for medians in (7, inf)
        belief = init_belief(ObservedState((0.0, 4.0, 10.0), 1))
        with pytest.raises(InconsistentObservationError):
            update_median_interval(belief, ObservedState((0.0, 4.0, 10.0), 2))

    def test_interval_shrinks_monotonically_under_play(self):
        sc = Scenario((-8.0, 3.0, 9.0), (-2.0, 0.0, 4.0))
        pols = [PolicySpec(PolicyKind.MINIMAX_REGRET)] * 3
        trace = run_dynamics(
            sc, Scheduler.round_robin(), pols, max_steps=40, mode="partial_info"
        )
        ok, detail = interval_holds_each_state_median(trace)
        assert ok, detail
        med = true_median(sc)
        for iv in trace.interval_history:
            assert iv.contains(med)
        for a, b in zip(trace.interval_history, trace.interval_history[1:]):
            assert b.intersect(a) == b  # b is a subset of a

    @pytest.mark.parametrize("space", [Space(), Space(1.0)])
    def test_random_play_never_raises_and_stays_sound(self, space):
        # minimax_regret and scripted proxies mixed at random, winners moving
        # and reports crossing the median included: a crossing moves the
        # median, and each poll's interval holds the median of its own state
        rng = random.Random(16)
        unit = 1.0 if space.step else 0.5
        for _ in range(150):
            sc = random_scenario(rng, space=space, min_proxies=2)
            policies = []
            for _ in sc.proxy_peaks:
                if rng.random() < 0.5:
                    policies.append(PolicySpec(PolicyKind.MINIMAX_REGRET))
                    continue
                script = tuple(rng.randint(-30, 30) * unit for _ in range(rng.randint(1, 4)))
                policies.append(PolicySpec(PolicyKind.SCRIPTED, positions=script))
            trace = run_dynamics(
                sc, Scheduler.round_robin(), policies, max_steps=60, mode="partial_info"
            )
            ok, detail = interval_holds_each_state_median(trace)
            assert ok, detail

    def test_decimal_polls_stay_sound(self):
        # move 5 polls [-4.9, -4.800000000000001]: the exact midpoint of the
        # reports -5.000000000000001 and -4.800000000000001 lies below the
        # median -4.9 but rounds to it, where the announced winner wins
        sc = Scenario((-6.4, 0.0), (-4.9,))
        trace = run_dynamics(
            sc, Scheduler.round_robin(), [PolicySpec(PolicyKind.MINIMAX_REGRET)] * 2,
            max_steps=60, mode="partial_info",
        )
        ok, detail = interval_holds_each_state_median(trace)
        assert ok, detail


def play_on(trace, moves):
    """Continue a round-robin minimax-regret run past its stop with ``step``
    and ``update_belief``, up to ``moves`` moves in all or a full round of
    passes, asserting that each new poll's interval holds its state's
    median. Returns the number of moves played in all."""
    sc, m = trace.scenario, trace.scenario.num_proxies
    spec = PolicySpec(PolicyKind.MINIMAX_REGRET)
    records, declared = list(trace.records), list(trace.final_declared)
    belief = BeliefState(observe(sc, declared), trace.interval_history[-1])
    turn = records[-1].mover + 1 if records else 0
    passes = 0
    while len(records) < moves and passes < m:
        rec = step(sc, declared, turn % m, spec, records, belief)
        turn += 1
        if rec is None:
            passes += 1
            continue
        passes = 0
        records.append(rec)
        declared[rec.mover] = rec.to_pos
        belief = update_belief(belief, ObservedState(tuple(declared), rec.winner_after))
        assert belief.interval.contains(rec.median_after), (
            f"move {rec.t}: {belief.interval} leaves out the median {rec.median_after}"
        )
    return len(records)


class TestConvergedStop:
    """A partial-information run stops at the first poll whose median
    interval pins the outcome within ``outcome_tol``. Such a stop must have
    reached the true median, and play past it must keep every poll sound:
    that float-resolution tail is where a bound rounds, and the runs of
    ``check --random`` no longer play it."""

    RUNS = 250
    MOVES = 60

    @pytest.fixture(scope="class")
    def runs(self):
        rng = random.Random(26)
        traces = []
        for _ in range(self.RUNS):
            sc = random_scenario(rng, min_proxies=2, both_sides=True, no_peak_at_median=True)
            traces.append(run_dynamics(
                sc, Scheduler.round_robin(),
                [PolicySpec(PolicyKind.MINIMAX_REGRET)] * sc.num_proxies,
                max_steps=self.MOVES, mode="partial_info",
            ))
        return traces

    def test_a_converged_stop_has_reached_the_true_median(self, runs):
        converged = [t for t in runs if t.stop_reason == StopReason.CONVERGED]
        assert len(converged) > self.RUNS // 2
        for trace in converged:
            assert trace.interval_history[-1].contains(true_median(trace.scenario))
            ok, detail = minimax_regret_reaches_median(trace)
            assert ok, detail

    def test_play_past_the_stop_keeps_every_poll_sound(self, runs):
        for trace in runs:
            ok, detail = interval_holds_each_state_median(trace)
            assert ok, detail
            # every run still has moves to play past its stop
            assert play_on(trace, self.MOVES) > len(trace.records)


class TestDominatingSets:
    def test_appendix_b_s3_proxy2(self):
        sc = load_fixture("appendix_b").scenario
        _, belief, _ = appendix_b_opening(load_fixture("appendix_b"))
        assert dominating_set_nonwinner(belief, 1, 90.0) == Interval.open(25.0, 29.0)

    def test_winner_raises_in_nonwinner_call(self):
        sc = load_fixture("appendix_b").scenario
        _, belief, _ = appendix_b_opening(load_fixture("appendix_b"))
        with pytest.raises(ValueError):
            dominating_set_nonwinner(belief, 0, -30.0)

    def test_left_bound_at_or_above_winner_means_empty(self):
        obs = ObservedState((0.0, 10.0), 0)
        belief = BeliefState(obs, Interval(0.0, 5.0, False, True))
        assert dominating_set_nonwinner(belief, 1, -20.0) is None

    def test_winner_at_peak_empty(self):
        sc = load_fixture("appendix_b").scenario
        belief = init_belief(observe(sc, sc.truthful_state()))
        assert dominating_set_winner(belief, -30.0) is None

    def test_appendix_b_limit_regime_winner_empty(self):
        sc = load_fixture("appendix_b").scenario
        _, belief, _ = appendix_b_opening(load_fixture("appendix_b"))
        # winner at 25 with interval reaching below it: the meta condition fails
        assert dominating_set_winner(belief, -30.0) is None

    def test_winner_meta_set_matches_profile_oracle(self):
        # winner at 3, peak 0, interval (5, 6], right neighbor at 12:
        # safe stretch is (2*6-12, 3) = (0, 3)
        obs = ObservedState((3.0, 12.0), 0)
        belief = BeliefState(obs, Interval(5.0, 6.0, True, False))
        assert dominating_set_winner(belief, 0.0) == Interval.open(0.0, 3.0)
        # every member keeps the winner winning for all consistent medians
        for x in (0.5, 1.5, 2.5):
            for med in (5.01, 5.5, 6.0):
                assert abs(x - med) < abs(12.0 - med)

    def test_nonwinner_members_dominate_exactly(self):
        sc = load_fixture("appendix_b").scenario
        declared, belief, _ = appendix_b_opening(load_fixture("appendix_b"))
        dom = dominating_set_nonwinner(belief, 1, 90.0)
        obs = observe(sc, declared)
        for x in (25.5, 27.0, 28.5):
            assert dom.contains(x)
            res = oracle_dominating_check(obs, 1, x, 90.0)
            assert res.verdict == DominatingVerdict.DOMINATING
        # just outside the set: never strictly better
        res = oracle_dominating_check(obs, 1, 29.5, 90.0)
        assert res.verdict == DominatingVerdict.NEVER_STRICTLY_BETTER


    def test_nonwinner_set_leaves_out_a_report_that_never_wins(self):
        # 2.9999999999999996 would win only at a median in
        # (2.4999999999999998, 2.5), and the poll's interval (-inf, 2.5)
        # holds no float there: the set ends at the reflection of the
        # greatest median it holds, 2.4999999999999996, across the winner
        obs = ObservedState((3.0, 2.0), 1)
        belief = init_belief(obs)
        assert belief.interval == Interval(-math.inf, 2.5, True, True)
        dom = dominating_set_nonwinner(belief, 0, 8.0)
        assert dom == Interval.open(2.0, 2.999999999999999)
        verdict = oracle_dominating_check(obs, 0, 2.9999999999999996, 8.0).verdict
        assert verdict == DominatingVerdict.NEVER_STRICTLY_BETTER
        verdict = oracle_dominating_check(obs, 0, 2.9999999999999987, 8.0).verdict
        assert verdict == DominatingVerdict.DOMINATING

    def test_right_peak_sets_follow_the_mirrored_rules(self):
        # winner 3 with medians in (2.25, 4.5]: a report right of it beats
        # the winner at some median only below 2 * 4.5 - 3 = 6, short of
        # the neighbor at 7.5, and a peak at 4 caps the set at 2 * 4 - 3
        obs = ObservedState((-1.0, 3.0, 7.5), 1)
        belief = BeliefState(obs, Interval(2.25, 4.5, True, False))
        assert dominating_set_nonwinner(belief, 2, 20.0) == Interval.open(3.0, 6.0)
        assert dominating_set_nonwinner(belief, 2, 4.0) == Interval.open(3.0, 5.0)
        # the winner right of its medians (1.5, 2], peak 5: the safe stretch
        # ends at the reflection of the left neighbor -1 across 1.5
        winner = BeliefState(obs, Interval(1.5, 2.0, True, False))
        assert dominating_set_winner(winner, 5.0) == Interval.open(3.0, 4.0)

    @pytest.mark.parametrize(
        "observed, interval, peak, expected",
        [
            # mirrored, the far end is reflect(0.2, 1.1), rounded once;
            # 0.2 - |0.2 - 1.1| rounds twice, to one ulp past it
            (ObservedState((0.6, -1.1, -1.1), 0), Interval(-0.2, 0.1, True, True), 1.5,
             Interval.open(0.6, 0.7000000000000001)),
            # the winner's and the right neighbor's rounded distances from
            # 8.5e307 tie, but the winner is exactly nearer it
            (ObservedState((1.7e308, 1.7e308, 1.5e-323, -1.7e308), 2),
             Interval(0.05, 8.5e307, True, False), -0.0, Interval.open(0.0, 1.5e-323)),
        ],
        ids=["reflection_rounded_once", "rounded_distances_tie"],
    )
    def test_winner_set_takes_exact_bounds_and_guard(self, observed, interval, peak, expected):
        belief = BeliefState(observed, interval)
        assert dominating_set_winner(belief, peak) == expected


class TestMaxRegret:
    """The oracle's regret plays the simulator's game, in which a report may
    cross the median and move it."""

    def _belief(self, ell=2.0, hi=10.0):
        # proxy 1 at 20 sits across the median from its peak -5
        return BeliefState(ObservedState((3.0, 20.0), 0), Interval(ell, hi, True, True))

    def test_a_report_across_the_median_counts(self):
        belief = self._belief()
        # medians just above 2 may come with followers far left, where the
        # report 2 wins at 2 but the peak -5 itself would have won
        assert oracle_max_regret(belief, 1, 2.0, peak=-5.0) == 7.0
        # -1 risks less than the bound 2, where the minimax-regret strategy
        # moves: off the truthful start that strategy is not always minimax
        assert oracle_max_regret(belief, 1, -1.0, peak=-5.0) == 4.0

    def test_zero_gap_left_reports_are_regret_free(self):
        # no window has proxy 0 strictly inside, so every median is at or
        # right of 3, where any report left of 3 hands the win to 3
        belief = self._belief(ell=3.0)
        assert oracle_max_regret(belief, 1, 1.0, peak=-5.0) == 0.0

    @pytest.mark.parametrize("candidate, regret", [(0.5, 5.5), (2.5, 7.5), (7.0, 8.0)])
    def test_interior_far_and_crossing_reports(self, candidate, regret):
        assert oracle_max_regret(self._belief(), 1, candidate, peak=-5.0) == regret

    def test_unbounded_interval_gives_a_finite_regret(self):
        # proxy 1 reporting 1.5 wins whenever the median is at most 3.75,
        # 4.5 from its peak, which its tied report 6 would have held
        belief = init_belief(ObservedState((6.0, 6.0), 0))
        assert oracle_max_regret(belief, 1, 1.5, 6.0) == 4.5

    def test_a_crossing_report_can_move_the_median(self):
        sc = Scenario((5.0, 6.0, -3.0), (3.0, -5.0))
        belief = init_belief(observe(sc, sc.truthful_state()))
        assert belief.interval == Interval(1.0, 5.5, False, False)
        assert oracle_max_regret(belief, 1, -5.75, 6.0) == 8.0
        # at the true followers the report moves the median to -3: proxy 2
        # wins, 9 from the peak, where the truthful report got 1
        assert wm_winner(sc, [5.0, -5.75, -3.0]) == (2, -3.0)

    def test_right_peak_past_float_max_does_not_overflow(self):
        # with the median just left of the midpoint of -1.7e308 and 1, the
        # report 1 loses to -1.7e308 while a report near 0 would have won
        belief = BeliefState(
            ObservedState((-1.7e308, -1.7e308), 0), Interval(-1.7e308, math.inf, False, True)
        )
        assert oracle_max_regret(belief, 1, 1.0, peak=-5e-324) == 1.7e308

    def test_the_winner_has_a_regret_too(self):
        belief = self._belief()
        assert oracle_max_regret(belief, 0, 3.0, peak=3.0) == 0.0
        # a winner at 3 that would rather be at -5: staying misses -5 when
        # the followers sit far left, and moving there loses to 20 when
        # they sit right of 7.5
        assert oracle_max_regret(belief, 0, 3.0, peak=-5.0) == 8.0
        assert oracle_max_regret(belief, 0, -5.0, peak=-5.0) == 25.0
        # a lone proxy wins with any report
        assert oracle_max_regret(init_belief(ObservedState((2.0,), 0)), 0, 5.0, -1.0) == 6.0

    def test_refusals(self):
        with pytest.raises(ValueError):
            oracle_max_regret(self._belief(), 1, math.nan, peak=-5.0)
        # proxy 1 wins only for medians in (2, 7]
        belief = BeliefState(ObservedState((0.0, 4.0, 10.0), 1), Interval(8.0, 9.0, False, False))
        with pytest.raises(InconsistentObservationError):
            oracle_max_regret(belief, 0, 1.0, peak=0.0)


def cut_points(belief, peak):
    """The declared positions, the peak, the finite interval bounds and
    their midpoints: the reports whose regret the minimax-regret report
    must match."""
    iv = belief.interval
    points = {*belief.observed.declared, peak, *(x for x in (iv.lo, iv.hi) if math.isfinite(x))}
    return sorted(points | {a / 2 + b / 2 for a, b in itertools.combinations(points, 2)})


class TestMinimaxStrategy:
    def test_nonwinner_moves_to_relevant_bound(self):
        sc = load_fixture("appendix_b").scenario
        _, belief, _ = appendix_b_opening(load_fixture("appendix_b"))
        assert minimax_regret_strategy(belief, 1, 90.0) == 27.0
        assert oracle_max_regret(belief, 1, 27.0, peak=90.0) == abs(27.0 - 25.0)

    def test_winner_stays_put(self):
        sc = load_fixture("appendix_b").scenario
        _, belief, _ = appendix_b_opening(load_fixture("appendix_b"))
        assert minimax_regret_strategy(belief, 0, -30.0) == 25.0

    def test_zero_gap_halfline_argmin(self):
        obs = ObservedState((3.0, 20.0), 0)
        belief = BeliefState(obs, Interval(3.0, 9.0, True, True))
        # the bound is the winner: every report strictly left of it is regret-free
        assert minimax_regret_strategy(belief, 1, -5.0) == 3.0  # 20 is not left of it
        kept = BeliefState(ObservedState((3.0, 1.0), 0), belief.interval)
        assert minimax_regret_strategy(kept, 1, -5.0) == 1.0
        assert minimax_regret_strategy(kept, 1, 9.0) == 9.0  # a right peak moves to 9

    def test_chosen_beats_grid_alternatives(self):
        sc = load_fixture("appendix_b").scenario
        _, belief, _ = appendix_b_opening(load_fixture("appendix_b"))
        best = oracle_max_regret(belief, 1, 27.0, peak=90.0)
        for x in cut_points(belief, 90.0):
            assert best <= oracle_max_regret(belief, 1, x, peak=90.0)


class TestSampling:
    def test_fig7_profiles_both_consistent(self):
        sf = load_fixture("fig7_pair")
        top, bottom = sf.scenario, sf.scenario.with_followers(sf.alt_followers)
        obs = observe(top, top.truthful_state())
        for profile in (top.follower_positions, bottom.follower_positions):
            world = top.with_followers(profile)
            assert wm_winner(world, list(obs.declared))[0] == obs.winner_id


def test_minimax_play_converges_to_true_median_from_truth():
    rng = random.Random(3)
    for _ in range(20):
        m = rng.randint(2, 4)
        n = rng.randint(1, 6)
        sc = Scenario(
            tuple(float(rng.randint(-10, 10)) for _ in range(m)),
            tuple(float(rng.randint(-10, 10)) for _ in range(n)),
        )
        pols = [PolicySpec(PolicyKind.MINIMAX_REGRET)] * m
        trace = run_dynamics(sc, Scheduler.round_robin(), pols, max_steps=80, mode="partial_info")
        ok, detail = interval_holds_each_state_median(trace)
        assert ok, detail
        med = true_median(sc)
        for iv in trace.interval_history:
            assert iv.contains(med)
