"""Better-response sets, the manipulability characterization, PNE tests."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxyline import (
    BeliefState,
    DominatingVerdict,
    Interval,
    ObservedState,
    Scenario,
    ScenarioValidationError,
    Space,
    better_response_set,
    characterize_truthful_manipulability,
    delegation_weights,
    deviation_reports,
    dominating_set_nonwinner,
    dominating_set_winner,
    follower_manipulation_scan,
    init_belief,
    is_better_response,
    is_pne,
    minimax_regret_strategy,
    observe,
    oracle_best_deviation,
    oracle_dominating_check,
    oracle_max_regret,
    true_median,
    wm_winner,
)
from proxyline import manipulation
from proxyline.claims import theorem2_oracle_agreement
from proxyline.fixtures import load_fixture
from proxyline.model import nearest


@pytest.fixture
def example1():
    return load_fixture("example1").scenario


class TestIsBetterResponse:
    def test_example2_move_wins_and_improves(self, example1):
        assert is_better_response(example1, [-1.0, 1.5], 1, 0.5)

    def test_status_quo_is_never_better(self, example1):
        assert not is_better_response(example1, [-1.0, 1.5], 1, 1.5)

    def test_theorem2_constructive_move_to_median(self, example1):
        med = true_median(example1)
        assert is_better_response(example1, example1.truthful_state(), 1, med)

    def test_improvement_between_distances_past_float_max(self):
        # 3.4e308 -> 2.7e308: both distances round to inf
        sc = Scenario((-1.7e308, 1.7e308), (1e308,))
        assert is_better_response(sc, sc.truthful_state(), 0, 1e308)
        assert not is_better_response(sc, [1e308, 1.7e308], 0, -1.7e308)

    def test_rejects_nonfinite(self, example1):
        with pytest.raises(ValueError):
            is_better_response(example1, [-1.0, 1.5], 1, float("nan"))


def _holds(intervals, x):
    return any(iv.contains(x) for iv in intervals)


def _poll(sc):
    return init_belief(observe(sc, sc.truthful_state()))


@pytest.mark.parametrize("proxy_id", [-1, 2, True, 1.0])
@pytest.mark.parametrize(
    "call",
    [
        lambda sc, j: is_better_response(sc, sc.truthful_state(), j, 0.5),
        lambda sc, j: better_response_set(sc, sc.truthful_state(), j),
        lambda sc, j: oracle_max_regret(_poll(sc), j, 0.5, 0.0),
        lambda sc, j: minimax_regret_strategy(_poll(sc), j, 0.0),
        lambda sc, j: dominating_set_nonwinner(_poll(sc), j, 0.0),
        lambda sc, j: oracle_dominating_check(observe(sc, sc.truthful_state()), j, 0.5, 0.0),
    ],
    ids=[
        "is_better_response", "better_response_set", "oracle_max_regret", "minimax_regret_strategy",
        "dominating_set_nonwinner", "oracle_dominating_check",
    ],
)
def test_proxy_id_outside_the_proxies_refused(example1, call, proxy_id):
    # -1 would read the last proxy, m would raise a raw IndexError, True would
    # read proxy 1 and 1.0 would raise a raw TypeError
    with pytest.raises(ScenarioValidationError) as err:
        call(example1, proxy_id)
    assert err.value.path == "proxy_id"


_POLL = ObservedState((3.0, 20.0), 0)
_WINNER = BeliefState(ObservedState((3.0, 12.0), 0), Interval(5.0, 6.0, True, False))


@pytest.mark.parametrize("peak", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "call",
    [
        lambda peak: dominating_set_nonwinner(init_belief(_POLL), 1, peak),
        lambda peak: dominating_set_winner(_WINNER, peak),
        lambda peak: minimax_regret_strategy(init_belief(_POLL), 1, peak),
        lambda peak: oracle_dominating_check(_POLL, 1, 1.0, peak),
        lambda peak: oracle_max_regret(init_belief(_POLL), 1, 1.0, peak),
    ],
    ids=[
        "dominating_set_nonwinner", "dominating_set_winner", "minimax_regret_strategy",
        "oracle_dominating_check", "oracle_max_regret",
    ],
)
def test_nonfinite_peak_refused(call, peak):
    # no answer, and no raw error from deep inside: a NaN peak is nearer
    # nothing, and an infinite one is as far from every report
    with pytest.raises(ValueError, match="peak must be finite"):
        call(peak)


class TestBetterResponseSet:
    def test_pne_state_is_empty_for_everyone(self):
        sc = load_fixture("fig3_one_side").scenario
        for j in range(sc.num_proxies):
            assert better_response_set(sc, sc.truthful_state(), j) == []

    def test_example2_set_matches_fine_grid_scan(self, example1):
        truthful = example1.truthful_state()
        brs = better_response_set(example1, truthful, 1)
        assert _holds(brs, 0.5)
        for k in range(0, 100):  # (0, 1) sits inside the set
            x = 0.01 + k * 0.0099
            assert _holds(brs, x)
        for k in range(-500, 501):
            x = k * 0.01
            assert _holds(brs, x) == is_better_response(example1, truthful, 1, x)

    def test_appendix_a_s5_losing_proxy_5_nonempty(self):
        sc = load_fixture("appendix_a").scenario.with_space(Space.continuous())
        s5 = [4.0, 9.0, 8.0, 7.0, 10.0]
        assert wm_winner(sc, s5) == (0, 4.0)
        brs = better_response_set(sc, s5, 4)
        for x in (5.25, 5.5, 5.9):  # right of the median 5, within distance 1
            assert _holds(brs, x)

    def test_touching_pieces_join_and_open_ends_stay_apart(self):
        # the stretch (-2, 1) and the tail [1, inf) make one interval
        sc = Scenario((0.0, 2.0), (-3.0,))
        assert better_response_set(sc, [1.0, -2.0], 1) == [
            Interval(-math.inf, -7.0, True, False), Interval.open(-2.0, math.inf)
        ]
        # the tail (-inf, -3) and the stretch (-3, inf) meet at -3, which neither holds
        sc = Scenario((1.0, -3.0), (0.0,))
        assert better_response_set(sc, [-3.0, 3.0], 0) == [
            Interval.open(-math.inf, -3.0), Interval.open(-3.0, math.inf)
        ]

    def test_current_position_never_in_set(self, example1):
        for j in range(2):
            assert not _holds(better_response_set(example1, [-1.0, 1.5], j), [-1.0, 1.5][j])

    def test_soundness_and_completeness_randomized(self):
        rng = random.Random(97)
        for _ in range(150):
            m = rng.randint(1, 4)
            n = rng.randint(0, 6)
            sc = Scenario(
                tuple(float(rng.randint(-6, 6)) for _ in range(m)),
                tuple(float(rng.randint(-6, 6)) for _ in range(n)),
            )
            state = [float(rng.randint(-6, 6)) for _ in range(m)]
            for j in range(m):
                brs = better_response_set(sc, state, j)
                pieces = manipulation.outcome_pieces(sc, state, j)
                for k in range(-48, 49):
                    x = k * 0.25
                    assert _holds(brs, x) == is_better_response(sc, state, j, x)
                    # the first piece holding x gives the winner rule's outcome
                    piece = next(p for p in pieces if p.reports.contains(x))
                    trial = list(state)
                    trial[j] = x
                    assert (x if piece.outcome is None else piece.outcome) == wm_winner(sc, trial)[1]


POSITION_KINDS = {
    "decimal": st.integers(-20, 20).map(lambda k: k / 10),
    "float": st.floats(-8.0, 8.0),
    "subnormal": st.integers(-12, 12).map(lambda k: k * 5e-324),
    "hostile": st.sampled_from(
        [1.7e308, -1.7e308, 1e308, -1e308, 1.0, -1.0, 0.0, -0.0, 5e-324, -5e-324, 0.1, 0.3, 1e-300]
    ),
}


def _bounds_and_neighbours(intervals):
    """Every finite bound of ``intervals`` and the floats next to it."""
    bounds = {b for iv in intervals for b in (iv.lo, iv.hi) if math.isfinite(b)}
    near = {math.nextafter(b, d) for b in bounds for d in (-math.inf, math.inf)}
    return sorted(x for x in bounds | near if math.isfinite(x))


class TestBetterResponseSetShape:
    @pytest.mark.parametrize("include_tie_wins", [True, False])
    @pytest.mark.parametrize("kind", sorted(POSITION_KINDS))
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_joined_pieces_ascend_apart_and_hold_the_same_reports(
        self, kind, include_tie_wins, data
    ):
        pos = POSITION_KINDS[kind]
        m, n = data.draw(st.integers(1, 4)), data.draw(st.integers(0, 6))
        sc = Scenario(tuple(data.draw(pos) for _ in range(m)), tuple(data.draw(pos) for _ in range(n)))
        state = [data.draw(pos) for _ in range(m)]
        _, current = wm_winner(sc, state)
        for j in range(m):
            brs = better_response_set(sc, state, j, include_tie_wins=include_tie_wins)
            for a, b in zip(brs, brs[1:]):
                # a gap between them, or a shared end that neither holds
                assert a.hi < b.lo or (a.hi == b.lo and a.hi_open and b.lo_open), (j, a, b)
            pieces = [
                p.reports
                for p in manipulation.improving_pieces(sc, state, j, current)
                if include_tie_wins or not p.tie_win
            ]
            for x in _bounds_and_neighbours(brs + pieces):
                assert _holds(brs, x) == _holds(pieces, x), (j, x)


class TestExactBounds:
    """Every reported bound is the rounded breakpoint, in the set iff the
    set's own predicate holds there: checked at each bound and at the
    floats next to it, where a rounded bound would err."""

    @pytest.mark.parametrize("kind", sorted(POSITION_KINDS))
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_bounds_hold_exactly_their_predicate(self, kind, data):
        pos = POSITION_KINDS[kind]
        m, n = data.draw(st.integers(1, 4)), data.draw(st.integers(0, 6))
        sc = Scenario(tuple(data.draw(pos) for _ in range(m)), tuple(data.draw(pos) for _ in range(n)))
        state = [data.draw(pos) for _ in range(m)]
        for j in range(m):
            brs = better_response_set(sc, state, j)
            for x in _bounds_and_neighbours(brs):
                assert _holds(brs, x) == is_better_response(sc, state, j, x), (j, x)
            found = oracle_best_deviation(sc, state, j, deviation_reports(sc, state, j))
            assert (brs == []) == (found is None), j
        observed = observe(sc, state)
        interval = init_belief(observed).interval
        for x in _bounds_and_neighbours([interval]):
            assert interval.contains(x) == (nearest(state, x) == observed.winner_id), x


class TestDominatingSetSound:
    @pytest.mark.parametrize("kind", sorted(POSITION_KINDS))
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_nonwinner_set_members_dominate(self, kind, data):
        # on each scenario's own poll, the set's midpoint and the float just
        # inside each finite bound dominate under the exact check
        pos = POSITION_KINDS[kind]
        m, n = data.draw(st.integers(2, 4)), data.draw(st.integers(0, 6))
        sc = Scenario(tuple(data.draw(pos) for _ in range(m)), tuple(data.draw(pos) for _ in range(n)))
        observed = observe(sc, [data.draw(pos) for _ in range(m)])
        belief = init_belief(observed)
        for j in range(m):
            if j == observed.winner_id:
                continue
            peak = data.draw(pos)
            dom = dominating_set_nonwinner(belief, j, peak)
            if dom is None:
                continue
            first, last = math.nextafter(dom.lo, math.inf), math.nextafter(dom.hi, -math.inf)
            probes = {first, last, min(max(dom.lo / 2 + dom.hi / 2, first), last)}
            for x in sorted(p for p in probes if math.isfinite(p)):
                assert dom.contains(x), (j, x)
                verdict = oracle_dominating_check(observed, j, x, peak).verdict
                assert verdict == DominatingVerdict.DOMINATING, (j, peak, x, verdict)


class TestCharacterization:
    def test_example1_manipulable_with_witness(self, example1):
        v = characterize_truthful_manipulability(example1)
        assert v.manipulable
        assert v.witness_proxy == 1
        assert v.witness_position == true_median(example1)
        assert is_better_response(
            example1, example1.truthful_state(), v.witness_proxy, v.witness_position
        )

    def test_one_sided_not_manipulable(self):
        sc = load_fixture("fig3_one_side").scenario
        assert not characterize_truthful_manipulability(sc).manipulable

    def test_peak_at_median_not_manipulable(self):
        sc = Scenario((-1.0, 0.0, 2.0), (0.5, -0.5))
        assert true_median(sc) == 0.0
        v = characterize_truthful_manipulability(sc)
        assert not v.manipulable and v.witness_proxy is None

    def test_witness_validity_randomized(self):
        rng = random.Random(11)
        for _ in range(200):
            m = rng.randint(1, 4)
            n = rng.randint(0, 6)
            sc = Scenario(
                tuple(float(rng.randint(-10, 10)) for _ in range(m)),
                tuple(float(rng.randint(-10, 10)) for _ in range(n)),
            )
            ok, detail = theorem2_oracle_agreement(sc)
            assert ok, detail


class TestIsPne:
    def test_appendix_a_final_state_discrete(self):
        sc = load_fixture("appendix_a").scenario
        assert is_pne(sc, [4.0, 9.0, 8.0, 7.0, 5.0])

    def test_manipulable_truthful_state_is_not_pne(self, example1):
        assert not is_pne(example1, example1.truthful_state())

    def test_single_proxy_truthful(self):
        sc = Scenario((3.0,), (0.0, 8.0))
        assert is_pne(sc, [3.0])

    def test_fine_grid_needs_no_point_list(self):
        # the better-response sets span more than a million grid points
        sc = Scenario((-1e6, 1.5e6), (0.0,), Space.discrete(1.0))
        assert not is_pne(sc, [-1e6, 1.5e6])

    def test_single_proxy_off_peak_can_improve(self):
        # the lone proxy always wins at its report, so moving to the peak helps
        sc = Scenario((3.0,), (0.0, 8.0))
        assert not is_pne(sc, [5.0])


def _reached(sc, follower, reports):
    """(winner, outcome) pairs of the truthful state as one follower reports each of ``reports``."""
    declared = sc.truthful_state()
    pairs = set()
    for x in reports:
        followers = list(sc.follower_positions)
        followers[follower] = x
        pairs.add(wm_winner(sc.with_followers(tuple(followers)), declared))
    return pairs


class TestFollowerScan:
    def test_example1_no_witness(self, example1):
        assert follower_manipulation_scan(example1) is None

    def test_appendix_b_no_witness(self):
        sc = load_fixture("appendix_b").scenario
        assert follower_manipulation_scan(sc) is None

    def test_no_followers_vacuous(self):
        assert follower_manipulation_scan(Scenario((0.0, 1.0))) is None

    @pytest.mark.parametrize("unit", [1.0, 0.1], ids=["integer", "decimal"])
    def test_declared_positions_reach_every_outcome(self, unit):
        # the scan's completeness: no report on a fine grid reaches a
        # (winner, outcome) that a report at a declared position misses
        rng = random.Random(11)
        for _ in range(60):
            peaks = tuple(round(rng.randint(-20, 20) * unit, 1) for _ in range(rng.randint(1, 4)))
            followers = tuple(round(rng.randint(-20, 20) * unit, 1) for _ in range(rng.randint(1, 5)))
            sc = Scenario(peaks, followers)
            low, high = min(peaks + followers), max(peaks + followers)
            span = max(high - low, 1.0)
            lo, hi = low - span, high + span  # the positions' span padded by itself
            grid = [lo - 1.0 + k * (hi - lo + 2.0) / 400 for k in range(401)]
            follower = rng.randrange(len(followers))
            assert _reached(sc, follower, grid) <= _reached(sc, follower, dict.fromkeys(peaks))

    def test_finds_a_witness_under_a_manipulable_rule(self, monkeypatch):
        # under a delegation-weighted mean, the follower at 4 pulls the
        # outcome from 2 to its peak by reporting the far proxy's position
        def weighted_mean(scenario, declared):
            weights = delegation_weights(scenario, declared)
            return -1, sum(w * p for w, p in zip(weights, declared)) / sum(weights)

        monkeypatch.setattr(manipulation, "wm_winner", weighted_mean)
        sc = Scenario((0.0, 10.0), (4.0, 0.0, 0.0))
        assert follower_manipulation_scan(sc) == (0, 10.0)
