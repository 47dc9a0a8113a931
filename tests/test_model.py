"""Core model: delegation, weighted median, winner routes, tie rules."""

import dataclasses
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from proxyline import (
    ConfigurationError,
    EmptyElectorateError,
    Interval,
    PolicyKind,
    PolicySpec,
    Scenario,
    ScenarioValidationError,
    Scheduler,
    Space,
    StopReason,
    delegate,
    delegation_weights,
    nearest_proxy_to_median,
    run_dynamics,
    unweighted_median,
    weighted_median,
    wm_winner,
)
from proxyline import model
from proxyline.fixtures import load_fixture
from proxyline.manipulation import _median_window
from proxyline.scenario_io import parse_scenario_file


@pytest.fixture
def example1():
    return load_fixture("example1").scenario


@pytest.fixture
def appendix_b():
    return load_fixture("appendix_b").scenario


class TestDelegate:
    def test_example1_follower_goes_to_nearer_proxy(self, example1):
        # distance 1 to the proxy at -1 beats distance 1.5 to the one at 1.5
        assert delegate(example1, [-1.0, 1.5]) == [1, 0]

    def test_single_proxy_takes_everyone(self):
        sc = Scenario((2.0,), (-5.0, 0.0, 9.0))
        assert delegate(sc, [2.0]) == [3]

    def test_exact_midpoint_goes_to_lower_index(self):
        sc = Scenario((0.0, 2.0), (1.0,))
        assert delegate(sc, [0.0, 2.0]) == [1, 0]

    def test_midpoint_tie_is_index_not_position_based(self):
        sc = Scenario((2.0, 0.0), (1.0,))
        assert delegate(sc, [2.0, 0.0]) == [1, 0]


class TestWeightedMedian:
    def test_example1_weights(self):
        assert weighted_median([-1.0, 1.5], [2.0, 1.0]) == (0, -1.0)

    def test_singleton(self):
        assert weighted_median([3.25], [7.0]) == (0, 3.25)

    def test_even_unit_weights_take_lower_middle(self):
        # both middle elements qualify; (position, index) ordering picks 1
        assert weighted_median([0.0, 1.0, 2.0, 3.0], [1.0] * 4) == (1, 1.0)

    def test_duplicate_values_qualify(self):
        assert weighted_median([0.0, 0.0, 1.0], [1.0, 1.0, 1.0]) == (0, 0.0)

    def test_empty_raises(self):
        with pytest.raises(EmptyElectorateError):
            weighted_median([], [])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            weighted_median([1.0], [0.0])

    @pytest.mark.parametrize(
        "values, weights",
        [
            ([1.0, 2.0, 3.0], [1.0, math.nan, 1.0]),
            ([1.0, 2.0, 3.0], [math.nan, 1.0, 1.0]),
            ([1.0, 2.0, 3.0], [1.0, math.inf, 1.0]),
            ([1.0, 2.0], [1.0, -math.inf]),
            ([1.0, 2.0], [1e308, 1e308]),  # the total overflows
            ([math.nan, 1.0], [1.0, 1.0]),
            ([1.0, math.inf], [1.0, 1.0]),
            ([-math.inf, 1.0, 2.0], [1.0, 1.0, 1.0]),
        ],
    )
    def test_nonfinite_input_rejected(self, values, weights):
        with pytest.raises(ValueError):
            weighted_median(values, weights)

    @given(
        st.lists(st.integers(-20, 20), min_size=1, max_size=9),
        st.data(),
    )
    @settings(max_examples=200)
    def test_definition_holds(self, values, data):
        weights = data.draw(
            st.lists(
                st.integers(1, 5), min_size=len(values), max_size=len(values)
            )
        )
        values = [float(v) for v in values]
        weights = [float(w) for w in weights]
        idx, val = weighted_median(values, weights)
        total = sum(weights)
        below = sum(w for v, w in zip(values, weights) if v < val)
        above = sum(w for v, w in zip(values, weights) if v > val)
        assert values[idx] == val
        assert below <= total / 2 and above <= total / 2


class TestUnweightedMedian:
    def test_example1(self, example1):
        assert unweighted_median(example1, [-1.0, 1.5]) == 0.0

    def test_appendix_b(self, appendix_b):
        assert unweighted_median(appendix_b, [-30.0, 90.0]) == 0.0

    def test_singleton(self):
        assert unweighted_median(Scenario((4.0,)), [4.0]) == 4.0

    def test_even_multiset_lower_middle(self):
        sc = Scenario((0.0, 1.0), (2.0, 3.0))
        assert unweighted_median(sc, [0.0, 1.0]) == 1.0


# Four kinds of state for the routes above the scan size: tie-heavy
# half-integers, mixes of 0.0 and -0.0 (the median's zero sign must match),
# the scale where float subtraction collapses distances (0.0 vs 1e-20 next
# to 1e17), and subnormals.
STATE_KINDS = {
    "half_integers": st.integers(-8, 8).map(lambda k: k / 2),
    "signed_zeros": st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
    "collapse": st.sampled_from([0.0, -0.0, 1e-20, -1e-20, 1e17, -1e17, 0.3]),
    "subnormal": st.integers(-12, 12).map(lambda k: k * 5e-324),
}


def _scan(scenario, declared):
    """Reference delegation: nearest declared proxy by exact distance, lower
    index on ties."""
    exact = [Fraction(p) for p in declared]
    return [
        min((abs(p - f), j) for j, p in enumerate(exact))[1]
        for f in map(Fraction, scenario.follower_positions)
    ]


def _histogram(labels, m):
    return [labels.count(j) for j in range(m)]


def _reference_winner(scenario, declared):
    """Reference winner: the weighted median of exact delegation weights."""
    counts = _histogram(_scan(scenario, declared), len(declared))
    return weighted_median(declared, [c + 1.0 for c in counts])[0]


def _pool_median(scenario, declared):
    """Reference median: the lower middle value, as its first occurrence in
    declared + followers (which fixes the sign of a zero)."""
    pool = list(declared) + list(scenario.follower_positions)
    v = sorted(pool)[(len(pool) - 1) // 2]
    return next(x for x in pool if x == v)


def _pool_window(scenario, declared, proxy_id):
    """Reference ``_median_window``: order statistics of the whole pool."""
    others = [(p, k) for k, p in enumerate(declared) if k != proxy_id]
    pool = sorted([p for p, _ in others] + list(scenario.follower_positions))
    r = (len(declared) + scenario.num_followers + 1) // 2
    lo = pool[r - 2] if r >= 2 else -math.inf
    hi = pool[r - 1] if r - 1 < len(pool) else math.inf
    return lo, hi, others


def _draw_scenario(data, pos, max_m, max_n):
    m = data.draw(st.integers(1, max_m))
    n = data.draw(st.integers(0, max_n))
    sc = Scenario(
        tuple(data.draw(pos) for _ in range(m)), tuple(data.draw(pos) for _ in range(n))
    )
    return sc, [data.draw(pos) for _ in range(m)]


class TestSortedRoutes:
    """Above :data:`model.SCAN_MAX_FOLLOWERS` the winner is the proxy nearest
    the median, read from the median band and kept per state; every
    answer is checked against a reference built from exact distances."""

    @pytest.mark.parametrize("kind", sorted(STATE_KINDS))
    @given(data=st.data())
    @settings(max_examples=300)
    def test_agree_with_scan_and_pool(self, kind, data):
        sc, declared = _draw_scenario(data, STATE_KINDS[kind], 6, 12)
        m = len(declared)
        assert delegate(sc, declared) == _histogram(_scan(sc, declared), m)
        with mock.patch.object(model, "SCAN_MAX_FOLLOWERS", 0):  # the Lemma 1 route at any n
            winner = wm_winner(sc, declared)
        assert winner[0] == _reference_winner(sc, declared)
        assert repr(winner[1]) == repr(declared[winner[0]])
        assert repr(unweighted_median(sc, declared)) == repr(_pool_median(sc, declared))
        for j in range(m):
            assert repr(_median_window(sc, declared, j)) == repr(_pool_window(sc, declared, j))

    def test_rounding_collapse_decided_exactly(self):
        # 0.3 - 0.0 and 0.3 - 1e-20 round to the same distance, but 1e-20 is
        # nearer: the follower goes to id 1, and id 1 is nearest the median
        sc = Scenario((0.0, 1e-20, 1.0), (0.3,))
        declared = [0.0, 1e-20, 1.0]
        assert delegate(sc, declared) == _histogram(_scan(sc, declared), 3) == [0, 1, 0]
        with mock.patch.object(model, "SCAN_MAX_FOLLOWERS", 0):
            assert wm_winner(sc, declared) == (1, 1e-20)
        assert wm_winner(sc, declared) == (1, 1e-20)

    def test_rounded_tie_far_from_the_midpoint(self):
        # abs() rounds every distance from +-1e17 to a follower this small to
        # 1e17; exactly, the negative followers are nearer -1e17 and those at
        # 0 or -0 tie, so they go to id 0 and the positive ones to id 1
        followers = (0.0, -0.0, 1e-20, -1e-20, 0.3, 0.5, 1.0) * 6
        sc = Scenario((-1e17, 1e17), followers)
        declared = [-1e17, 1e17]
        assert delegate(sc, declared) == _histogram(_scan(sc, declared), 2) == [18, 24]
        # the median 1e-20 is nearer 1e17 by 2e-20, which no rounded distance shows
        assert wm_winner(sc, declared) == (1, 1e17) and _reference_winner(sc, declared) == 1

    def test_subnormal_midpoint_tie(self):
        # the followers sit at the exact midpoint 1.5e-323, where they tie and
        # go to id 0; the median is there too, and its tie goes to id 0 alike
        sc = Scenario((5e-324, 2.5e-323), (1.5e-323,) * 40)
        declared = [5e-324, 2.5e-323]
        assert delegate(sc, declared) == _histogram(_scan(sc, declared), 2) == [40, 0]
        assert unweighted_median(sc, declared) == 1.5e-323
        assert wm_winner(sc, declared) == (0, 5e-324)

    def test_midpoint_of_huge_positions_does_not_overflow(self):
        # distances between these positions overflow to inf; the exact
        # comparison still finds the nearer proxy on every route
        followers = tuple(1.25e308 + k * 1e305 for k in range(-20, 20))
        sc = Scenario((-1.7e308, 1e308, 1.5e308), followers)
        for declared in ([-1.7e308, 1e308, 1.5e308], [1.7e308, -1e308, 1.25e308]):
            assert delegate(sc, declared) == _histogram(_scan(sc, declared), 3)
            assert wm_winner(sc, declared)[0] == _reference_winner(sc, declared)

    def test_many_proxies_integer_grid(self):
        # the dyn_many_proxies shape: m=50 integer positions, some repeated,
        # over 10 000 integer followers, 8 of them at a midpoint tie
        rng = random.Random(8)
        followers = tuple(float(rng.randint(-10_000, 10_000)) for _ in range(10_000))
        declared = [float(rng.randint(-9_000, 9_000)) for _ in range(45)]
        declared += [declared[k] for k in rng.sample(range(45), 5)]
        rng.shuffle(declared)
        sc = Scenario(tuple(declared), followers, Space.discrete(1.0))
        counts = delegate(sc, declared)
        assert counts == _histogram(_scan(sc, declared), 50)
        found = weighted_median(declared, [c + 1.0 for c in counts])
        assert wm_winner(sc, declared) == found

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_declared_position_delegates_like_the_scan(self, bad):
        # every route refuses the state, with the same error as the scan
        followers = tuple(float(k % 9 - 4) for k in range(model.SCAN_MAX_FOLLOWERS + 8))
        sc = Scenario((0.0, 1.0, 2.0), followers)
        cases = (([bad, 1.0, -2.0], "state[0]"), ([-2.0, bad, 3.0], "state[1]"),
                 ([0.5, 1.0, bad], "state[2]"))
        for declared, path in cases:
            for scan_max in (len(followers), 0):  # the scan, then the Lemma 1 route
                with mock.patch.object(model, "SCAN_MAX_FOLLOWERS", scan_max):
                    for evaluate in (delegate, wm_winner, unweighted_median):
                        with pytest.raises(ScenarioValidationError) as exc:
                            evaluate(sc, declared)
                        assert exc.value.path == path

    @pytest.mark.parametrize("kind", sorted(STATE_KINDS))
    @pytest.mark.parametrize("scan_max", [model.SCAN_MAX_FOLLOWERS, 0])
    @given(data=st.data())
    @settings(max_examples=200)
    def test_winner_routes_are_exact(self, kind, scan_max, data):
        # Lemma 1 holds exactly: the median route names the weighted-median
        # winner of exact delegation weights, on both winner routes
        sc, declared = _draw_scenario(data, STATE_KINDS[kind], 5, 12)
        want = _reference_winner(sc, declared)
        assert nearest_proxy_to_median(sc, declared) == want
        with mock.patch.object(model, "SCAN_MAX_FOLLOWERS", scan_max):
            assert wm_winner(sc, declared)[0] == want

    def test_large_electorate_takes_lemma1_route(self):
        followers = tuple((k * 37 % 101 - 50) / 2 for k in range(model.SCAN_MAX_FOLLOWERS + 40))
        sc = Scenario((-3.0, 0.5, 0.5, 7.0), followers)
        declared = [-3.0, 0.5, 0.5, 7.0]
        with mock.patch.object(model, "delegate", side_effect=AssertionError("delegated")):
            winner = wm_winner(sc, declared)
        assert {"median_band", "_states"} <= set(vars(sc))
        assert winner == (1, 0.5) and _reference_winner(sc, declared) == 1
        assert repr(unweighted_median(sc, declared)) == repr(_pool_median(sc, declared))

    def test_cache_leaves_equality_hash_and_repr(self):
        followers = (2.0, -1.0, 0.0, -0.0, 2.0)
        sc = Scenario((1.0, -2.0), followers)
        before = (hash(sc), repr(sc))
        assert wm_winner(sc, [0.0, 1.0]) == (0, 0.0)
        assert unweighted_median(sc, [0.0, 1.0]) == 0.0
        assert "_states" not in vars(sc)  # the scan keeps no record
        first, second = delegate(sc, [1.0, -2.0]), delegate(sc, [1.0, -2.0])
        assert first == second == [4, 1] and first is not second
        assert set(vars(sc)) == {
            "proxy_peaks", "follower_positions", "space", "median_band"
        }  # delegate keeps no memo; the median read the band
        assert repr(sc.median_band) == "(0, [-1.0, 0.0, -0.0, 2.0, 2.0])"  # stable
        with mock.patch.object(model, "SCAN_MAX_FOLLOWERS", 0):
            # 0.0, -0.0 and 0 share a record; the answers keep each call's
            # own zero. [2.0, 2.0] evicts the least recently used state
            states = ([1.0, -2.0], [0.0, 1.0], [-0.0, 1.0], [0, 1], [2.0, 2.0], [-0.0, 1.0])
            for declared in states:
                for evaluate in (wm_winner, unweighted_median):
                    fresh = Scenario((1.0, -2.0), followers)
                    assert repr(evaluate(sc, declared)) == repr(evaluate(fresh, declared))
                assert len(sc._states) <= 2
        assert [snapshot for snapshot, _ in sc._states] == [[2.0, 2.0], [0.0, 1.0]]
        assert sc == Scenario((1.0, -2.0), followers)
        assert (hash(sc), repr(sc)) == before
        assert [f.name for f in dataclasses.fields(sc)] == [
            "proxy_peaks", "follower_positions", "space"
        ]

    def test_record_keeps_its_own_copy_of_the_state(self):
        # a caller that changes its list in place between two calls gets the
        # new state's answer, not the record of the old one
        followers = tuple(float(k % 13 - 6) for k in range(39))
        sc = Scenario((-5.0, 4.0), followers)
        declared = [-5.0, 4.0]
        assert wm_winner(sc, declared) == (1, 4.0)
        declared[0] = 0.5
        for evaluate in (wm_winner, unweighted_median):
            fresh = Scenario((-5.0, 4.0), followers)
            assert repr(evaluate(sc, declared)) == repr(evaluate(fresh, declared))
        assert wm_winner(sc, declared) == (0, 0.5)
        assert [snapshot for snapshot, _ in sc._states] == [[-5.0, 4.0], [0.5, 4.0]]

    @pytest.mark.parametrize("spellings", [((-5.0, 4.0), [-5, 4.0]), ([-5.0, 4], (-5, 4.0))])
    def test_tuple_and_list_spellings_share_a_record(self, spellings):
        followers = tuple(float(k % 13 - 6) for k in range(39))
        sc = Scenario((-5.0, 4.0), followers)
        first, second = spellings
        assert wm_winner(sc, first) == (1, 4.0)
        with mock.patch.object(model, "_check_state", side_effect=AssertionError("a new record")), \
                mock.patch.object(model, "weighted_median", side_effect=AssertionError("ranked")):
            assert wm_winner(sc, second) == (1, 4.0)
            assert unweighted_median(sc, second) == unweighted_median(sc, first)
        assert len(sc._states) == 1

    @pytest.mark.parametrize("j", [0, 1])
    def test_nan_next_to_a_recorded_state_is_refused(self, j):
        # NaN == NaN is false, so a NaN never matches a record: it reaches
        # the state check, also when it replaces a position of a recorded list
        followers = tuple(float(k % 13 - 6) for k in range(39))
        sc = Scenario((-5.0, 4.0), followers)
        declared = [-5.0, 4.0]
        wm_winner(sc, declared)
        declared[j] = math.nan
        for evaluate in (wm_winner, unweighted_median):
            with pytest.raises(ScenarioValidationError) as exc:
                evaluate(sc, declared)
            assert exc.value.path == f"state[{j}]"
        assert len(sc._states) == 1

    @pytest.mark.parametrize("kind", sorted(STATE_KINDS))
    @given(data=st.data())
    @settings(max_examples=100)
    def test_record_answers_like_a_fresh_scenario(self, kind, data):
        # repeated states on one Scenario, with zero signs flipped,
        # integral positions given as int and lists given as tuples
        # between calls
        pos = STATE_KINDS[kind]
        m = data.draw(st.integers(1, 5))
        n = model.SCAN_MAX_FOLLOWERS + data.draw(st.integers(1, 4))
        peaks = tuple(data.draw(pos) for _ in range(m))
        followers = tuple(data.draw(pos) for _ in range(n))
        sc = Scenario(peaks, followers)
        states = [[data.draw(pos) for _ in range(m)] for _ in range(3)]

        def spellings(x):
            if x == 0:
                return [0.0, -0.0, 0]
            return [x, int(x)] if x.is_integer() else [x]

        for _ in range(data.draw(st.integers(1, 12))):
            state = data.draw(st.sampled_from(states))
            declared = [data.draw(st.sampled_from(spellings(x))) for x in state]
            if data.draw(st.booleans()):
                declared = tuple(declared)
            evaluate = data.draw(st.sampled_from([wm_winner, unweighted_median]))
            got = evaluate(sc, declared)
            want = evaluate(Scenario(peaks, followers), declared)
            assert repr(got) == repr(want)
            assert type(got) is type(want)
            if evaluate is wm_winner:
                assert type(got[1]) is type(want[1])
                assert got[0] == _reference_winner(sc, declared)
            assert len(sc._states) <= 2

    def test_each_state_ranked_once(self):
        # the dyn_many_proxies shape at a smaller n: m=50 on an integer grid,
        # monotone truth-oriented round-robin play to a PNE
        rng = random.Random(3)
        n, m = 2_000, 50
        followers = tuple(float(rng.randint(-n, n)) for _ in range(n))
        mid = sorted(followers)[(n - 1) // 2]
        peaks = [mid + rng.choice((-1, 1)) * rng.randint(20, 1_800) for _ in range(m)]
        assert min(peaks) < mid < max(peaks)
        spec = PolicySpec(PolicyKind.MONOTONE_BETTER_RESPONSE, fraction=0.5, truth_oriented=True)

        def play():
            sc = Scenario(tuple(peaks), followers, Space.discrete(1.0))
            trace = run_dynamics(sc, Scheduler.round_robin(), [spec] * m, max_steps=10_000)
            assert trace.stop_reason == StopReason.PNE and trace.records
            return sc, trace

        ranked = []  # the state of each weighted_median call
        median = model.weighted_median

        def counted_median(values, weights):
            ranked.append(tuple(values[:m]))
            return median(values, weights)

        with mock.patch.object(model, "delegate", side_effect=AssertionError("delegated")), \
                mock.patch.object(model, "weighted_median", counted_median):
            sc, trace = play()
        assert ranked and len(ranked) == len(set(ranked))
        assert len(sc._states) <= 2
        with mock.patch.object(model, "SCAN_MAX_FOLLOWERS", n):  # the scan, no record
            scan_sc, scan_trace = play()
        assert "_states" not in vars(scan_sc)
        assert repr(scan_trace.records) == repr(trace.records)


def _band_is_the_sorted_slice(sc):
    """Check :attr:`Scenario.median_band` against the full stable sort: the
    same objects, and every rank the median and the windows read."""
    r, band = sc.median_band
    n, m = sc.num_followers, sc.num_proxies
    k = (n + m - 1) // 2
    assert r <= max(0, k - m - 1) and min(n, k + 2) <= r + len(band)
    want = sorted(sc.follower_positions)[r : r + len(band)]
    assert len(band) == len(want) and all(x is y for x, y in zip(band, want))
    return r, band


def _band_followers(family, rng, n):
    # float(int) makes a new object per follower, so the identity check of
    # _band_is_the_sorted_slice sees the order of equal positions
    if family == "equal":  # no level can shrink the set
        return [float(7) for _ in range(n)]
    if family == "two_values":
        return [float(rng.choice((-1, 2))) for _ in range(n)]
    if family == "periodic":  # every first-level sample is 0.0: its pivots miss
        stride = round(n ** (1 / 3))
        return [float(i % stride) for i in range(n)]
    if family == "duplicates":
        return [float(rng.randint(-40, 40)) for _ in range(n)]
    if family == "signed_zeros":  # a run of 0.0 and -0.0 that holds the median
        zeros = n // 3
        left = (n - zeros) // 2
        fs = [-float(rng.randint(1, 9)) for _ in range(left)]
        fs += [rng.choice((0.0, -0.0)) for _ in range(zeros)]
        fs += [float(rng.randint(1, 9)) for _ in range(n - zeros - left)]
        rng.shuffle(fs)
        return fs
    fs = sorted(rng.uniform(-9.0, 9.0) for _ in range(n))
    return fs if family == "sorted" else fs[::-1]


BAND_FAMILIES = [
    "equal", "two_values", "periodic", "duplicates", "signed_zeros", "sorted", "reverse_sorted"
]


class TestMedianBand:
    """The band of followers around the median, selected level by level
    from samples, is the full sort's slice at sizes where selection runs
    (stride >= 11, n >= 1 158)."""

    @pytest.mark.parametrize("family", ["duplicates", "signed_zeros", "sorted", "reverse_sorted"])
    @pytest.mark.parametrize("seed", range(6))
    def test_band_is_the_sorted_slice(self, family, seed):
        rng = random.Random(f"{family}/{seed}")
        n, m = rng.randint(1_200, 3_000), rng.randint(1, 60)
        followers = _band_followers(family, rng, n)
        declared = [rng.choice(followers + [0.0, -0.0]) for _ in range(m)]
        sc = Scenario(tuple(declared), tuple(followers))
        r, band = _band_is_the_sorted_slice(sc)
        assert r > 0 or len(band) < n  # selected, not the full sort
        # with no declared zero, a zero median is the first follower zero
        for state in (declared, [-x for x in declared], [x or 1.0 for x in declared]):
            assert repr(unweighted_median(sc, state)) == repr(_pool_median(sc, state))
            for j in range(m):
                assert repr(_median_window(sc, state, j)) == repr(_pool_window(sc, state, j))

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_every_level_keeps_the_sorted_slice(self, data):
        # sizes: the last with no level and the first with one, then the
        # last with one level and the first with two on sorted input
        # (m = 50, then m <= 5), and any size up to where a third level runs
        family = data.draw(st.sampled_from(BAND_FAMILIES))
        n = data.draw(st.sampled_from([1_157, 1_158, 4_492, 4_493, 4_896, 4_897])
                      | st.integers(1_000, 12_000))
        m = data.draw(st.integers(1, 60))
        followers = _band_followers(family, random.Random(data.draw(st.integers(0, 2**32))), n)
        r, band = _band_is_the_sorted_slice(Scenario((0.0,) * m, tuple(followers)))
        if family in ("equal", "periodic") or n < 1_158:
            assert (r, len(band)) == (0, n)  # no level kept fewer: the full sort

    @pytest.mark.parametrize("m, n", [(1, 4_896), (5, 4_896), (50, 4_492)])
    def test_second_level_starts(self, m, n):
        # on sorted input the first level keeps 1 140 (m <= 5) or 1 121
        # (m = 50) followers at n, too few for a stride of 11; one follower
        # more and it keeps over 1 158, which a second level narrows
        for size, kept in ((n, range(1_100, 1_158)), (n + 1, range(400, 600))):
            sc = Scenario((0.0,) * m, tuple(float(x) for x in range(size)))
            assert len(_band_is_the_sorted_slice(sc)[1]) in kept

    def test_state_of_another_length_is_refused(self):
        # the band holds the ranks of the scenario's m; a longer or shorter
        # state would read the wrong ranks, so it is refused like elsewhere
        sc = Scenario((0.0, 1.0, 2.0), tuple(float(k % 97) for k in range(2_000)))
        for declared in ([0.0, 1.0], [0.0] * 40):
            for evaluate in (unweighted_median, wm_winner):
                with pytest.raises(ScenarioValidationError, match="declared positions"):
                    evaluate(sc, declared)
            with pytest.raises(ScenarioValidationError, match="declared positions"):
                _median_window(sc, declared, 0)

    @pytest.mark.parametrize("n", [1_200, 2_000, 3_000])
    def test_pivots_that_miss_give_the_full_sort(self, n):
        # every sampled follower is 0.0, so both pivots are 0.0 and the band
        # misses the median's ranks: the fallback is the full sort
        stride = round(n ** (1 / 3))
        followers = tuple(float(i % stride) for i in range(n))
        declared = [0.5, -0.0, float(stride)]
        sc = Scenario(tuple(declared), followers)
        r, band = _band_is_the_sorted_slice(sc)
        assert (r, len(band)) == (0, n)
        assert repr(unweighted_median(sc, declared)) == repr(_pool_median(sc, declared))
        for j in range(len(declared)):
            assert repr(_median_window(sc, declared, j)) == repr(_pool_window(sc, declared, j))


class TestWmWinner:
    def test_example1_truthful(self, example1):
        assert wm_winner(example1, [-1.0, 1.5]) == (0, -1.0)

    def test_example2_manipulated(self, example1):
        assert wm_winner(example1, [-1.0, 0.5]) == (1, 0.5)

    def test_appendix_b_truthful(self, appendix_b):
        assert wm_winner(appendix_b, [-30.0, 90.0]) == (0, -30.0)

    def test_winner_position_is_declared(self, example1):
        wid, wpos = wm_winner(example1, [-1.0, 0.75])
        assert wpos == [-1.0, 0.75][wid]


class TestNearer:
    @pytest.mark.parametrize(
        "x, a, b, expected",
        [
            (0.0, 1.0, 2.0, True),
            (0.0, 2.0, 1.0, False),
            (0.0, -1.0, 1.0, False),  # equal distances
            (0.0, 1.0, 1.0, False),
            # both distances round to 1e17; a is nearer by 0.6
            (0.3, 1e17, -1e17, True),
            (0.3, -1e17, 1e17, False),
            # both distances overflow to inf; a + b - 2x overflows on the way
            (-1.7e308, 1e308, 1.7e308, True),
            (-1.7e308, 1.7e308, 1e308, False),
        ],
    )
    def test_cases(self, x, a, b, expected):
        assert model.nearer(x, a, b) is expected

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=3, max_size=3))
    def test_agrees_with_exact_distances(self, xab):
        from fractions import Fraction

        x, a, b = xab
        exact = abs(Fraction(a) - Fraction(x)) < abs(Fraction(b) - Fraction(x))
        assert model.nearer(x, a, b) == exact


class TestNearestProxyRoute:
    def test_example1(self, example1):
        assert nearest_proxy_to_median(example1, [-1.0, 1.5]) == 0

    def test_equidistant_resolves_like_winner(self):
        # proxies listed high-first: the midpoint follower's delegation tie
        # hands the win to the lower index even at the higher position
        sc = Scenario((1.0, -1.0), (0.0,))
        assert wm_winner(sc, [1.0, -1.0]) == (0, 1.0)
        assert nearest_proxy_to_median(sc, [1.0, -1.0]) == 0

    @given(st.data())
    @settings(max_examples=300)
    def test_agreement_with_weighted_route(self, data):
        m = data.draw(st.integers(1, 5))
        n = data.draw(st.integers(0, 8))
        grid = st.integers(-5, 5).map(float)
        peaks = tuple(data.draw(grid) for _ in range(m))
        followers = tuple(data.draw(grid) for _ in range(n))
        declared = [data.draw(grid) for _ in range(m)]
        sc = Scenario(peaks, followers)
        winner = wm_winner(sc, declared)
        assert nearest_proxy_to_median(sc, declared) == winner[0]
        with mock.patch.object(model, "SCAN_MAX_FOLLOWERS", 0):  # the Lemma 1 route at any n
            assert wm_winner(sc, declared) == winner


# zeros, the least subnormal, a half, the float just below 1, where floats
# stop holding fractions, the largest magnitudes, NaN and the infinities
HOSTILE_FLOATS = (
    0.0, -0.0, 5e-324, 0.5, 1 - 2**-53, 2.0**53, 2.0**53 + 2, 1e308, -1e308,
    math.nan, math.inf, -math.inf,
)
# within 1e-9 of an integer, and so on no grid
NEAR_INTEGERS = (3 + 5e-10, 2 + 1e-10, -(1 - 1e-12))


class TestInvariants:
    @given(st.data())
    @settings(max_examples=200)
    def test_weight_conservation(self, data):
        m = data.draw(st.integers(1, 5))
        n = data.draw(st.integers(0, 8))
        grid = st.integers(-9, 9).map(float)
        sc = Scenario(
            tuple(data.draw(grid) for _ in range(m)),
            tuple(data.draw(grid) for _ in range(n)),
        )
        declared = [data.draw(grid) for _ in range(m)]
        weights = [c + 1.0 for c in _histogram(_scan(sc, declared), m)]
        assert sum(delegation_weights(sc, declared)) == m + n
        assert delegation_weights(sc, declared) == weights

    def test_determinism(self, appendix_b):
        runs = {wm_winner(appendix_b, [-30.0, 90.0]) for _ in range(20)}
        assert len(runs) == 1

    def test_scenario_requires_proxies(self):
        with pytest.raises(ScenarioValidationError):
            Scenario(())

    def test_discrete_grid_validation(self):
        Scenario((1e308, -(2.0**53) - 2), (0.0,), Space.discrete(1.0))  # past 2**53, all are
        # the library plays on the integers: another step is a scale, which
        # the file layer owns
        for step in (0.5, 0.1, 0.0, -1.0, math.nan, math.inf, True):
            with pytest.raises(ScenarioValidationError, match="space.step") as exc:
                Space(step)
            assert exc.value.path == "scenario.space.step"

    @pytest.mark.parametrize("space", [Space.continuous(), Space.discrete(1.0)])
    @pytest.mark.parametrize(
        "proxies, followers, path",
        [
            ((math.nan, 1.0), (0.0,), "scenario.proxies[0]"),
            ((0.0, 1.0), (0.0, math.inf), "scenario.followers[1]"),
            ((0.0, -math.inf), (), "scenario.proxies[1]"),
        ],
    )
    def test_nonfinite_positions_rejected(self, space, proxies, followers, path):
        with pytest.raises(ScenarioValidationError) as exc:
            Scenario(proxies, followers, space)
        assert exc.value.path == path

    @pytest.mark.parametrize(
        "proxies, followers, path",
        [
            ((0.0,), (10**400,), "scenario.followers[0]"),  # overflows a float
            ((None,), (), "scenario.proxies[0]"),
            ((0.0, "a"), (None,), "scenario.proxies[1]"),
            ((0.0, 1), (2.0, 3, "a", None), "scenario.followers[2]"),
        ],
    )
    def test_position_that_is_no_float_refused_at_its_path(self, proxies, followers, path):
        with pytest.raises(ScenarioValidationError) as exc:
            Scenario(proxies, followers)
        assert exc.value.path == path

    @given(
        st.sampled_from([1.0]),
        st.lists(st.sampled_from(HOSTILE_FLOATS + NEAR_INTEGERS), min_size=1, max_size=4),
        st.lists(st.sampled_from(HOSTILE_FLOATS + NEAR_INTEGERS), max_size=4),
    )
    @example(step=1.0, proxies=[3 + 5e-10, 1.0], followers=[2.0])
    @example(step=1.0, proxies=[2 + 1e-10], followers=[])
    @settings(max_examples=300)
    def test_grid_check_is_finite_and_on_grid(self, step, proxies, followers):
        # the C-level passes accept what the per-position rule accepts, with no
        # tolerance, and refuse at its first offender; so do a file and a script
        # at their own paths, where a script's non-finite numbers go first
        space = Space.discrete(step)
        named = [(f"scenario.proxies[{i}]", p) for i, p in enumerate(proxies)]
        named += [(f"scenario.followers[{i}]", p) for i, p in enumerate(followers)]

        def first(named, nonfinite_first=False):
            off = [path for path, p in named if not (math.isfinite(p) and space.on_grid(p))]
            nonfinite = [path for path, p in named if not math.isfinite(p)] * nonfinite_first
            return (nonfinite or off or [None])[0]

        def script():
            spec = PolicySpec(PolicyKind.SCRIPTED, positions=tuple(proxies))
            spec.validate(Scenario((0.0,), (), space), "full_info")

        doc = {"schema_version": 1, "policies": [{"kind": "scripted"}] * len(proxies),
               "scenario": {"proxies": proxies, "followers": followers,
                            "space": {"kind": "discrete", "step": step}}}
        path = first(named)
        assert _refused_at(lambda: Scenario(tuple(proxies), tuple(followers), space)) == path
        assert _refused_at(lambda: parse_scenario_file(doc)) == (path and "$." + path)
        positions = [(f"positions[{i}]", p) for i, p in enumerate(proxies)]
        assert _refused_at(script) == first(positions, nonfinite_first=True)

    def test_state_length_checked(self, example1):
        with pytest.raises(ScenarioValidationError):
            wm_winner(example1, [0.0])


def _refused_at(build):
    """The path or field at which ``build()`` is refused, or None."""
    try:
        build()
    except ScenarioValidationError as exc:
        return exc.path
    except ConfigurationError as exc:
        return exc.field
    return None


def _contained_k(iv, bounds):
    """The integers (exact Python ints) in ``iv`` near each finite value in ``bounds``."""
    return {
        k for b in bounds if math.isfinite(b) for k in range(round(b) - 8, round(b) + 9)
        if iv.contains(k)
    }


# a bound or target: an integer k, on it or off it by a third, by 5e-10 or
# by one ulp; |k| stays below 2**52, where each is a float of its own
_NEAR_INTEGER = st.builds(
    lambda base, sign, i, offset: offset(float(sign * base + i)),
    st.sampled_from([0, 7, 10**6, 10**12, 2**52 - 40]),
    st.sampled_from([1, -1]),
    st.integers(-12, 12),
    st.sampled_from([
        lambda x: x, lambda x: x + 1 / 3, lambda x: x - 1 / 3, lambda x: x + 5e-10,
        lambda x: x - 5e-10, lambda x: math.nextafter(x, math.inf),
        lambda x: math.nextafter(x, -math.inf),
    ]),
)


class TestGridPoint:
    """``Space.grid_point``: the integer in a set nearest a target."""

    @pytest.mark.parametrize(
        "iv, target, want",
        [
            # open ends exclude their own grid points, closed ends keep them
            (Interval.open(0.0, 3.0), -1.0, 1.0),
            (Interval.open(0.0, 3.0), 4.0, 2.0),
            (Interval(0.0, 3.0, False, False), -1.0, 0.0),
            (Interval(0.0, 3.0, False, False), 4.0, 3.0),
            (Interval.open(0.0, 1.0), 0.0, None),
            (Interval(0.0, 1.0, True, False), 0.0, 1.0),
            (Interval(0.0, 1.0, False, True), 0.0, 0.0),
            (Interval.open(5.0, 6.0), 0.0, None),
            # the nearest grid point is clamped into the interval
            (Interval.open(0.0, 3.0), 7.4, 2.0),
            (Interval(0.0, 3.0, False, False), -5.0, 0.0),
            (Interval(-math.inf, 0.0), 0.0, -1.0),
            (Interval(-math.inf, 2.0), 9.0, 1.0),
            (Interval(2.0, math.inf), -9.0, 3.0),
            (Interval.open(5.0, 6.0), 5.5, None),
            # the open end 0.001 above 1e10 excludes 1e10 only
            (Interval(1e10 + 0.001, 1e10 + 1.5, True, True), 1e10, 1e10 + 1),
            # no tolerance: a point 5e-10 above 3 holds no integer
            (Interval.point(3 + 5e-10), 3.0, None),
            (Interval.point(3 + 1e-6), 3.0, None),
            (Interval(3 - 5e-10, 3 + 5e-10, True, True), 0.0, 3.0),
            # past 2**53 every float is an integer, and the next one is 2 away
            (Interval(2.0**53, math.inf, True, True), 0.0, 2.0**53 + 2),
            (Interval(-math.inf, -(2.0**53), True, True), 0.0, -(2.0**53) - 2),
            (Interval(2.0**53, 2.0**53 + 2, True, True), 0.0, None),
        ],
    )
    def test_nearest_integer_in_the_interval(self, iv, target, want):
        assert Space.discrete(1.0).grid_point(iv, target) == want

    @given(
        _NEAR_INTEGER, _NEAR_INTEGER, _NEAR_INTEGER,
        st.sampled_from(["finite", "no lo", "no hi"]), st.booleans(), st.booleans(),
    )
    @settings(max_examples=500)
    def test_agrees_with_enumeration(self, a, b, target, ends, lo_open, hi_open):
        lo, hi = sorted((a, b))
        lo = -math.inf if ends == "no lo" else lo
        hi = math.inf if ends == "no hi" else hi
        if lo == hi:
            lo_open = hi_open = False
        iv = Interval(lo, hi, lo_open, hi_open)
        got = Space.discrete(1.0).grid_point(iv, target)
        # the contained k form one run: its ends lie near lo and hi
        ks = _contained_k(iv, (lo, hi, target))
        if not ks:
            assert got is None
            return
        k_lo = min(ks) if math.isfinite(lo) else -math.inf
        k_hi = max(ks) if math.isfinite(hi) else math.inf
        assert got is not None and iv.contains(got)
        # repr, so that the sign of a zero counts too: k = 0 gives 0.0
        assert repr(got) == repr(float(min(max(round(target), k_lo), k_hi)))

    @given(*[st.sampled_from(HOSTILE_FLOATS)] * 2, st.booleans(), st.booleans(),
           st.sampled_from(HOSTILE_FLOATS))
    @settings(max_examples=500)
    def test_hostile_magnitudes_stay_inside(self, lo, hi, lo_open, hi_open, target):
        # the query raises nothing and answers an integer in the interval (a
        # NaN or infinite target included), or None only where it holds none
        try:
            iv = Interval(lo, hi, lo_open, hi_open)
        except ValueError:
            return
        got = Space.discrete(1.0).grid_point(iv, target)
        if got is None:
            assert not any(iv.contains(float(k)) for k in _contained_k(iv, (lo, hi)))
        else:
            assert got.is_integer() and iv.contains(got)
