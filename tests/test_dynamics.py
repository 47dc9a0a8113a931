"""Engine behavior: steps, schedulers, traces, meta-moves, bounds, labels."""

import math
import random
import re
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxyline import (
    BeliefState,
    ConfigurationError,
    Interval,
    ObservedState,
    PolicyKind,
    PolicySpec,
    Scenario,
    ScenarioValidationError,
    Scheduler,
    Space,
    StopReason,
    check_bound_invariant,
    detect_meta_moves,
    init_belief,
    is_better_response,
    observe,
    run_dynamics,
    step,
    true_median,
    unweighted_median,
    wm_winner,
)
from proxyline import dynamics, manipulation, partial_info
from proxyline.claims import check_delta_lemmas, replay_consistent, trace_is_monotone
from proxyline.fixtures import appendix_b_opening, fixtures_dir, load_fixture
from proxyline.model import nearer
from proxyline.scenario_io import run_scenario_file

from test_manipulation import POSITION_KINDS

MONO = PolicySpec(PolicyKind.MONOTONE_BETTER_RESPONSE, fraction=0.5, truth_oriented=True)
PARTIAL_INFO_FIXTURES = sorted(
    p.stem for p in fixtures_dir().glob("*.json") if load_fixture(p.stem).mode == "partial_info"
)


class TestStep:
    def test_example2_monotone_mover_wins(self):
        sc = load_fixture("example1").scenario
        rec = step(sc, sc.truthful_state(), 1, MONO)
        assert rec is not None
        assert 0.0 < rec.to_pos < 1.5
        assert rec.winner_after == 1
        assert rec.wm_after == rec.to_pos

    def test_empty_better_response_set_passes(self):
        sc = load_fixture("fig3_one_side").scenario
        for j in range(sc.num_proxies):
            assert step(sc, sc.truthful_state(), j, MONO) is None

    def test_appendix_a_first_best_response_is_10(self):
        sc = load_fixture("appendix_a").scenario
        rec = step(sc, sc.truthful_state(), 4, PolicySpec(PolicyKind.DISCRETE_BEST_RESPONSE))
        assert rec is not None
        assert rec.to_pos == 10.0
        assert rec.winner_after == 4

    def test_truth_override_beats_script(self):
        sc = Scenario((0.25, -3.0), (0.0,))
        spec = PolicySpec(PolicyKind.SCRIPTED, positions=(0.4,), truth_oriented=True)
        rec = step(sc, [2.0, -0.5], 0, spec)
        assert rec is not None and rec.to_pos == 0.25  # the peak, not the script

    def test_truth_override_is_the_weakly_best_peak_randomized(self):
        # the peak is played iff it is an improving report, its outcome does
        # not hang on the mover's index, and no report's outcome is strictly
        # nearer the peak than the peak's own outcome
        rng = random.Random(23)
        played = checked = 0
        for _ in range(400):
            m = rng.randint(1, 4)
            n = rng.randint(0, 6)
            sc = Scenario(
                tuple(float(rng.randint(-6, 6)) for _ in range(m)),
                tuple(float(rng.randint(-6, 6)) for _ in range(n)),
            )
            state = [float(rng.randint(-6, 6)) for _ in range(m)]
            for j, peak in enumerate(sc.proxy_peaks):

                def outcome(x, last=False):
                    # with ``last`` the mover takes the last index and loses every tie
                    trial = list(state)
                    trial[j] = x
                    order = [k for k in range(m) if k != j] + [j] if last else range(m)
                    moved = Scenario(tuple(sc.proxy_peaks[k] for k in order), sc.follower_positions)
                    return wm_winner(moved, [trial[k] for k in order])[1]

                at_peak = abs(outcome(peak) - peak)
                weakly_best = (
                    state[j] != peak
                    and is_better_response(sc, state, j, peak)
                    and outcome(peak, last=True) == outcome(peak)
                    and all(abs(outcome(k * 0.25) - peak) >= at_peak for k in range(-48, 49))
                )
                assert dynamics._truth_override(sc, state, j) == (peak if weakly_best else None)
                played += weakly_best
                checked += 1
        assert 0 < played < checked

    def test_rejected_nonimproving_script_passes(self):
        sc = load_fixture("example1").scenario
        spec = PolicySpec(PolicyKind.SCRIPTED, positions=(-4.0,))
        assert step(sc, sc.truthful_state(), 1, spec) is None

    @pytest.mark.parametrize(
        "space, spec, partial_info, message",
        [
            (Space.continuous(), PolicySpec(PolicyKind.DISCRETE_BEST_RESPONSE), False,
             "requires discrete space"),
            (Space.discrete(1.0), PolicySpec(PolicyKind.OSCILLATING_ALPHA), False,
             "requires continuous space"),
            (Space.discrete(1.0), PolicySpec(PolicyKind.SCRIPTED, positions=(0.5,)), False,
             "off grid"),
            (Space.continuous(), PolicySpec(PolicyKind.MINIMAX_REGRET), False,
             "requires partial_info"),
            (Space.continuous(), MONO, True, "truth_oriented is not used"),
        ],
        ids=["discrete_best_continuous", "oscillating_discrete", "scripted_off_grid",
             "minimax_full_info", "truth_oriented_partial_info"],
    )
    def test_spec_played_in_wrong_space_or_mode_rejected(self, space, spec, partial_info, message):
        sc = Scenario((-1.0, 2.0), (0.0,), space)
        belief = init_belief(observe(sc, sc.truthful_state())) if partial_info else None
        with pytest.raises(ConfigurationError, match=message):
            step(sc, sc.truthful_state(), 1, spec, belief=belief)

    @pytest.mark.parametrize("partial_info_mode", [False, True], ids=["full_info", "partial_info"])
    @pytest.mark.parametrize("mover", [-1, 2, True, 1.0])
    def test_mover_outside_the_proxies_refused(self, mover, partial_info_mode):
        # -1 would play the last proxy, m would raise a raw IndexError, True
        # would play proxy 1 and 1.0 would raise a raw TypeError
        sc = load_fixture("example1").scenario
        declared = sc.truthful_state()
        spec = PolicySpec(PolicyKind.MINIMAX_REGRET) if partial_info_mode else MONO
        belief = init_belief(observe(sc, declared)) if partial_info_mode else None
        with pytest.raises(ScenarioValidationError) as err:
            step(sc, declared, mover, spec, belief=belief)
        assert err.value.path == "mover"

    @pytest.mark.parametrize(
        "poll",
        [
            lambda sc, declared: observe(sc, sc.truthful_state()),  # an earlier state
            lambda sc, declared: ObservedState(tuple(declared[:1]), 0),  # too short
            lambda sc, declared: ObservedState(tuple(declared), len(declared)),  # no such winner
            lambda sc, declared: ObservedState(tuple(declared), True),  # would name proxy 1
        ],
        ids=["earlier_state", "shorter_state", "winner_out_of_range", "winner_is_a_bool"],
    )
    def test_belief_polled_at_another_state_refused(self, poll):
        # the record's winner_before comes from the poll, so it must be of this state
        sc = load_fixture("example1").scenario
        declared = [-1.0, 0.5]
        belief = init_belief(observe(sc, declared))._replace(observed=poll(sc, declared))
        with pytest.raises(ScenarioValidationError) as err:
            step(sc, declared, 1, PolicySpec(PolicyKind.MINIMAX_REGRET), belief=belief)
        assert err.value.path == "belief"

    def test_oscillating_report_rounded_onto_the_winners_distance_passes(self):
        # 1 - 1e-17 rounds to 1.0: the report -1.0 would win only by the
        # index tie with the winner at 1.0 and leave Δ at 1.0
        sc = Scenario((-3.0, 1.0), (0.0,))
        spec = PolicySpec(PolicyKind.OSCILLATING_ALPHA, alpha1=1e-17)
        assert step(sc, [-3.0, 1.0], 0, spec) is None

    def test_partial_info_step_evaluates_no_winner(self, monkeypatch):
        # after the opening poll, the winner before a move comes from the poll
        # and the winner after it from the new median (Lemma 1)
        calls = []
        for module in (dynamics, partial_info):
            monkeypatch.setattr(module, "wm_winner", lambda *a: calls.append(a) or wm_winner(*a))
        sf = load_fixture("appendix_b")
        trace = run_scenario_file(sf)
        assert len(trace.records) > 1 and len(calls) == 1
        declared, belief, _ = appendix_b_opening(sf)
        calls.clear()
        tail = run_dynamics(
            sf.scenario, Scheduler.round_robin(),
            [PolicySpec(PolicyKind.MINIMAX_REGRET)] * sf.scenario.num_proxies,
            max_steps=sf.max_steps, mode="partial_info",
            initial_declared=declared, initial_belief=belief,
        )
        assert len(tail.records) == 16 and not calls
        assert replay_consistent(trace) and replay_consistent(tail)


def _mono(fraction):
    return PolicySpec(PolicyKind.MONOTONE_BETTER_RESPONSE, fraction=fraction)


class TestRunDynamics:
    def test_one_sided_scenario_immediate_pne(self):
        sc = load_fixture("fig3_one_side").scenario
        trace = run_dynamics(sc, Scheduler.round_robin(), [MONO] * 4, max_steps=10)
        assert trace.stop_reason == StopReason.PNE
        assert not trace.records
        assert trace.final_outcome() == wm_winner(sc, sc.truthful_state())[1]

    def test_appendix_a_scripted_reaches_pne_at_5(self):
        trace = run_scenario_file(load_fixture("appendix_a"))
        assert trace.stop_reason == StopReason.PNE
        assert trace.final_outcome() == 5.0
        assert [r.mover for r in trace.records] == [4, 1, 2, 3, 0, 4]

    def test_example3_oscillates(self):
        sc = load_fixture("example1").scenario
        pols = [PolicySpec(PolicyKind.OSCILLATING_ALPHA, alpha1=0.25, decay=0.5)] * 2
        trace = run_dynamics(sc, Scheduler.round_robin(), pols, max_steps=200)
        assert trace.stop_reason == StopReason.OSCILLATION_DETECTED
        assert trace.limit_delta == pytest.approx(0.5, abs=1e-6)

    def test_partial_run_stops_at_the_first_certified_poll(self):
        # the 32nd poll's median interval is narrower than 1e-9 and holds
        # the winner, so every median the polls allow, the true median 1
        # among them, lies within the tolerance of the outcome
        sc = Scenario((-4.0, 3.0), (1.0,))
        pols = [PolicySpec(PolicyKind.MINIMAX_REGRET)] * 2
        trace = run_dynamics(sc, Scheduler.round_robin(), pols, max_steps=60, mode="partial_info")
        assert trace.stop_reason == StopReason.CONVERGED and len(trace.records) == 32
        last = trace.interval_history[-1]
        assert last == Interval(0.9999999994179234, 1.0000000002328306, True, False)
        assert trace.final_outcome() == 1.0000000002328306
        assert trace.converged and replay_consistent(trace)
        cut = run_dynamics(sc, Scheduler.round_robin(), pols, max_steps=31, mode="partial_info")
        assert cut.stop_reason == StopReason.MAX_STEPS

    def test_narrow_interval_away_from_the_winner_certifies_nothing(self):
        # the belief pins the median to 1, but the winner sits at 0: each
        # poll's interval is the point 1, and the run plays on to its PNE
        sc = Scenario((0.0, 3.0), (1.0,))
        belief = BeliefState(observe(sc, [0.0, 3.0]), Interval.point(1.0))
        pols = [
            PolicySpec(PolicyKind.SCRIPTED), PolicySpec(PolicyKind.SCRIPTED, positions=(4.0, 5.0)),
        ]
        trace = run_dynamics(
            sc, Scheduler.round_robin(), pols, max_steps=10, mode="partial_info",
            initial_belief=belief,
        )
        assert trace.interval_history == [Interval.point(1.0)] * 3
        assert trace.stop_reason == StopReason.PNE and len(trace.records) == 2
        assert trace.final_outcome() == 0.0

    def test_settled_tail_on_the_median_is_an_oscillation_that_converged(self):
        # the outcome sits on the follower at the median: the interval keeps
        # a width of about 6e-5 and only the repeat window ends the run
        sc = Scenario((-3.0, 5.0), (0.0, 1.0, 2.0))
        pols = [PolicySpec(PolicyKind.MINIMAX_REGRET)] * 2
        trace = run_dynamics(sc, Scheduler.round_robin(), pols, max_steps=60, mode="partial_info")
        assert trace.stop_reason == StopReason.OSCILLATION_DETECTED
        assert trace.final_outcome() == 1.0 and trace.converged

    @pytest.mark.parametrize(
        "name, converged",
        [("appendix_a", True), ("appendix_b", True), ("example1", True), ("example3", False),
         ("example2", False)],
    )
    def test_converged_means_one_outcome(self, name, converged):
        # a PNE, and a repeat window whose last two outcomes agree, converged;
        # example3's ±1/2 2-cycle and a run cut at its step budget did not
        assert run_scenario_file(load_fixture(name)).converged is converged

    def test_run_cut_at_its_budget_has_not_converged(self):
        # 40 moves into example1 the outcome moves by about 3e-12 a move,
        # but only the repeat window, 5 moves later, says it settled
        sc = load_fixture("example1").scenario
        trace = run_dynamics(sc, Scheduler.round_robin(), [MONO] * 2, max_steps=40)
        assert trace.stop_reason == StopReason.MAX_STEPS and not trace.converged

    def test_max_steps_respected(self):
        sc = load_fixture("example1").scenario
        pols = [PolicySpec(PolicyKind.OSCILLATING_ALPHA, alpha1=0.25, decay=0.5)] * 2
        trace = run_dynamics(sc, Scheduler.round_robin(), pols, max_steps=3)
        assert trace.stop_reason == StopReason.MAX_STEPS
        assert len(trace.records) == 3

    def test_replay_consistency(self):
        trace = run_scenario_file(load_fixture("appendix_a"))
        assert replay_consistent(trace)

    def test_tampered_trace_fails_replay(self):
        trace = run_scenario_file(load_fixture("appendix_a"))
        rec = trace.records[2]
        trace.records[2] = replace(rec, wm_after=rec.wm_after + 1.0)
        assert not replay_consistent(trace)

    @pytest.mark.parametrize("name", PARTIAL_INFO_FIXTURES)
    def test_partial_info_fixture_replays_its_intervals(self, name):
        trace = run_scenario_file(load_fixture(name))
        assert len(trace.interval_history) == len(trace.records) + 1 > 1
        assert replay_consistent(trace)

    @pytest.mark.parametrize("name", PARTIAL_INFO_FIXTURES)
    def test_tampered_interval_fails_replay(self, name):
        trace = run_scenario_file(load_fixture(name))
        iv = trace.interval_history[1]
        trace.interval_history[1] = replace(iv, lo_open=not iv.lo_open)
        assert not replay_consistent(trace)

    def test_run_from_a_given_belief_replays(self):
        # the regret-averse tail of appendix_b starts from the belief left
        # by the published opening, not from a poll of its initial state
        sf = load_fixture("appendix_b")
        declared, belief, _ = appendix_b_opening(sf)
        tail = run_dynamics(
            sf.scenario, Scheduler.round_robin(),
            [PolicySpec(PolicyKind.MINIMAX_REGRET)] * sf.scenario.num_proxies,
            max_steps=sf.max_steps, mode="partial_info",
            initial_declared=declared, initial_belief=belief,
        )
        first = tail.interval_history[0]
        assert len(tail.records) == 16 and (first.lo, first.hi) == (-0.5, 27.0)
        assert first != init_belief(observe(sf.scenario, declared)).interval
        assert tail.initial_belief is belief and replay_consistent(tail)
        assert run_scenario_file(sf).initial_belief is None

    def test_initial_poll_naming_its_winner_by_a_bool_refused(self):
        # True would read as proxy 1, the loser of this poll
        sc = load_fixture("example1").scenario
        declared = sc.truthful_state()
        poll = ObservedState(tuple(declared), True)
        belief = init_belief(observe(sc, declared))._replace(observed=poll)
        with pytest.raises(ScenarioValidationError) as err:
            run_dynamics(
                sc, Scheduler.round_robin(), [PolicySpec(PolicyKind.MINIMAX_REGRET)] * 2,
                max_steps=5, mode="partial_info", initial_belief=belief,
            )
        assert err.value.path == "belief"

    def test_monotone_target_rounded_onto_the_winners_distance_passes(self):
        # proxy 0 aims at 1e16 - 1.5, which rounds to 9999999999999998.0,
        # as far from the median 1e16 as the winner at 1e16 + 2: that report
        # would win only by the index tie, so both proxies pass
        sc = Scenario((-1e17, 1e16 + 2), (1e16,) * 3)
        pols = [PolicySpec(PolicyKind.MONOTONE_BETTER_RESPONSE, fraction=0.25)] * 2
        trace = run_dynamics(sc, Scheduler.round_robin(), pols, max_steps=50)
        assert trace.stop_reason == StopReason.PNE and not trace.records

    def test_partial_info_run_polls_once(self, monkeypatch):
        # after the opening poll, each move's poll comes from its record
        calls = []
        monkeypatch.setattr(dynamics, "observe", lambda *a: calls.append(a) or observe(*a))
        trace = run_scenario_file(load_fixture("appendix_b"))
        assert len(trace.records) > 1 and len(calls) == 1
        assert replay_consistent(trace)

    def test_validation_errors(self):
        sc = load_fixture("example1").scenario
        with pytest.raises(ConfigurationError):
            run_dynamics(sc, Scheduler.round_robin(), [MONO] * 2, max_steps=0)
        with pytest.raises(ConfigurationError):
            run_dynamics(sc, Scheduler.scripted([5]), [MONO] * 2, max_steps=5)
        for order in ((1.0,), (True,)):  # a proxy id is an int, never a float or a bool
            with pytest.raises(ConfigurationError, match="unknown proxy"):
                run_dynamics(sc, Scheduler(order), [MONO] * 2, max_steps=5)
        with pytest.raises(ConfigurationError):
            run_dynamics(sc, Scheduler.round_robin(), [MONO], max_steps=5)
        with pytest.raises(ConfigurationError):  # oscillating needs continuous space
            run_dynamics(
                load_fixture("appendix_a").scenario,
                Scheduler.round_robin(),
                [PolicySpec(PolicyKind.OSCILLATING_ALPHA)] * 5,
                max_steps=5,
            )
        with pytest.raises(ConfigurationError):  # discrete best response needs a grid
            run_dynamics(
                sc, Scheduler.round_robin(),
                [PolicySpec(PolicyKind.DISCRETE_BEST_RESPONSE)] * 2, max_steps=5,
            )
        with pytest.raises(ConfigurationError):  # minimax needs partial information
            run_dynamics(
                sc, Scheduler.round_robin(),
                [PolicySpec(PolicyKind.MINIMAX_REGRET)] * 2, max_steps=5,
            )
        with pytest.raises(ConfigurationError):  # a belief needs partial information
            run_dynamics(
                sc, Scheduler.round_robin(), [MONO] * 2, max_steps=5,
                initial_belief=init_belief(observe(sc, sc.truthful_state())),
            )

    @pytest.mark.parametrize(
        "spec, mode, field",
        [
            (partial(PolicySpec, PolicyKind.MONOTONE_BETTER_RESPONSE, alpha1=7.0), "full_info",
             "alpha1"),
            (partial(PolicySpec, PolicyKind.DISCRETE_BEST_RESPONSE, fraction=0.25), "full_info",
             "fraction"),
            (partial(PolicySpec, PolicyKind.OSCILLATING_ALPHA, positions=(1.0,)), "full_info",
             "positions"),
            (partial(PolicySpec, PolicyKind.SCRIPTED, decay=0.9), "full_info", "decay"),
            (partial(PolicySpec, PolicyKind.MINIMAX_REGRET, fraction=1.0), "partial_info",
             "fraction"),
            # only the mode makes this one ignored, so run_dynamics rejects it
            (partial(PolicySpec, PolicyKind.MINIMAX_REGRET, truth_oriented=True), "partial_info",
             "truth_oriented"),
        ],
    )
    def test_ignored_parameter_rejected(self, spec, mode, field):
        sc = load_fixture("example1").scenario
        with pytest.raises(ConfigurationError, match=field):
            run_dynamics(sc, Scheduler.round_robin(), [spec()] * 2, max_steps=5, mode=mode)

    @pytest.mark.parametrize("max_steps", [2.5, True, "3"])
    def test_max_steps_that_is_no_integer_refused(self, max_steps):
        sc = load_fixture("example1").scenario
        with pytest.raises(ConfigurationError, match="max_steps"):
            run_dynamics(sc, Scheduler.round_robin(), [MONO] * 2, max_steps=max_steps)

    @pytest.mark.parametrize(
        "kind, params, message, field",
        [
            (PolicyKind.MONOTONE_BETTER_RESPONSE, {"alpha1": 7.0, "fraction": 5.0}, "alpha1", None),
            # out of range, or no finite number: refused at its field
            (PolicyKind.MONOTONE_BETTER_RESPONSE, {"fraction": 5.0}, "fraction", "fraction"),
            (PolicyKind.MONOTONE_BETTER_RESPONSE, {"fraction": 0.0}, "fraction", "fraction"),
            (PolicyKind.OSCILLATING_ALPHA, {"alpha1": 0.0}, "alpha1", "alpha1"),
            (PolicyKind.OSCILLATING_ALPHA, {"decay": 1.0}, "decay", "decay"),
            (PolicyKind.MONOTONE_BETTER_RESPONSE, {"fraction": "0.5"}, "fraction", "fraction"),
            (PolicyKind.MONOTONE_BETTER_RESPONSE, {"fraction": True}, "fraction", "fraction"),
            (PolicyKind.OSCILLATING_ALPHA, {"alpha1": float("inf")}, "alpha1", "alpha1"),
            (PolicyKind.OSCILLATING_ALPHA, {"decay": float("nan")}, "decay", "decay"),
        ],
    )
    def test_spec_checks_its_parameters_when_built(self, kind, params, message, field):
        # so step(), which never sees a whole run, cannot play a bad spec either
        with pytest.raises(ConfigurationError, match=message) as err:
            PolicySpec(kind, **params)
        assert err.value.field == field

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), "a", True, 10**400])
    def test_nonfinite_script_position_refused_when_built(self, bad):
        # on the line no grid check would catch it before is_better_response
        with pytest.raises(ConfigurationError, match="not finite") as err:
            PolicySpec(PolicyKind.SCRIPTED, positions=(1.0, bad))
        assert err.value.field == "positions[1]"

    @pytest.mark.parametrize("flag", ["no", 1, None])
    def test_truth_oriented_that_is_no_bool_refused(self, flag):
        # a truthy string would turn the truth override on
        with pytest.raises(ConfigurationError, match="truth_oriented") as err:
            PolicySpec(PolicyKind.MONOTONE_BETTER_RESPONSE, truth_oriented=flag)
        assert err.value.field == "truth_oriented"

    def test_script_positions_stored_as_a_tuple(self):
        # so a spec built from a list hashes like any frozen value
        spec = PolicySpec(PolicyKind.SCRIPTED, positions=[1.0, 2.0])
        assert spec == PolicySpec(PolicyKind.SCRIPTED, positions=(1.0, 2.0))
        assert hash(spec) == hash(PolicySpec(PolicyKind.SCRIPTED, positions=(1.0, 2.0)))

    @pytest.mark.parametrize(
        "kind, space",
        [
            (PolicyKind.MONOTONE_BETTER_RESPONSE, Space.continuous()),
            (PolicyKind.DISCRETE_BEST_RESPONSE, Space.discrete(1.0)),
            (PolicyKind.OSCILLATING_ALPHA, Space.continuous()),
        ],
    )
    def test_full_information_kind_refused_under_partial_info(self, kind, space):
        # its proposal reads the followers, which a winner-only poll hides
        sc = Scenario((-1.0, 2.0), (0.0,), space)
        with pytest.raises(ConfigurationError, match="requires full_info mode"):
            run_dynamics(
                sc, Scheduler.round_robin(), [PolicySpec(kind)] * 2, max_steps=5,
                mode="partial_info",
            )
        belief = init_belief(observe(sc, sc.truthful_state()))
        with pytest.raises(ConfigurationError, match="requires full_info mode"):
            step(sc, sc.truthful_state(), 1, PolicySpec(kind), belief=belief)

    def test_readme_policy_table_matches_the_kind_table(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        rows = re.findall(
            r"^\| `(\w+)` \| (either|discrete|continuous) \| (.+?) \| (.+?) \|$", readme, re.M
        )
        documented = {
            kind: (space, set(re.findall(r"`(\w+)`", modes)), set(re.findall(r"`(\w+)`", names)))
            for kind, space, modes, names in rows
        }
        table = {}
        for kind, policy in dynamics._POLICIES.items():
            proposals = {"full_info": policy.full, "partial_info": policy.partial}
            modes = {mode for mode, proposal in proposals.items() if proposal}
            names = set(policy.params) | ({"truth_oriented"} if policy.full else set())
            table[kind.value] = (policy.space or "either", modes, names)
        assert len(rows) == len(PolicyKind) and documented == table

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_monotone_winner_proposes_a_finite_report_past_overflow(self, sign):
        # a lone winner improves on every report beyond 1.0 toward its peak;
        # the reflection of 1.0 across the peak overflows to inf, and the
        # proposal aims at float max instead of proposing inf
        sc = Scenario((-sign * 1e308,), (-1.0,))
        spec = PolicySpec(PolicyKind.MONOTONE_BETTER_RESPONSE)
        trace = run_dynamics(sc, Scheduler(), [spec], 50, initial_declared=[sign])
        assert trace.stop_reason == StopReason.PNE
        assert trace.records[0].to_pos == -sign * sys.float_info.max / 2
        assert trace.final_declared == [-sign * 1e308]

    @pytest.mark.parametrize(
        "followers, state, far_end, to",
        [
            ((-0.25, 1.0), [-0.75, -0.25], 0.25, {0.5: 0.0, 1.0: 0.24999999999999997}),
            ((-0.3, 1.0), [-0.8, -0.3], 0.20000000000000007, {0.5: -0.04999999999999999, 1.0: 0.2}),
        ],
        ids=["dyadic", "decimal"],
    )
    def test_monotone_winner_full_step_ends_inside_the_far_end(self, followers, state, far_end, to):
        # the winner's improving stretch is open at far_end; fraction 1.0
        # steps all the way, to the float next to far_end where the step
        # rounds onto it (dyadic), and to the rounded step where it does
        # not (decimal), never back to fraction 0.5's report
        sc = Scenario((-1.6, 0.7), followers)
        pieces = manipulation.improving_pieces(sc, state, 1, state[1])
        stretch = next(p.reports for p in pieces if p.outcome is None)
        assert (stretch.hi, stretch.hi_open) == (far_end, True)
        for f, x in to.items():
            assert step(sc, state, 1, replace(MONO, fraction=f, truth_oriented=False)).to_pos == x

    def test_monotone_winner_step_past_float_max_keeps_its_fraction(self):
        # the winner at 1.7e308 improves on every report down to -1.7e308,
        # a span past float max: each fraction still steps that share of it
        sc = Scenario((-1.0, 1.7e308))
        for f, x in ((0.25, 8.5e307), (0.5, 0.0), (1.0, math.nextafter(-1.7e308, 0.0))):
            spec = replace(MONO, fraction=f, truth_oriented=False)
            assert step(sc, [1.7e308, 1.7e308], 0, spec).to_pos == x

    def test_parameters_at_their_defaults_accepted(self):
        sc = load_fixture("example1").scenario
        spec = PolicySpec(PolicyKind.SCRIPTED, fraction=0.5, alpha1=0.25, decay=0.5)
        run_dynamics(sc, Scheduler.round_robin(), [spec, MONO], max_steps=5)


# follower counts around SCAN_MAX_FOLLOWERS (32), where wm_winner changes route
PARTIAL_RUN_SIZES = [*range(9), 31, 32, 33, 200]
PARTIAL_RUN_POSITIONS = {
    "integer": st.integers(-12, 12).map(float),
    "decimal": st.integers(-120, 120).map(lambda k: k / 10),
    "tied": st.sampled_from((-1.0, 0.0, 0.0, 2.0)),
}


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_random_partial_info_runs_replay(data):
    # a partial turn takes the winner before it from the poll and the winner
    # after it from the new median; replay recomputes both with wm_winner,
    # which is the delegation scan up to 32 followers
    space = data.draw(st.sampled_from((Space.continuous(), Space.discrete(1.0))))
    kinds = ("integer", "tied") if space.is_discrete else tuple(PARTIAL_RUN_POSITIONS)
    pos = PARTIAL_RUN_POSITIONS[data.draw(st.sampled_from(kinds))]
    m = data.draw(st.integers(1, 5))
    n = data.draw(st.sampled_from(PARTIAL_RUN_SIZES))
    peaks = data.draw(st.lists(pos, min_size=m, max_size=m))
    followers = data.draw(st.lists(pos, min_size=n, max_size=n))
    script = st.lists(pos, max_size=4).map(
        lambda ps: PolicySpec(PolicyKind.SCRIPTED, positions=tuple(ps))
    )
    policy = st.one_of(st.just(PolicySpec(PolicyKind.MINIMAX_REGRET)), script)
    policies = [data.draw(policy) for _ in range(m)]
    trace = run_dynamics(
        Scenario(tuple(peaks), tuple(followers), space), Scheduler.round_robin(),
        policies, max_steps=60, mode="partial_info",
    )
    assert replay_consistent(trace)


def fig5_trace():
    return run_scenario_file(load_fixture("fig5_metamove"))


class TestMetaMoves:
    def test_fig5_single_segment_rising_inside(self):
        trace = fig5_trace()
        assert [r.delta_after for r in trace.records] == [2.0, 3.0]
        segments = detect_meta_moves(trace)
        assert len(segments) == 1
        seg = segments[0]
        assert seg.length == 1
        assert seg.entry_delta == 4.0
        assert seg.exit_delta == 3.0
        assert seg.exit_delta > trace.records[0].delta_after  # rose inside the meta
        assert seg.exit_delta < seg.entry_delta  # but net-decreased

    def test_winner_self_moves_make_no_segments(self):
        # a reigning winner improving in place never counts as an arrival
        sc = Scenario((2.0, 3.0), (0.0,))
        pols = [PolicySpec(PolicyKind.SCRIPTED, positions=(2.0,)), PolicySpec(PolicyKind.SCRIPTED)]
        trace = run_dynamics(
            sc, Scheduler.scripted([0]), pols, max_steps=1, initial_declared=[0.0, 3.0]
        )
        assert len(trace.records) == 1
        assert trace.records[0].mover == trace.records[0].winner_before
        assert detect_meta_moves(trace) == []

    def test_appendix_a_every_arrival_is_length_zero(self):
        trace = run_scenario_file(load_fixture("appendix_a"))
        segments = detect_meta_moves(trace)
        assert len(segments) == 6
        assert all(seg.length == 0 for seg in segments)


class TestBoundInvariant:
    def test_appendix_a_trace_within_truthful_ball(self):
        trace = run_scenario_file(load_fixture("appendix_a"))
        assert trace.initial_delta == 11.0
        assert check_bound_invariant(trace)

    def test_example3_trace_within_ball(self):
        sc = load_fixture("example1").scenario
        pols = [PolicySpec(PolicyKind.OSCILLATING_ALPHA, alpha1=0.25, decay=0.5)] * 2
        trace = run_dynamics(sc, Scheduler.round_robin(), pols, max_steps=200)
        assert check_bound_invariant(trace)

    def test_empty_trace_trivially_true(self):
        sc = load_fixture("fig3_one_side").scenario
        trace = run_dynamics(sc, Scheduler.round_robin(), [MONO] * 4, max_steps=5)
        assert not trace.records and check_bound_invariant(trace)


class TestDeltaLemmas:
    def test_tie_win_that_keeps_delta_fails_lemma_3(self):
        assert check_delta_lemmas(fig5_trace())  # its meta-move ends below its entry
        # proxy 0 wins at 1.0 only by the index tie with the winner at -1.0:
        # Δ stays 1.0, so the move breaks Lemma 3 and the meta-move Lemma 4
        sc = Scenario((1.5, -1.0), (0.0,))
        pols = [PolicySpec(PolicyKind.SCRIPTED, positions=(1.0,)), PolicySpec(PolicyKind.SCRIPTED)]
        trace = run_dynamics(sc, Scheduler.round_robin(), pols, max_steps=5)
        assert [(r.to_pos, r.wm_before, r.delta_after) for r in trace.records] == [(1.0, -1.0, 1.0)]
        assert trace_is_monotone(trace) and not check_delta_lemmas(trace)


# continuous positions for the non-winner proposal property: the hostile
# families, and magnitudes past 2**53 where a target rounds by whole units
NONWINNER_POSITIONS = {
    **POSITION_KINDS,
    "past_2**53": st.one_of(
        st.integers(-24, 24).map(lambda k: 1e16 + k),
        st.sampled_from((-1e17, 1e17, -2.0**60, 2.0**60)),
    ),
}
NONWINNER_SPECS = st.one_of(
    st.sampled_from((0.25, 0.5, 0.75, 1.0)).map(_mono),
    st.floats(1e-20, 1.0).map(lambda a: PolicySpec(PolicyKind.OSCILLATING_ALPHA, alpha1=a)),
)


@pytest.mark.parametrize("kind", sorted(NONWINNER_POSITIONS))
@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_nonwinner_moves_are_strictly_nearer_the_median(kind, data):
    # Lemma 3 at the step: a monotone or oscillating non-winner's move lands
    # exactly nearer the median than the winner, so it wins strictly and
    # shrinks Δ, also where its target rounds onto the winner's distance
    pos = NONWINNER_POSITIONS[kind]
    m, n = data.draw(st.integers(2, 4)), data.draw(st.integers(0, 5))
    sc = Scenario(tuple(data.draw(pos) for _ in range(m)), tuple(data.draw(pos) for _ in range(n)))
    state = [data.draw(pos) for _ in range(m)]
    med = unweighted_median(sc, state)
    winner, _ = wm_winner(sc, state)
    for j in range(m):
        rec = step(sc, state, j, data.draw(NONWINNER_SPECS))
        if j != winner and rec is not None:
            assert nearer(med, rec.to_pos, rec.wm_before), (j, rec)


def big_steps(trace, alpha):
    """Per meta-move and per lone move, in order: whether it is Big at
    contraction rate alpha, that is, leaves Δ below alpha times its entry Δ."""
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    segments = {seg.start: seg for seg in detect_meta_moves(trace)}
    records = trace.records
    labels = []
    i = 0
    while i < len(records):
        if i in segments:
            seg = segments[i]
            labels.append(seg.exit_delta < alpha * seg.entry_delta)
            i += seg.length + 1
        else:
            entry = records[i - 1].delta_after if i > 0 else trace.initial_delta
            labels.append(records[i].delta_after < alpha * entry)
            i += 1
    return labels


class TestClassification:
    def test_big_small_rule(self):
        trace = fig5_trace()
        labels = big_steps(trace, alpha=0.9)
        assert labels == [True]  # 3.0 < 0.9 * 4.0
        assert big_steps(trace, alpha=0.5) == [False]  # 3.0 >= 0.5 * 4.0

    def test_example3_tail_goes_small(self):
        sc = load_fixture("example1").scenario
        pols = [PolicySpec(PolicyKind.OSCILLATING_ALPHA, alpha1=0.25, decay=0.5)] * 2
        trace = run_dynamics(sc, Scheduler.round_robin(), pols, max_steps=200)
        labels = big_steps(trace, alpha=0.9)
        assert len(labels) >= 10 and not any(labels[-10:])

    def test_discrete_monotone_all_big_at_paper_rate(self):
        # initial distance 11; halving proposals beat alpha = 1 - 1/11 throughout
        sc = Scenario((-11.0, 14.0), (-1.0, 0.0, 1.0), Space.discrete(1.0))
        assert true_median(sc) == 0.0
        trace = run_dynamics(sc, Scheduler.round_robin(), [MONO, MONO], max_steps=50)
        assert trace.initial_delta == 11.0
        assert trace.stop_reason == StopReason.PNE
        assert trace.final_outcome() == 0.0
        labels = big_steps(trace, alpha=1.0 - 1.0 / 11.0)
        assert labels and all(labels)

    def test_alpha_must_be_fractional(self):
        with pytest.raises(ValueError):
            big_steps(fig5_trace(), alpha=1.0)


class TestTraceIsMonotone:
    def test_single_monotone_move(self):
        trace = fig5_trace()
        start = unweighted_median(trace.scenario, trace.initial_declared)
        assert [r.median_after for r in trace.records] == [start] * len(trace.records)
        assert trace_is_monotone(trace)

    def test_appendix_a_trace_median_moves(self):
        # the scripted cross-median moves shift the median 0 -> 1 -> 5
        trace = run_scenario_file(load_fixture("appendix_a"))
        assert [r.median_after for r in trace.records] == [0.0, 1.0, 5.0, 5.0, 5.0, 5.0]
        assert not trace_is_monotone(trace)

    def test_cross_median_weight_shift_detected(self):
        sc = Scenario((-13.0, 12.0), (5.0, 1.0, 0.0))
        assert true_median(sc) == 1.0
        pols = [PolicySpec(PolicyKind.SCRIPTED, positions=(9.0,)), PolicySpec(PolicyKind.SCRIPTED)]
        trace = run_dynamics(sc, Scheduler.scripted([0]), pols, max_steps=1)
        assert len(trace.records) == 1
        assert trace.records[0].median_after == 5.0
        assert not trace_is_monotone(trace)

    def test_own_side_move_that_moves_the_median(self):
        # proxy 0 reports its peak, left of the true median 0, from 3: the
        # median moves 3 -> 0, and only the median clause sees it
        sc = Scenario((-5.0, 5.0), (0.0,))
        pols = [PolicySpec(PolicyKind.SCRIPTED, positions=(-5.0,)), PolicySpec(PolicyKind.SCRIPTED)]
        trace = run_dynamics(
            sc, Scheduler.scripted([0]), pols, max_steps=1, initial_declared=[3.0, 5.0]
        )
        assert [(r.to_pos, r.median_after) for r in trace.records] == [(-5.0, 0.0)]
        assert not trace_is_monotone(trace)
