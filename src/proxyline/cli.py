"""Command-line interface: run scenario files, check invariants, replicate.

Exit codes: 0 success / all checks pass, 1 check or replication failures,
2 validation errors and unknown names. Proxy ids are 1-based here.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys

from . import dynamics as dyn
from . import manipulation as manip
from . import metrics, model
from . import partial_info as pinfo
from .dynamics import PolicyKind, PolicySpec, Scheduler
from .errors import ProxylineError
from .generators import random_scenario, random_state
from .model import Space
from .oracle import deviation_reports, oracle_best_deviation

# The file layer (``scenario_io``) and the replication layer (``fixtures``)
# are imported inside the commands that use them, so ``check --random``
# neither compiles nor builds them.


def cmd_run(args) -> int:
    from dataclasses import replace
    from pathlib import Path

    from .scenario_io import (
        load_scenario_file,
        run_scenario_file,
        summarize,
        summary_json,
        trace_json,
    )

    sf = load_scenario_file(args.file)
    if args.max_steps is not None:
        sf = replace(sf, max_steps=args.max_steps)
    trace = run_scenario_file(sf)
    summary = summarize(trace, sf.step)
    trace_text, summary_text = trace_json(trace, sf.step), summary_json(summary)
    out_dir = Path(args.output_dir)
    trace_path = out_dir / sf.trace_path
    summary_path = out_dir / sf.summary_path
    path = out_dir
    written = None
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        path = trace_path
        trace_path.write_text(trace_text)
        written = trace_path
        path = summary_path
        summary_path.write_text(summary_text)
    except OSError as exc:
        if written is not None:  # a trace is never left without its summary
            written.unlink()
        print(f"error: cannot write {path}: {exc.strerror}", file=sys.stderr)
        return 2
    print(f"wrote {trace_path} ({summary['steps']} moves) and {summary_path}")
    print(
        f"outcome {summary['initial_outcome']} -> {summary['final_outcome']}"
        f"  sc {summary['sc_initial']} -> {summary['sc_final']}"
        f"  stop {summary['stop_reason']}"
    )
    return 0


# ---------------------------------------------------------------------------
# invariant checks


def _scenario_rows(
    scenario: model.Scenario, states: list[list[float]]
) -> list[tuple[str, bool, str]]:
    """Lemma 1 on each state, Theorems 1 and 2 on the truthful state.

    Lemma 1 compares the proxy nearest the median with the weighted median
    of the delegation weights, not with ``wm_winner``, which above its scan
    size is the nearest proxy itself. Theorem 2 compares the analytic
    verdict with the oracle tried at every proxy's deviation reports.
    """
    lemma1 = all(
        model.nearest_proxy_to_median(scenario, s)
        == model.weighted_median(s, model.delegation_weights(scenario, s))[0]
        for s in states
    )
    witness = manip.follower_manipulation_scan(scenario)
    verdict = manip.characterize_truthful_manipulability(scenario)
    truthful = scenario.truthful_state()
    found = any(
        oracle_best_deviation(scenario, truthful, j, deviation_reports(scenario, truthful, j))
        is not None
        for j in range(scenario.num_proxies)
    )
    return [
        ("lemma1_equivalence", lemma1, ""),
        ("theorem1_no_follower_manipulation", witness is None, str(witness)),
        ("theorem2_oracle_agreement", verdict.manipulable == found,
         f"analytic {verdict.manipulable}, oracle {found}"),
    ]


def _check_one_random(seed: int) -> list[tuple[str, bool, str]]:
    """Full invariant sweep on one seeded random scenario."""
    rng = random.Random(seed)
    scenario = random_scenario(rng)
    results = _scenario_rows(scenario, [random_state(rng, scenario) for _ in range(6)])

    disc = random_scenario(rng, space=Space.discrete(1.0), both_sides=True, no_peak_at_median=True)
    policies = [
        PolicySpec(PolicyKind.MONOTONE_BETTER_RESPONSE, fraction=rng.choice([0.25, 0.5, 1.0]),
                   truth_oriented=True)
        for _ in range(disc.num_proxies)
    ]
    trace = dyn.run_dynamics(disc, Scheduler.round_robin(), policies, max_steps=200)
    med = metrics.true_median(disc)
    final = trace.final_outcome()
    ok = trace.stop_reason == dyn.StopReason.PNE and final == med
    results.append(("discrete_monotone_converges_to_median", ok,
                    f"stop {trace.stop_reason.value}, outcome {final}, med {med}"))

    lemmas_ok = dyn.check_bound_invariant(trace)
    if dyn.trace_is_monotone(trace):
        lemmas_ok &= dyn.check_delta_lemmas(trace)
    results.append(("delta_lemmas_and_bound", lemmas_ok, ""))

    part = random_scenario(rng, min_proxies=2, both_sides=True, no_peak_at_median=True)
    ptrace = dyn.run_dynamics(
        part, Scheduler.round_robin(),
        [PolicySpec(PolicyKind.MINIMAX_REGRET)] * part.num_proxies,
        max_steps=60, mode="partial_info",
    )
    # each poll's interval holds the median of the state it polled
    pmed = metrics.true_median(part)
    medians = [pmed] + [rec.median_after for rec in ptrace.records]
    missed = [
        k for k, (iv, med) in enumerate(zip(ptrace.interval_history, medians))
        if not iv.contains(med)
    ]
    results.append(("interval_holds_each_state_median", not missed, f"polls {missed} miss"))
    # the abstract's claim: regret-averse play under partial information
    # still reaches the median
    pfinal = ptrace.final_outcome()
    reached = abs(pfinal - pmed) <= dyn.outcome_tol(pfinal)
    results.append(("minimax_regret_reaches_median", reached,
                    f"stop {ptrace.stop_reason.value}, outcome {pfinal}, med {pmed}"))
    return results


def _check_file(path: str) -> list[tuple[str, bool, str]]:
    from .scenario_io import load_scenario_file, run_scenario_file

    sf = load_scenario_file(path)
    scenario = sf.scenario
    state = scenario.truthful_state()
    results = _scenario_rows(scenario, [state])
    if sf.alt_followers is not None:
        alt = scenario.with_followers(sf.alt_followers)
        same = pinfo.observe(scenario, state) == pinfo.observe(alt, state)
        results.append(("identical_observed_state", same, ""))
    results.append(("trace_replays", dyn.replay_consistent(run_scenario_file(sf)), ""))
    return results


def cmd_check(args) -> int:
    rows: list[tuple[str, bool, str]] = []
    if args.file:
        rows = _check_file(args.file)
    elif args.random < 1:
        print("error: --random must be at least 1", file=sys.stderr)
        return 2
    else:
        seeds = [args.seed + i for i in range(args.random)]
        if args.jobs > 1:
            # imported here: it brings in logging, which a serial check never needs
            import concurrent.futures

            with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
                per_seed = list(pool.map(_check_one_random, seeds))
        else:
            per_seed = [_check_one_random(s) for s in seeds]
        tally: dict[str, tuple[int, int, str]] = {}
        for results in per_seed:
            for name, ok, detail in results:
                passed, total, first_fail = tally.get(name, (0, 0, ""))
                tally[name] = (passed + ok, total + 1, first_fail or ("" if ok else detail))
        for name, (passed, total, first_fail) in tally.items():
            rows.append((f"{name} [{passed}/{total}]", passed == total, first_fail))

    width = max(len(name) for name, _, _ in rows)
    for name, ok, detail in rows:
        _print_check(name.ljust(width), ok, detail)
    return 0 if all(ok for _, ok, _ in rows) else 1


def cmd_replicate(args) -> int:
    from .fixtures import REPLICATIONS, replicate

    if args.name not in REPLICATIONS:
        print(
            f"error: unknown fixture {args.name!r}; known: {', '.join(sorted(REPLICATIONS))}",
            file=sys.stderr,
        )
        return 2
    report = replicate(args.name)
    for check in report.checks:
        _print_check(f"{report.name}.{check.name}", check.ok, check.detail)
    return 0 if report.ok else 1


def _print_check(name: str, ok: bool, detail: str) -> None:
    """A check's line: its mark and name, and the detail of a failure."""
    print(f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  {detail}" if detail and not ok else ""))


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then reused: parsing
    leaves it unchanged, so every ``main`` call in a process shares it."""
    parser = argparse.ArgumentParser(
        prog="proxyline",
        description="Strategic proxy voting on the line: run, check, replicate.",
    )
    parser.add_argument("--jobs", type=int, default=1, help="parallel workers for random checks")
    parser.add_argument("--output-dir", default=".", help="directory for trace/summary files")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario file")
    p_run.add_argument("file")
    p_run.add_argument("--max-steps", type=int, default=None)
    p_run.set_defaults(func=cmd_run)

    p_check = sub.add_parser("check", help="run the invariant suite")
    p_check.add_argument("file", nargs="?", default=None)
    p_check.add_argument("--random", type=int, default=20)
    p_check.add_argument("--seed", type=int, default=7)
    p_check.set_defaults(func=cmd_check)

    p_rep = sub.add_parser("replicate", help="replicate a named fixture")
    p_rep.add_argument("name")
    p_rep.set_defaults(func=cmd_replicate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ProxylineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
