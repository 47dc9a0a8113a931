"""Command-line interface: run scenario files, check invariants, replicate.

Exit codes: 0 success / all checks pass, 1 check or replication failures,
2 validation errors and unknown names. Proxy ids are 1-based here.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys

from . import claims
from .dynamics import PolicyKind, PolicySpec, Scheduler, run_dynamics
from .errors import ProxylineError
from .generators import random_scenario, random_state
from .model import Scenario, Space

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
# invariant checks: one row per claim function


def _row(claim, *args) -> tuple[str, bool, str]:
    """A check row: the name of the claim function, and its verdict."""
    return (claim.__name__, *claim(*args))


def _scenario_rows(scenario: Scenario, states: list[list[float]]) -> list[tuple[str, bool, str]]:
    """Lemma 1 on each state, Theorems 1 and 2 on the truthful state."""
    return [
        _row(claims.lemma1_equivalence, scenario, states),
        _row(claims.theorem1_no_follower_manipulation, scenario),
        _row(claims.theorem2_oracle_agreement, scenario),
    ]


def _check_one_random(seed: int) -> list[tuple[str, bool, str]]:
    """Every claim on the games one seed draws."""
    rng = random.Random(seed)
    scenario = random_scenario(rng)
    results = _scenario_rows(scenario, [random_state(rng, scenario) for _ in range(6)])

    disc = random_scenario(rng, space=Space.discrete(1.0), both_sides=True, no_peak_at_median=True)
    policies = [
        PolicySpec(PolicyKind.MONOTONE_BETTER_RESPONSE, fraction=rng.choice([0.25, 0.5, 1.0]),
                   truth_oriented=True)
        for _ in range(disc.num_proxies)
    ]
    trace = run_dynamics(disc, Scheduler.round_robin(), policies, max_steps=200)

    part = random_scenario(rng, min_proxies=2, both_sides=True, no_peak_at_median=True)
    ptrace = run_dynamics(
        part, Scheduler.round_robin(),
        [PolicySpec(PolicyKind.MINIMAX_REGRET)] * part.num_proxies,
        max_steps=60, mode="partial_info",
    )
    return results + [
        _row(claims.discrete_monotone_converges_to_median, trace),
        _row(claims.delta_lemmas_and_bound, trace),
        _row(claims.interval_holds_each_state_median, ptrace),
        _row(claims.minimax_regret_reaches_median, ptrace),
    ]


def _check_file(path: str) -> list[tuple[str, bool, str]]:
    from .scenario_io import load_scenario_file, run_scenario_file

    sf = load_scenario_file(path)
    scenario = sf.scenario
    state = scenario.truthful_state()
    results = _scenario_rows(scenario, [state])
    if sf.alt_followers is not None:
        results.append(_row(claims.identical_observed_state, scenario, sf.alt_followers, state))
    results.append(_row(claims.trace_replays, run_scenario_file(sf)))
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
