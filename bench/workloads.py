"""Seeded inputs, units of work and correctness gates of each workload.

Inputs are made here, from the seed, and never by ``proxyline.generators``,
so that the library under test does not also write its own test data.
A workload object is used in three steps:

* ``Workload(seed)`` makes the raw inputs (untimed benchmark work);
* ``build(pl)`` constructs the workload's ``Scenario`` objects from the
  imported package ``pl`` (timed as set-up) and returns ``unit``, where
  ``unit(i)`` runs unit ``i`` (timed);
* ``check(out)`` gates a unit's output (untimed), returning ``(ok, text)``
  where ``text`` feeds the run digest.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import io
import random

SPAN = 10_000  # integer positions are drawn uniformly from [-SPAN, SPAN]
MAX_STEPS = 10_000  # far above any run here; reaching it fails the unit


def proxy_layout(name: str, m: int) -> list[int]:
    """Peak offsets from the follower median, drawn once per workload.

    The layout comes from a fixed seed, so every ``--seed`` plays the same
    geometry (and so the same number of turns); only the followers change.
    Offsets are at least 200 away from the median and straddle it.
    """
    rng = random.Random(f"{name}/layout")
    while True:
        offsets = [rng.choice((-1, 1)) * rng.randint(200, 9 * SPAN // 10) for _ in range(m)]
        if min(offsets) < 0 < max(offsets):
            return offsets


def dynamics_inputs(name: str, m: int, n: int, seed: int) -> tuple[list[int], list[int], int]:
    """(peaks, followers, truthful median) for one dynamics instance.

    The peaks straddle the median of the truthful population and none sits
    on it. The median is the lower middle element of the sorted population,
    computed here with ``sorted`` independently of the library.
    """
    offsets = proxy_layout(name, m)
    rng = random.Random(f"{name}/followers/{seed}")
    while True:
        followers = [rng.randint(-SPAN, SPAN) for _ in range(n)]
        mid = sorted(followers)[(n - 1) // 2]
        peaks = [mid + o for o in offsets]
        population = sorted(peaks + followers)
        median = population[(len(population) - 1) // 2]
        if min(peaks) < median < max(peaks) and median not in peaks and max(map(abs, peaks)) <= SPAN:
            return peaks, followers, median


class Dynamics:
    """Full-information monotone better-response play to equilibrium.

    Every proxy plays ``monotone_better_response`` (fraction 0.5,
    truth-oriented) under round-robin in discrete space with step 1. A unit
    is one fresh ``Scenario`` plus one ``run_dynamics`` call on it.
    """

    same_instance = True  # every unit replays the same inputs

    def __init__(self, name: str, m: int, n: int, seed: int):
        self.m, self.n = m, n
        self.peaks, self.followers, self.median = dynamics_inputs(name, m, n, seed)

    def describe(self) -> str:
        return f"m={self.m} proxies, n={self.n} followers"

    def build(self, pl):
        """Set-up constructs the workload's ``Scenario`` once, so that
        construction cost (and any work moved into it) shows in set-up time.
        Each unit then constructs a ``Scenario`` of its own inside its timed
        region: state the library keeps on, or caches by, a scenario is paid
        in every unit and never carries from one unit to the next."""
        peaks, followers, space = tuple(self.peaks), tuple(self.followers), pl.Space.discrete(1.0)
        pl.Scenario(peaks, followers, space)
        spec = pl.PolicySpec(pl.PolicyKind.MONOTONE_BETTER_RESPONSE, fraction=0.5, truth_oriented=True)
        policies = [spec] * self.m
        scheduler = pl.Scheduler.round_robin()

        def unit(i: int):
            scenario = pl.Scenario(peaks, followers, space)
            return pl.run_dynamics(scenario, scheduler, policies, max_steps=MAX_STEPS)

        return unit

    def check(self, trace) -> tuple[bool, str]:
        """Stops at a PNE whose outcome is the truthful median (the paper's
        convergence law for discrete monotone, truth-oriented play)."""
        records = trace.records
        ok = (
            trace.stop_reason.value == "pne"
            and bool(records)
            and records[-1].wm_after == self.median
        )
        lines = [",".join(map(repr, dataclasses.astuple(r))) for r in records]
        lines.append(f"stop={trace.stop_reason.value} final={trace.final_declared!r}")
        return ok, "\n".join(lines)


class CheckSweep:
    """``proxyline check --random 1 --seed s`` over consecutive seeds.

    Unit ``i`` checks seed ``first + i``; ``--jobs`` stays at its default 1.
    """

    same_instance = False

    SEEDS_PER_RUN_SEED = 100_000  # seed ranges of different runs never overlap

    def __init__(self, seed: int):
        self.first = seed * self.SEEDS_PER_RUN_SEED

    def describe(self) -> str:
        return f"check seeds from {self.first}, <=4 proxies, <=6 followers"

    def build(self, pl):
        cli = importlib.import_module(pl.__name__ + ".cli")

        def unit(i: int):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(["check", "--random", "1", "--seed", str(self.first + i)])
            return code, out.getvalue()

        return unit

    def check(self, result) -> tuple[bool, str]:
        code, text = result
        lines = text.splitlines()
        ok = code == 0 and bool(lines) and all(line.startswith("PASS ") for line in lines)
        return ok, text


WORKLOADS = {
    "dyn_large_n": lambda seed: Dynamics("dyn_large_n", 5, 100_000, seed),
    "dyn_many_proxies": lambda seed: Dynamics("dyn_many_proxies", 50, 10_000, seed),
    "check_sweep": CheckSweep,
}

# Units in a traced run: a fixed set, so counters repeat exactly per seed.
TRACED_UNITS = {"dyn_large_n": 1, "dyn_many_proxies": 1, "check_sweep": 100}
