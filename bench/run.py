"""proxyline benchmark: one workload per process, closed loop, one client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ``src/``.
``--trace 0`` runs units back to back while the longest unit so far still
fits in ``--seconds`` of unit time and reports the end-to-end metrics. Their
times are in reference seconds: wall time scaled by the host's speed, which a
reference kernel samples while the run goes (``reference.py``); the wall-clock
figures are printed as report lines. ``--trace 1`` runs a fixed set of
units (so its counters repeat exactly for a seed), each once plain and once
traced, and reports the per-layer metrics. Every output is checked outside
the timed region. Report lines start with ``# ``; the last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics.
Results and span dumps go to ``.bench_out/``. See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import reference
from selftest import run_selftest
from tracer import Tracer
from workloads import TRACED_UNITS, WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
PACKAGE = "proxyline"
SETUP_REPEATS = 11
P90_MIN_UNITS = 100  # p90 needs at least 10 samples beyond it


def run_record(args) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "loadavg": list(os.getloadavg()),
    }


def package_modules() -> dict:
    return {k: m for k, m in sys.modules.items() if k == PACKAGE or k.startswith(PACKAGE + ".")}


def set_up(workload, keep: bool = True) -> tuple[tuple[float, float], object, object]:
    """One timed set-up: a fresh import of the package plus the workload's
    scenarios, from a collected heap. Returns (its start and end on
    ``time.perf_counter``, the package, the unit). Unless ``keep``, the
    package modules loaded before are put back after it, so the units keep
    running on one copy of the package."""
    before = package_modules()
    for name in before:
        del sys.modules[name]
    gc.collect()
    t0 = time.perf_counter()
    pl = importlib.import_module(PACKAGE)
    unit = workload.build(pl)
    t1 = time.perf_counter()
    if not keep:
        for name in package_modules():
            del sys.modules[name]
        sys.modules.update(before)
    return (t0, t1), pl, unit


class Gate:
    """Counts unit outcomes and hashes their outputs into the run digest.

    On a workload that repeats one instance every unit must reproduce the
    first unit's output exactly; only that output enters the digest.
    """

    def __init__(self, workload):
        self.workload = workload
        self.attempted = self.failed = 0
        self.first: str | None = None
        self.digest = hashlib.sha256()

    def check(self, out, expected: str | None = None) -> str | None:
        """Gates one unit's output; ``expected`` is an output it must reproduce."""
        self.attempted += 1
        ok, text = (False, None) if isinstance(out, Exception) else self.workload.check(out)
        if expected is None and self.workload.same_instance:
            expected = self.first
        if expected is not None:
            ok = ok and text == expected
        elif text is not None:
            self.digest.update(text.encode())
        if self.first is None:
            self.first = text
        self.failed += not ok
        return text


def call_unit(unit, i: int):
    """Runs one unit; a unit that raises is reported and counted as failed."""
    try:
        return unit(i)
    except Exception as exc:
        traceback.print_exc()
        return exc


def measure(unit, seconds: float, gate: Gate, workload) -> tuple[list, list]:
    """Closed loop: the next unit starts when the previous one is checked,
    and only if the longest unit so far still fits in ``seconds``.

    Returns the (start, end) of every unit and of ``SETUP_REPEATS - 1`` more
    set-ups, made between units and spread over the run so that their
    median is not one moment's host speed.
    """
    units: list[tuple[float, float]] = []
    setups: list[tuple[float, float]] = []
    spent = longest = 0.0
    while not units or spent + longest <= seconds:
        while len(setups) < (SETUP_REPEATS - 1) * spent / seconds:
            setups.append(set_up(workload, keep=False)[0])
        t0 = time.perf_counter()
        out = call_unit(unit, len(units))
        t1 = time.perf_counter()
        units.append((t0, t1))
        spent += t1 - t0
        longest = max(longest, t1 - t0)
        gate.check(out)
        out = None  # the next unit runs without this one's output alive
    while len(setups) < SETUP_REPEATS - 1:
        setups.append(set_up(workload, keep=False)[0])
    return units, setups


def measure_traced(pl, workload, units: int, gate: Gate, tracer) -> tuple[float, float]:
    """Each unit plain, then traced; the traced output must match the plain one.
    Returns (plain, traced) total unit time."""
    with tracer.unit(0):  # set-up's scenario construction, under the tracer
        unit = workload.build(pl)
    plain = traced = 0.0
    for i in range(units):
        t0 = time.perf_counter()
        out = call_unit(unit, i)
        plain += time.perf_counter() - t0
        text = gate.check(out)
        with tracer.unit(i + 1):
            t0 = time.perf_counter()
            out = call_unit(unit, i)
            traced += time.perf_counter() - t0
        gate.check(out, expected=text)
    return plain, traced


def per_layer(tracer, overhead: float) -> tuple[dict, dict]:
    """(metrics for the result line, self times printed only)."""
    summary = tracer.summary()
    calls = {name: c for name, (c, _) in summary.items()}
    self_s = {name: s for name, (_, s) in summary.items()}
    turns = calls["dynamics.step"]
    metrics = {f"{name}.calls": (calls[name], "count") for name in tracer.names[1:]}
    del metrics["dynamics.step.calls"]  # reported as dynamics.turns
    del metrics["dynamics.run_dynamics.calls"]  # one per dynamics run: fixed by the workload
    metrics.update({
        "model.followers_scanned": (tracer.followers_scanned, "count"),
        "model.evals_per_move": (calls["model.wm_winner"] / max(tracer.moves, 1), "evals/move"),
        "dynamics.turns": (turns, "count"),
        "dynamics.moves": (tracer.moves, "count"),
        "dynamics.accept_ratio": (tracer.moves / max(turns, 1), "ratio"),
        "trace.overhead_ratio": (overhead, "ratio"),
    })
    # self times of the functions every workload calls; the rest are printed only,
    # because on the dyn workloads they are never called and read 0 on every run
    every_workload = (
        "model.wm_winner", "model.delegate", "model.weighted_median", "model.unweighted_median",
        "manipulation.outcome_pieces", "manipulation.is_better_response",
        "dynamics.step", "dynamics.run_dynamics",
    )
    metrics.update({f"{name}.self_s": (self_s[name], "s") for name in every_workload})
    metrics["model.Scenario.init_s"] = (self_s["model.Scenario.init"], "s")
    printed = {
        f"{name}.self_s": (self_s[name], "s")
        for name in tracer.names[1:]
        if name not in every_workload and name != "model.Scenario.init"
    }
    return metrics, printed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: {SRC / PACKAGE} not found; run from a proxyline checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    origin = importlib.util.find_spec(PACKAGE).origin
    if not Path(origin).resolve().is_relative_to(SRC):
        print(f"error: would import {origin}, not the checkout's {SRC}", file=sys.stderr)
        return 2
    record = run_record(args)
    workload = WORKLOADS[args.workload](args.seed)  # inputs: benchmark work, untimed
    gate = Gate(workload)
    wall: dict[str, list[float]] = {"setup_s": [], "unit_s": []}  # for the result file
    extra: list[tuple[str, object, str]] = []  # report lines that are not metrics
    OUT.mkdir(exist_ok=True)
    if args.trace == 0:
        with reference.Sampler() as sampler:
            first, pl, unit = set_up(workload)
            units, setups = measure(unit, args.seconds, gate, workload)
        setups.insert(0, first)

        def ref_seconds(intervals) -> list[float]:
            return [(t1 - t0) * reference.NOMINAL_S / sampler.ref(t0, t1) for t0, t1 in intervals]

        wall = {"setup_s": [t1 - t0 for t0, t1 in setups], "unit_s": [t1 - t0 for t0, t1 in units]}
        setup_s, unit_s = ref_seconds(setups), ref_seconds(units)
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "unit_s.p50": (statistics.median(unit_s), "s"),
            "units_per_s": (len(unit_s) / sum(unit_s), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        notes = {  # metric name -> note printed with it
            "setup_s": f"median of {len(setups)} set-ups spread over the run, reference seconds",
            "unit_s.p50": f"{len(units)} units, reference seconds",
            "units_per_s": f"{workload.describe()}, reference seconds",
        }
        extra.append(("wall.setup_s", statistics.median(wall["setup_s"]), "s wall time"))
        extra.append(("wall.unit_s.p50", statistics.median(wall["unit_s"]), "s wall time"))
        extra.append(("wall.units_per_s", len(units) / sum(wall["unit_s"]), "1/s wall time"))
        extra.append(("ref_s.p50", statistics.median(sampler.ref(t0, t1) for t0, t1 in units),
                      f"s reference-kernel CPU time; reference seconds scale wall time by {reference.NOMINAL_S} s / ref_s"))
        if len(units) >= P90_MIN_UNITS:
            extra.append(("unit_s.p90", statistics.quantiles(unit_s, n=10)[-1], f"s {len(units)} units, reference seconds"))
            extra.append(("wall.unit_s.p90", statistics.quantiles(wall["unit_s"], n=10)[-1], "s wall time"))
        else:
            extra.append(("unit_s.p90", "omitted", f"{len(units)} units, needs {P90_MIN_UNITS}"))
    else:
        _, pl, _ = set_up(workload)
        selftest_failures = run_selftest(PACKAGE)
        tracer = Tracer(PACKAGE)
        n_traced = TRACED_UNITS[args.workload]
        plain, traced = measure_traced(pl, workload, n_traced, gate, tracer)
        metrics, printed = per_layer(tracer, traced / plain)
        notes = {name: f"over {n_traced} traced units" for name, (_, u) in metrics.items() if u != "ratio"}
        extra.extend((name, v, f"{u} over {n_traced} traced units") for name, (v, u) in printed.items())
        extra.append(("tracer_selftest", "PASS" if not selftest_failures else "FAIL",
                      "; ".join(selftest_failures)))
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz")
        gate.attempted += 1  # the self-test counts as one more checked unit
        gate.failed += bool(selftest_failures)

    extra.append(("failed_ratio", gate.failed / gate.attempted, f"{gate.failed}/{gate.attempted} units"))
    extra.append(("digest", f"sha256:{gate.digest.hexdigest()[:32]}",
                  "move records" if workload.same_instance else "check output of the units run"))
    print("# run " + json.dumps(record))
    for name, (value, unit) in sorted(metrics.items()):
        print(f"# {name} {value} {unit} {notes.get(name, '')}".rstrip())
    for name, value, note in extra:
        print(f"# {name} {value} {note}".rstrip())
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as f:
        json.dump({"run": record, "notes": notes, "extra": extra, "wall": wall, "result": result}, f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
