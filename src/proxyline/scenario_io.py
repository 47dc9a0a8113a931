"""Scenario-file schema (version 1), trace and summary serialization.

Files use 1-based proxy ids; the library is 0-based. Unknown fields are
rejected so typos fail loudly, and so are fields that the chosen kind
ignores; every error carries a dotted path.

A discrete space's ``step`` is a scale that only this layer reads: the
library plays every grid game on the integers. Positions come in as their
indices x / step (:func:`_index`), and every number written goes out times
the step (:func:`_reported`). Step 1 and the line are the identity.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from .dynamics import (
    _POLICIES,
    DynamicsTrace,
    MoveRecord,
    PolicyKind,
    PolicySpec,
    Scheduler,
    run_dynamics,
)
from .errors import ConfigurationError, ScenarioValidationError
from .metrics import social_cost
from .model import Scenario, Space, _finite_number

SCHEMA_VERSION = 1


@dataclass
class ScenarioFile:
    scenario: Scenario
    policies: list[PolicySpec]
    scheduler: Scheduler
    max_steps: int = 100
    mode: str = "full_info"
    trace_path: str = "trace.jsonl"
    summary_path: str = "summary.json"
    alt_followers: tuple[float, ...] | None = None
    step: float = 1.0  # the scale from the scenario's reports to the file's


def _require_keys(obj: dict, allowed: set[str], path: str) -> None:
    for key in obj:
        if key not in allowed:
            raise ScenarioValidationError(f"{path}.{key}", "unknown field")


def _object(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ScenarioValidationError(path, "expected an object")
    return obj


def _int(obj, path: str) -> int:
    if not isinstance(obj, int) or isinstance(obj, bool):
        raise ScenarioValidationError(path, "expected an integer")
    return obj


def _bool(obj, path: str) -> bool:
    if not isinstance(obj, bool):
        raise ScenarioValidationError(path, "expected true or false")
    return obj


def _str(obj, path: str) -> str:
    if not isinstance(obj, str):
        raise ScenarioValidationError(path, "expected a string")
    return obj


def _number(obj, path: str) -> float:
    if not _finite_number(obj):
        raise ScenarioValidationError(path, "expected a finite number")
    return float(obj)


def _number_list(obj, path: str, step: float | None = None) -> list[float]:
    if not isinstance(obj, list):
        raise ScenarioValidationError(path, "expected a list of numbers")
    return [_index(_number(x, f"{path}[{i}]"), step, f"{path}[{i}]") for i, x in enumerate(obj)]


def _index(x: float, step: float | None, path: str) -> float:
    """The index x / step of a position on a grid of ``step``, exact in the
    shortest decimals of both (the literal 0.3 on step 0.1 is 3); refused at
    ``path`` unless an integer within float range. The line and step 1 keep x."""
    if step is None or step == 1.0 and x.is_integer():
        return x
    from fractions import Fraction  # imported here: only a scaled grid needs it

    q = Fraction(repr(x)) / Fraction(repr(step))
    if q.denominator != 1 or abs(q) > sys.float_info.max:
        raise ScenarioValidationError(path, f"{x} / {step} is not an integer within float range")
    return float(q)


def _reject_unused(obj: dict, unused: set[str], path: str, kind: str) -> None:
    """Reject fields that the object's kind ignores."""
    present = sorted(unused & obj.keys())
    if present:
        raise ScenarioValidationError(f"{path}.{present[0]}", f"not used by kind {kind!r}")


def _parse_space_step(obj, path: str) -> float | None:
    """The grid step of a space object; None for the continuous line."""
    _require_keys(_object(obj, path), {"kind", "step"}, path)
    kind = obj.get("kind")
    if kind == "continuous":
        _reject_unused(obj, {"step"}, path, kind)
        return None
    if kind == "discrete":
        step = _number(obj.get("step", 1.0), f"{path}.step")
        if not step > 0:
            raise ScenarioValidationError(f"{path}.step", "step must be finite and positive")
        return step
    raise ScenarioValidationError(f"{path}.kind", f"unknown space kind {kind!r}")


# the reader of each optional policy field but ``positions``, which are read on the grid
_POLICY_PARAMS = {
    "fraction": _number,
    "alpha1": _number,
    "decay": _number,
    "truth_oriented": _bool,
}


def _parse_policy(obj, path: str, scenario: Scenario, mode: str, step: float | None) -> PolicySpec:
    _require_keys(_object(obj, path), {"kind", "positions"} | _POLICY_PARAMS.keys(), path)
    try:
        kind = PolicyKind(obj.get("kind"))
    except ValueError:
        raise ScenarioValidationError(f"{path}.kind", f"unknown policy kind {obj.get('kind')!r}")
    params = {k: _POLICY_PARAMS[k](v, f"{path}.{k}") for k, v in obj.items() if k in _POLICY_PARAMS}
    if "positions" in obj:  # scripted reports are positions: on a grid, indices too
        params["positions"] = tuple(_number_list(obj["positions"], f"{path}.positions", step))
    reads = {"kind", "truth_oriented", *_POLICIES[kind].params}
    _reject_unused(obj, obj.keys() - reads, path, kind.value)
    try:
        spec = PolicySpec(kind, **params)
        spec.validate(scenario, mode)
    except ConfigurationError as exc:
        field = f".{exc.field}" if exc.field else ""
        raise ScenarioValidationError(path + field, str(exc)) from None
    return spec


def _parse_scheduler(obj, path: str, num_proxies: int) -> Scheduler:
    _require_keys(_object(obj, path), {"kind", "order"}, path)
    kind = obj.get("kind")
    if kind == "round_robin":
        _reject_unused(obj, {"order"}, path, kind)
        return Scheduler.round_robin()
    if kind == "scripted":
        order = obj.get("order", [])
        if not isinstance(order, list):
            raise ScenarioValidationError(f"{path}.order", "expected a list of 1-based proxy ids")
        ids = []
        for i, x in enumerate(order):
            if not 1 <= _int(x, f"{path}.order[{i}]") <= num_proxies:
                raise ScenarioValidationError(
                    f"{path}.order[{i}]", f"expected a proxy id from 1 to {num_proxies}"
                )
            ids.append(x - 1)
        return Scheduler.scripted(ids)
    raise ScenarioValidationError(f"{path}.kind", f"unknown scheduler kind {kind!r}")


def parse_scenario_file(doc: dict) -> ScenarioFile:
    _require_keys(
        _object(doc, "$"),
        {"schema_version", "scenario", "policies", "scheduler", "run", "mode", "output"},
        "$",
    )
    version = doc.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ScenarioValidationError("$.schema_version", f"expected {SCHEMA_VERSION}")
    sc_obj = _object(doc.get("scenario"), "$.scenario")
    _require_keys(sc_obj, {"proxies", "followers", "space", "alt_followers"}, "$.scenario")
    step = _parse_space_step(sc_obj.get("space", {"kind": "continuous"}), "$.scenario.space")
    proxies = _number_list(sc_obj.get("proxies", []), "$.scenario.proxies", step)
    followers = _number_list(sc_obj.get("followers", []), "$.scenario.followers", step)
    try:
        scenario = Scenario(tuple(proxies), tuple(followers), Space(None if step is None else 1.0))
    except ScenarioValidationError as exc:  # model paths start below the document root
        raise ScenarioValidationError(f"$.{exc.path}", exc.message) from None
    alt = None
    if "alt_followers" in sc_obj:
        alt = tuple(_number_list(sc_obj["alt_followers"], "$.scenario.alt_followers", step))

    mode = doc.get("mode", "full_info")
    if mode not in ("full_info", "partial_info"):
        raise ScenarioValidationError("$.mode", f"unknown mode {mode!r}")
    pol_obj = doc.get("policies", [])
    if not isinstance(pol_obj, list) or len(pol_obj) != len(proxies):
        raise ScenarioValidationError("$.policies", "expected one policy per proxy")
    policies = [
        _parse_policy(p, f"$.policies[{i}]", scenario, mode, step) for i, p in enumerate(pol_obj)
    ]

    scheduler = _parse_scheduler(
        doc.get("scheduler", {"kind": "round_robin"}), "$.scheduler", len(proxies)
    )

    run_obj = _object(doc.get("run", {}), "$.run")
    _require_keys(run_obj, {"max_steps"}, "$.run")
    max_steps = _int(run_obj.get("max_steps", 100), "$.run.max_steps")
    if max_steps < 1:
        raise ScenarioValidationError("$.run.max_steps", "expected an integer >= 1")

    out_obj = _object(doc.get("output", {}), "$.output")
    _require_keys(out_obj, {"trace", "summary"}, "$.output")

    return ScenarioFile(
        scenario=scenario,
        policies=policies,
        scheduler=scheduler,
        max_steps=max_steps,
        mode=mode,
        trace_path=_str(out_obj.get("trace", "trace.jsonl"), "$.output.trace"),
        summary_path=_str(out_obj.get("summary", "summary.json"), "$.output.summary"),
        alt_followers=alt,
        step=step or 1.0,
    )


def load_scenario_file(path: str | Path) -> ScenarioFile:
    p = Path(path)

    def unique_keys(pairs: list[tuple[str, object]]) -> dict:
        # json keeps the last of a repeated key; a scenario file may not repeat one
        seen: set[str] = set()
        for key, _ in pairs:
            if key in seen:
                raise ScenarioValidationError(str(p), f"duplicate key {key!r} in one object")
            seen.add(key)
        return dict(pairs)

    try:
        doc = json.loads(p.read_text(encoding="utf-8"), object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise ScenarioValidationError(str(p), f"invalid JSON at line {exc.lineno}: {exc.msg}")
    except OSError as exc:
        raise ScenarioValidationError(str(p), f"cannot read file: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise ScenarioValidationError(str(p), f"not UTF-8 text: invalid byte at offset {exc.start}")
    except RecursionError:
        raise ScenarioValidationError(str(p), "JSON nested too deeply")
    return parse_scenario_file(doc)


def run_scenario_file(sf: ScenarioFile) -> DynamicsTrace:
    """Play a scenario file's policies under its scheduler, mode and limits."""
    return run_dynamics(
        sf.scenario,
        sf.scheduler,
        sf.policies,
        max_steps=sf.max_steps,
        mode=sf.mode,
    )


def record_to_dict(rec: MoveRecord, step: float = 1.0) -> dict:
    """1-based ids and positions scaled by ``step`` for reports."""
    row = {
        "t": rec.t,
        "mover": rec.mover + 1,
        "from": rec.from_pos,
        "to": rec.to_pos,
        "winner_before": rec.winner_before + 1,
        "winner_after": rec.winner_after + 1,
        "wm_before": rec.wm_before,
        "wm_after": rec.wm_after,
        "median_after": rec.median_after,
        "delta_after": rec.delta_after,
    }
    return {key: _reported(value, step) for key, value in row.items()}


def trace_json(trace: DynamicsTrace, step: float = 1.0) -> str:
    lines = [
        json.dumps(record_to_dict(r, step), sort_keys=True, allow_nan=False) for r in trace.records
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def summarize(trace: DynamicsTrace, step: float = 1.0) -> dict:
    scenario = trace.scenario
    recs = trace.records
    initial, final = trace.initial_outcome(), trace.final_outcome()
    summary = {
        "schema_version": SCHEMA_VERSION,
        "steps": len(recs),
        "initial_outcome": initial,
        "final_outcome": final,
        "initial_delta": trace.initial_delta,
        "final_delta": trace.final_delta,
        "sc_initial": social_cost(scenario, initial),
        "sc_final": social_cost(scenario, final),
        "stop_reason": trace.stop_reason.value,
        "limit_delta": trace.limit_delta,
        "converged": trace.converged,
        "final_state": list(trace.final_declared),
    }
    if trace.interval_history:
        summary["median_intervals"] = [
            [iv.lo, iv.hi, iv.lo_open, iv.hi_open] for iv in trace.interval_history
        ]
    return {key: _reported(value, step) for key, value in summary.items()}


def _reported(x, step: float):
    """A value as written: a float times ``step``, exact and then rounded once,
    and null where not finite (RFC 8259 has no NaN or infinities)."""
    if isinstance(x, list):
        return [_reported(v, step) for v in x]
    if type(x) is not float:  # ids, counts and flags
        return x
    if step == 1.0 or not math.isfinite(x):
        return x if math.isfinite(x) else None
    from fractions import Fraction  # imported here: only a scaled grid needs it

    product = Fraction(x) * Fraction(repr(step))
    return float(product) if abs(product) <= sys.float_info.max else None


def summary_json(summary: dict) -> str:
    return json.dumps(summary, sort_keys=True, indent=2, allow_nan=False) + "\n"
