"""CLI surface: run/check/replicate, schemas, determinism, exit codes."""

import copy
import functools
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import proxyline
from proxyline import (
    PolicyKind, PolicySpec, Scenario, Scheduler, Space, StopReason, claims, cli, dynamics,
    fixtures, run_dynamics, true_median,
)
from proxyline.cli import main
from proxyline.errors import ScenarioValidationError
from proxyline.fixtures import REPLICATIONS, fixtures_dir, replicate
from proxyline.scenario_io import load_scenario_file, parse_scenario_file


def fixture_path(name):
    return str(fixtures_dir() / f"{name}.json")


def strict_loads(text):
    """json.loads that refuses NaN and the infinities, as RFC 8259 does."""

    def reject(constant):
        raise ValueError(f"non-RFC 8259 constant {constant}")

    return json.loads(text, parse_constant=reject)


class TestRun:
    def test_appendix_a_summary_values(self, tmp_path):
        code = main(["--output-dir", str(tmp_path), "run", fixture_path("appendix_a")])
        assert code == 0
        summary = json.loads((tmp_path / "appendix_a_summary.json").read_text())
        assert summary["final_outcome"] == 5.0
        assert summary["sc_initial"] == 84.0
        assert summary["sc_final"] == 86.0
        assert summary["stop_reason"] == "pne"
        trace_lines = (tmp_path / "appendix_a_trace.jsonl").read_text().splitlines()
        assert len(trace_lines) == summary["steps"] == 6
        first = json.loads(trace_lines[0])
        assert first["mover"] == 5 and first["to"] == 10.0  # 1-based ids in reports

    def test_appendix_b_summary_converges(self, tmp_path):
        code = main(["--output-dir", str(tmp_path), "run", fixture_path("appendix_b")])
        assert code == 0
        summary = json.loads((tmp_path / "appendix_b_summary.json").read_text())
        assert abs(summary["final_outcome"] - 25.0) <= 1e-6
        assert summary["sc_final"] == 235.0
        assert summary["stop_reason"] in ("oscillation_detected", "max_steps")
        assert summary["converged"] is True
        intervals = summary["median_intervals"]
        assert intervals[0][1] == 30.0
        assert intervals[1][:2] == [-0.5, 30.0]
        assert intervals[2][:2] == [-0.5, 27.0]

    def test_example3_summary(self, tmp_path):
        code = main(["--output-dir", str(tmp_path), "run", fixture_path("example3")])
        assert code == 0
        summary = json.loads((tmp_path / "example3_summary.json").read_text())
        assert summary["stop_reason"] == "oscillation_detected"
        assert abs(summary["limit_delta"] - 0.5) <= 1e-6
        assert summary["converged"] is False  # a 2-cycle between -1/2 and +1/2

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["--output-dir", str(out), "run", fixture_path("appendix_a")]) == 0
        assert (a / "appendix_a_trace.jsonl").read_bytes() == (b / "appendix_a_trace.jsonl").read_bytes()
        assert (a / "appendix_a_summary.json").read_bytes() == (b / "appendix_a_summary.json").read_bytes()

    # sha256 of every file that `run` writes for the committed fixtures. A
    # change to any byte of a trace or summary must update this table
    # on purpose.
    FIXTURE_OUTPUT_SHA256 = {
        "appendix_a_summary.json": "91baafb40cdfe4b185191516ed4b8038988bb65dbb788574e6e1725ab08d8c1f",
        "appendix_a_trace.jsonl": "333cd8219b741325db471551820e31cc5d25db574409bfb72b22e6986a37af4a",
        "appendix_b_summary.json": "efe5ab8794391551bbb6a23f805b62c2ef4641c4e510062f0f63c905eea43467",
        "appendix_b_trace.jsonl": "e8d135da5bca7c0a334f3361bed1434dc919ed5a0b30b7a49c0547da364dee9d",
        "example1_summary.json": "b255054191c6a3569157b47c8d36810e1b1b233a7c64d43fc2f93878fac6c29a",
        "example1_trace.jsonl": "c1ef0ebef3813547b0ec867666e9c7d7e01a789a83f627f2592d808071b7d133",
        "example2_summary.json": "1b1d9167582ef18f75eccb8e2e12475afd1fcec10c4b960a047ff5ef0e503703",
        "example2_trace.jsonl": "ce272a2ea63ea10158d5d58cb43ad0799e58b80ef9efb262e03e603fc853a589",
        "example3_summary.json": "c56bf3688894a767697f91789f17441e2d81b90ab8a618dcccb5344d736ddc2c",
        "example3_trace.jsonl": "2b658785f28a3698e70589acaa79e321a6ffba17cfaabc34109ffb51c773ebfe",
        "fig3_summary.json": "617d87bafbeb25de6465983ad5540480a7edc7941191f8e2257ea6a26ed94fe4",
        "fig3_trace.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "fig5_summary.json": "6c0bb34be11c7706e8bf9b313947a77bd7b2bcecba8396462175e2b26f8cc8ff",
        "fig5_trace.jsonl": "30dd0a50ee7165bbce72a890e82915e4d11945321a6c48c8af378b1da20d70af",
        "fig7_summary.json": "ccace4bfbbc0ba45ec301902eefc79734f925286d0d7827bae0f6dcf753d8781",
        "fig7_trace.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "footnote_summary.json": "d8ba3d3e5546ab6eace4d8d065f94b862fe35aefca17c3fe88f0d37cb86c6e2b",
        "footnote_trace.jsonl": "496b3c3b6652064ab1cad98333005b8fa08392f9052eda884cf9649bf6618e3f",
        "theorem2_fig2_summary.json": "d722d31321c1c64e48d6227418711c53819a4ea5c862c788308d4a82cca98ba9",
        "theorem2_fig2_trace.jsonl": "3bfea4314afef460f32e0ace6e3eb0c6a545c07f83cf53898952b6a412a3059c",
    }

    def test_fixture_outputs_match_committed_digests(self, tmp_path):
        for path in sorted(fixtures_dir().glob("*.json")):
            assert main(["--output-dir", str(tmp_path), "run", str(path)]) == 0
        written = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()
        }
        assert written == self.FIXTURE_OUTPUT_SHA256

    def test_summary_reparses(self, tmp_path):
        main(["--output-dir", str(tmp_path), "run", fixture_path("example1")])
        summary = json.loads((tmp_path / "example1_summary.json").read_text())
        assert summary["schema_version"] == 1

    @pytest.mark.parametrize(
        "content", [None, "dir", b"\xff\xfe{}", b"[" * 100_000],
        ids=["missing", "directory", "not_utf8", "deeply_nested"],
    )
    def test_missing_file_exits_2(self, tmp_path, capsys, content):
        path = tmp_path / "in.json"
        if content == "dir":
            path.mkdir()
        elif content is not None:
            path.write_bytes(content)
        assert main(["--output-dir", str(tmp_path / "out"), "run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1

    def test_duplicate_key_exits_2(self, tmp_path, capsys):
        text = (fixtures_dir() / "example1.json").read_text()
        assert text.count('"proxies"') == 1
        dup = tmp_path / "dup.json"
        dup.write_text(text.replace('"proxies"', '"proxies": [7.0, 9.0], "proxies"'))
        assert main(["--output-dir", str(tmp_path / "out"), "run", str(dup)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {dup}: duplicate key 'proxies' in one object\n"

    def test_position_whose_grid_quotient_overflows_exits_2(self, tmp_path, capsys):
        doc = json.loads((fixtures_dir() / "example1.json").read_text())
        doc["scenario"]["proxies"] = [1e308, 2e-10]
        doc["scenario"]["space"] = {"kind": "discrete", "step": 1e-10}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        assert main(["--output-dir", str(tmp_path / "out"), "run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "scenario.proxies[0]" in err
        assert err.count("\n") == 1

    def test_no_proxies_exits_2(self, tmp_path, capsys):
        doc = json.loads((fixtures_dir() / "example1.json").read_text())
        doc["scenario"]["proxies"] = []
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(doc))
        assert main(["--output-dir", str(tmp_path / "out"), "run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == "error: $.scenario.proxies: at least one proxy required\n"

    def test_malformed_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        assert main(["--output-dir", str(tmp_path), "run", str(bad)]) == 2

    def test_outputs_are_strict_json(self, tmp_path):
        for path in sorted(fixtures_dir().glob("*.json")):
            out = tmp_path / path.stem
            assert main(["--output-dir", str(out), "run", str(path)]) == 0
            summary, trace = sorted(out.glob("*summary.json")), sorted(out.glob("*trace.jsonl"))
            assert len(summary) == len(trace) == 1
            strict_loads(summary[0].read_text())
            for line in trace[0].read_text().splitlines():
                strict_loads(line)

    def test_values_past_float_range_are_null(self, tmp_path):
        # the social costs overflow to inf; RFC 8259 has no inf, so they are null
        doc = json.loads((fixtures_dir() / "example1.json").read_text())
        doc["scenario"]["proxies"] = [-1.7e308, 1.7e308]
        doc["scenario"]["followers"] = [1e308]
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["--output-dir", str(out), "run", str(path)]) == 0
        summary = strict_loads((out / "example1_summary.json").read_text())
        assert summary["sc_initial"] is None and summary["steps"] > 0
        for line in (out / "example1_trace.jsonl").read_text().splitlines():
            strict_loads(line)

    def test_unbounded_interval_end_is_null(self, tmp_path):
        assert main(["--output-dir", str(tmp_path), "run", fixture_path("appendix_b")]) == 0
        summary = json.loads((tmp_path / "appendix_b_summary.json").read_text())
        assert summary["median_intervals"][0][0] is None

    def test_unwritable_trace_path_exits_2(self, tmp_path, capsys):
        doc = json.loads((fixtures_dir() / "example1.json").read_text())
        doc["output"]["trace"] = "nosuchdir/t.jsonl"
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["--output-dir", str(out), "run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: cannot write {out / 'nosuchdir/t.jsonl'}: No such file or directory\n"

    def test_unwritable_summary_path_leaves_no_trace(self, tmp_path, capsys):
        doc = json.loads((fixtures_dir() / "example1.json").read_text())
        doc["output"]["summary"] = "nosuchdir/s.json"
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["--output-dir", str(out), "run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: cannot write {out / 'nosuchdir/s.json'}: No such file or directory\n"
        assert list(out.iterdir()) == []

    def test_scripted_winner_move_under_partial_info(self, tmp_path, capsys):
        # the winner at -1 moves to 0.5 and still wins; it crosses the median
        # 0, which follows it to 0.5, so the interval grows to hold 0.5 and
        # keeps it when the other proxy joins it there
        doc = json.loads((fixtures_dir() / "example1.json").read_text())
        doc["mode"] = "partial_info"
        doc["policies"] = [{"kind": "scripted", "positions": [0.5]}] * 2
        doc["scheduler"] = {"kind": "scripted", "order": [1]}
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc))
        assert main(["--output-dir", str(tmp_path), "run", str(path)]) == 0
        summary = json.loads((tmp_path / "example1_summary.json").read_text())
        assert summary["steps"] == 2 and summary["final_outcome"] == 0.5
        assert summary["median_intervals"] == [
            [None, 0.25, True, False], [None, 0.5, True, False], [None, 0.5, True, False]
        ]
        assert main(["check", str(path)]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_output_dir_under_a_file_exits_2(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "x"
        assert main(["--output-dir", str(out), "run", fixture_path("example1")]) == 2
        assert capsys.readouterr().err == f"error: cannot write {out}: Not a directory\n"

    def test_median_interval_of_huge_positions_is_finite(self, tmp_path):
        doc = json.loads((fixtures_dir() / "appendix_b.json").read_text())
        doc["scenario"] = {"proxies": [1e308, 1.7e308], "followers": [1.2e308],
                           "space": {"kind": "continuous"}}
        doc["policies"] = [{"kind": "minimax_regret"}] * 2
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        assert main(["--output-dir", str(tmp_path), "run", str(path)]) == 0
        summary = json.loads((tmp_path / "appendix_b_summary.json").read_text())
        assert summary["median_intervals"][0] == [None, 1.35e308, True, False]

    def test_subnormal_proxies_under_partial_info(self, tmp_path):
        # both midpoints round to the winner's position -2e-323, where it
        # wins: the first poll is the point [-2e-323, -2e-323]
        doc = json.loads((fixtures_dir() / "appendix_b.json").read_text())
        doc["scenario"] = {"proxies": [-2.5e-323, -2e-323, -1.5e-323], "followers": [],
                           "space": {"kind": "continuous"}}
        doc["policies"] = [{"kind": "minimax_regret"}] * 3
        path = tmp_path / "subnormal.json"
        path.write_text(json.dumps(doc))
        assert main(["--output-dir", str(tmp_path), "run", str(path)]) == 0
        summary = json.loads((tmp_path / "appendix_b_summary.json").read_text())
        assert summary["median_intervals"][0] == [-2e-323, -2e-323, False, False]

    def test_max_steps_override(self, tmp_path):
        code = main([
            "--output-dir", str(tmp_path), "run", fixture_path("example3"), "--max-steps", "3",
        ])
        assert code == 0
        summary = json.loads((tmp_path / "example3_summary.json").read_text())
        assert summary["steps"] == 3


class TestSchema:
    def base_doc(self):
        return json.loads((fixtures_dir() / "example1.json").read_text())

    def test_unknown_top_level_field_rejected(self):
        doc = self.base_doc()
        doc["bogus"] = 1
        with pytest.raises(ScenarioValidationError, match="bogus"):
            parse_scenario_file(doc)

    def test_unknown_scenario_field_rejected(self):
        doc = self.base_doc()
        doc["scenario"]["extra"] = []
        with pytest.raises(ScenarioValidationError, match="extra"):
            parse_scenario_file(doc)

    def test_wrong_schema_version_rejected(self):
        doc = self.base_doc()
        doc["schema_version"] = 2
        with pytest.raises(ScenarioValidationError, match="schema_version"):
            parse_scenario_file(doc)

    def test_policy_count_must_match(self):
        doc = self.base_doc()
        doc["policies"] = doc["policies"][:1]
        with pytest.raises(ScenarioValidationError, match="policies"):
            parse_scenario_file(doc)

    @pytest.mark.parametrize(
        "section, key, value, path",
        [
            ("run", "max_steps", 2.9, "$.run.max_steps"),
            ("run", "max_steps", True, "$.run.max_steps"),
            ("run", "max_steps", "ten", "$.run.max_steps"),
            ("run", "oscillation_window", 1.5, "$.run.oscillation_window"),
            ("run", "alpha", 0.9, "$.run.alpha"),
            ("policies", "truth_oriented", "no", "$.policies[0].truth_oriented"),
            ("policies", "fraction", "x", "$.policies[0].fraction"),
            ("policies", "alpha1", math.inf, "$.policies[0].alpha1"),
            ("policies", "decay", True, "$.policies[0].decay"),
            ("policies", "positions", [math.nan], "$.policies[0].positions[0]"),
            ("scenario", "proxies", [math.nan, 1.5], "$.scenario.proxies[0]"),
            ("scenario", "proxies", [True, 1.5], "$.scenario.proxies[0]"),
            ("scenario", "followers", [0, "a"], "$.scenario.followers[1]"),
            ("scenario", "space", [], "$.scenario.space"),
            ("scenario", "space", {"kind": "discrete", "step": "a"}, "$.scenario.space.step"),
            ("scenario", "tie_break", {"delegation_tie": "lower_proxy_index"},
             "$.scenario.tie_break"),
            ("scheduler", "order", [2, True], "$.scheduler.order[1]"),
            (None, "schema_version", True, "$.schema_version"),
            (None, "schema_version", 1.0, "$.schema_version"),
            (None, "scheduler", [], "$.scheduler"),
            (None, "run", [], "$.run"),
            (None, "output", "out", "$.output"),
            ("output", "trace", 5, "$.output.trace"),
            # fields the chosen kind ignores, and grid steps the model rejects
            ("scenario", "space", {"kind": "discrete", "step": 0}, "$.scenario.space.step"),
            ("scenario", "space", {"kind": "discrete", "step": -0.5}, "$.scenario.space.step"),
            ("scenario", "space", {"kind": "continuous", "step": 1}, "$.scenario.space.step"),
            ("scenario", "space", {"kind": "discrete", "step": 1}, "$.scenario.proxies[1]"),
            ("policies", "alpha1", 0.25, "$.policies[0].alpha1"),
            ("policies", "decay", 0.5, "$.policies[0].decay"),
            ("policies", "positions", [1.0], "$.policies[0].positions"),
            ("policies", "kind", "oscillating_alpha", "$.policies[0].fraction"),
            (None, "mode", "partial_info", "$.policies[0].truth_oriented"),
            (None, "scheduler", {"kind": "round_robin", "order": [1]}, "$.scheduler.order"),
            # 1-based proxy ids out of range (example1 has 2 proxies)
            ("scheduler", "order", [0], "$.scheduler.order[0]"),
            ("scheduler", "order", [1, 3], "$.scheduler.order[1]"),
            # a parameter out of its range: the constructor's error, at the field
            ("policies", "fraction", 5.0, "$.policies[0].fraction"),
            ("oscillating_alpha", "alpha1", 0.0, "$.policies[0].alpha1"),
            ("oscillating_alpha", "decay", 1.0, "$.policies[0].decay"),
            ("run", "max_steps", 0, "$.run.max_steps"),
            ("run", "max_steps", -3, "$.run.max_steps"),
            # integers beyond float range
            pytest.param("scenario", "proxies", [10**400, 1.5], "$.scenario.proxies[0]",
                         id="huge_int_proxy"),
            pytest.param("policies", "fraction", -(10**400), "$.policies[0].fraction",
                         id="huge_int_fraction"),
        ],
    )
    def test_mistyped_field_rejected(self, tmp_path, section, key, value, path):
        doc = self.base_doc()
        if section is None:
            doc[key] = value
        elif section == "policies":
            doc["policies"][0][key] = value
        elif section == "oscillating_alpha":  # a policy that reads alpha1 and decay
            doc["policies"][0] = {"kind": section, key: value}
        elif section == "scheduler":
            doc["scheduler"] = {"kind": "scripted", key: value}
        else:
            doc[section][key] = value
        with pytest.raises(ScenarioValidationError) as exc:
            parse_scenario_file(doc)
        assert exc.value.path == path
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["--output-dir", str(tmp_path), "run", str(bad)]) == 2

    @pytest.mark.parametrize(
        "policy, space, mode, path",
        [
            ({"kind": "minimax_regret"}, None, "full_info", "$.policies[1].kind"),
            ({"kind": "oscillating_alpha"}, 0.5, "full_info", "$.policies[1].kind"),
            ({"kind": "discrete_best_response"}, None, "full_info", "$.policies[1].kind"),
            ({"kind": "scripted", "positions": [0.5, 0.25]}, 0.5, "full_info",
             "$.policies[1].positions[1]"),
            ({"kind": "scripted", "truth_oriented": True}, None, "partial_info",
             "$.policies[1].truth_oriented"),
            # kinds whose proposals read the followers have none under partial_info
            ({"kind": "monotone_better_response"}, None, "partial_info", "$.policies[1].kind"),
            ({"kind": "discrete_best_response"}, 0.5, "partial_info", "$.policies[1].kind"),
            ({"kind": "oscillating_alpha"}, None, "partial_info", "$.policies[1].kind"),
        ],
    )
    def test_policy_that_cannot_play_here_is_reported_at_its_field(
        self, tmp_path, capsys, policy, space, mode, path
    ):
        # the checks that depend on the space or the mode are PolicySpec.validate's
        doc = self.base_doc()
        doc["policies"] = [{"kind": "scripted"}, policy]
        doc["mode"] = mode
        if space is not None:
            doc["scenario"]["space"] = {"kind": "discrete", "step": space}
        with pytest.raises(ScenarioValidationError) as exc:
            parse_scenario_file(doc)
        assert exc.value.path == path
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["--output-dir", str(tmp_path), "run", str(bad)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: ")

    # an in-range value of each policy parameter, none of them the default
    POLICY_VALUES = {"fraction": 0.75, "alpha1": 2.0, "decay": 0.125, "positions": [2.0, -1.0]}

    @pytest.mark.parametrize("kind", list(PolicyKind), ids=lambda kind: kind.value)
    def test_every_policy_kind_round_trips(self, kind):
        # each parameter the kind reads goes to PolicySpec as written
        policy = dynamics._POLICIES[kind]
        values = {name: self.POLICY_VALUES[name] for name in policy.params}
        if policy.full:  # truth_oriented plays under full information only
            values["truth_oriented"] = True
        doc = {
            "schema_version": 1,
            "scenario": {"proxies": [-1.0, 2.0], "followers": [0.0],
                         "space": {"kind": policy.space or "discrete"}},
            "policies": [{"kind": kind.value, **values}] * 2,
            "mode": "full_info" if policy.full else "partial_info",
        }
        assert parse_scenario_file(doc).policies == [PolicySpec(kind, **values)] * 2

    def test_all_committed_fixtures_load(self):
        for path in sorted(fixtures_dir().glob("*.json")):
            load_scenario_file(path)


def _times(v, step):
    """``v`` with each float x in it replaced by x·step, exact and then rounded once."""
    if isinstance(v, (list, tuple)):
        return type(v)(_times(x, step) for x in v)
    if isinstance(v, dict):
        return {key: _times(x, step) for key, x in v.items()}
    return float(Fraction(v) * Fraction(repr(step))) if type(v) is float else v


def _on_step(doc, step):
    """``doc`` on a grid of ``step``: each position k written as the literal of k·step."""
    doc = copy.deepcopy(doc)
    doc["scenario"]["space"] = {"kind": "discrete", "step": step}
    for obj in [doc["scenario"], *doc["policies"]]:
        for key in ("proxies", "followers", "positions"):
            if key in obj:
                obj[key] = _times(obj[key], step)
    return doc


def _written(doc):
    """The trace rows and the summary that ``run`` writes for ``doc``."""
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "in.json").write_text(json.dumps(doc))
        with redirect_stdout(io.StringIO()):
            assert main(["--output-dir", tmp, "run", str(Path(tmp) / "in.json")]) == 0
        out = doc.get("output", {})
        rows = (Path(tmp) / out.get("trace", "trace.jsonl")).read_text().splitlines()
        return [json.loads(row) for row in rows], json.loads(
            (Path(tmp) / out.get("summary", "summary.json")).read_text())


class TestScaledGrid:
    """A file on a grid of step s plays the game of its indices x / s: it writes
    what its step-1 twin writes, each float times s, exact and then rounded
    once (so 7 on step 0.1 reads 0.7, not 7 * 0.1 = 0.7000000000000001)."""

    @pytest.mark.parametrize("step", [0.1, 0.3, 0.25, 0.001])
    def test_file_writes_its_index_twin_scaled(self, step):
        rng = random.Random(2026)
        twins = [json.loads((fixtures_dir() / "appendix_a.json").read_text())]
        for _ in range(12):  # random games on indices in [-20, 20]
            m, n = rng.randint(2, 4), rng.randint(0, 6)
            ints = [float(rng.randint(-20, 20)) for _ in range(m + n)]
            policy = {"kind": rng.choice(["discrete_best_response", "monotone_better_response"])}
            twins.append({"schema_version": 1, "run": {"max_steps": 500}, "policies": [policy] * m,
                          "scenario": {"proxies": ints[:m], "followers": ints[m:]}})
        for doc in twins:
            assert _written(_on_step(doc, step)) == _times(_written(_on_step(doc, 1)), step)

    def test_alt_followers_and_values_past_float_range(self):
        # positions ±1e308 on step 2 are the indices ±5e307, whose social cost
        # 1e308 is 2e308 on the file's grid: null, as on step 1, where it is inf
        scenario = {"proxies": [-1e308, -1e308, 1e308], "followers": [], "alt_followers": [4.0]}
        doc = {"schema_version": 1, "policies": [{"kind": "scripted"}] * 3, "scenario": scenario}
        one, two = _on_step(doc, 1), _on_step(doc, 1)
        two["scenario"]["space"]["step"] = 2
        assert _written(two)[1]["sc_initial"] is None and _written(two) == _written(one)
        assert parse_scenario_file(two).alt_followers == (2.0,)
        two["scenario"]["alt_followers"] = [4.0, 3.0]
        with pytest.raises(ScenarioValidationError) as exc:
            parse_scenario_file(two)
        assert exc.value.path == "$.scenario.alt_followers[1]"


def _slots(doc, path=()):
    """The path of every value below the root of a JSON document."""
    if isinstance(doc, dict):
        items = doc.items()
    else:
        items = enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _slots(value, path + (key,))


FUZZ_DOCS = {p.stem: json.loads(p.read_text()) for p in sorted(fixtures_dir().glob("*.json"))}
FUZZ_SLOTS = [(name, slot) for name, doc in FUZZ_DOCS.items() for slot in _slots(doc)]
# strings from a small alphabet, so a drawn output path stays a plain file name
FUZZ_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text("ab1", max_size=4)
    | st.sampled_from([10**400, -(10**400), 1e308, -1e308, 1.7e308]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text("ab", max_size=3), inner,
                                                                max_size=2),
    max_leaves=6,
)


class TestParserFuzz:
    @given(slot=st.sampled_from(FUZZ_SLOTS), value=FUZZ_VALUES)
    @example(slot=("example1", ("scenario", "proxies", 0)), value=10**400)
    @settings(max_examples=400, deadline=None)
    def test_mutated_fixture_is_refused_or_runs(self, slot, value):
        # one value of a committed fixture replaced: the parser refuses it
        # with a path, or the file runs and exits 0 or 2, never a traceback
        name, path = slot
        doc = copy.deepcopy(FUZZ_DOCS[name])
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        try:
            parse_scenario_file(doc)
        except ScenarioValidationError:
            return
        with tempfile.TemporaryDirectory() as tmp:
            file = Path(tmp) / "in.json"
            file.write_text(json.dumps(doc))
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                code = main(["--output-dir", tmp, "run", str(file), "--max-steps", "200"])
        assert code in (0, 2)


class TestCheck:
    def test_random_suite_passes(self, capsys):
        assert main(["check", "--random", "8", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "lemma1_equivalence" in out and "FAIL" not in out

    @pytest.mark.parametrize("name", sorted(p.stem for p in fixtures_dir().glob("*.json")))
    def test_every_fixture_checks_and_replays(self, name, capsys):
        assert main(["check", fixture_path(name)]) == 0
        assert "PASS  trace_replays" in capsys.readouterr().out

    def test_fig7_pair_file(self, capsys):
        assert main(["check", fixture_path("fig7_pair")]) == 0
        out = capsys.readouterr().out
        assert "identical_observed_state" in out

    @pytest.mark.parametrize(
        "argv", [["check", "--random", "2"], ["check", fixture_path("fig7_pair")]],
        ids=["random", "file"],
    )
    def test_every_row_is_one_claim_function(self, argv, capsys, monkeypatch):
        # a row is named after the claim function that decides it: refuting
        # that one function fails that one row, with the function's detail
        assert main(argv) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        names = [row[1] for row in rows]
        assert len(set(names)) == len(names)
        assert all(row[2] == "[2/2]" for row in rows if argv[1] == "--random")  # one row a seed
        for name in names:
            refuted = functools.wraps(getattr(claims, name))(lambda *args: (False, "refuted"))
            with monkeypatch.context() as patch:
                patch.setattr(claims, name, refuted)
                assert main(argv) == 1
            out = capsys.readouterr().out.splitlines()
            assert [(line.split()[1], line.split()[-1]) for line in out if line.startswith("FAIL")] \
                == [(name, "refuted")]

    def test_false_pne_stop_fails_with_a_detail(self, capsys):
        # both scripted proxies pass at [0, 2], so the run stops as pne at the
        # true median 0, which the row before the claim accepted; yet proxy 0
        # (peak -1) wins at -1, a strict better response
        sc = Scenario((-1.0, 2.0), (0.0,), Space.discrete(1.0))
        trace = run_dynamics(sc, Scheduler.round_robin(), [PolicySpec(PolicyKind.SCRIPTED)] * 2,
                             max_steps=5, initial_declared=[0.0, 2.0])
        assert trace.stop_reason == StopReason.PNE and trace.final_outcome() == true_median(sc)
        cli._print_check(*cli._row(claims.discrete_monotone_converges_to_median, trace))
        assert capsys.readouterr().out == (
            "FAIL  discrete_monotone_converges_to_median  stop pne, outcome 0.0, med 0.0,"
            " not an equilibrium: a proxy has a strict better response\n"
        )

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_no_random_instances_is_an_error(self, count, capsys):
        assert main(["check", "--random", count]) == 2
        assert "PASS" not in capsys.readouterr().out

    @pytest.mark.parametrize("proxies", [[-1e308, 1e308], [-1e6, 1e6]], ids=["overflow", "over_budget"])
    def test_wide_scenario_checks_without_a_grid(self, tmp_path, capsys, proxies):
        # both scans try breakpoints of the positions only, so no width is too wide
        doc = json.loads((fixtures_dir() / "example1.json").read_text())
        doc["scenario"]["proxies"] = proxies
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc))
        assert main(["check", str(path)]) == 0
        out, err = capsys.readouterr()
        assert "PASS  theorem1_no_follower_manipulation" in out and "FAIL" not in out
        assert "PASS  theorem2_oracle_agreement" in out
        assert err == ""

    def test_distances_past_float_max_compare_exactly(self, tmp_path, capsys):
        # proxy 1 reporting the median 1e308 moves the outcome from 1.7e308
        # to 1e308: its distance falls from 3.4e308 to 2.7e308, both past float max
        doc = json.loads((fixtures_dir() / "example1.json").read_text())
        doc["scenario"]["proxies"] = [-1.7e308, 1.7e308]
        doc["scenario"]["followers"] = [1e308]
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        assert main(["check", str(path)]) == 0
        assert "PASS  theorem2_oracle_agreement" in capsys.readouterr().out

    def test_rounded_tie_is_decided_exactly(self, tmp_path, capsys):
        # 0.3 - 0.0 and 0.3 - (-1e-20) round to the same distance, but 0.0 is
        # nearer: both winner routes name proxy 1
        doc = json.loads((fixtures_dir() / "example1.json").read_text())
        doc["scenario"]["proxies"] = [-1e-20, 0.0]
        doc["scenario"]["followers"] = [0.3]
        path = tmp_path / "tie.json"
        path.write_text(json.dumps(doc))
        assert main(["check", str(path)]) == 0
        assert "PASS  lemma1_equivalence" in capsys.readouterr().out

    # sha256 of the stdout of `check --random 300 --seed 7`. A change to any
    # row, tally or verdict must update it on purpose.
    RANDOM_300_SEED_7_SHA256 = "665f9a197c275be788ef08b1fbee82bf760134cdca42ddf47d09ccaa021f2967"

    def test_random_300_output_is_pinned(self, capsys):
        assert main(["check", "--random", "300", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == self.RANDOM_300_SEED_7_SHA256

    def test_jobs_flag(self):
        assert main(["--jobs", "2", "check", "--random", "4", "--seed", "3"]) == 0


class TestParser:
    def test_reused_parser_leaks_no_state(self, tmp_path, capsys):
        # one check run, first on a freshly built parser, then repeated between
        # commands that use every subcommand, global option and exit path of it
        probe = ["check", "--random", "3", "--seed", "7"]

        def probe_output():
            assert main(probe) == 0
            return capsys.readouterr().out

        cli._parser.cache_clear()
        first = probe_output()
        others = [
            ["--output-dir", str(tmp_path), "run", fixture_path("example1"), "--max-steps", "3"],
            ["replicate", "example1"],
            ["check", fixture_path("appendix_b")],
        ]
        for argv in others:
            assert main(argv) == 0
            capsys.readouterr()
            assert probe_output() == first
        with pytest.raises(SystemExit) as exc:
            main(["check", "--random", "many"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert probe_output() == first

    @staticmethod
    def fresh_python(*args):
        """The stdout of ``python *args`` in a new process that imports this
        package from where the tests do; a non-zero exit fails the test."""
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                              env=env, check=True).stdout

    def test_parser_is_built_on_first_use(self):
        # not at import, which would add to every process's start-up; nor
        # does a serial run import the process pool (and with it logging)
        out = self.fresh_python("-c", (
            "import sys; import proxyline.cli as cli; n = cli._parser.cache_info().currsize;"
            " cli.main(['replicate', 'example1']);"
            " print(n, cli._parser.cache_info().currsize, 'concurrent.futures' in sys.modules)"
        ))
        assert out.splitlines()[-1] == "0 1 False"

    def test_random_check_loads_no_file_or_replication_layer(self):
        # this module imports both at its top, so only a new process shows it;
        # nor does it import fractions or decimal, which only a scaled grid
        # or an overflowing sum needs
        out = self.fresh_python("-c", (
            "import sys; import proxyline.cli as cli; cli.main(['check', '--random', '1']);"
            " print(sorted({'proxyline.fixtures', 'proxyline.scenario_io', 'fractions',"
            " 'decimal'} & sys.modules.keys()))"
        ))
        assert out.splitlines()[-1] == "[]"

    def test_package_loads_its_verification_layers_on_first_use(self):
        # the package returns each lazy name from its module and never keeps it
        out = self.fresh_python("-c", (
            "import sys; import proxyline as p;"
            " print(sorted({'proxyline.claims', 'proxyline.oracle'} & sys.modules.keys()));"
            " print(all(getattr(p, name) is not None for name in p.__all__));"
            " print(p.oracle_best_deviation is p.oracle.oracle_best_deviation);"
            " p.check_delta_lemmas; p.check_delta_lemmas;"
            " print('check_delta_lemmas' in vars(p), 'GridSpec' in dir(p))"
        ))
        assert out.splitlines() == ["[]", "True", "True", "False True"]

    def test_unknown_package_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            proxyline.no_such_name

    @pytest.mark.parametrize(
        "argv, claims_loaded",
        [(["run", fixture_path("example1")], False), (["check", fixture_path("example1")], True),
         (["replicate", "example1"], True)],
        ids=["run", "check", "replicate"],
    )
    def test_command_imports_its_layers_in_a_new_process(self, tmp_path, argv, claims_loaded):
        # each command runs in a new process, and only those that check a
        # claim load the claims and the oracles they call
        self.fresh_python("-m", "proxyline.cli", "--output-dir", str(tmp_path), *argv)
        out = self.fresh_python("-c", (
            "import sys; import proxyline.cli as cli;"
            f" print(cli.main({['--output-dir', str(tmp_path), *argv]!r}),"
            " sorted({'proxyline.claims', 'proxyline.oracle'} & sys.modules.keys()))"
        ))
        layers = ["proxyline.claims", "proxyline.oracle"] if claims_loaded else []
        assert out.splitlines()[-1] == f"0 {layers}"


class TestReplicate:
    def test_unknown_name_exits_2(self):
        assert main(["replicate", "does_not_exist"]) == 2

    @pytest.mark.parametrize("name", sorted(REPLICATIONS))
    def test_every_fixture_passes(self, name):
        assert main(["replicate", name]) == 0

    @pytest.mark.parametrize(
        "name, tamper",
        [
            ("example1", lambda r: r.record("stray", 0.0)),  # no expected entry
            ("fig7_indistinguishable", lambda r: r.record("stray", 0.0)),  # no expected file
            ("example1", lambda r: r.values.pop("median")),  # entry never produced
        ],
    )
    def test_expected_diff_fails_both_ways(self, monkeypatch, name, tamper):
        play = REPLICATIONS[name]
        monkeypatch.setitem(REPLICATIONS, name, lambda r: (play(r), tamper(r)))
        assert not replicate(name).ok
        assert main(["replicate", name]) == 1

    def test_missing_dominating_set_fails_without_raising(self, monkeypatch):
        # the report names the failed check and the bounds it could not record
        monkeypatch.setattr(fixtures.pinfo, "dominating_set_nonwinner", lambda *args: None)
        report = replicate("appendix_b")
        failed = {c.name for c in report.checks if not c.ok}
        assert {"dominating_p2_one_open_interval", "dominating_p2_lo", "dominating_p2_hi"} <= failed
        assert main(["replicate", "appendix_b"]) == 1

    def test_every_fixture_file_is_replicated(self, monkeypatch):
        loaded = set()
        load = fixtures.load_fixture
        monkeypatch.setattr(fixtures, "load_fixture", lambda name: loaded.add(name) or load(name))
        for name in REPLICATIONS:
            replicate(name)
        assert loaded == {path.stem for path in fixtures_dir().glob("*.json")}
