"""The benchmark's pinned call graph and input shapes, checked in the test
suite.

``bench/selftest.py`` counts the traced calls of a few Example 1 probes
(one ``step``, one ``delta``, one ``observe`` and a small oracle scan)
against hand counts. A benchmark run whose counts differ reads incorrect,
so a change to the call graph fails here first. The dynamics workloads'
scenarios must take the selected median band, not the full follower sort.
"""

import importlib.util
from pathlib import Path

import pytest

from proxyline import Scenario

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(monkeypatch, name):
    monkeypatch.syspath_prepend(str(BENCH))  # bench modules import each other from bench/
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_selftest_call_counts(monkeypatch):
    assert _load(monkeypatch, "selftest").run_selftest() == []


@pytest.mark.parametrize("name", ["dyn_large_n", "dyn_many_proxies"])
def test_dynamics_workloads_select_the_median_band(monkeypatch, name):
    workload = _load(monkeypatch, "workloads").WORKLOADS[name](1501)
    sc = Scenario(tuple(workload.peaks), tuple(workload.followers))
    n, m = workload.n, workload.m
    r, band = sc.median_band
    assert len(band) < n // 4
    k = (n + m - 1) // 2
    assert r <= k - m - 1 and k + 2 <= r + len(band)
    want = sorted(sc.follower_positions)[r : r + len(band)]
    assert len(band) == len(want) and all(x is y for x, y in zip(band, want))
