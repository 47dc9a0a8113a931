"""The benchmark's pinned call graph and input shapes, checked in the test
suite.

``bench/selftest.py`` counts the traced calls of a few Example 1 probes
(one ``step``, one ``delta``, one ``observe`` and a small oracle scan)
against hand counts. A benchmark run whose counts differ reads incorrect,
so a change to the call graph fails here first. The dynamics workloads'
scenarios must take the selected median band, not the full follower sort,
and one unit of each must play the pinned moves.
"""

import hashlib
import importlib.util
from pathlib import Path

import pytest

import proxyline
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
    assert len(band) < 1_000  # the levels keep 688 (n = 10^5) and 619 (n = 10^4)
    k = (n + m - 1) // 2
    assert r <= k - m - 1 and k + 2 <= r + len(band)
    want = sorted(sc.follower_positions)[r : r + len(band)]
    assert len(band) == len(want) and all(x is y for x, y in zip(band, want))


@pytest.mark.parametrize(
    "name, seed, digest",
    [
        ("dyn_large_n", 11, "bc0436a3ee03cabd6c5928db42e47f32"),
        ("dyn_large_n", 1501, "80e3bb251a307f1c53d0975604120e10"),
        ("dyn_many_proxies", 11, "88bf94770afd5efb13c06f2eeba609f2"),
        ("dyn_many_proxies", 1501, "4df0bf4fec5a143ed21e4d38203be763"),
    ],
)
def test_dynamics_move_digests(monkeypatch, name, seed, digest):
    # one unit's moves, hashed as the benchmark's run digest hashes them: a
    # change to any move record or the stop fails here, not only in a
    # benchmark run
    workload = _load(monkeypatch, "workloads").WORKLOADS[name](seed)
    ok, text = workload.check(workload.build(proxyline)(0))
    assert ok
    assert hashlib.sha256(text.encode()).hexdigest()[:32] == digest
