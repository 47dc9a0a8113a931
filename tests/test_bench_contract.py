"""The benchmark's pinned call graph, checked in the test suite.

``bench/selftest.py`` counts the traced calls of a few Example 1 probes
(one ``step``, one ``delta``, one ``observe`` and a small oracle scan)
against hand counts. A benchmark run whose counts differ reads incorrect,
so a change to the call graph fails here first.
"""

import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_selftest_call_counts(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # selftest imports ``tracer`` from bench/
    spec = importlib.util.spec_from_file_location("bench_selftest", BENCH / "selftest.py")
    selftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(selftest)
    assert selftest.run_selftest() == []
