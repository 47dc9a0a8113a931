"""Span tracer at proxyline's layer boundaries.

Only the public functions in ``TRACED`` (and ``Scenario.__init__``) are
wrapped. Wrapping private helpers too doubles the cost of small calls, so
the tracer stays at layer boundaries and the benchmark reports its
overhead. Every module-level binding of a wrapped function is patched, not
only the one in its home module: ``dynamics``, ``manipulation``,
``metrics``, ``partial_info``, ``oracle`` and ``cli`` import ``wm_winner``
and friends by name, so patching ``model.wm_winner`` alone misses most calls.

Each call records a span (name, start, end, parent span, unit id) in
in-memory arrays; :meth:`Tracer.write` dumps them at the end. The self time
of a span is its duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import array
import gzip
import sys
import time
from contextlib import contextmanager

# (module, function) of every wrapped public function, layer by layer
TRACED = (
    ("model", "wm_winner"),
    ("model", "delegate"),
    ("model", "weighted_median"),
    ("model", "unweighted_median"),
    ("manipulation", "outcome_pieces"),
    ("manipulation", "is_better_response"),
    ("manipulation", "follower_manipulation_scan"),
    ("dynamics", "step"),
    ("dynamics", "run_dynamics"),
    ("partial_info", "observe"),
    ("partial_info", "update_belief"),
    ("partial_info", "minimax_regret_strategy"),
    ("oracle", "oracle_best_deviation"),
    ("metrics", "true_median"),
    ("metrics", "delta"),
)
UNIT = "unit"  # root span of one unit of work
SCENARIO_INIT = "model.Scenario.init"


class Tracer:
    def __init__(self, package: str = "proxyline"):
        self.package = package
        self.names = [UNIT, SCENARIO_INIT] + [f"{m}.{f}" for m, f in TRACED]
        self.name_of_span = array.array("H")
        self.parent = array.array("i")
        self.unit_of_span = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.stack: list[int] = []
        self.unit_id = 0
        self.followers_scanned = 0  # computed: sum of n over delegate calls
        self.moves = 0  # step calls that returned a move
        self._wrappers: dict[int, object] = {}  # id(original) -> wrapper
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_of_span.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.unit_of_span.append(self.unit_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    def _wrap(self, fn, name: str, after=None):
        name_id = self.names.index(name)
        open_, stack, start, end, clock = self._open, self.stack, self.start, self.end, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = open_(name_id)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx], end[idx] = t0, t1
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_followers(self, args, result) -> None:
        self.followers_scanned += len(args[0].follower_positions)

    def _count_move(self, args, result) -> None:
        self.moves += result is not None

    # -- patching ----------------------------------------------------------

    def _modules(self) -> list:
        pkg = self.package
        return [m for k, m in list(sys.modules.items()) if k == pkg or k.startswith(pkg + ".")]

    def install(self) -> None:
        mods = {m.__name__: m for m in self._modules()}
        model = mods[f"{self.package}.model"]
        if not self._wrappers:
            hooks = {"delegate": self._count_followers, "step": self._count_move}
            for mod, fn in TRACED:
                original = getattr(mods[f"{self.package}.{mod}"], fn)
                self._wrappers[id(original)] = self._wrap(original, f"{mod}.{fn}", hooks.get(fn))
            init = model.Scenario.__init__
            self._wrappers[id(init)] = self._wrap(init, SCENARIO_INIT)
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None and getattr(wrapper, "__wrapped__", None) is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        init = model.Scenario.__init__
        self._patches.append((model.Scenario, "__init__", init))
        model.Scenario.__init__ = self._wrappers[id(init)]

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    @contextmanager
    def unit(self, unit_id: int):
        """Trace one unit: patch, open its root span, unpatch."""
        self.unit_id = unit_id
        self.install()
        idx = self._open(0)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            self.start[idx], self.end[idx] = t0, t1
            self.uninstall()

    # -- results -----------------------------------------------------------

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        return [self.end[i] - self.start[i] - child[i] for i in range(len(self.start))]

    def summary(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, total self time in s), for every traced name."""
        calls = dict.fromkeys(self.names, 0)
        self_s = dict.fromkeys(self.names, 0.0)
        for i, s in enumerate(self.self_times()):
            name = self.names[self.name_of_span[i]]
            calls[name] += 1
            self_s[name] += s
        return {name: (calls[name], self_s[name]) for name in self.names}

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("unit\tspan\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                f.write(
                    f"{self.unit_of_span[i]}\t{i}\t{self.parent[i]}\t"
                    f"{self.names[self.name_of_span[i]]}\t{self.start[i]!r}\t{self.end[i]!r}\n"
                )
