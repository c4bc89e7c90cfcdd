"""Traced-run harness: spans around stopflow's public functions, from outside.

Wrappers are installed into every stopflow module namespace that binds the
wrapped object (``from .oracle import brute_force_win_probability`` leaves a
second binding in ``stopflow.verify``), and onto the class for methods, so
every call path is seen.  Spans are aggregated per (name, parent name):
the verification suite alone makes millions of ``observe`` calls, too many
to keep one record each.  A span's self time is its duration minus the
durations of its child spans.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

MARK = "__perfbench_wrapped__"

# (module, attribute path, span name).  A dotted attribute path names a
# method, wrapped on its class.
SPANS = (
    ("stopflow.observer", "Observer.__init__", "observer.Observer"),
    ("stopflow.observer", "Observer.observe", "observer.observe"),
    ("stopflow.strategies", "run_strategy", "strategies.run_strategy"),
    ("stopflow.strategies", "draw_rejection_count", "strategies.draw_rejection_count"),
    ("stopflow.simulate", "simulate", "simulate.simulate"),
    ("stopflow.simulate", "run_trial", "simulate.run_trial"),
    ("stopflow.simulate", "continuous_win_rate", "simulate.continuous_win_rate"),
    ("stopflow.exact", "exact_tables", "exact.exact_tables"),
    ("stopflow.exact", "v_mh", "exact.v_mh"),
    ("stopflow.exact", "success_probability_k2", "exact.success_probability_k2"),
    ("stopflow.exact", "bound_report", "exact.bound_report"),
    ("stopflow.oracle", "brute_force_win_probability", "oracle.brute_force_win_probability"),
    ("stopflow.oracle", "dp_optimal_value", "oracle.dp_optimal_value"),
    ("stopflow.oracle", "info_class_audit", "oracle.info_class_audit"),
    ("stopflow.oracle", "continuous_win_indicator", "oracle.continuous_win_indicator"),
    ("stopflow.cli", "main", "cli.main"),
) + tuple(
    ("stopflow.verify", f"check_{name}", f"verify.{name}")
    for name in (
        "formula_vs_oracle", "dp_vs_formula", "degenerate_half_cases", "golden_trace",
        "frozen_exact_values", "bounds_sandwich", "observer_invariants", "subset_counting",
        "max_given_components", "conditional_success_vs_states", "continuous_discrete",
        "strategy_dominance",
    )
)

# Counted, not timed: O(1) work that would drown in wrapper cost.
COUNTED_CALLS = (("stopflow.graph", "PathPower.__init__", "graph.PathPower"),)
# Generators whose yielded items are counted.
COUNTED_YIELDS = (("stopflow.exact", "compositions", "exact.compositions"),)


def _stopflow_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "stopflow" or name.startswith("stopflow."))]


def installed_wrappers() -> list[str]:
    """Names of stopflow attributes currently replaced by a wrapper."""
    found = []
    for module in _stopflow_modules():
        for attr, value in vars(module).items():
            if getattr(value, MARK, False):
                found.append(f"{module.__name__}.{attr}")
            if inspect.isclass(value):
                found.extend(f"{module.__name__}.{attr}.{a}" for a, v in vars(value).items()
                             if getattr(v, MARK, False))
    return found


class Tracer:
    """Aggregated spans and counts for one traced pass.

    ``clock`` times the spans; run.py passes one that stops while the
    calibration kernel runs inside a call, so no span is charged for it.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        # stats[(name, parent)] = [calls, total seconds, self seconds]
        self.stats: dict[tuple[str, str | None], list] = {}
        self.counts: Counter = Counter()
        self._stack: list[list] = [[None, 0.0]]  # [name, seconds in children]
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------

    def _timed(self, name: str, fn):
        stats, stack, clock = self.stats, self._stack, self._clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            parent = stack[-1]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                parent[1] += dur
                row = stats.get((name, parent[0]))
                if row is None:
                    row = stats[name, parent[0]] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += dur
                row[2] += dur - frame[1]

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _yield_counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[name + ".yielded"] += 1
                yield item

        return wrapper

    # -- installation --------------------------------------------------------

    def _replace(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _install_one(self, module_name: str, path: str, make) -> None:
        module = sys.modules[module_name]
        if "." in path:
            cls_name, meth = path.split(".")
            cls = getattr(module, cls_name)
            wrapper = make(vars(cls)[meth])
            setattr(wrapper, MARK, True)
            self._replace(cls, meth, wrapper)
            return
        original = getattr(module, path)
        wrapper = make(original)
        setattr(wrapper, MARK, True)
        for mod in _stopflow_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._replace(mod, attr, wrapper)

    def install(self) -> None:
        if installed_wrappers():
            raise RuntimeError("tracing wrappers are already installed")
        try:
            for module, path, name in SPANS:
                self._install_one(module, path, functools.partial(self._timed, name))
            for module, path, name in COUNTED_CALLS:
                self._install_one(module, path, functools.partial(self._counted, name))
            for module, path, name in COUNTED_YIELDS:
                self._install_one(module, path, functools.partial(self._yield_counted, name))
        except BaseException:
            self.remove()
            raise

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    # -- results -------------------------------------------------------------

    def calls(self, name: str, parent: str | None = ...) -> int:
        return sum(row[0] for (n, p), row in self.stats.items()
                   if n == name and (parent is ... or p == parent))

    def self_seconds(self, name: str) -> float:
        return sum(row[2] for (n, _), row in self.stats.items() if n == name)

    def table(self) -> list[dict]:
        """Aggregated spans, largest self time first."""
        rows = [
            {"name": n, "parent": p, "calls": r[0], "total_s": r[1], "self_s": r[2]}
            for (n, p), r in self.stats.items()
        ]
        return sorted(rows, key=lambda r: -r["self_s"])
