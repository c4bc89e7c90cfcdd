"""The benchmark binds package names from outside: deleting one fails here.

``perfbench/tracer.py`` wraps the functions it lists in ``SPANS`` by name,
and the benchmark's setup reads ``exact_tables.cache_clear``.  Without this
test a removed name shows only when the benchmark runs.
"""
import importlib.util
from pathlib import Path

import stopflow.cli  # the tracer wraps cli.main too
import stopflow.exact

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_bound_name_and_restores_them():
    tracer = load_tracer()
    with tracer.Tracer():
        assert "stopflow.simulate.run_trial" in tracer.installed_wrappers()
    assert tracer.installed_wrappers() == []


def test_cold_cache_hook_exists():
    assert callable(stopflow.exact.exact_tables.cache_clear)
