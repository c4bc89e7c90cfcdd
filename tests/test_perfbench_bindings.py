"""The benchmark binds package names from outside: deleting one fails here.

``perfbench/tracer.py`` wraps the functions it lists in ``SPANS`` by name,
and the benchmark's setup reads ``exact_tables.cache_clear``.  Without this
test a removed name shows only when the benchmark runs.  The Monte Carlo
workloads, ``verify`` and ``exact`` also run here, at their smallest, with the
benchmark's own checks.
"""
import importlib.util
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import stopflow.cli  # the tracer wraps cli.main too
import stopflow.exact
import stopflow.verify

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


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


def test_verify_shares_its_walks_inside_the_tracer(monkeypatch):
    # verify_all calls each check by its module name, so the tracer's
    # wrapper times every check once, and the checks still share one set
    # pass per (n, k) under it.
    verify = stopflow.verify
    passes = Counter()
    original = verify.set_transitions
    monkeypatch.setattr(verify, "set_transitions",
                        lambda g: passes.update([(g.n, g.k)]) or original(g))
    tracer = load_tracer()
    with tracer.Tracer() as traced:
        assert "stopflow.verify.check_formula_vs_oracle" in tracer.installed_wrappers()
        assert verify.verify_all(4, bounds_max_n=30).passed
        assert passes and set(passes.values()) == {1}, passes
        names = [name for _, _, name in tracer.SPANS if name.startswith("verify.")]
        assert len(names) == 12
        assert {name: traced.calls(name) for name in names} == dict.fromkeys(names, 1)
        check = verify.check_formula_vs_oracle(4)
    assert isinstance(check, verify.Check) and check.passed


def run_tiny(workload):
    """Run the workload once, tiny and untraced, and assert that its checks
    passed; the run writes only under perfbench/out/, which git ignores."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
            "--seconds", "0.5", "--trace", "0", "--tiny"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0), done.stdout


@pytest.mark.parametrize("workload", ["mc_slack", "mc_blind"])
def test_monte_carlo_workloads_run_correctly(workload):
    # The run checks every call's output, and reruns calls on the same seed
    # and with --threads 2, which must give the same wins.
    run_tiny(workload)


@pytest.mark.parametrize("workload", ["oracle_verify", "exact_sweep"])
def test_verify_and_exact_workloads_run_correctly(workload):
    # The run checks verify's check names and details, and exact's values
    # against the benchmark's own reference, so a renamed check or a changed
    # output fails here before the benchmark runs.
    run_tiny(workload)
