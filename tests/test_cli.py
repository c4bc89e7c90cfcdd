import ast
import dataclasses
import importlib
import inspect
import itertools
import json
import math
import textwrap
from collections import Counter
from pathlib import Path

import pytest

from stopflow import ObservationEvent, Observer, PathPower, Strategy, __version__, run_strategy
from stopflow import cli as cli_module
from stopflow import oracle as oracle_module
from stopflow import verify as verify_module
from stopflow.cli import fraction_decimal, main, parse_grid
from stopflow.exact import COMPOSITION_GUARD, composition_count, success_probability_exact
from stopflow.oracle import ResourceGuardError
from stopflow.verify import (
    BOUNDS_GUARD,
    Check,
    check_bounds_sandwich,
    check_conditional_success_vs_states,
    check_continuous_discrete,
    check_degenerate_half_cases,
    check_dp_vs_formula,
    check_formula_vs_oracle,
    check_frozen_exact_values,
    check_golden_trace,
    check_max_given_components,
    check_observer_invariants,
    check_strategy_dominance,
    check_subset_counting,
    verify_all,
)
from fractions import Fraction


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def test_fraction_decimal_rendering():
    assert fraction_decimal(Fraction(9, 20)) == "0.45"
    assert fraction_decimal(Fraction(1, 2)) == "0.5"
    assert fraction_decimal(Fraction(13, 30)) == "0.43333333333333333333"
    assert fraction_decimal(Fraction(2, 3)) == "0.66666666666666666667"


def test_parse_grid():
    assert list(parse_grid("12", "--n")) == [12]
    assert list(parse_grid("10..14", "--n")) == [10, 11, 12, 13, 14]
    assert list(parse_grid("10..30:10", "--n")) == [10, 20, 30]
    # A range: a guard reads a grid's last value without building the grid.
    assert parse_grid("10..31:10", "--n") == range(10, 32, 10)
    from stopflow.cli import UsageError

    with pytest.raises(UsageError):
        parse_grid("abc", "--n")
    with pytest.raises(UsageError):
        parse_grid("9..5", "--n")


# ---------------------------------------------------------------------------
# exact
# ---------------------------------------------------------------------------

def test_exact_text_output(capsys):
    code, out, _ = run_cli(capsys, "exact", "--n", "5", "--k", "2")
    assert code == 0
    assert "9/20 = 0.45" in out


def test_exact_half_case(capsys):
    code, out, _ = run_cli(capsys, "exact", "--n", "4", "--k", "2")
    assert code == 0
    assert "1/2 = 0.5" in out
    code, out, _ = run_cli(capsys, "exact", "--n", "5", "--k", "4")
    assert code == 0
    assert "1/2 = 0.5" in out


def test_exact_json_output(capsys):
    code, out, _ = run_cli(capsys, "exact", "--n", "6", "--k", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["tool"]["version"] == __version__
    assert doc["config"]["mode"] == "exact"
    assert doc["report"]["probability_fraction"] == "13/30"
    per_m = {row["m"]: row["arrangements"] for row in doc["report"]["per_m"]}
    assert sum(Fraction(w, m * math.comb(6, m)) for m, w in per_m.items()) == Fraction(13, 30)


def test_exact_usage_errors(capsys):
    code, _, err = run_cli(capsys, "exact", "--n", "5", "--k", "9")
    assert code == 1 and "error" in err
    code, _, err = run_cli(capsys, "exact", "--n", "5")
    assert code == 1
    code, _, err = run_cli(capsys, "exact", "--n", "x", "--k", "1")
    assert code == 1


def test_exact_guards_its_n_before_any_table(monkeypatch, capsys):
    # The same cap as scaling: past it, exit 3 before exact_tables starts.
    tables = []

    def reached(n, k):
        tables.append(n)
        raise ValueError("reached exact_tables")

    monkeypatch.setattr(cli_module, "exact_tables", reached)
    for n, k in ((BOUNDS_GUARD + 1, 1), (10 ** 400, 2)):
        code, out, err = run_cli(capsys, "exact", "--n", str(n), "--k", str(k))
        assert (code, out, tables) == (3, "", [])
        assert err == (f"stopflow: resource guard: exact is guarded at "
                       f"n <= {BOUNDS_GUARD} (got n={n})\n")
    code, _, _ = run_cli(capsys, "exact", "--n", str(BOUNDS_GUARD), "--k", "1")
    assert (code, tables) == (1, [BOUNDS_GUARD])


def test_exact_guards_its_composition_count_before_any_table(monkeypatch, capsys):
    # Within the n cap the tables still grow fast in k: exit 3 on their
    # composition count, after the n cap and the k check, before any table.
    tables = []

    def reached(n, k):
        tables.append((n, k))
        raise ValueError("reached exact_tables")

    monkeypatch.setattr(cli_module, "exact_tables", reached)
    for n, k, count in ((60, 30, 4_072_719), (BOUNDS_GUARD, 20, composition_count(BOUNDS_GUARD, 20))):
        code, out, err = run_cli(capsys, "exact", "--n", str(n), "--k", str(k))
        assert (code, out, tables) == (3, "", [])
        assert err == (f"stopflow: resource guard: exact is guarded at compositions <= "
                       f"{COMPOSITION_GUARD} (got compositions={count})\n")
    code, _, err = run_cli(capsys, "exact", "--n", "60", "--k", "60")
    assert (code, err) == (1, "stopflow: error: need 1 <= k < n, got k=60, n=60\n")
    code, _, _ = run_cli(capsys, "exact", "--n", "45", "--k", "22")  # 304,799 compositions
    assert (code, tables) == (1, [(45, 22)])


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_running_out_of_memory_exits_3_without_a_traceback(monkeypatch, capsys):
    # The tail readers hold O(n) lists per trial, so a large in-range n can
    # exhaust memory; main reports it as a resource guard.
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli_module, "simulate", exhausted)
    code, out, err = run_cli(capsys, "simulate", "--n", "33554431", "--k", "2",
                             "--strategy", "tau_n", "--trials", "1")
    assert (code, out) == (3, "")
    assert err == "stopflow: resource guard: out of memory\n"
    assert "Traceback" not in err


def test_simulate_csv_reruns_are_byte_identical(tmp_path, capsys):
    out = tmp_path / "report.csv"
    argv = ["simulate", "--n", "6", "--k", "2", "--strategy", "tau_n",
            "--trials", "2000", "--seed", "9", "--format", "csv",
            "--out", str(out)]
    assert main(argv) == 0
    first = out.read_bytes()
    assert main(argv) == 0
    capsys.readouterr()
    assert out.read_bytes() == first
    lines = out.read_text().splitlines()
    assert "n,k,strategy,trials,wins,estimate,stderr,ci_lo,ci_hi,seed" in lines
    assert any(line.startswith("# command stopflow simulate") for line in lines)


def test_simulate_json_stable_modulo_wall_time(capsys):
    argv = ["simulate", "--n", "5", "--k", "2", "--strategy", "tau_p_star",
            "--p", "0.5", "--trials", "500", "--seed", "4", "--format", "json"]
    code, out_a, _ = run_cli(capsys, *argv)
    code_b, out_b, _ = run_cli(capsys, *argv)
    assert code == code_b == 0
    doc_a, doc_b = json.loads(out_a), json.loads(out_b)
    doc_a["report"].pop("wall_time")
    doc_b["report"].pop("wall_time")
    assert doc_a == doc_b
    assert doc_a["config"]["strategy"] == "tau_p_star(p=0.5)"


def test_simulate_env_seed_fallback(capsys, monkeypatch):
    monkeypatch.setenv("STOPFLOW_SEED", "321")
    argv = ["simulate", "--n", "5", "--k", "1", "--strategy", "first_max",
            "--trials", "400", "--format", "json"]
    _, out_env, _ = run_cli(capsys, *argv)
    monkeypatch.delenv("STOPFLOW_SEED")
    _, out_explicit, _ = run_cli(capsys, *argv + ["--seed", "321"])
    assert json.loads(out_env)["report"]["wins"] == json.loads(out_explicit)["report"]["wins"]
    assert json.loads(out_env)["report"]["seed"] == 321


@pytest.mark.parametrize("source", ["--seed", "STOPFLOW_SEED"])
@pytest.mark.parametrize("seed", ["-1", str(2**64), str(2**64 + 7)])
def test_simulate_seed_outside_64_bits_is_usage_error(source, seed, capsys, monkeypatch):
    argv = ["simulate", "--n", "5", "--k", "1", "--strategy", "first_max", "--trials", "10"]
    if source == "--seed":
        argv += ["--seed", seed]
    else:
        monkeypatch.setenv(source, seed)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert f"usage error: {source} must lie in 0..2**64-1, got {seed}" in err


def test_simulate_threshold_auto_matches_classical_value(capsys):
    # side oracle: the classical full-information threshold value
    n = 200
    r = int(n / math.e)
    classical = (r / n) * sum(1.0 / (j - 1) for j in range(r + 1, n + 1))
    argv = ["simulate", "--n", "200", "--k", "199", "--strategy", "classical_threshold",
            "--r", "auto", "--trials", "20000", "--seed", "31", "--format", "json"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    rep = json.loads(out)["report"]
    sigma = max(rep["stderr"], 1e-9)
    assert abs(rep["estimate"] - classical) <= 4 * sigma


def test_simulate_usage_errors(capsys):
    code, _, err = run_cli(capsys, "simulate", "--n", "5", "--k", "2",
                           "--strategy", "bogus")
    assert code == 1 and "unknown strategy" in err
    code, _, err = run_cli(capsys, "simulate", "--n", "5", "--k", "2",
                           "--strategy", "tau_p_star")
    assert code == 1  # missing --p
    code, _, err = run_cli(capsys, "simulate", "--n", "5", "--k", "2",
                           "--strategy", "tau_n", "--trials", "0")
    assert code == 1


@pytest.mark.parametrize("strategy, flag, value", [
    ("tau_n", "--p", "0.3"),
    ("first_max", "--p", "0.3"),
    ("classical_threshold", "--p", "0.3"),
    ("tau_n", "--r", "2"),
    ("first_max", "--r", "auto"),
    ("tau_p_star", "--r", "2"),
])
def test_simulate_flag_the_strategy_ignores_is_usage_error(strategy, flag, value, capsys):
    argv = ["simulate", "--n", "10", "--k", "2", "--strategy", strategy, flag, value,
            "--trials", "10"]
    if strategy == "tau_p_star":
        argv += ["--p", "0.5"]
    if strategy == "classical_threshold":
        argv += ["--r", "3"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert f"usage error: {flag} applies only to --strategy" in err and strategy in err


@pytest.mark.parametrize("argv, foreign", [
    (["exact", "--n", "5", "--k", "2"], ["--p", "0.3", "--trials", "5"]),
    (["simulate", "--n", "6", "--k", "2", "--strategy", "tau_n", "--trials", "10"],
     ["--epsilon", "0.5"]),
    (["verify", "--n-max", "4", "--bounds-n", "30"], ["--n", "5"]),
    (["scaling", "--k", "2", "--n", "5..9"], ["--seed", "3"]),
    (["trace", "--n", "4", "--k", "1", "--perm", "4 3 2 1"], ["--strategy", "tau_n"]),
    (["bounds", "--n", "50", "--k", "2"], ["--r", "3", "--threads", "4"]),
])
def test_flag_another_subcommand_reads_is_usage_error(argv, foreign, capsys):
    # Each subcommand takes only the flags its handler reads, plus --out,
    # --format and --config; the rest must fail, not be ignored or taken as
    # an abbreviation (verify --n for --n-max).
    assert run_cli(capsys, *argv)[0] == 0
    code, out, err = run_cli(capsys, *argv, *foreign)
    assert code == 1 and out == ""
    assert "unrecognized arguments: " + " ".join(foreign) in err


def test_shared_parser_leaks_no_state_between_calls(tmp_path, capsys):
    # main builds its parser once per process; a config value, or a failed
    # parse, must not become the next call's default.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("trials=7\n")
    base = ["simulate", "--n", "6", "--k", "2", "--strategy", "tau_n", "--format", "json"]
    code, out, _ = run_cli(capsys, *base, "--config", str(cfg))
    assert code == 0 and json.loads(out)["config"]["trials"] == 7
    code, out, _ = run_cli(capsys, "simulate", "--n", "6", "--k", "2", "--bogus")
    assert code == 1 and out == ""
    code, out, _ = run_cli(capsys, *base)
    assert code == 0 and json.loads(out)["config"]["trials"] == 10000


def test_simulate_rejects_a_huge_n_before_any_pool(capsys, monkeypatch):
    # Two CPUs and two spans would start a pool; an n past the guard must fail first,
    # under every strategy, also one whose order would fit an index but not memory.
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    pools = []
    simulate_module = importlib.import_module("stopflow.simulate")
    monkeypatch.setattr(simulate_module, "_process_pool",
                        lambda workers: pools.append(workers) or pytest.fail("pool started"))
    monkeypatch.setattr(simulate_module, "_count_wins",
                        lambda *a: pytest.fail("trial started"))
    strategies = {"tau_n": {}, **OTHER_STRATEGIES}
    for n, (strategy, extra) in itertools.product((10 ** 400, 10 ** 12), strategies.items()):
        code, out, err = run_cli(capsys, "simulate", "--n", str(n), "--k", "2",
                                 "--strategy", strategy, *(f"--{f}={v}" for f, v in extra.items()),
                                 "--trials", "4", "--threads", "2")
        assert (code, out, pools) == (3, "", []), (n, strategy)
        assert err == (f"stopflow: resource guard: simulate is guarded at "
                       f"n <= {simulate_module.SIMULATE_GUARD} (got n={n})\n")


def test_simulate_guards_the_largest_n_one_draw_can_serve(capsys, monkeypatch):
    # tau_p_star draws a trial's uniforms as getrandbits(64 * n), whose bit count
    # is a C int: past the guard it must fail before the first shuffle, not after.
    simulate_module = importlib.import_module("stopflow.simulate")
    guard = simulate_module.SIMULATE_GUARD
    assert guard == 33_554_431 and 64 * guard <= 2 ** 31 - 1 < 64 * (guard + 1)
    monkeypatch.setattr(simulate_module, "_count_wins",
                        lambda *a: pytest.fail("trial started"))
    code, out, err = run_cli(capsys, "simulate", "--n", "40000000", "--k", "2",
                             "--strategy", "tau_p_star", "--p", "0.5", "--trials", "1")
    assert (code, out) == (3, "")
    assert err == ("stopflow: resource guard: simulate is guarded at n <= 33554431 "
                   "(got n=40000000)\n")


def test_simulate_threads_below_one_is_usage_error(capsys):
    for threads in ("0", "-3"):
        code, out, err = run_cli(capsys, "simulate", "--n", "5", "--k", "2",
                                 "--strategy", "tau_n", "--threads", threads)
        assert code == 1 and out == ""
        assert f"--threads must be >= 1, got {threads}" in err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_small_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n-max", "5", "--bounds-n", "40")
    assert code == 0
    assert "verdict: all checks passed" in out
    assert "FAIL" not in out


def test_verify_json_verdict(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n-max", "4", "--bounds-n", "30",
                           "--skip-dp", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["passed"] is True
    names = {c["name"] for c in doc["report"]["checks"]}
    assert "formula_vs_oracle" in names
    assert "dp_vs_formula" not in names  # skipped


def test_verify_detects_injected_fault(capsys, monkeypatch):
    # off-by-one in the pending-inner bookkeeping must trip the suite
    original = Observer.observe

    def corrupted(self, pos):
        event = original(self, pos)
        return event._replace(pending_inner=event.pending_inner + 1)

    monkeypatch.setattr(Observer, "observe", corrupted)
    code, out, _ = run_cli(capsys, "verify", "--n-max", "4", "--bounds-n", "20")
    assert code == 2
    assert "FAIL" in out


def test_verify_reports_a_failed_class_audit(capsys, monkeypatch):
    # A canonical state that merges classes makes the audit raise; verify
    # must report that as the stop-value check's failure, not crash.
    monkeypatch.setattr("stopflow.oracle.canonical_info_state", lambda g, prefix: (len(prefix),))
    code, out, err = run_cli(capsys, "verify", "--n-max", "4")
    assert code == 2
    assert ("FAIL  conditional_success_vs_states: (n=3, k=1): two information classes "
            "share the canonical state (2,)\n") in out
    assert "verdict: FAILURES present" in out and "Traceback" not in err
    assert sum(line.startswith("FAIL") for line in out.splitlines()) == 1


def test_verify_checks_cap_n_max_themselves():
    # The four checks that read set passes run to the n_max they get, as
    # verify --n-max 8 reports them; the class checks cap it themselves.
    assert check_dp_vs_formula(9).detail == "20 (n,k) pairs equal up to n=7"
    at_8 = {
        check_observer_invariants: "316646 exhaustive runs up to n=8",
        check_max_given_components: "240 (m, c) cells match (h+1)/m",
        check_continuous_discrete: "224184 orderings agree up to n=8",
        check_strategy_dominance: "490 competing strategies dominated",
    }
    for check, detail in at_8.items():
        assert check(8).detail == detail, check.__name__
    assert check_conditional_success_vs_states(9) == check_conditional_success_vs_states(6)
    # Past its pass's guard each check raises, as formula_vs_oracle does.
    for check, limit in [(check_observer_invariants, 9), (check_max_given_components, 9),
                         (check_continuous_discrete, 9), (check_strategy_dominance, 16)]:
        with pytest.raises(ResourceGuardError, match=f"guarded at n_max <= {limit} "):
            check(limit + 1)


def test_checks_keep_their_signatures():
    # One protocol: a call returns its Check, and verify_all calls each check
    # by its name in this module.
    signatures = {
        check_formula_vs_oracle: "(n_max: 'int' = 8)",
        check_dp_vs_formula: "(n_max: 'int' = 7)",
        check_degenerate_half_cases: "(n_max: 'int' = 8)",
        check_golden_trace: "()",
        check_frozen_exact_values: "()",
        check_bounds_sandwich: "(max_n: 'int' = 200)",
        check_observer_invariants: "(n_max: 'int' = 7)",
        check_subset_counting: "(n_max: 'int' = 10)",
        check_max_given_components: "(n_max: 'int' = 7)",
        check_conditional_success_vs_states: "(n_max: 'int' = 6)",
        check_continuous_discrete: "(n_max: 'int' = 7)",
        check_strategy_dominance: "(n_max: 'int' = 7)",
    }
    for check, params in signatures.items():
        assert str(inspect.signature(check)) == f"{params} -> 'Check'", check.__name__
    assert check_frozen_exact_values() == Check(
        "frozen_exact_values", True, "2 goldens oracle-confirmed")


def test_verify_all_names_the_benchmark_checks():
    # The benchmark's oracle_verify workload accepts exactly these names; a
    # check added or renamed here must be added there in the same change.
    source = (Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py").read_text()
    assign = next(node for node in ast.parse(source).body if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets] == ["VERIFY_CHECKS"])
    expected = ast.literal_eval(assign.value)
    names = tuple(c.name for c in verify_all(4, bounds_max_n=30).checks)
    assert names == expected


def solo_checks(n_max, skip_dp=False):
    """verify_all's checks, in its order, each run by its standalone function."""
    checks = [check_formula_vs_oracle(n_max)]
    if not skip_dp:
        checks.append(check_dp_vs_formula(n_max))
    return tuple(checks) + (
        check_degenerate_half_cases(),
        check_golden_trace(),
        check_frozen_exact_values(),
        check_bounds_sandwich(200),
        check_observer_invariants(n_max),
        check_subset_counting(),
        check_max_given_components(n_max),
        check_conditional_success_vs_states(n_max),
        check_continuous_discrete(n_max),
        check_strategy_dominance(n_max),
    )


@pytest.mark.parametrize("n_max", [4, 5, 6, 7])
def test_verify_all_reports_the_standalone_checks(n_max):
    # verify_all shares one set pass per (n, k) among its checks; each
    # standalone check makes its own.  Verdicts and details must agree.
    solo = solo_checks(n_max)
    assert verify_all(n_max).checks == solo
    assert verify_all(n_max, skip_dp=True).checks == tuple(
        c for c in solo if c.name != "dp_vs_formula"
    )


def test_dp_checks_cap_n_max_at_the_dp_guard(monkeypatch):
    # A lowered guard shortens the checks that run the DP instead of making
    # verify raise mid-suite.
    for module in ("stopflow.oracle", "stopflow.verify"):
        monkeypatch.setattr(f"{module}.DP_GUARD", 5)
    assert check_dp_vs_formula(7).detail == "9 (n,k) pairs equal up to n=5"
    assert check_conditional_success_vs_states(7) == check_conditional_success_vs_states(5)


@pytest.mark.parametrize("field, change, check", [
    ("is_max", lambda e: not e.is_max, check_max_given_components),
    ("slack", lambda e: e.slack - 1, check_observer_invariants),
    # Both need the predecessor's met condition: persistence, and no
    # maximal arrival after exhaustion.
    ("slack", lambda e: e.slack + 1, check_observer_invariants),
    ("is_max", lambda e: not e.is_max, check_observer_invariants),
], ids=["is_max-components", "slack-negative", "slack-persistence", "is_max-exhaustion"])
def test_prefix_walk_checks_see_a_fault_at_one_time(monkeypatch, field, change, check):
    # A pass that skipped too much would pass these checks vacuously.  In
    # verify_all's shared set passes every check reports what it reports
    # alone.
    assert check(5).passed
    original = Observer.observe

    def corrupted(self, pos):
        event = original(self, pos)
        return event._replace(**{field: change(event)}) if event.t == 3 else event

    monkeypatch.setattr(Observer, "observe", corrupted)
    assert not check(5).passed
    assert verify_all(5).checks == solo_checks(5)


@pytest.mark.parametrize("field, change, check, detail", [
    ("is_max", lambda e: not e.is_max, check_max_given_components,
     "(n=5, k=2, m=2, c=1): 36/84 != 1/2"),
    ("slack", lambda e: -1, check_observer_invariants,
     "negative slack at (n=5, k=2), prefix (2, 1), t=2"),
], ids=["is_max-components", "slack-negative"])
def test_prefix_walk_checks_see_a_fault_at_one_prefix(monkeypatch, field, change, check, detail):
    # Corrupt the event of the prefix (2, 1) of (5, 2) only: the check that
    # owns the fact fails alone, and the shared set pass judges every other
    # prefix, and every other check, as before.
    original = Observer.observe

    def corrupted(self, pos):
        event = original(self, pos)
        if (self.g.n, self.g.k, pos) == (5, 2, 1) and self._arrived == [1, 2]:
            return event._replace(**{field: change(event)})
        return event

    monkeypatch.setattr(Observer, "observe", corrupted)
    failed = check(5)
    assert (failed.passed, failed.detail) == (False, detail)
    report = verify_all(5)
    assert report.checks == solo_checks(5)
    assert [c.name for c in report.checks if not c.passed] == [failed.name]


def corrupt_totals_into_234(monkeypatch, parents):
    """One pending inner vertex too many, with the slack to match, on the
    events of the transitions into {2, 3, 4} of (5, 2) from ``parents``."""
    original = Observer.observe

    def corrupted(self, pos):
        event = original(self, pos)
        if (self.g.n, self.g.k) == (5, 2) and self._arrived == [2, 3, 4] and (
                {2, 3, 4} - {pos} in parents):
            return event._replace(pending_inner=event.pending_inner + 1, slack=event.slack - 1)
        return event

    monkeypatch.setattr(Observer, "observe", corrupted)


@pytest.mark.parametrize("parent, prefix", [
    ({2, 4}, "(2, 4, 3)"),
    ({2, 3}, "(2, 3, 4)"),
], ids=["out-of-order", "sorted"])
def test_observer_invariants_see_totals_unlike_the_set(monkeypatch, parent, prefix):
    # Observing a set in any order must give the same totals.  Corrupting one
    # transition into {2, 3, 4}, whose arrival is not maximal, keeps the
    # slack formula and the other three invariants, and leaves every other
    # check's events and classes as they were: observer_invariants fails alone.
    corrupt_totals_into_234(monkeypatch, [parent])
    failed = check_observer_invariants(5)
    assert (failed.passed, failed.detail) == (
        False, f"totals differ from a recount of the set at (n=5, k=2), prefix {prefix}, t=3")
    report = verify_all(5)
    assert report.checks == solo_checks(5)
    assert [c.name for c in report.checks if not c.passed] == ["observer_invariants"]


def test_class_checks_certify_the_shipped_observer(monkeypatch):
    # The class walk observes nothing itself: a class records the event of
    # its first member's last transition from the set pass.  One pending
    # inner vertex too many on the arrival of 4 after {1} at (5, 2), the
    # event of the class of (1, 4), must fail the stop-value check, alone and
    # in verify_all.
    original = Observer.observe

    def corrupted(self, pos):
        event = original(self, pos)
        if (self.g.n, self.g.k, pos) == (5, 2, 4) and self._arrived == [1, 4]:
            return event._replace(pending_inner=event.pending_inner + 1)
        return event

    monkeypatch.setattr(Observer, "observe", corrupted)
    failed = Check("conditional_success_vs_states", False,
                   "(n=5, k=2, t=2): counted 1/3, formula 1/2")
    assert check_conditional_success_vs_states(5) == failed
    assert failed in verify_all(5).checks


def test_observer_invariants_recount_each_set(monkeypatch):
    # An observer wrong the same way on every transition into a set agrees
    # with itself; the recount by component_runs still sees it.
    corrupt_totals_into_234(monkeypatch, [{3, 4}, {2, 4}, {2, 3}])
    assert check_observer_invariants(5) == Check("observer_invariants", False, (
        "totals differ from a recount of the set at (n=5, k=2), prefix (2, 3, 4), t=3"))


def test_continuous_discrete_names_the_first_disagreeing_order(monkeypatch):
    # Flip the indicator on the (6, 2) orders whose sink arrives first: the
    # check, alone or in verify_all, must name the first of them.
    original = verify_module.continuous_win_indicator

    def flipped(g, arr):
        won = original(g, arr)
        return not won if (g.n, g.k) == (6, 2) and arr.p == 0.5 / 6 else won

    monkeypatch.setattr(verify_module, "continuous_win_indicator", flipped)
    detail = "disagreement at (n=6, k=2), order (1, 2, 3, 4, 5, 6)"
    assert check_continuous_discrete(7) == Check("continuous_discrete", False, detail)
    report = verify_all(7)
    assert not report.passed
    assert Check("continuous_discrete", False, detail) in report.checks


def test_verify_all_observes_every_prefix_and_judges_every_sink_prefix(monkeypatch):
    # The certification is brute force: verify_all(7) observes every set
    # transition, n 2^(n-1) per (n, k), on the shipped Observer: 4,092 for
    # the checks' shared set passes, and 4,088 and 1,400 in the class walks'
    # own set passes (cut at the sink for n = 3..7, in full for n = 3..6),
    # plus 15 in the golden trace.  It asks the shipped indicator about every
    # set of arrivals before the sink, 392 in all.  A speed-up that skips a
    # transition, or inlines the indicator, changes these counts, and every
    # event observed is the shipped ObservationEvent.
    calls = {"observe": 0, "indicator": 0, "not an ObservationEvent": 0}
    observe = Observer.observe
    indicator = verify_module.continuous_win_indicator

    def counted_observe(self, pos):
        calls["observe"] += 1
        event = observe(self, pos)
        calls["not an ObservationEvent"] += type(event) is not ObservationEvent
        return event

    def counted_indicator(g, arr):
        calls["indicator"] += 1
        return indicator(g, arr)

    monkeypatch.setattr(Observer, "observe", counted_observe)
    monkeypatch.setattr(verify_module, "continuous_win_indicator", counted_indicator)
    assert verify_all(7).passed
    assert calls == {"observe": 9_595, "indicator": 392, "not an ObservationEvent": 0}


def count_passes(monkeypatch):
    """Counters of verify's set passes by (n, k) and of its class walks by
    (n, k, pre_sink), as the checks call them."""
    sets, classes = Counter(), Counter()
    set_transitions, class_table = verify_module.set_transitions, verify_module._class_table

    def counted_sets(g):
        sets[g.n, g.k] += 1
        return set_transitions(g)

    def counted_classes(g, pre_sink=False):
        classes[g.n, g.k, pre_sink] += 1
        return class_table(g, pre_sink)

    monkeypatch.setattr(verify_module, "set_transitions", counted_sets)
    monkeypatch.setattr(verify_module, "_class_table", counted_classes)
    return sets, classes


def test_verify_all_walks_each_n_k_once(monkeypatch):
    # Every check judged on set transitions, the goldens included, reads one
    # shared set pass per (n, k).
    sets, _ = count_passes(monkeypatch)
    for n_max in (7, 8):
        sets.clear()
        assert verify_all(n_max).passed
        assert sets == Counter({(n, k): 1 for n in range(2, n_max + 1) for k in range(1, n)})


def test_verify_all_walks_only_the_checks_that_need_order(monkeypatch):
    # The threshold rules' wins, and every check judged on one transition's
    # events, come from the oracle's passes over arrived sets, so only the
    # class tables walk arrival prefixes: the DP check's, cut at the sink, up
    # to n = 7, and the state check's, in full, up to n = 6.  At n = 8 only
    # formula_vs_oracle runs, and it walks nothing.
    sets, classes = count_passes(monkeypatch)
    expect = Counter({(n, k, True): 1 for n in range(3, 8) for k in range(1, n)})
    expect.update({(n, k, False): 1 for n in range(3, 7) for k in range(1, n)})
    for n_max in (7, 8):
        classes.clear()
        assert verify_all(n_max).passed
        assert classes == expect, n_max
    sets.clear()
    classes.clear()
    assert check_strategy_dominance(7) == Check(
        "strategy_dominance", True, "350 competing strategies dominated")
    assert not sets and not classes


def test_verify_all_shares_no_stale_set_pass(monkeypatch):
    # The set passes are shared only inside one verify_all: a fault planted
    # after a passing run shows to a check called alone and to the next run.
    assert verify_all(5).passed
    original = verify_module.continuous_win_indicator
    monkeypatch.setattr(verify_module, "continuous_win_indicator",
                        lambda g, arr: not original(g, arr))
    detail = "disagreement at (n=4, k=1), order (1, 2, 3, 4)"
    assert check_continuous_discrete(5) == Check("continuous_discrete", False, detail)
    report = verify_all(5)
    assert [c for c in report.checks if not c.passed] == [
        Check("continuous_discrete", False, detail)]


def test_verify_all_leaves_nothing_shared_when_a_check_raises(monkeypatch):
    # The last check raises after the checks before it have shared their set
    # passes; none is kept, and a check called alone walks again.
    sets, _ = count_passes(monkeypatch)

    def broken(n_max=7):
        raise RuntimeError("broken check")

    monkeypatch.setattr(verify_module, "check_strategy_dominance", broken)
    with pytest.raises(RuntimeError, match="broken check"):
        verify_all(4, bounds_max_n=30)
    assert sets and verify_module._shared_events is None
    sets.clear()
    assert check_frozen_exact_values().passed
    assert sets == Counter({(5, 2): 1, (6, 2): 1})


@pytest.mark.parametrize("n_max, bounds_max_n, error", [
    (12, 5, ResourceGuardError), (4, 5, ValueError), (4, BOUNDS_GUARD + 1, ResourceGuardError),
], ids=["n_max-first", "bounds-below", "bounds-above"])
def test_verify_all_checks_every_range_before_any_pass(monkeypatch, n_max, bounds_max_n, error):
    # Out of range, verify_all fails before any set pass, class walk or row
    # pass, with the error the first check to guard it raises alone.
    sets, classes = count_passes(monkeypatch)
    rows = []
    original = verify_module.success_probabilities_exact
    monkeypatch.setattr(verify_module, "success_probabilities_exact",
                        lambda ns, k: rows.append(k) or original(ns, k))
    with pytest.raises(error) as raised:
        verify_all(n_max, bounds_max_n=bounds_max_n)
    assert type(raised.value) is error
    first = check_formula_vs_oracle if n_max > 9 else check_bounds_sandwich
    with pytest.raises(error) as alone:
        first(n_max if n_max > 9 else bounds_max_n)
    assert str(raised.value) == str(alone.value)
    assert not sets and not classes and not rows


def test_strategy_dominance_sees_a_threshold_miscount(monkeypatch):
    # A set pass with max(i - k, 1) for its "below" masks miscounts the
    # threshold rules' wins but keeps them under the slack rule's; the exact
    # counts at r = 0 and r = n, and the secretary counts at k = n - 1, fail it.
    source = textwrap.dedent(inspect.getsource(oracle_module._threshold_counts))
    assert source.count("max(i - k, 0)") == 1
    namespace = dict(vars(oracle_module))
    exec(source.replace("max(i - k, 0)", "max(i - k, 1)"), namespace)
    monkeypatch.setattr(verify_module, "_threshold_counts", namespace["_threshold_counts"])
    assert check_strategy_dominance(7) == Check(
        "strategy_dominance", False, "threshold r=0 wins 3 orders at (n=3, k=1), not 2")


def test_strategy_dominance_checks_the_secretary_counts(monkeypatch):
    # At k = n - 1 the threshold rules play the classical secretary problem:
    # one win moved off r = 1 stays under the slack rule and keeps r = 0 and
    # r = n exact, and only the secretary count sees it.
    original = verify_module._threshold_counts

    def miscounted(n, k):
        wins = original(n, k)
        if k == n - 1:
            wins[1] -= 1
        return wins

    monkeypatch.setattr(verify_module, "_threshold_counts", miscounted)
    assert check_strategy_dominance(7) == Check(
        "strategy_dominance", False, "threshold r=1 wins 2 orders at (n=3, k=2), not 3")


def test_formula_vs_oracle_guards_before_its_first_walk(monkeypatch):
    # Alone or first in verify_all, before any set pass or class walk.
    sets, classes = count_passes(monkeypatch)
    for run in (check_formula_vs_oracle, verify_all):
        with pytest.raises(ResourceGuardError,
                           match=r"guarded at n_max <= 9 \(got n_max=10\)") as err:
            run(10)
        assert not sets and not classes, run
        assert "force" not in str(err.value)  # the check takes no force to offer


def test_bounds_sandwich_owns_its_range(monkeypatch):
    # Outside its range the sandwich fails before any row pass, alone as in verify_all.
    passes = []
    original = verify_module.success_probabilities_exact
    monkeypatch.setattr(verify_module, "success_probabilities_exact",
                        lambda ns, k: passes.append(k) or original(ns, k))
    with pytest.raises(ResourceGuardError) as guard:
        check_bounds_sandwich(BOUNDS_GUARD + 1)
    assert str(guard.value) == (
        f"the bounds sandwich is guarded at bounds_max_n <= {BOUNDS_GUARD} "
        f"(got bounds_max_n={BOUNDS_GUARD + 1})"
    )
    with pytest.raises(ValueError) as empty:
        check_bounds_sandwich(5)
    assert type(empty.value) is ValueError
    assert str(empty.value) == "the bounds sandwich needs bounds_max_n >= 6, got 5"
    assert passes == []


def test_bounds_sandwich_certifies_the_shipped_report(monkeypatch):
    # The sandwich must read the bounds that bound_report ships, not its own copy.
    p = float(success_probability_exact(4, 1))
    monkeypatch.setattr("stopflow.exact.upper_bound", lambda n, k: 0.0)
    assert check_bounds_sandwich(30) == Check(
        "bounds_sandwich", False, f"(n=4, k=1): exact {p} >= upper 0.0"
    )


def test_bounds_sandwich_passes_at_its_guard():
    assert check_bounds_sandwich(BOUNDS_GUARD) == Check(
        "bounds_sandwich", True, "369 grid points sandwiched, k in 1..3, n <= 1000"
    )


def test_sandwich_and_scaling_make_one_row_pass_per_k(monkeypatch, capsys):
    passes = Counter()

    def counted(module):
        original = module.success_probabilities_exact

        def grid(ns, k):
            passes[module.__name__, k] += 1
            return original(ns, k)

        monkeypatch.setattr(module, "success_probabilities_exact", grid)

    counted(verify_module)
    counted(cli_module)
    assert check_bounds_sandwich(200).passed
    code, _, _ = run_cli(capsys, "scaling", "--k", "1..3", "--n", "10..200:10")
    assert code == 0
    assert passes == Counter({(module.__name__, k): 1 for module in (verify_module, cli_module)
                              for k in (1, 2, 3)})


def test_subset_counting_sees_a_table_fault(monkeypatch):
    # One V[m, h] entry off by one at (5, 2) must be named by its row.
    original = verify_module.exact_tables
    m, h = min(original(5, 2).V)

    def corrupted(n, k):
        tabs = original(n, k)
        if (n, k) != (5, 2):
            return tabs
        return dataclasses.replace(tabs, V={**tabs.V, (m, h): tabs.V[m, h] + 1})

    monkeypatch.setattr(verify_module, "exact_tables", corrupted)
    check = check_subset_counting()
    assert not check.passed
    assert check.detail.startswith(f"table mismatch at (n=5, k=2, m={m}): subsets ")


def test_frozen_exact_values_names_a_wrong_golden(monkeypatch):
    # Alone and in verify_all, with or without the exhaustive walk at (6, 2).
    monkeypatch.setitem(verify_module.GOLDEN_EXACT_VALUES, (6, 2), Fraction(13, 31))
    failed = Check("frozen_exact_values", False,
                   "(n=6, k=2): formula 13/30, oracle 13/30, expected 13/31")
    assert check_frozen_exact_values() == failed
    for n_max in (4, 7):
        report = verify_all(n_max)
        assert not report.passed
        assert failed in report.checks


@pytest.mark.parametrize("patch, failed", [
    (lambda mp: mp.setattr(verify_module, "GOLDEN_TRACE_STOP", 5), Check(
        "golden_trace", False,
        "stop record StopRecord(stop_index=6, chosen_position=1, win=True)")),
    (lambda mp: mp.setattr(verify_module, "GOLDEN_TRACE_PENDING_INNER", (0,) * 9), Check(
        "golden_trace", False, "pending-inner sequence (0, 0, 1, 2, 1, 1, 2, 1, 0)")),
    (lambda mp: mp.setitem(verify_module.GOLDEN_EXACT_VALUES, (5, 2), Fraction(9, 19)), Check(
        "frozen_exact_values", False, "(n=5, k=2): formula 9/20, oracle 9/20, expected 9/19")),
], ids=["trace-stop", "trace-pending-inner", "exact-value"])
def test_a_failing_check_reads_the_same_alone_and_in_verify_all(monkeypatch, patch, failed):
    patch(monkeypatch)
    assert getattr(verify_module, f"check_{failed.name}")() == failed
    report = verify_all(4, bounds_max_n=30)
    assert not report.passed
    assert [c for c in report.checks if not c.passed] == [failed]


def test_verify_rejects_ranges_that_check_nothing(capsys):
    # below n_max=4 continuous_discrete has no case; below 6 the k=3 bounds grid is empty
    for argv in (["--n-max", "0"], ["--n-max", "1"], ["--n-max", "3"], ["--bounds-n", "5"],
                 ["--n-max", "1", "--bounds-n", "0"]):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 1 and out == "", argv
        assert "error" in err
    with pytest.raises(ValueError):
        verify_all(n_max=3)
    with pytest.raises(ValueError):
        verify_all(n_max=4, bounds_max_n=5)


def test_verify_resource_guard(capsys):
    # verify_all raises check_formula_vs_oracle's own guard.
    with pytest.raises(ResourceGuardError) as guard:
        check_formula_vs_oracle(12)
    code, out, err = run_cli(capsys, "verify", "--n-max", "12")
    assert (code, out) == (3, "")
    assert err == f"stopflow: resource guard: {guard.value}\n"


def test_verify_guards_the_bounds_sandwich(capsys):
    # Its cost still grows without bound: past the guard it must fail at once.
    code, out, err = run_cli(capsys, "verify", "--bounds-n", "1001")
    assert code == 3 and out == ""
    assert err == ("stopflow: resource guard: the bounds sandwich is guarded at "
                   "bounds_max_n <= 1000 (got bounds_max_n=1001)\n")
    code, out, err = run_cli(capsys, "verify", "--bounds-n", "5")
    assert code == 1 and out == ""
    assert err == "stopflow: error: the bounds sandwich needs bounds_max_n >= 6, got 5\n"


# ---------------------------------------------------------------------------
# scaling
# ---------------------------------------------------------------------------

def test_scaling_csv_rows_and_skips(tmp_path, capsys):
    out = tmp_path / "scaling.csv"
    code = main(["scaling", "--k", "3", "--n", "2..12:2", "--format", "csv",
                 "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    lines = out.read_text().splitlines()
    assert "n,k,p_exact,p_decimal,scaled,upper_bound,lower_bound,best_epsilon" in lines
    assert any(line.startswith("# skipped n=2 k=3") for line in lines)
    data_rows = [ln for ln in lines if ln and not ln.startswith(("#", "n,"))]
    from stopflow import success_probability_exact

    for row in data_rows:
        fields = row.split(",")
        n, k = int(fields[0]), int(fields[1])
        assert Fraction(fields[2]) == success_probability_exact(n, k)
        assert float(fields[4]) <= 1.2879


def test_scaling_probability_equals_exact_report(capsys):
    # scaling reads the generating-function path, exact the composition tables.
    for n, k in [(9, 2), (17, 4), (30, 3), (40, 1)]:
        code, out, _ = run_cli(capsys, "scaling", "--k", str(k), "--n", str(n),
                               "--format", "json")
        assert code == 0
        (row,) = json.loads(out)["rows"]
        code, out, _ = run_cli(capsys, "exact", "--n", str(n), "--k", str(k),
                               "--format", "json")
        assert code == 0
        assert row["p_exact"] == json.loads(out)["report"]["probability_fraction"]


def test_scaling_json(capsys):
    code, out, _ = run_cli(capsys, "scaling", "--k", "2", "--n", "10..30:10",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert [row["n"] for row in doc["rows"]] == [10, 20, 30]
    assert doc["skipped"] == []


def test_scaling_checks_epsilon_when_no_point_has_a_lower_bound(capsys):
    # n=3..4 at k=2 gives no lower bound, so no bound_report ever sees epsilon.
    for grid in ("3..4", "3..8"):
        code, out, err = run_cli(capsys, "scaling", "--k", "2", "--n", grid, "--epsilon", "5")
        assert (code, out) == (1, ""), grid
        assert err == "stopflow: error: epsilon must lie in (0, 1), got 5.0\n"


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------

def test_scaling_guards_its_largest_n(monkeypatch, capsys):
    # One row pass per k grows without bound: past BOUNDS_GUARD, exit 3 before any pass.
    passes = []
    original = cli_module.success_probabilities_exact
    monkeypatch.setattr(cli_module, "success_probabilities_exact",
                        lambda ns, k: passes.append(k) or original(ns, k))
    code, out, err = run_cli(capsys, "scaling", "--k", "1..2", "--n", f"10..{BOUNDS_GUARD + 1}")
    assert (code, out, passes) == (3, "", [])
    assert err == f"stopflow: resource guard: scaling is guarded at n <= {BOUNDS_GUARD} (got n=1001)\n"
    code, _, _ = run_cli(capsys, "scaling", "--k", "2", "--n", f"{BOUNDS_GUARD}")
    assert (code, passes) == (0, [2])


def test_scaling_guards_its_largest_k(monkeypatch, capsys):
    # A k above the cap could only give skipped rows: exit 3, before any row pass.
    passes = []
    original = cli_module.success_probabilities_exact
    monkeypatch.setattr(cli_module, "success_probabilities_exact",
                        lambda ns, k: passes.append(k) or original(ns, k))
    code, out, err = run_cli(capsys, "scaling", "--k", "2..1001:999", "--n", "5")
    assert (code, out, passes) == (3, "", [])
    assert err == (f"stopflow: resource guard: scaling is guarded at k <= {BOUNDS_GUARD} "
                   "(got k=1001)\n")


@pytest.mark.parametrize("k_grid, n_grid", [("2", "-1"), ("2", "0..1"), ("5", "2..5"),
                                            ("3..9", "1..3")])
def test_scaling_with_no_k_below_n_is_a_usage_error(monkeypatch, capsys, k_grid, n_grid):
    # Every row would be skipped: exit 1 before any row pass, not a vacuous pass.
    passes = []
    monkeypatch.setattr(cli_module, "success_probabilities_exact",
                        lambda ns, k: passes.append(k) or {})
    code, out, err = run_cli(capsys, "scaling", "--k", k_grid, "--n", n_grid)
    assert (code, out, passes) == (1, "", [])
    k_lo, n_hi = parse_grid(k_grid, "--k")[0], parse_grid(n_grid, "--n")[-1]
    assert err == (f"stopflow: usage error: scaling needs some k < n: --k starts at {k_lo}, "
                   f"--n ends at {n_hi}\n")


@pytest.mark.parametrize("n_grid", ["-3..3", "1..5", "0..9:3"])
def test_scaling_with_n_below_2_is_a_usage_error(monkeypatch, capsys, n_grid):
    # No graph has n < 2: exit 1 before any row pass, not a skipped row.
    passes = []
    monkeypatch.setattr(cli_module, "success_probabilities_exact",
                        lambda ns, k: passes.append(k) or {})
    code, out, err = run_cli(capsys, "scaling", "--k", "1..2", f"--n={n_grid}")
    assert (code, out, passes) == (1, "", [])
    assert err == (f"stopflow: usage error: scaling needs n >= 2: "
                   f"--n starts at {parse_grid(n_grid, '--n')[0]}\n")


def test_scaling_with_one_k_below_n_runs():
    assert main(["scaling", "--k", "4..9", "--n", "2..5", "--format", "json"]) == 0


def test_trace_golden_run(capsys):
    code, out, _ = run_cli(capsys, "trace", "--n", "9", "--k", "2",
                           "--perm", "2 9 4 7 3 1 5 8 6")
    assert code == 0
    b_seq = []
    for line in out.splitlines():
        if line.startswith("t="):
            b_seq.append(int(line.split("b=")[1].split()[0]))
    assert b_seq == [0, 0, 1, 2, 1, 1, 2, 1, 0]
    assert "t=6" in out and "<-- stop" in out
    assert "stopped at t=6 on v1: WIN" in out


def test_trace_identity_and_reversed(capsys):
    code, out, _ = run_cli(capsys, "trace", "--n", "5", "--k", "2",
                           "--perm", "1 2 3 4 5")
    assert code == 0
    assert "stopped at t=5 on v5: LOSS" in out
    code, out, _ = run_cli(capsys, "trace", "--n", "5", "--k", "2",
                           "--perm", "5 4 3 2 1")
    assert code == 0
    assert "stopped at t=5 on v1: WIN" in out


def test_trace_json_structure(capsys):
    code, out, _ = run_cli(capsys, "trace", "--n", "9", "--k", "2",
                           "--perm", "2 9 4 7 3 1 5 8 6", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    trace = doc["traces"][0]
    assert trace["stop_index"] == 6 and trace["win"] is True
    assert [s["pending_inner"] for s in trace["steps"]] == [0, 0, 1, 2, 1, 1, 2, 1, 0]
    # component structures stay relative: offsets always start at zero
    assert all(c["offsets"][0] == 0 for s in trace["steps"] for c in s["components"])


def test_trace_perm_file_batch(tmp_path, capsys):
    f = tmp_path / "perms.txt"
    f.write_text("1 2 3 4\n4 3 2 1\n")
    code, out, _ = run_cli(capsys, "trace", "--n", "4", "--k", "1",
                           "--perm-file", str(f), "--format", "json")
    assert code == 0
    assert len(json.loads(out)["traces"]) == 2


def test_trace_replays_each_order_once_and_matches_the_runner(tmp_path, monkeypatch, capsys):
    # Every order for n <= 6 and every k: one Observer per order, the runner's
    # stop record, and a stop mark only on the rule's first firing.
    built = []
    init = Observer.__init__
    monkeypatch.setattr(Observer, "__init__", lambda self, g: built.append(g) or init(self, g))
    for n in range(2, 7):
        perms = list(itertools.permutations(range(1, n + 1)))
        f = tmp_path / f"perms{n}.txt"
        f.write_text("".join(" ".join(map(str, p)) + "\n" for p in perms))
        for k in range(1, n):
            built.clear()
            code, out, _ = run_cli(capsys, "trace", "--n", str(n), "--k", str(k),
                                   "--perm-file", str(f), "--format", "json")
            assert code == 0 and len(built) == len(perms), (n, k)
            g = PathPower(n, k)
            for perm, trace in zip(perms, json.loads(out)["traces"]):
                rec = run_strategy(Strategy.tau_n(), g, perm)
                assert (trace["stop_index"], trace["chosen"], trace["win"]) == (
                    rec.stop_index, rec.chosen_position, rec.win), (n, k, perm)
                fired = [s["t"] for s in trace["steps"] if s["is_max"] and s["condition_met"]]
                marked = [s["t"] for s in trace["steps"] if s["stop"]]
                assert marked == fired[:1] and (not fired or fired[0] == rec.stop_index)


def test_trace_usage_errors(capsys):
    code, _, err = run_cli(capsys, "trace", "--n", "4", "--k", "1", "--perm", "1 2 3")
    assert code == 1
    code, _, err = run_cli(capsys, "trace", "--n", "4", "--k", "1", "--perm", "1 2 x 4")
    assert code == 1
    code, _, err = run_cli(capsys, "trace", "--n", "4", "--k", "1")
    assert code == 1


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def test_bounds_text(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--n", "100", "--k", "2")
    assert code == 0
    assert "lower" in out and "upper" in out


def test_bounds_json_with_epsilon(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--n", "100", "--k", "2",
                           "--epsilon", "0.5", "--format", "json")
    assert code == 0
    rep = json.loads(out)["report"]
    assert rep["epsilon"] == 0.5
    q = 0.5 * 100 ** (-1 / 3)
    assert abs(rep["p"] - (1 - q)) < 1e-12
    assert rep["lower"] < rep["upper"]


def test_bounds_degenerate_power_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "bounds", "--n", "4", "--k", "2")
    assert code == 1


# ---------------------------------------------------------------------------
# config file and misc plumbing
# ---------------------------------------------------------------------------

def test_config_file_defaults_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# defaults\nn=5\nk=2\nformat=text\n")
    code, out, _ = run_cli(capsys, "exact", "--config", str(cfg))
    assert code == 0 and "9/20" in out
    # explicit flag beats the file
    code, out, _ = run_cli(capsys, "exact", "--config", str(cfg), "--k", "4")
    assert code == 0 and "1/2" in out
    # in the equals form too, and wherever it stands
    for argv in (["--config", str(cfg), "--k=4"], ["--k=4", "--config", str(cfg)]):
        code, out, _ = run_cli(capsys, "exact", *argv)
        assert code == 0 and out.startswith("P[win] for n=5, k=4: 1/2")


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("banana=1\n")
    code, _, err = run_cli(capsys, "exact", "--config", str(cfg), "--n", "5", "--k", "2")
    assert code == 1 and "unknown config keys" in err


CSV_REJECTING_ARGV = {
    "trace": ["trace", "--n", "4", "--k", "1", "--perm", "1 2 3 4"],
    "bounds": ["bounds", "--n", "100", "--k", "2"],
    "verify": ["verify", "--n-max", "4", "--bounds-n", "30"],
}


@pytest.mark.parametrize("mode", sorted(CSV_REJECTING_ARGV))
def test_csv_format_rejected_where_not_offered(mode, tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("verify ran its suite despite the bad format")

    monkeypatch.setattr("stopflow.cli.verify_all", never)
    argv = CSV_REJECTING_ARGV[mode]
    code, out, err = run_cli(capsys, *argv, "--format", "csv")
    assert code == 1 and out == "" and "usage error" in err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("format=csv\n")
    code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
    assert code == 1 and out == "" and "usage error" in err


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 1


def test_out_writes_file(tmp_path, capsys):
    out = tmp_path / "exact.txt"
    code = main(["exact", "--n", "5", "--k", "2", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    assert "9/20" in out.read_text()


def test_out_to_unwritable_path_is_an_error(tmp_path, capsys):
    code, out, err = run_cli(capsys, "exact", "--n", "5", "--k", "2",
                             "--out", str(tmp_path / "missing" / "x.txt"))
    assert code == 1
    assert out == ""
    assert err.startswith("stopflow: error:") and "x.txt" in err


def test_trace_unreadable_perm_file_is_an_error(tmp_path, capsys):
    code, out, err = run_cli(capsys, "trace", "--n", "4", "--k", "1",
                             "--perm-file", str(tmp_path / "missing.txt"))
    assert code == 1
    assert out == ""
    assert err.startswith("stopflow: error:") and "missing.txt" in err


def test_console_script_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "stopflow.cli", "exact", "--n", "4", "--k", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "1/2" in proc.stdout


# ---------------------------------------------------------------------------
# input rules: one message per rule, and no traceback on any hostile value
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["exact"],
    ["simulate", "--strategy", "tau_n", "--trials", "10"],
    ["trace", "--perm", "1 2 3 4 5"],
    ["bounds"],
])
def test_a_power_outside_the_graph_reads_the_same_in_every_subcommand(argv, capsys):
    code, out, err = run_cli(capsys, *argv, "--n", "5", "--k", "9")
    assert (code, out, err) == (1, "", "stopflow: error: need 1 <= k < n, got k=9, n=5\n")


# Each subcommand's sane flags; one at a time is swapped for a hostile value.
SANE_FLAGS = {
    "exact": {"n": "5", "k": "2"},
    "simulate": {"n": "6", "k": "2", "strategy": "tau_n", "trials": "20", "seed": "1",
                 "threads": "1"},
    "verify": {"n-max": "4", "bounds-n": "30"},
    "scaling": {"n": "5..9", "k": "2", "epsilon": "0.5"},
    "trace": {"n": "4", "k": "1", "perm": "4 3 2 1"},
    "bounds": {"n": "50", "k": "2", "epsilon": "0.5"},
}
# --p and --r belong to one strategy each.
OWNED_FLAGS = {"p": "tau_p_star", "r": "classical_threshold"}
HOSTILE_VALUES = (str(10 ** 400), "-1", "nan", "x")
# Left out, because the run would take long or take memory, not fail:
# - a large in-range simulate --trials (10**400 here): it runs that many
#   trials (exact and simulate exit 3 on an n past their guards instead);
# - scaling grids of allocating size, such as --n 1..10**10: the guard now
#   reads only a grid's last value, but builds that made the grid a list
#   first would allocate it, so the table stays safe to run on them.
SLOW_IN_RANGE = {("simulate", "trials", str(10 ** 400))}
# Cases whose exit code and whole error text are pinned: each names the flag or the guard.
PINNED_ERRORS = {
    ("bounds", "n", str(10 ** 400)):
        (1, "stopflow: error: --n is too large: int too large to convert to float\n"),
    ("exact", "n", str(10 ** 400)):
        (3, f"stopflow: resource guard: exact is guarded at n <= 1000 (got n={10 ** 400})\n"),
    ("simulate", "n", str(10 ** 400)):
        (3, f"stopflow: resource guard: simulate is guarded at n <= 33554431 "
            f"(got n={10 ** 400})\n"),
    ("simulate", "n", str(10 ** 12)):
        (3, f"stopflow: resource guard: simulate is guarded at n <= 33554431 "
            f"(got n={10 ** 12})\n"),
    ("scaling", "n", "-3..3"):
        (1, "stopflow: usage error: scaling needs n >= 2: --n starts at -3\n"),
}
# simulate --n 10**400 under its other strategies, and --n 10**12, an n whose
# order would fit an index but not memory, under the two that build one.
OTHER_STRATEGIES = {"first_max": {}, "tau_p_star": {"p": "0.5"},
                    "classical_threshold": {"r": "3"}}
HOSTILE_CASES = [
    (mode, flag, value, None)
    for mode, flags in SANE_FLAGS.items()
    for flag in [f for f in flags if f != "strategy"] + list(OWNED_FLAGS) * (mode == "simulate")
    for value in HOSTILE_VALUES
    if (mode, flag, value) not in SLOW_IN_RANGE
] + [("scaling", "n", "-3..3", None)] + [
    ("simulate", "n", str(10 ** 400), strategy) for strategy in OTHER_STRATEGIES
] + [("simulate", "n", str(10 ** 12), None), ("simulate", "n", str(10 ** 12), "classical_threshold")]


@pytest.mark.parametrize("mode, flag, value, strategy", HOSTILE_CASES,
                         # 10**400 is named by its first five digits, 10**12 in full
                         ids=[f"{m}-{f}-{v if len(v) <= 20 else v[:5]}" + (f"-{s}" if s else "")
                              for m, f, v, s in HOSTILE_CASES])
def test_hostile_flag_values_end_in_a_documented_exit_code(mode, flag, value, strategy, capsys):
    flags = dict(SANE_FLAGS[mode])
    if flag in OWNED_FLAGS:
        flags["strategy"] = OWNED_FLAGS[flag]
    if strategy:
        flags.update(strategy=strategy, **OTHER_STRATEGIES[strategy])
    flags[flag] = value
    # The equals form keeps "-1" a value; main must return, not raise.
    code, _, err = run_cli(capsys, mode, *(f"--{f}={v}" for f, v in flags.items()))
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    assert code == 0 or err.startswith("stopflow: ")
    if (mode, flag, value) in PINNED_ERRORS:
        assert (code, err) == PINNED_ERRORS[mode, flag, value]
