import json
import math

import pytest

from stopflow import Observer, __version__
from stopflow.cli import fraction_decimal, main, parse_grid
from stopflow.verify import (
    check_conditional_success_vs_states,
    check_continuous_discrete,
    check_dp_vs_formula,
    check_max_given_components,
    check_observer_invariants,
    check_strategy_dominance,
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
    assert parse_grid("12", "--n") == [12]
    assert parse_grid("10..14", "--n") == [10, 11, 12, 13, 14]
    assert parse_grid("10..30:10", "--n") == [10, 20, 30]
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


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

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


def test_verify_checks_cap_n_max_themselves():
    # verify_all passes n_max straight through; these caps keep the output of
    # verify --n-max 8 as it was when verify_all applied them.
    assert check_continuous_discrete(9).detail.endswith("up to n=7")
    assert check_conditional_success_vs_states(9) == check_conditional_success_vs_states(6)
    # The details of these checks at n_max=7, as verify --n-max 7 reports them.
    at_7 = {
        check_dp_vs_formula: "20 (n,k) pairs equal up to n=7",
        check_observer_invariants: "34406 exhaustive runs up to n=7",
        check_max_given_components: "155 (m, c) cells match (h+1)/m",
        check_strategy_dominance: "350 competing strategies dominated",
    }
    for check, detail in at_7.items():
        assert check(9).detail == detail, check.__name__


@pytest.mark.parametrize("field, change, check", [
    ("is_max", lambda e: not e.is_max, check_max_given_components),
    ("slack", lambda e: e.slack - 1, check_observer_invariants),
    # Both need the predecessor's met condition: persistence, and no
    # maximal arrival after exhaustion.
    ("slack", lambda e: e.slack + 1, check_observer_invariants),
    ("is_max", lambda e: not e.is_max, check_observer_invariants),
], ids=["is_max-components", "slack-negative", "slack-persistence", "is_max-exhaustion"])
def test_prefix_walk_checks_see_a_fault_at_one_time(monkeypatch, field, change, check):
    # A walk that pruned too much would pass these checks vacuously.
    assert check(5).passed
    original = Observer.observe

    def corrupted(self, pos):
        event = original(self, pos)
        return event._replace(**{field: change(event)}) if event.t == 3 else event

    monkeypatch.setattr(Observer, "observe", corrupted)
    assert not check(5).passed


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
    code, _, err = run_cli(capsys, "verify", "--n-max", "12")
    assert code == 3
    assert "resource guard" in err


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


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------

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
