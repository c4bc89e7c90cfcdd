"""Golden outputs of the CLI: every subcommand in each format it supports,
plus ``--out`` and ``--config``.

Each case's exit code, standard output, standard error and ``--out`` file
must match ``cli_golden.json`` byte for byte, apart from the simulation
``wall_time``, which is masked.  Paths are relative to a scratch working
directory so the recorded command lines do not depend on where the test
runs.  To rewrite the golden file after an intended output change:

    PYTHONPATH=src python tests/test_cli_golden.py
"""
import contextlib
import io
import json
import os
import re
import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest

from stopflow.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")

GOLDEN_PERM = "2 9 4 7 3 1 5 8 6"
PERM_FILE = {"perms.txt": "# two orders\n1 2 3 4 5\n5 4 3 2 1\n"}

# name -> (argv, files written first, file read back after the run)
CASES = {
    "exact_text": (["exact", "--n", "5", "--k", "2"], {}, None),
    "exact_csv": (["exact", "--n", "5", "--k", "2", "--format", "csv"], {}, None),
    "exact_json": (["exact", "--n", "5", "--k", "2", "--format", "json"], {}, None),
    "exact_text_n12_k3": (["exact", "--n", "12", "--k", "3"], {}, None),
    "exact_csv_n12_k3": (["exact", "--n", "12", "--k", "3", "--format", "csv"], {}, None),
    "exact_json_half": (["exact", "--n", "4", "--k", "2", "--format", "json"], {}, None),
    "simulate_text_tau_n": (
        ["simulate", "--n", "6", "--k", "2", "--strategy", "tau_n", "--trials", "300",
         "--seed", "9"], {}, None),
    "simulate_csv_tau_n": (
        ["simulate", "--n", "6", "--k", "2", "--strategy", "tau_n", "--trials", "300",
         "--seed", "9", "--format", "csv"], {}, None),
    "simulate_json_tau_n": (
        ["simulate", "--n", "6", "--k", "2", "--strategy", "tau_n", "--trials", "300",
         "--seed", "9", "--format", "json"], {}, None),
    "simulate_json_tau_p_star": (
        ["simulate", "--n", "10", "--k", "2", "--strategy", "tau_p_star", "--p", "0.5",
         "--trials", "300", "--seed", "4", "--format", "json"], {}, None),
    "simulate_text_tau_p_star": (
        ["simulate", "--n", "10", "--k", "2", "--strategy", "tau_p_star", "--p", "0.5",
         "--trials", "300", "--seed", "4"], {}, None),
    "simulate_csv_classical_auto": (
        ["simulate", "--n", "20", "--k", "19", "--strategy", "classical_threshold",
         "--r", "auto", "--trials", "300", "--seed", "31", "--format", "csv"], {}, None),
    "simulate_text_first_max": (
        ["simulate", "--n", "7", "--k", "1", "--strategy", "first_max", "--trials", "300",
         "--seed", "5"], {}, None),
    "verify_text": (["verify", "--n-max", "4", "--bounds-n", "30"], {}, None),
    "verify_json_skip_dp": (
        ["verify", "--n-max", "4", "--bounds-n", "30", "--skip-dp", "--format", "json"],
        {}, None),
    # The CLI default n_max: formula_vs_oracle reads n = 8 off the set pass, with no walk.
    "verify_json_n8": (["verify", "--n-max", "8", "--format", "json"], {}, None),
    "scaling_text": (["scaling", "--k", "2..3", "--n", "2..12:2"], {}, None),
    "scaling_csv": (["scaling", "--k", "2..3", "--n", "2..12:2", "--format", "csv"], {}, None),
    "scaling_json": (["scaling", "--k", "2..3", "--n", "2..12:2", "--format", "json"], {}, None),
    "scaling_csv_epsilon": (
        ["scaling", "--k", "1", "--n", "10..30:10", "--epsilon", "0.5", "--format", "csv"],
        {}, None),
    "trace_text": (["trace", "--n", "9", "--k", "2", "--perm", GOLDEN_PERM], {}, None),
    "trace_json": (["trace", "--n", "9", "--k", "2", "--perm", GOLDEN_PERM, "--format", "json"],
                   {}, None),
    "trace_text_perm_file": (
        ["trace", "--n", "5", "--k", "2", "--perm-file", "perms.txt"], PERM_FILE, None),
    "trace_json_perm_file": (
        ["trace", "--n", "5", "--k", "2", "--perm-file", "perms.txt", "--format", "json"],
        PERM_FILE, None),
    "bounds_text": (["bounds", "--n", "100", "--k", "2"], {}, None),
    "bounds_json_epsilon": (
        ["bounds", "--n", "100", "--k", "2", "--epsilon", "0.5", "--format", "json"], {}, None),
    "bounds_text_epsilon": (["bounds", "--n", "50", "--k", "3", "--epsilon", "0.3"], {}, None),
    "out_exact_csv": (
        ["exact", "--n", "7", "--k", "2", "--format", "csv", "--out", "exact.csv"], {},
        "exact.csv"),
    "out_simulate_json": (
        ["simulate", "--n", "6", "--k", "3", "--strategy", "tau_n", "--trials", "200",
         "--seed", "2", "--format", "json", "--out", "sim.json"], {}, "sim.json"),
    "out_trace_text": (
        ["trace", "--n", "4", "--k", "1", "--perm", "4 3 2 1", "--out", "trace.txt"], {},
        "trace.txt"),
    "config_exact_csv": (
        ["exact", "--config", "run.cfg"], {"run.cfg": "# defaults\nn=5\nk=2\nformat=csv\n"},
        None),
    "config_simulate_flag_override": (
        ["simulate", "--config", "run.cfg", "--seed", "4"],
        {"run.cfg": "n=6\nk=2\nstrategy=tau_n\ntrials=200\nseed=3\nformat=json\n"}, None),
    "config_verify_json": (
        ["verify", "--config", "run.cfg"],
        {"run.cfg": "n-max=4\nbounds_n=30\nformat=json\n"}, None),
    "config_scaling_out": (
        ["scaling", "--config", "run.cfg"],
        {"run.cfg": "k=2\nn=5..9:2\nformat=csv\nout=scaling.csv\n"}, "scaling.csv"),
    "error_exact_bad_k": (["exact", "--n", "5", "--k", "9"], {}, None),
    "error_exact_resource_guard": (["exact", "--n", "1001", "--k", "1"], {}, None),
    "error_simulate_unknown_strategy": (
        ["simulate", "--n", "5", "--k", "2", "--strategy", "bogus"], {}, None),
    "error_simulate_resource_guard": (
        ["simulate", "--n", "40000000", "--k", "2", "--strategy", "tau_p_star", "--p", "0.5"],
        {}, None),
    "error_verify_resource_guard": (["verify", "--n-max", "12"], {}, None),
    "error_bounds_degenerate": (["bounds", "--n", "4", "--k", "2"], {}, None),
    "error_bounds_huge_n": (["bounds", "--n", str(10 ** 400), "--k", "2"], {}, None),
    "error_scaling_bad_grid": (["scaling", "--k", "2", "--n", "9..5"], {}, None),
    "error_scaling_bad_epsilon": (
        ["scaling", "--k", "2", "--n", "3..4", "--epsilon", "5"], {}, None),
    "error_scaling_resource_guard": (["scaling", "--k", "2", "--n", "10..1010:500"], {}, None),
}

_WALL_TIME = re.compile(r'"wall_time": [-+0-9.eE]+')


def _mask(text):
    return None if text is None else _WALL_TIME.sub('"wall_time": 0.0', text)


def run_case(name, capsys):
    """Run one case in the current directory and return its observed outputs."""
    argv, files, out_file = CASES[name]
    for path, content in files.items():
        Path(path).write_text(content, encoding="utf-8")
    code = main(list(argv))
    captured = capsys.readouterr()
    written = Path(out_file).read_text(encoding="utf-8") if out_file else None
    return {"code": code, "stdout": _mask(captured.out), "stderr": captured.err,
            "file": _mask(written)}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_golden_output(name, golden, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("STOPFLOW_SEED", raising=False)
    assert run_case(name, capsys) == golden[name]


class _Capture:
    """Stand-in for pytest's capsys when the file is run as a script."""

    def __init__(self):
        self.out, self.err = io.StringIO(), io.StringIO()

    def readouterr(self):
        return SimpleNamespace(out=self.out.getvalue(), err=self.err.getvalue())


def _regenerate():
    os.environ.pop("STOPFLOW_SEED", None)
    results = {}
    here = os.getcwd()
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            cap = _Capture()
            try:
                with contextlib.redirect_stdout(cap.out), contextlib.redirect_stderr(cap.err):
                    results[name] = run_case(name, cap)
            finally:
                os.chdir(here)
    GOLDEN.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(results)} cases to {GOLDEN}")


if __name__ == "__main__":
    _regenerate()
