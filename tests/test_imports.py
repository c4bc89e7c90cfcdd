"""The package has no runtime dependency: every absolute import is stdlib, and
only a multi-worker ``simulate`` loads the process pool's stack."""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
SOURCES = sorted((SRC / "stopflow").glob("*.py"))

# What ``concurrent.futures.process`` brings in that nothing else of stopflow needs.
POOL_STACK = ("multiprocessing", "concurrent.futures.process", "logging", "socket",
              "subprocess", "pickle", "queue")

# Runs each argv through ``stopflow.cli.main`` in a fresh interpreter and prints,
# per run, the exit code, the stdout and which POOL_STACK modules are loaded after it.
_CHILD = """
import contextlib, io, json, os, sys
cpus, runs, stack = json.loads(sys.argv[1])
if cpus is not None:
    os.cpu_count = lambda: cpus
import stopflow, stopflow.cli
results = []
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = stopflow.cli.main(argv)
    results.append([code, out.getvalue(), [m for m in stack if m in sys.modules]])
print(json.dumps(results))
"""


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_absolute_imports_are_stdlib(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names]
    names += [node.module for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.level == 0]
    outside = sorted({name for name in names if name.split(".")[0] not in sys.stdlib_module_names})
    assert not outside, f"{path.name} imports {outside}"


def test_every_module_is_checked():
    assert {p.name for p in SOURCES} >= {"__init__.py", "cli.py", "simulate.py"}


def _run_child(runs, cpus=None):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _CHILD, json.dumps([cpus, runs, POOL_STACK])],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


SIMULATE = ["simulate", "--n", "8", "--k", "2", "--strategy", "tau_p_star", "--p", "0.5",
            "--trials", "400", "--seed", "7", "--format", "json"]


def test_one_worker_and_other_subcommands_never_import_the_pool():
    results = _run_child([
        ["exact", "--n", "6", "--k", "2"],
        ["bounds", "--n", "30", "--k", "2"],
        ["trace", "--n", "5", "--k", "2", "--perm", "2 5 4 1 3"],
        ["verify", "--n-max", "4", "--bounds-n", "30"],
        SIMULATE + ["--threads", "1"],
    ])
    assert [(code, loaded) for code, _, loaded in results] == [(0, [])] * 5


def test_only_a_multi_worker_simulate_imports_the_pool():
    # Two CPUs: --threads 2 forks two workers, after the guard has had its say.
    guard, one, two = _run_child([
        ["simulate", "--n", "1000000000000", "--k", "2", "--strategy", "tau_n",
         "--trials", "4", "--threads", "2"],
        SIMULATE + ["--threads", "1"],
        SIMULATE + ["--threads", "2"],
    ], cpus=2)
    assert guard == [3, "", []]
    assert (one[0], one[2], two[0]) == (0, [], 0) and "concurrent.futures.process" in two[2]
    assert json.loads(two[1])["report"]["wins"] == json.loads(one[1])["report"]["wins"]
