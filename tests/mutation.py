"""Mutation probe: does the certificate notice a wrong fast path?

    PYTHONPATH=src python tests/mutation.py stopflow.oracle:_slack_rule_wins \
        stopflow.verify:_set_events [--judge "-k test_oracle"]

Each mutant makes one change inside one named function: it swaps ``<`` and
``<=``, ``>`` and ``>=``, ``==`` and ``!=``, or ``+`` and ``-``, or adds 1 to
an integer constant.  The mutated module is written into a scratch copy of
the package, and a child process judges it, ``JOBS`` at a time: by default
``verify_all(7)``, which kills the mutant if the report does not pass; with
``--judge`` a pytest selection, which kills it if any selected test fails.
A mutant that raises, or runs past ``TIMEOUT`` seconds, counts as killed.  The script
prints each surviving mutant and the score; whether a survivor is
equivalent to the original is for the reader to decide.  The file name
keeps pytest from collecting it.
"""
from __future__ import annotations

import argparse
import ast
import copy
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
VERIFY = "import sys; from stopflow.verify import verify_all; sys.exit(not verify_all(7).passed)"
JOBS = 2
TIMEOUT = 120.0  # seconds per mutant
SWAPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Add: ast.Sub, ast.Sub: ast.Add}
SYMBOLS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
           ast.NotEq: "!=", ast.Add: "+", ast.Sub: "-"}


def _function(tree: ast.Module, name: str) -> ast.FunctionDef:
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    raise SystemExit(f"no top-level function {name}")


def _sites(func: ast.FunctionDef) -> list[tuple[int, int, str]]:
    """(index in ast.walk order, operand slot, description) of each mutation
    site in ``func``; the slot is the position of a comparison operator, or
    -1 for a binary operator or a constant."""
    sites = []
    for i, node in enumerate(ast.walk(func)):
        if isinstance(node, ast.Compare):
            for slot, op in enumerate(node.ops):
                if type(op) in SWAPS:
                    swapped = SYMBOLS[SWAPS[type(op)]]
                    sites.append((i, slot, f"line {node.lineno}: {SYMBOLS[type(op)]} -> {swapped}"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
            swapped = SYMBOLS[SWAPS[type(node.op)]]
            sites.append((i, -1, f"line {node.lineno}: {SYMBOLS[type(node.op)]} -> {swapped}"))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            sites.append((i, -1, f"line {node.lineno}: {node.value} -> {node.value + 1}"))
    return sites


def _mutant(tree: ast.Module, name: str, index: int, slot: int) -> str:
    tree = copy.deepcopy(tree)
    node = list(ast.walk(_function(tree, name)))[index]
    if isinstance(node, ast.Compare):
        node.ops[slot] = SWAPS[type(node.ops[slot])]()
    elif isinstance(node, ast.Constant):
        node.value += 1
    else:
        node.op = SWAPS[type(node.op)]()
    return ast.unparse(tree)


def _judge(root: Path, module: str, source: str, judge: list[str] | None) -> bool:
    """Whether the judge kills the mutant ``source`` of ``module``."""
    with tempfile.TemporaryDirectory(dir=root) as work:
        tree = Path(work) / "src"
        shutil.copytree(SRC / "stopflow", tree / "stopflow",
                        ignore=shutil.ignore_patterns("__pycache__"))
        (tree / Path(*module.split("."))).with_suffix(".py").write_text(source)
        argv = ([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *judge]
                if judge else [sys.executable, "-c", VERIFY])
        env = {**os.environ, "PYTHONPATH": str(tree), "PYTHONDONTWRITEBYTECODE": "1"}
        try:
            done = subprocess.run(argv, cwd=SRC.parent if judge else work, env=env,
                                  capture_output=True, timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return True
        return done.returncode != 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("targets", nargs="+", help="module:function, e.g. stopflow.oracle:_insert")
    parser.add_argument("--judge", help="pytest arguments, quoted; default verify_all(7)")
    args = parser.parse_args(argv)
    judge = shlex.split(args.judge) if args.judge else None

    mutants = []  # (target, description, module, source)
    for target in args.targets:
        module, name = target.split(":")
        path = (SRC / Path(*module.split("."))).with_suffix(".py")
        tree = ast.parse(path.read_text())
        for index, slot, what in _sites(_function(tree, name)):
            mutants.append((target, what, module, _mutant(tree, name, index, slot)))

    with tempfile.TemporaryDirectory(prefix="mutation-") as root:
        with ThreadPoolExecutor(JOBS) as pool:
            killed = list(pool.map(lambda m: _judge(Path(root), m[2], m[3], judge), mutants))
    for (target, what, _, _), dead in zip(mutants, killed):
        if not dead:
            print(f"survived: {target} {what}")
    print(f"killed {sum(killed)} of {len(mutants)} mutants")
    return 0


if __name__ == "__main__":
    sys.exit(main())
