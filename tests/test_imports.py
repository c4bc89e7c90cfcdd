"""The package has no runtime dependency: every absolute import is stdlib."""
import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "stopflow").glob("*.py"))


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
