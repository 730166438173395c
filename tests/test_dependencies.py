"""The package runs on numpy and the standard library alone."""

import ast
import pathlib
import sys

import pytest

import actf

ALLOWED = {"numpy", "actf"} | set(sys.stdlib_module_names)
SOURCES = sorted(pathlib.Path(actf.__file__).parent.glob("*.py"))


def _imported(tree):
    """The top-level name of every module an absolute import statement names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_numpy_and_stdlib(path):
    foreign = set(_imported(ast.parse(path.read_text()))) - ALLOWED
    assert not foreign, f"{path.name} imports {sorted(foreign)}"


def test_sources_found():
    assert {"tensor.py", "branch.py", "cli.py"} <= {p.name for p in SOURCES}
