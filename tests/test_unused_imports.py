"""Every name a module imports is used in that module: the package's
modules, and the demos, scripts and tests.

No linter runs on the repository, so this test does pyflakes' F401 check with
``ast``: an imported name counts as used when it is read anywhere in the
module, in a string annotation, or listed in ``__all__``.  An import whose
lines carry ``# noqa: F401`` is imported for its side effects and exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dunkllab"
MODULES = sorted(PACKAGE.glob("*.py")) + sorted(
    path for folder in ("demos", "scripts", "tests")
    for path in (ROOT / folder).glob("*.py"))


def _imported(tree: ast.Module, lines: list[str]):
    """(bound name, line) of each import not marked ``# noqa: F401``."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        span = lines[node.lineno - 1:node.end_lineno]
        if any("noqa: F401" in line for line in span):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            yield name, node.lineno


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, ast.FunctionDef) and node.returns is not None:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            # string annotations such as -> "TensorGrid"
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(expr)
                            if isinstance(n, ast.Name))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return used


def _unused(source: str) -> list[tuple[str, int]]:
    tree = ast.parse(source)
    used = _used(tree)
    return [(name, line)
            for name, line in _imported(tree, source.splitlines())
            if name not in used]


@pytest.mark.parametrize(
    "path", MODULES,
    ids=lambda p: (p.name if p.parent == PACKAGE
                   else str(p.relative_to(ROOT))))
def test_no_unused_imports(path):
    assert _unused(path.read_text()) == []


def test_detector_flags_unused_and_honours_noqa():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "import sys  # noqa: F401\n"
              "from json import (dumps,\n"
              "                  loads)\n"
              "__all__ = ['loads']\n"
              "def f(x: 'Path') -> None:\n"
              "    return dumps(x)\n"
              "from pathlib import Path\n")
    assert _unused(source) == [("os", 2)]
