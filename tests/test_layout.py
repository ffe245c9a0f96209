"""The fast path stays apart from the oracles: no module that results run on
imports `gbmdd.oracles`, at module level or inside a function, or defines
one of its names."""

import ast
from pathlib import Path

import pytest

import gbmdd
from gbmdd import oracles

PACKAGE = Path(gbmdd.__file__).resolve().parent


def _oracle_imports(tree: ast.AST) -> list[str]:
    """The import statements anywhere in `tree` that name a module
    `oracles`, `from . import oracles` included."""
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        else:
            continue
        if any("oracles" in name.split(".") for name in names):
            hits.append(ast.unparse(node))
    return hits


@pytest.mark.parametrize("module", ["divdiff", "moments", "pricing", "montecarlo"])
def test_fast_path_never_imports_oracles(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    assert not _oracle_imports(tree), module
    defined = {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert not defined & set(oracles.__all__), module


def test_import_scan_sees_nested_and_relative_imports():
    tree = ast.parse("def f():\n    from . import oracles\n"
                     "def g():\n    import gbmdd.oracles as o\n"
                     "from .oracles import DD\n"
                     "from .divdiff import exp_dd\n")
    assert len(_oracle_imports(tree)) == 3
