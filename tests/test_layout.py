"""The fast path stays apart from the oracles: no module that results run on
imports `gbmdd.oracles`, at module level or inside a function, or defines
one of its names.  The one exception is the CLI's `oracle` subcommand, which
imports them inside its own function; `import gbmdd` does not load them, and
their names are reached only on `gbmdd.oracles`.  Only `divdiff` knows how a
divided difference is routed.  The package imports nothing but the standard
library and numpy, so mpmath stays in the tests and `gbmdd oracle` runs on
numpy alone."""

import ast
import subprocess
import sys
import types
from pathlib import Path

import pytest

import gbmdd
from gbmdd import divdiff, moments, montecarlo, oracles, pricing

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


def _is_exempt(node: ast.stmt, module: str) -> bool:
    """Whether `node` is the CLI's `_cmd_oracle`, the one fast-path function
    that may import the oracles."""
    return module == "cli" and isinstance(node, ast.FunctionDef) and node.name == "_cmd_oracle"


def _fast_path_oracle_imports(tree: ast.Module, module: str) -> list[str]:
    """The oracle imports of `module`'s source outside its exempt function."""
    return [hit for node in tree.body if not _is_exempt(node, module)
            for hit in _oracle_imports(node)]


@pytest.mark.parametrize("module", ["divdiff", "moments", "pricing", "montecarlo", "cli"])
def test_fast_path_never_imports_oracles(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    assert not _fast_path_oracle_imports(tree, module), module
    defined = {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert not defined & set(oracles.__all__), module


def test_cli_oracle_command_imports_the_oracles_itself():
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    [command] = [node for node in tree.body if _is_exempt(node, "cli")]
    assert _oracle_imports(command) == ["from . import oracles"]


@pytest.mark.parametrize("module, hits", [("divdiff", 5), ("cli", 4)])
def test_exemption_covers_only_the_cli_oracle_command(module, hits):
    tree = ast.parse("from .oracles import newton_table\n"
                     "import gbmdd.oracles\n"
                     "if True:\n    from . import oracles\n"
                     "def _cmd_oracle(args):\n    from . import oracles\n"
                     "class _cmd_corr:\n    from . import oracles\n")
    assert len(_fast_path_oracle_imports(tree, module)) == hits


def test_import_scan_sees_nested_and_relative_imports():
    tree = ast.parse("def f():\n    from . import oracles\n"
                     "def g():\n    import gbmdd.oracles as o\n"
                     "from .oracles import newton_table\n"
                     "from .divdiff import exp_dd\n")
    assert len(_oracle_imports(tree)) == 3


def _third_party_imports(tree: ast.AST) -> set[str]:
    """The top-level modules that absolute imports anywhere in `tree` name,
    other than the standard library's and numpy."""
    tops = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            tops |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            tops.add(node.module.split(".")[0])
    return tops - set(sys.stdlib_module_names) - {"numpy"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.stem)
def test_package_imports_only_the_stdlib_and_numpy(path):
    assert not _third_party_imports(ast.parse(path.read_text())), path.stem


def test_third_party_scan_sees_nested_imports():
    tree = ast.parse("import math, numpy.linalg\n"
                     "from __future__ import annotations\n"
                     "from .divdiff import exp_dd\n"
                     "def f():\n    import mpmath as mp\n"
                     "class C:\n    from scipy.special import erfc\n")
    assert _third_party_imports(tree) == {"mpmath", "scipy"}


# divdiff's route rule and its matrix route's kernel, anchoring and squarings
ROUTE_NAMES = {"_route", "_first_row", "_bidiagonal_first_rows", "_squarings", "_LOW_ANCHOR",
               *(name for name in vars(divdiff) if name.startswith("TAYLOR_"))}


def _names(tree: ast.AST) -> set[str]:
    """Every identifier `tree` reads, imports or takes as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


@pytest.mark.parametrize("path", sorted(set(PACKAGE.glob("*.py")) - {PACKAGE / "divdiff.py"}),
                         ids=lambda path: path.stem)
def test_only_divdiff_acts_on_a_route(path):
    assert ROUTE_NAMES >= {"TAYLOR_MIN_ORDER", "TAYLOR_MIN_SPREAD"}
    assert not _names(ast.parse(path.read_text())) & ROUTE_NAMES


_LAZY_ORACLES_SCRIPT = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
import gbmdd
assert "gbmdd.oracles" not in sys.modules, "import gbmdd"
import gbmdd.cli
assert "gbmdd.oracles" not in sys.modules, "import gbmdd.cli"
with contextlib.redirect_stdout(io.StringIO()):
    assert gbmdd.cli.main(["corr"]) == 0
assert "gbmdd.oracles" not in sys.modules, "gbmdd corr"
import gbmdd.oracles
for name in gbmdd.oracles.__all__:
    assert hasattr(gbmdd.oracles, name) and not hasattr(gbmdd, name), name
with contextlib.redirect_stdout(io.StringIO()):
    assert gbmdd.cli.main(["oracle"]) == 0
print("ok")
"""


def test_oracles_load_only_when_asked():
    proc = subprocess.run([sys.executable, "-c", _LAZY_ORACLES_SCRIPT, str(PACKAGE.parent)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


def test_package_names_are_its_modules_all():
    # one place per public name: `gbmdd` re-exports the `__all__` of its
    # fast-path modules, and nothing else but its submodules
    public = {name for name, value in vars(gbmdd).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == {name for module in (divdiff, moments, montecarlo, pricing)
                      for name in module.__all__}
    assert not public & set(oracles.__all__)
