"""Every name a package module imports is used in that module, only
``__init__.py`` declares ``__all__``, and the package exports no module
through it, nor a name without a caller.

A stand-in for a linter's unused-import rule, which catches the imports that
deleting code leaves behind, and for a rule that keeps the list of public
names single: the import block of ``__init__.py``. ``__init__.py`` is left
out of both checks, as it imports to re-export. An import on a line marked
``# noqa: F401`` is exempt, for a name kept only so that callers can reach it
through the module.
"""

import ast
import inspect
import re
import textwrap
from pathlib import Path
from types import ModuleType

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "expgrad"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
README = PACKAGE.parents[1] / "README.md"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def all_assignments(source: str) -> list[int]:
    """The lines that assign, augment or annotate a name ``__all__``."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Name) and node.id == "__all__" and isinstance(node.ctx, ast.Store)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_declares_no_public_names(path):
    assert all_assignments(path.read_text()) == []


def test_detects_an_unused_import():
    source = "import math\nimport numpy as np\nfrom x import a, b  # noqa: F401\nnp.zeros(1)\n"
    assert unused_imports(source) == ["line 1: math"]


def test_detects_an_all_assignment():
    source = "__all__ = ['a']\n__all__ += ['b']\n__all__: list = []\nx = __all__\n"
    assert all_assignments(source) == [1, 2, 3]


def test_no_exported_name_is_a_module():
    import expgrad

    namespace = {}
    exec("from expgrad import *", namespace)
    assert [name for name in expgrad.__all__ if isinstance(getattr(expgrad, name), ModuleType)] == []
    assert not any(isinstance(value, ModuleType) for value in namespace.values())
    assert {"MeasurementEnsemble", "HermitianOperator", "solve", "run_suite"} <= set(expgrad.__all__)


def uncalled(namespace: dict) -> list[str]:
    """The names of `namespace` (name -> value) that neither cli.py nor the
    README names, and that the source of no other function or class of
    `namespace` reads."""
    named = set(re.findall(r"\w+", (PACKAGE / "cli.py").read_text() + README.read_text()))

    def reads(value) -> set:
        if not (inspect.isfunction(value) or inspect.isclass(value)):
            return set()
        tree = ast.parse(textwrap.dedent(inspect.getsource(value)))
        return {getattr(node, "id", None) or getattr(node, "attr", None) for node in ast.walk(tree)}

    used = {name: reads(value) for name, value in namespace.items()}
    return [name for name in namespace
            if name not in named and not any(name in used[other] for other in namespace if other != name)]


def test_every_exported_name_has_a_caller():
    import expgrad
    from expgrad import diagnostics, suites

    public = {name: getattr(expgrad, name) for name in expgrad.__all__}
    assert uncalled(public) == []
    # two helpers that only suites calls, which the list leaves out: chi,
    # which the README names, counts as called, and phi_fd_derivatives does not
    assert uncalled({**public, "chi": diagnostics.chi, "phi_fd_derivatives": suites.phi_fd_derivatives}) == [
        "phi_fd_derivatives"]
