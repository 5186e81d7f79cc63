"""Every module of the package, other than ``__init__`` (which re-exports),
uses each name it imports, and only ``calibrate._finite_set`` builds a
``PredictionSet``, so every set takes its members one way."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "symmpi"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_the_package_has_modules():
    assert "calibrate.py" in MODULES and "sim.py" in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def test_an_unused_import_is_found():
    source = "from __future__ import annotations\nimport numpy as np\nfrom .groups import a, b\n"
    assert unused_imports(source + "x = np.zeros(a)\n") == ["b (line 3)"]


def prediction_set_calls(source: str) -> list[str]:
    """The dotted scopes (functions and classes) of each ``PredictionSet(...)``
    call in ``source``; a call at module level is in ``<module>``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "PredictionSet":
                    found.append(".".join(scope) or "<module>")
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, scope + [child.name] if named else scope)

    visit(ast.parse(source), [])
    return found


def test_prediction_sets_are_built_in_one_place():
    calls = [f"{module[:-3]}.{scope}" for module in MODULES
             for scope in prediction_set_calls((PACKAGE / module).read_text())]
    assert calls == ["calibrate._finite_set"]


def test_a_prediction_set_call_is_found():
    source = ("ps = calibrate.PredictionSet(c, m)\n"
              "def build(c):\n    return [PredictionSet(c, m) for m in (lambda: 0,)]\n")
    assert prediction_set_calls(source) == ["<module>", "build"]
