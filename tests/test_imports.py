"""Every module of the package, other than ``__init__`` (which re-exports),
uses each name it imports; only ``calibrate._finite_set`` builds a
``PredictionSet``, so every set takes its members one way, and the harness
``sim`` calls no ``_finite_set``, so it builds no set of its own; only
``calibrate._threshold_at`` builds a ``Threshold``, so every threshold's
tie share comes from one formula; only
``groups`` builds a ``GraphAutomorphismGroup``, so every graph group comes
from ``enumerate_automorphisms``' stabilizer chain; no subclass of
``PermutationGroup`` defines ``order``, ``iter_mapping_batches`` or
``_index_orbit``, so every permutation group is counted, listed and orbited
through its stabilizer chain; and only
``dataio._csv_rows`` calls ``csv.reader``, so every CSV reader that goes
row by row reads its text one way; no module calls ``np.linalg``'s
``svd``, ``lstsq``, ``pinv`` or ``solve``, and only ``transforms._fit_runs``
calls ``inv``, so every least-squares fit comes from that one routine; and
no module reaches into argparse's
private names or a parser's ``_actions``, so the command line is read from
its declarations alone. Importing the command line loads no
``multiprocessing``, which only a benchmark run on several threads needs,
and not the harness (``sim``, ``holes``), which only ``bench`` runs: the
``predict-*`` commands run without it. Orbits and the shift gap load no
``numpy.ma``."""

import ast
import os
import subprocess
import sys
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


def call_scopes(source: str, called) -> list[str]:
    """The dotted scopes (functions and classes) of each call in ``source``
    whose function node satisfies ``called``; a call at module level is in
    ``<module>``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and called(child.func):
                found.append(".".join(scope) or "<module>")
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, scope + [child.name] if named else scope)

    visit(ast.parse(source), [])
    return found


def named_calls(source: str, name: str) -> list[str]:
    """The scopes of each ``name(...)`` or ``x.name(...)`` call in ``source``."""
    def called(func):
        return (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == name

    return call_scopes(source, called)


def prediction_set_calls(source: str) -> list[str]:
    """The scopes of each ``PredictionSet(...)`` call in ``source``."""
    return named_calls(source, "PredictionSet")


def csv_reader_calls(source: str) -> list[str]:
    """The scopes of each ``csv.reader(...)`` call in ``source``."""
    def called(func):
        return (isinstance(func, ast.Attribute) and func.attr == "reader"
                and isinstance(func.value, ast.Name) and func.value.id == "csv")

    return call_scopes(source, called)


def test_prediction_sets_are_built_in_one_place():
    calls = [f"{module[:-3]}.{scope}" for module in MODULES
             for scope in prediction_set_calls((PACKAGE / module).read_text())]
    assert calls == ["calibrate._finite_set"]


def test_a_prediction_set_call_is_found():
    source = ("ps = calibrate.PredictionSet(c, m)\n"
              "def build(c):\n    return [PredictionSet(c, m) for m in (lambda: 0,)]\n")
    assert prediction_set_calls(source) == ["<module>", "build"]


def test_the_harness_builds_no_set():
    assert named_calls((PACKAGE / "sim.py").read_text(), "_finite_set") == []


def test_a_set_built_in_the_harness_is_found():
    source = ("from .calibrate import _finite_set\n"
              "def region(grid):\n    return calibrate._finite_set(grid, lambda x: x > 0)\n"
              "ps = _finite_set(grid, member_of)\n")
    assert named_calls(source, "_finite_set") == ["region", "<module>"]


def test_thresholds_are_built_in_one_place():
    calls = [f"{module[:-3]}.{scope}" for module in MODULES
             for scope in named_calls((PACKAGE / module).read_text(), "Threshold")]
    assert calls == ["calibrate._threshold_at"]


def test_a_threshold_call_is_found():
    source = ("t = calibrate.Threshold(0.0, 1.0, 0.5, 0.5, 0.0)\n"
              "def cut(s):\n    return Threshold(s, 1.0, 0.0, 1.0, delta=0.0)\n")
    assert named_calls(source, "Threshold") == ["<module>", "cut"]


def test_graph_groups_are_built_in_one_place():
    calls = [f"{module[:-3]}.{scope}" for module in MODULES
             for scope in named_calls((PACKAGE / module).read_text(), "GraphAutomorphismGroup")]
    assert set(calls) == {"groups.enumerate_automorphisms"}


CHAIN_ANSWERS = ("order", "iter_mapping_batches", "_index_orbit")


def permutation_group_overrides(source: str) -> list[str]:
    """Each ``Class.method`` in ``source`` where a subclass of
    ``PermutationGroup``, directly or through a class defined before it,
    defines one of ``CHAIN_ANSWERS``."""
    subclasses, found = {"PermutationGroup"}, []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and any(
                (b.id if isinstance(b, ast.Name) else getattr(b, "attr", None)) in subclasses
                for b in node.bases):
            subclasses.add(node.name)
            found += [f"{node.name}.{f.name}" for f in node.body
                      if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                      and f.name in CHAIN_ANSWERS]
    return found


@pytest.mark.parametrize("module", MODULES)
def test_permutation_groups_answer_through_their_chain(module):
    assert permutation_group_overrides((PACKAGE / module).read_text()) == []


def test_a_permutation_group_override_is_found():
    source = ("class A(groups.PermutationGroup):\n    def order(self):\n        return 1\n"
              "class B(A):\n    def sample(self, rng): pass\n"
              "    def _index_orbit(self, i): pass\n"
              "class C:\n    def iter_mapping_batches(self): pass\n")
    assert permutation_group_overrides(source) == ["A.order", "B._index_orbit"]


def test_csv_text_is_split_in_one_place():
    calls = [f"{module[:-3]}.{scope}" for module in MODULES
             for scope in csv_reader_calls((PACKAGE / module).read_text())]
    assert calls == ["dataio._csv_rows"]


def test_a_csv_reader_call_is_found():
    source = ("rows = list(csv.reader(fh))\n"
              "def read(fh):\n    return [r for r in csv.reader(fh)], reader(fh), csv.writer(fh)\n")
    assert csv_reader_calls(source) == ["<module>", "read"]


LEAST_SQUARES = ("svd", "lstsq", "pinv", "solve", "inv")


def least_squares_calls(source: str) -> list[str]:
    """``scope: name`` for each call in ``source`` of a name in
    ``LEAST_SQUARES``, as ``np.linalg.name(...)``, ``linalg.name(...)`` or
    ``name(...)``."""
    return [f"{scope}: {name}" for name in LEAST_SQUARES for scope in named_calls(source, name)]


def test_least_squares_is_solved_in_one_place():
    calls = [f"{module[:-3]}.{call}" for module in MODULES
             for call in least_squares_calls((PACKAGE / module).read_text())]
    assert calls == ["transforms._fit_runs: inv"]


def test_a_least_squares_call_is_found():
    source = ("u, s, vt = np.linalg.svd(a)\n"
              "def fit(a, b):\n    return linalg.lstsq(a, b), pinv(a), np.linalg.solve(a, b)\n"
              "class M:\n    def band(self):\n        return np.linalg.inv(self.a), np.linalg.det(a)\n")
    assert least_squares_calls(source) == ["<module>: svd", "fit: lstsq", "fit: pinv",
                                           "fit: solve", "M.band: inv"]


def private_argparse_uses(source: str) -> list[str]:
    """Each private ``argparse`` name and each ``._actions`` in ``source``,
    with its line, in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "argparse":
            found += [(node.lineno, a.name) for a in node.names if a.name.startswith("_")]
        elif isinstance(node, ast.Attribute) and (node.attr == "_actions" or (
                node.attr.startswith("_") and isinstance(node.value, ast.Name)
                and node.value.id == "argparse")):
            found.append((node.lineno, node.attr))
    return [f"{name} (line {line})" for line, name in sorted(found)]


@pytest.mark.parametrize("module", MODULES)
def test_no_module_uses_private_argparse_names(module):
    assert private_argparse_uses((PACKAGE / module).read_text()) == []


def test_a_private_argparse_use_is_found():
    source = ("import argparse\nfrom argparse import ArgumentParser, _StoreTrueAction\n"
              "for action in parser._actions:\n"
              "    if isinstance(action, argparse._SubParsersAction): argparse.Namespace()\n")
    assert private_argparse_uses(source) == [
        "_StoreTrueAction (line 2)", "_actions (line 3)", "_SubParsersAction (line 4)"]


def run_probe(probe: str) -> str:
    """The standard output of ``probe`` run in a fresh interpreter that
    imports the package from this tree."""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True)
    return out.stdout.strip()


def test_the_command_line_imports_no_multiprocessing():
    probe = ("import sys, symmpi.cli\n"
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing'\n"
             "             or m in ('symmpi.sim', 'symmpi.holes')))")
    assert run_probe(probe) == "[]"


def test_orbits_and_the_shift_gap_load_no_masked_arrays():
    # np.unique imports numpy.ma on its first call
    probe = ("import sys\n"
             "import numpy as np\n"
             "from symmpi import calibrate, groups, network\n"
             "A = np.zeros((5, 5))\n"
             "A[0, 1:] = A[1:, 0] = 1.0\n"
             "aut = groups.enumerate_automorphisms(A)\n"
             "values = np.array([0.0, 1.0, 2.0, np.nan, 4.0])\n"
             "ps = network.graph_vertex_set(values, aut, 3, np.linspace(-1, 5, 13), 0.2)\n"
             "assert ps.meta['orbit_size'] == 4, ps.meta\n"
             "assert groups.orbit_of_index(aut, 0)[0].tolist() == [0]\n"
             "assert groups.orbit_of_index(groups.BlockPermutationGroup(2, 3), 4)[1] == 12\n"
             "assert len(list(groups.SymmetricGroup(8).iter_mapping_batches())[0]) == 40320\n"
             "calibrate.estimate_shift_gap([1.0, 2.0, np.nan], [2.0, 3.0, 3.0])\n"
             "calibrate.estimate_shift_gap(np.arange(100.0), np.arange(50.0))\n"
             "print('numpy.ma' in sys.modules)")
    assert run_probe(probe) == "False"


HARNESS = ("symmpi.sim", "symmpi.holes")


def harness_loaded_by(argv) -> str:
    """The exit code of ``symmpi`` run on ``argv`` in a fresh interpreter,
    and the harness modules loaded when it returns."""
    probe = ("import io, sys\n"
             "from contextlib import redirect_stdout\n"
             "from symmpi.cli import main\n"
             "with redirect_stdout(io.StringIO()):\n"
             f"    code = main({[str(a) for a in argv]!r})\n"
             f"print(code, sorted(m for m in sys.modules if m in {HARNESS!r}))")
    return run_probe(probe)


def test_the_predict_commands_load_no_harness(tmp_path):
    golden = PACKAGE.parent.parent / "tests" / "golden"
    values, cycle = tmp_path / "values.csv", tmp_path / "cycle4.txt"
    values.write_text("vertex_id,value\n0,0.1\n1,0.7\n2,\n3,0.4\n")
    cycle.write_text("0 1\n1 2\n2 3\n3 0\n")
    for argv in (["predict-rotation", golden / "rot_points.csv", "--mc", "99", "--grid", "101"],
                 ["predict-hierarchical", golden / "hier_fixed.csv", "--grid", "101"],
                 ["predict-hierarchical", golden / "hier_sup_ragged.csv", "--mode", "sup",
                  "--grid", "101"],
                 ["predict-graph", values, cycle, "--grid", "101"]):
        assert harness_loaded_by(argv) == "0 []", argv


def test_a_command_that_loads_the_harness_is_found():
    argv = ["bench", "--preset", "table1", "--branches", "3", "--trials", "1", "--tests", "2",
            "--grid", "51"]
    assert harness_loaded_by(argv) == "0 ['symmpi.holes', 'symmpi.sim']"
