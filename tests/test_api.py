"""The package's public names and its modules' imports."""

import ast
import os
import pathlib
import re
import subprocess
import sys

import twostrain


def test_no_two_public_names_share_an_object():
    # one name per function or class: an alias would hide behind its twin
    by_object = {}
    for name in twostrain.__all__:
        by_object.setdefault(id(getattr(twostrain, name)), []).append(name)
    assert [names for names in by_object.values() if len(names) > 1] == []


def _docstrings(tree):
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.walk(tree):
        if isinstance(node, scopes) and node.body and isinstance(node.body[0], ast.Expr):
            yield node.body[0].value


def test_no_module_imports_a_name_it_never_uses():
    # __init__ imports to re-export. A name met in a string other than a
    # docstring counts as used: source text a module generates and compiles
    # (simulate's stage template calls ``isfinite``) can name an import.
    unused = {}
    for path in sorted(pathlib.Path(twostrain.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported, used = set(), set()
        docstrings = set(map(id, _docstrings(tree)))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name).split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if id(node) not in docstrings:
                    used.update(re.findall(r"\w+", node.value))
        if imported - used:
            unused[path.name] = sorted(imported - used)
    assert unused == {}


def test_the_runtime_needs_numpy_alone():
    # a module set to None in sys.modules cannot be imported, nor can its submodules
    code = """if True:
        import sys
        sys.modules.update(dict.fromkeys(["scipy", "sympy", "mpmath"]))
        from twostrain.analysis import sweep
        from twostrain.benchmarks import build_scenario, reproduce
        assert reproduce("6.4").all_pass
        rows = sweep(build_scenario("6.4"), "r", 0.0, 0.2, 4)
        assert [sorted(row.verdicts) for row in rows] == [["E0", "E1", "E2", "E3"]] * 4
    """
    src = str(pathlib.Path(twostrain.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-W", "error", "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
