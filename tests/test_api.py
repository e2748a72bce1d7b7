"""The package's public names and its modules' imports."""

import ast
import pathlib
import re

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
