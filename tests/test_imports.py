"""No module of the package imports a name that it never uses.

A leftover import hides which modules a module really depends on.  A
name imported on a line marked ``# noqa: F401`` is a deliberate re-export
and is exempt.
"""

import ast
import pathlib

import koenigslab

SRC = pathlib.Path(koenigslab.__file__).parent


def unused_imports(source):
    """(line, name) of every imported name that ``source`` never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            if "# noqa: F401" not in lines[alias.lineno - 1]:
                imported[(alias.asname or alias.name).split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = {
        elt.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for elt in node.value.elts
    }
    return sorted((line, name) for name, line in imported.items()
                  if name not in used | exported)


def test_no_module_imports_a_name_it_never_uses():
    found = {
        path.name: unused
        for path in sorted(SRC.glob("*.py"))
        if (unused := unused_imports(path.read_text()))
    }
    assert found == {}


def test_guard_sees_a_leftover_import():
    assert unused_imports("import numpy as np\n\nx = 1\n") == [(1, "np")]
    assert unused_imports("import numpy as np\n\nx = np.pi\n") == []
    assert unused_imports("from a import b  # noqa: F401\n") == []
    assert unused_imports("from a import (  # noqa: F401\n    b,\n)\n") == [(2, "b")]
    assert unused_imports("from a import b, c\n__all__ = ['b']\n") == [(1, "c")]
