"""No module of the package imports a name that it never uses, and no
private name that the package defines goes unread.

A leftover import hides which modules a module really depends on.  A
name imported on a line marked ``# noqa: F401`` is a deliberate re-export
and is exempt.  A private helper, class, constant or method (one leading
underscore) that nothing reads is dead code.
"""

import ast
import collections
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


def private_definitions(tree):
    """(line, name, node) of each module-level function, class and constant
    and each method whose name has exactly one leading underscore."""
    found = []

    def visit(body, in_class):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found.append((node.lineno, node.name, node))
                if isinstance(node, ast.ClassDef):
                    visit(node.body, True)
            elif not in_class and isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for t in targets:
                    for name in ast.walk(t):
                        if isinstance(name, ast.Name):
                            found.append((node.lineno, name.id, node))

    visit(tree.body, False)
    return [(line, name, node) for line, name, node in found
            if name.startswith("_") and not name.startswith("__")]


def reads(node):
    """Every name ``node`` reads, as a bare name or an attribute."""
    return [
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    ]


def unread_private_names(sources):
    """(module, line, name) of every private name defined in ``sources``, a
    map of module name to source, that no module reads outside the
    definition itself."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = collections.Counter(name for tree in trees.values() for name in reads(tree))
    return sorted(
        (module, line, name)
        for module, tree in trees.items()
        for line, name, node in private_definitions(tree)
        if read[name] == reads(node).count(name)
    )


def package_sources():
    return {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}


def test_every_private_name_is_read():
    assert unread_private_names(package_sources()) == []


def test_guard_sees_an_unread_private_name():
    assert unread_private_names({"m": "def _f():\n    return 1\n"}) == [("m", 1, "_f")]
    assert unread_private_names({"m": "def _f(n):\n    return _f(n - 1)\n"}) == [("m", 1, "_f")]
    assert unread_private_names({"m": "_X = 1\n", "n": "from m import _X\ny = _X\n"}) == []
    assert unread_private_names({"m": "_X, _Y = 1, 2\nz = _Y\n"}) == [("m", 1, "_X")]
    method = "class A:\n    def _g(self):\n        pass\n"
    assert unread_private_names({"m": method}) == [("m", 2, "_g")]
    assert unread_private_names({"m": method, "n": "A()._g()\n"}) == []
    assert unread_private_names({"m": "class _C:\n    def __init__(self):\n        pass\n"}) == [
        ("m", 1, "_C")
    ]
