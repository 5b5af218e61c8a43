"""A lint gate without a linter: no module of the package imports a name
it never uses (``__init__.py`` is left out, since its imports are its
exports), and nothing defines a private module-level name that no module
of the package reads."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "dessinjulia"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source):
    """Names bound by an import statement that no Name node reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_are_found():
    source = ("import os.path\nimport numpy as np\n"
              "from a import b, c as d\nnp.zeros(d)\n")
    assert _unused_imports(source) == ["b", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def _private_definitions(tree):
    """Module-level functions, classes and assigned names that start with
    one underscore."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def _reads(tree):
    """Names read: loaded names, attribute names and imported names."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(a.name for a in node.names)
    return out


def _unread_private_names(sources):
    """(module, name) of each private module-level name of the sources, a
    dict of module name to source text, that no source reads."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    read = set().union(*map(_reads, trees.values()))
    return sorted((mod, name) for mod, tree in trees.items()
                  for name in _private_definitions(tree) - read)


def test_unread_private_names_are_found():
    sources = {
        "a": ("_x = 1\n_y, _z = _x, 2\n__all__ = []\n"
              "def _f():\n    pass\nclass _C:\n    _m = 0\n"),
        "b": "import a\nfrom a import _f\n_f(a._C, a._z)\n"}
    assert _unread_private_names(sources) == [("a", "_y")]


def test_no_unread_private_names():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert _unread_private_names(sources) == []
