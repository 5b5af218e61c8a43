"""A lint gate without a linter: no module of the package, the tests or
``tools/`` imports a name it never uses (``__init__.py`` is left out,
since its imports are its exports), nothing defines a private module-level
name that no module of the package reads, and every public module-level
name, and every field of a public dataclass of the package, has a reader
in the package, ``perfbench/`` or ``tools/`` (tests do not count)."""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "dessinjulia"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
LINTED = MODULES + [p for folder in ("tests", "tools")
                    for p in sorted((ROOT / folder).glob("*.py"))]


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


@pytest.mark.parametrize("path", LINTED, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def _definitions(node):
    """Names a module-level statement defines: a function, a class or the
    targets of an assignment."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return {node.name}
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target])
        return {n.id for t in targets for n in ast.walk(t)
                if isinstance(n, ast.Name)}
    return set()


def _private_definitions(tree):
    """Module-level names that start with one underscore."""
    names = set().union(*map(_definitions, tree.body))
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


# Public names that nothing in the package, perfbench/ or tools/ reads,
# kept for a reader outside them.
UNREAD_PUBLIC_NAMES = {
    "identify_tree": "documented API: the README's Library example",
    "zapponi_normalize": "documented API: the README's Library section, "
                         "on tree identification",
}


def _unread_public_names(sources, readers):
    """(module, name) of each public module-level name of the sources, a
    dict of module name to source text, that no other module-level
    statement of the sources and no reader text reads."""
    stmts = [(mod, node) for mod, text in sources.items()
             for node in ast.parse(text).body]
    reads = [_reads(node) for _, node in stmts]
    outside = set().union(*(_reads(ast.parse(t)) for t in readers))
    count = Counter(n for r in reads for n in r)
    return sorted((mod, name) for (mod, node), r in zip(stmts, reads)
                  for name in _definitions(node)
                  if not name.startswith("_") and name not in outside
                  and count[name] == (name in r))


def test_unread_public_names_are_found():
    sources = {
        "a": ("X = 1\nY = X\n_z = 0\n"
              "def f(n):\n    return f(n - 1)\n"
              "def g():\n    pass\nclass C:\n    pass\n"),
        "b": "from a import g\nimport a\nH = a.Y\n"}
    assert _unread_public_names(sources, ["b.C()\n"]) == \
        [("a", "f"), ("b", "H")]


def test_every_public_name_has_a_reader():
    sources = {p.name: p.read_text() for p in MODULES}
    readers = [p.read_text() for folder in ("perfbench", "tools")
               for p in sorted((ROOT / folder).glob("*.py"))]
    unread = _unread_public_names(sources, readers)
    assert {name for _, name in unread} == set(UNREAD_PUBLIC_NAMES), unread


def _dataclass_fields(tree):
    """(class, field) of each annotated field of a public module-level
    class that a ``dataclass`` decorator makes a dataclass."""
    def is_dataclass(dec):
        dec = dec.func if isinstance(dec, ast.Call) else dec
        return getattr(dec, "id", getattr(dec, "attr", None)) == "dataclass"
    return [(node.name, stmt.target.id) for node in tree.body
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
            and any(map(is_dataclass, node.decorator_list))
            for stmt in node.body if isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)]


def _unread_fields(sources, readers):
    """(module, class, field) of each dataclass field of the sources, a
    dict of module name to source text, whose name no attribute load of the
    sources or the reader texts reads."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    loads = {n.attr for tree in [*trees.values(), *map(ast.parse, readers)]
             for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return sorted((mod, cls, name) for mod, tree in trees.items()
                  for cls, name in _dataclass_fields(tree)
                  if name not in loads)


def test_unread_fields_are_found():
    sources = {
        "a": ("from dataclasses import dataclass\nimport dataclasses\n"
              "@dataclass\nclass A:\n    x: int\n    y: int = 0\n"
              "    def f(self):\n        return self.x\n"
              "@dataclasses.dataclass(frozen=True)\nclass B:\n    u: int\n"
              "    v: int\n    w = 0\n"
              "@dataclass\nclass _C:\n    z: int\n"
              "class D:\n    t: int\n"),
        "b": "def g(b):\n    b.v = 1\n    return b.u\n"}
    assert _unread_fields(sources, ["import a\na.A().y\n"]) == \
        [("a", "B", "v")]


def test_every_dataclass_field_has_a_reader():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    readers = [p.read_text() for folder in ("perfbench", "tools")
               for p in sorted((ROOT / folder).glob("*.py"))]
    assert _unread_fields(sources, readers) == []
