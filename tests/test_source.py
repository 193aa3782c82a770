from __future__ import annotations

import ast
from pathlib import Path

import qmaj

PACKAGE = Path(qmaj.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _module_level_names(tree: ast.Module) -> list[str]:
    """The names a module's top-level statements define, imports aside."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [
                n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)
            ]
    return names


def test_every_private_module_name_is_read():
    # a module-level private name that no module of the package reads, as a
    # bare name or as an attribute, is dead code; importing it is no read
    defined, read = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        defined += [
            (path.stem, name) for name in _module_level_names(tree) if _is_private(name)
        ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert defined, "no private names found; is the package path right?"
    unread = [f"{module}.{name}" for module, name in defined if name not in read]
    assert unread == []


def test_every_public_class_member_is_read():
    # a public method or property that neither the package nor its tests
    # read as an attribute is dead code
    defined, read = [], set()
    for path in sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ClassDef) and path.parent == PACKAGE:
                defined += [
                    f"{node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not item.name.startswith("_")
                ]
    assert defined, "no public members found; is the package path right?"
    unread = [name for name in defined if name.split(".")[1] not in read]
    assert unread == []


def test_monotones_read_no_storage_form():
    # grids' reductions alone read the cell values, the fold and the
    # factors, so a new reader of a storage form lands beside them
    tree = ast.parse((PACKAGE / "monotones.py").read_text())
    attrs, names = {"values", "fold", "factors"}, {"_orbits", "_restrict", "_entries"}
    reads = [
        ast.unparse(node)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in attrs
        or isinstance(node, ast.Name) and node.id in names
        or isinstance(node, ast.alias) and node.name in names
    ]
    assert reads == []
