"""Every top-level import of a library module is used in that module,
and is relative or from the standard library."""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "pavelka"


def unused_imports(path: pathlib.Path) -> list:
    """Names bound by the module's top-level imports and never read
    as a name anywhere in the module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_no_unused_top_level_imports():
    found = {path.name: unused_imports(path)
             for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    assert {name: unused for name, unused in found.items() if unused} == {}


def foreign_imports(path: pathlib.Path) -> list:
    """Top-level modules imported by the module's top-level statements
    that are neither relative nor in the standard library."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            modules += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules.append(node.module)
    return [name for name in modules
            if name.split(".")[0] not in sys.stdlib_module_names]


def test_runtime_needs_only_the_standard_library():
    found = {path.name: foreign_imports(path)
             for path in sorted(SRC.glob("*.py"))}
    assert {name: foreign for name, foreign in found.items() if foreign} == {}
