"""Static hygiene of the package source, read as syntax trees: every
import is used, and every private module-level function or class has a
reader, so a refactor cannot leave a dead name behind."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "dmuss"
MODULES = {path.name: ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in sorted(PACKAGE.glob("*.py"))}
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def exported(tree: ast.Module) -> set:
    """The strings listed in the module's ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def imported(tree: ast.Module) -> dict:
    """Each name an import binds, by its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def reads(tree: ast.Module):
    """(name, top-level definition it sits in or None) per name read:
    a bare name, or an attribute name as in ``linalg._echelon``."""
    for top in tree.body:
        owner = top.name if isinstance(top, DEFINITIONS) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                yield node.id, owner
            elif isinstance(node, ast.Attribute):
                yield node.attr, owner


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    tree = MODULES[module]
    used = {name for name, _ in reads(tree)} | exported(tree)
    unused = {name: line for name, line in imported(tree).items() if name not in used}
    assert not unused, f"{module}: unused imports (name: line) {unused}"


def test_every_private_definition_has_a_reader():
    readers = {}  # name -> the (module, definition) places that read it
    for module, tree in MODULES.items():
        for name, owner in reads(tree):
            readers.setdefault(name, set()).add((module, owner))
    dead = [
        f"{module}:{node.lineno} {node.name}"
        for module, tree in MODULES.items()
        for node in tree.body
        if isinstance(node, DEFINITIONS)
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and not readers.get(node.name, set()) - {(module, node.name)}
    ]
    assert not dead, f"private definitions nothing else reads: {dead}"
