"""The package exports only what the program itself uses."""

import ast
import inspect
from pathlib import Path

import leafage
from leafage.cli import main

SRC = Path(leafage.__file__).resolve().parent


def _references(tree: ast.AST, name: str) -> bool:
    """Whether ``tree`` reads ``name`` outside a ``def`` or ``class`` of that name."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            continue
        if isinstance(node, ast.Name) and node.id == name:
            return True
        if isinstance(node, ast.Attribute) and node.attr == name:
            return True
        stack.extend(ast.iter_child_nodes(node))
    return False


def test_every_export_has_a_caller_in_the_program():
    modules = [
        ast.parse(path.read_text(), str(path))
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    ]
    unused = [name for name in leafage.__all__ if not any(_references(m, name) for m in modules)]
    assert unused == []


def test_namespace_is_the_exports():
    public = {
        name for name, obj in vars(leafage).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
    }
    assert public == set(leafage.__all__)


def _callers(tree: ast.AST, name: str) -> set[str]:
    """Names of the functions in ``tree`` that call ``name``; "" for module level."""
    found = set()
    stack = [(tree, "")]
    while stack:
        node, owner = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Call):
            func = node.func
            if getattr(func, "id", None) == name or getattr(func, "attr", None) == name:
                found.add(owner)
        stack.extend((child, owner) for child in ast.iter_child_nodes(node))
    return found


def test_one_clique_tree_check_calls_the_containment_test():
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        callers |= _callers(ast.parse(path.read_text(), str(path)), "path_containment_violation")
    assert callers == {"check_clique_tree"}


def test_the_cli_maps_errors_to_exit_codes_in_one_place():
    # Commands let the library's errors rise; one handler picks the code.
    tree = ast.parse((SRC / "cli.py").read_text())
    handlers = [
        (cls.name, fn.name)
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for fn in cls.body if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn) if isinstance(node, ast.Try)
    ]
    assert sum(isinstance(node, ast.Try) for node in ast.walk(tree)) == 1
    assert handlers == [(type(main).__name__, "invoke")]
