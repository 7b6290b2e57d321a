"""Checks on the package's source as a whole."""

import ast
from pathlib import Path

import ecloner

PACKAGE = Path(ecloner.__file__).resolve().parent


def _private_definitions(tree):
    """Names of the module-level private functions and classes, dunders excluded."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return {
        node.name
        for node in tree.body
        if isinstance(node, kinds) and node.name.startswith("_") and not node.name.endswith("__")
    }


def _names_in_code(tree):
    """Every name the code refers to: names, attributes and import aliases.

    Docstrings and comments are not code, so a name cited only there is unused.
    """
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(filter(None, (node.name, node.asname)))
    return names


def test_every_private_function_and_class_is_used_in_the_package():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    used = set().union(*map(_names_in_code, trees.values()))
    unused = [
        f"{module}: {name}"
        for module, tree in trees.items()
        for name in sorted(_private_definitions(tree) - used)
    ]
    assert not unused, f"private definitions that no code names: {unused}"
