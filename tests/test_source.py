"""Checks on the package source itself, read with ``ast``."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "dgdx"


def _uses(node):
    """Count of each name that ``node``'s subtree reads, imports or reaches as an attribute."""
    uses = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            uses[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            uses[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            uses.update(alias.name for alias in sub.names)
    return uses


def _private_definitions(tree):
    """``(name, node)`` of each module-level name with one leading underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [n.id for t in node.targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def test_every_private_module_name_has_a_caller_in_src():
    # code that only its own definition or the tests reach is deleted, not kept
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    uses = sum((_uses(tree) for tree in trees.values()), Counter())
    unused = [f"{module}: {name}"
              for module, tree in trees.items()
              for name, node in _private_definitions(tree)
              if uses[name] - _uses(node)[name] == 0]
    assert not unused, f"private names with no use in src/ outside their definition: {unused}"
