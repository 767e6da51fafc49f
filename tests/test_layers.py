"""Layering: each cesel module imports only the modules below it.

The order runs from the error types up to the command line; a module may
import any module earlier in ``LAYERS`` and none later. Checked on the
source's syntax tree, so imports inside functions count too.
"""
import ast
from pathlib import Path

import pytest

import cesel

LAYERS = ("errors", "_agglo", "clusterers", "diversity", "cail", "independency",
          "assets", "consensus", "harness", "cli")
PACKAGE = Path(cesel.__file__).resolve().parent


def cesel_imports(tree: ast.AST) -> set[str]:
    """The cesel modules that ``tree`` imports, by their name in the package."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("cesel."))
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0:
                if parts[0] != "cesel":
                    continue
                parts = parts[1:]
            if parts and parts[0]:
                found.add(parts[0])
            else:  # from . import name, ...
                found.update(alias.name for alias in node.names)
    return found


def test_every_module_has_a_layer():
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


@pytest.mark.parametrize("module", LAYERS)
def test_imports_only_lower_layers(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    below = set(LAYERS[:LAYERS.index(module)])
    assert cesel_imports(tree) <= below
