"""Rules of the package's own layout."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "cvpost"


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _reached_private_names(source):
    """The underscore names that ``source`` imports from a package module,
    or reads as attributes of a package module it imports."""
    tree = ast.parse(source)
    package_imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                       and (node.level > 0 or (node.module or "").split(".")[0] == "cvpost")]
    reached = [alias.name for node in package_imports for alias in node.names if _private(alias.name)]
    # ``from . import fock`` binds a module, whose attributes are its names
    modules = {alias.asname or alias.name for node in package_imports
               if node.module in (None, "cvpost") for alias in node.names}
    reached += [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)]
    return reached


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_module_uses_another_modules_underscore_names(path):
    assert _reached_private_names(path.read_text()) == []


@pytest.mark.parametrize("source, reached", [
    ("from .emulator import _GL_NODES, GainReport", ["_GL_NODES"]),
    ("from cvpost.fock import _checked", ["_checked"]),
    ("from . import fock\nfock._largest_dim()", ["fock._largest_dim"]),
    ("from . import __version__, fock\nfock.check_dim(40)", []),
    ("from numpy import _globals\nimport math\nmath._x", []),
])
def test_the_layout_check_finds_underscore_names(source, reached):
    assert _reached_private_names(source) == reached
