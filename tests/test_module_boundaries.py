"""No sharkfin module reaches a private name of another sharkfin module,
and none imports a name it never uses."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sharkfin"


def is_private(name):
    return name.startswith("_") and not name.endswith("__")


def private_reaches(source, module):
    """(line, 'other._name') for every private name of another sharkfin
    module that `module`'s source imports or reads as an attribute."""
    found, aliases = [], {}

    def sharkfin_module(node):
        """The sharkfin module a from-import reads, or None for another package."""
        if node.level == 0:
            parts = (node.module or "").split(".")
            return ".".join(parts[1:]) if parts[0] == "sharkfin" else None
        return node.module or ""

    for node in ast.walk(tree := ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (other := sharkfin_module(node)) is not None:
            for alias in node.names:
                if not other:  # from . import lab: a module, read below
                    aliases[alias.asname or alias.name] = alias.name
                elif is_private(alias.name) and other != module:
                    found.append((node.lineno, f"{other}.{alias.name}"))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("sharkfin.") and alias.asname:
                    aliases[alias.asname] = alias.name.split(".", 1)[1]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and aliases.get(node.value.id, module) != module
                and is_private(node.attr)):
            found.append((node.lineno, f"{aliases[node.value.id]}.{node.attr}"))
    return sorted(found)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_no_private_name_of_another(path):
    assert private_reaches(path.read_text(), path.stem) == []


def test_private_reaches_finds_both_forms():
    source = ("from .renewal import substream, _events_between\n"
              "from sharkfin.theory import _window_limit as w\n"
              "from . import lab\n"
              "import sharkfin.filtered as f\n"
              "from ._x import public\n"
              "from numpy import _private_ok\n"
              "rows = lab._replicate_rows, lab.__name__, f._left, own._helper\n"
              "from .detector import _BLOCK\n")
    assert private_reaches(source, "detector") == [
        (1, "renewal._events_between"), (2, "theory._window_limit"),
        (7, "filtered._left"), (7, "lab._replicate_rows")]


def unused_imports(source):
    """(line, name) for every name that `source` imports and never reads.

    A name listed in a literal `__all__` counts as used (it is re-exported),
    and `from __future__` imports bind no name.
    """
    tree = ast.parse(source)
    imported, used = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0])
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(e.value for e in getattr(node.value, "elts", ())
                        if isinstance(e, ast.Constant))
    return sorted((line, name) for line, name in imported if name not in used)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_no_unused_name(path):
    assert unused_imports(path.read_text()) == []


def test_unused_imports_finds_every_form():
    source = ("from __future__ import annotations\n"
              "import math, os.path\n"
              "import numpy as np\n"
              "from .renewal import substream, WindowConfig as WC\n"
              "from .theory import s_function\n"
              "__all__ = ['s_function']\n"
              "def f(cfg: WC):\n"
              "    from concurrent.futures import ThreadPoolExecutor\n"
              "    return math.pi\n")
    assert unused_imports(source) == [
        (2, "os"), (3, "np"), (4, "substream"), (8, "ThreadPoolExecutor")]
