"""The public surface of `import sharkfin`: each name and submodule of the
package namespace, resolved from its module on every access."""

import ast
import importlib
import types
from collections import Counter
from pathlib import Path

import pytest

import sharkfin
from sharkfin import detector

ROOT = Path(__file__).resolve().parents[1]
# the package's public names, by the module that defines each: its `__all__`;
# `cli` is the command-line entry point, not part of the package namespace
PUBLIC = {path.stem: importlib.import_module(f"sharkfin.{path.stem}").__all__
          for path in sorted((ROOT / "src" / "sharkfin").glob("*.py"))
          if path.stem not in ("__init__", "cli")}
NAMES = {*PUBLIC, *(name for names in PUBLIC.values() for name in names)}
# objects of the paper exported for users, which no code of the package calls
UNCALLED_PAPER_OBJECTS = {"D_process", "Gamma_process", "classify_shark",
                          "detection_bound", "ORIENTATION_MODELS"}
# public methods exported for users, which no code of the package calls
UNCALLED_METHODS = set()


def test_public_names_are_the_modules_objects():
    assert len(NAMES) == 65
    for module_name, names in PUBLIC.items():
        module = getattr(sharkfin, module_name)
        assert module.__name__ == f"sharkfin.{module_name}"
        for name in names:
            assert getattr(sharkfin, name) is getattr(module, name), name


def test_each_module_lists_its_package_map_entry_in_all():
    assert set(PUBLIC) == set(sharkfin._EXPORTS)
    for module_name, names in PUBLIC.items():
        assert sorted(names) == sorted(sharkfin._EXPORTS[module_name]), module_name


def test_dir_all_and_star_import_list_every_public_name():
    assert set(sharkfin.__all__) == NAMES and len(sharkfin.__all__) == 65
    assert NAMES <= set(dir(sharkfin))
    namespace = {}
    exec("from sharkfin import *", namespace)
    assert set(namespace) - {"__builtins__"} == NAMES


def referenced_names(path):
    """Names a file reads as a name or an attribute, outside the top-level
    def or class that binds each, and the modules it imports from; the
    strings of `__all__` and `_EXPORTS` are no reference."""
    found = set()
    for stmt in ast.parse(path.read_text()).body:
        names = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module:
                names.add(node.module.rpartition(".")[2])
        found |= names - {getattr(stmt, "name", None)}
    return found


def caller_files():
    return [*(ROOT / "src").rglob("*.py"), *(ROOT / "bench").rglob("*.py")]


def test_every_public_name_has_a_caller_in_src_or_bench():
    used = set().union(*map(referenced_names, caller_files()))
    assert UNCALLED_PAPER_OBJECTS <= NAMES
    assert sorted(NAMES - used - UNCALLED_PAPER_OBJECTS) == []


def referenced_attributes(path):
    """Attribute names a file reads as `.name`, outside every def of that name."""
    found = set()

    def visit(node, defs):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs = defs | {node.name}
        elif isinstance(node, ast.Attribute) and node.attr not in defs:
            found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, defs)

    visit(ast.parse(path.read_text()), frozenset())
    return found


def public_methods():
    """Each public method, class method, static method or property that a
    class of the package namespace defines itself, as "Class.name"."""
    kinds = (types.FunctionType, classmethod, staticmethod, property)
    return {f"{name}.{attr}"
            for name in sharkfin.__all__ if isinstance(getattr(sharkfin, name), type)
            for attr, value in vars(getattr(sharkfin, name)).items()
            if not attr.startswith("_") and isinstance(value, kinds)}


def test_every_public_method_has_a_caller_in_src_or_bench():
    used = set().union(*map(referenced_attributes, caller_files()))
    methods = public_methods()
    assert "RenewalSpec.draw" in methods and UNCALLED_METHODS <= methods
    assert sorted(m for m in methods - UNCALLED_METHODS
                  if m.partition(".")[2] not in used) == []


def test_only_the_file_forms_are_method_names_of_two_classes():
    # the caller test above matches methods by name, so it cannot tell these
    # apart: each class's to_dict and to_json_dict is called in cli
    counts = Counter(method.partition(".")[2] for method in public_methods())
    assert {name for name, k in counts.items() if k >= 2} == {"to_dict", "to_json_dict"}


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        sharkfin.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from sharkfin import no_such_name", {})


def test_a_name_patched_in_its_module_is_what_the_package_returns(monkeypatch):
    def fake_detect(*args, **kwargs):
        return None

    real = detector.detect
    monkeypatch.setattr(detector, "detect", fake_detect)
    assert sharkfin.detect is fake_detect
    monkeypatch.undo()
    assert sharkfin.detect is real
    assert "detect" not in vars(sharkfin)
