"""Public surface of the package: every exported name resolves, every public
function or class a module defines is exported, and no import goes unused.

A module with no ``__all__`` (``errors``, ``__main__``) is checked for unused
imports only."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import infospread

SOURCES = sorted(Path(inspect.getfile(infospread)).parent.glob("*.py"))


def module_name(path: Path) -> str:
    return "infospread" if path.stem == "__init__" else f"infospread.{path.stem}"


def declared_all(tree: ast.Module):
    """The literal ``__all__`` list of a module, or None if it has none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return None


def parsed(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


EXPORTING = [p for p in SOURCES if declared_all(parsed(p)) is not None]


def test_every_source_file_is_checked():
    names = {p.stem for p in SOURCES}
    assert {"cli", "epi_sir", "fundstats", "gossip", "netdiff", "rdwave"} <= names
    assert len(EXPORTING) >= 7


@pytest.mark.parametrize("path", EXPORTING, ids=lambda p: p.stem)
def test_every_exported_name_resolves(path):
    module = importlib.import_module(module_name(path))
    exported = declared_all(parsed(path))
    assert len(exported) == len(set(exported)), exported
    for name in exported:
        # The package exports its submodules, which load on first import.
        found = hasattr(module, name) or (
            path.stem == "__init__" and importlib.util.find_spec(f"infospread.{name}"))
        assert found, f"{module.__name__}.__all__ names missing {name!r}"


@pytest.mark.parametrize("path", EXPORTING, ids=lambda p: p.stem)
def test_every_public_definition_is_exported(path):
    tree = parsed(path)
    exported = set(declared_all(tree))
    defined = [node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and not node.name.startswith("_")]
    missing = [name for name in defined if name not in exported]
    assert not missing, f"{path.name} defines public names outside __all__: {missing}"


def imported_names(tree: ast.Module):
    """(bound name, line) of every import in a module, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def used_names(tree: ast.Module) -> set:
    """Every name a module reads, plus the names its ``__all__`` re-exports."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return used | set(declared_all(tree) or ())


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    tree = parsed(path)
    used = used_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree)
              if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {unused}"
