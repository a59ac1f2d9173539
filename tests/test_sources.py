"""Every module of the package compiles without warnings, and every
module-level function and class is reached from the package, a demo or an
acceptance criterion."""

import ast
import pathlib
import warnings

import pytest

import leviflat

PACKAGE = pathlib.Path(leviflat.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))
ROOT = PACKAGE.parent.parent
EXEMPT = {"main"}      # the console-script entry point


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_compiles_without_warnings(path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(path.read_text(), str(path), "exec")


def referenced_names(paths):
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def test_no_unreached_definitions():
    used = referenced_names(SOURCES + sorted((ROOT / "demos").glob("*.py"))
                            + [ROOT / "tests" / "test_acceptance.py"])
    unreached = [
        f"{path.name}:{node.name}"
        for path in SOURCES
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in used | EXEMPT]
    assert unreached == []
