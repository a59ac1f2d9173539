"""Every module of the package compiles without warnings, every
module-level function and class, and every method and property of a
class, is reached from the package, a demo or an acceptance criterion,
every class field is read somewhere, no module of the package or the
tests imports a name it does not use, no function assigns a name it never
reads, and every function the benchmark traces still exists.  The package
imports nothing beyond the standard library and numpy, declares numpy as
its one dependency, and loads no scipy module while building its
operators or its model discs."""

import ast
import importlib.util
import os
import pathlib
import re
import subprocess
import sys
import warnings

import pytest

import leviflat

PACKAGE = pathlib.Path(leviflat.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))
ROOT = PACKAGE.parent.parent
TESTS = sorted((ROOT / "tests").glob("*.py"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))
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


def definitions(tree):
    """(name, node) of each module-level function and class, and of each
    method and property of a class, dunders left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            yield from (
                (f"{node.name}.{item.name}", item) for item in node.body
                if isinstance(item, ast.FunctionDef)
                and not (item.name.startswith("__")
                         and item.name.endswith("__")))


def test_no_unreached_definitions():
    # a re-export in __init__ is not a use: it would keep any name alive
    used = referenced_names([p for p in SOURCES if p.name != "__init__.py"]
                            + DEMOS + [ROOT / "tests" / "test_acceptance.py"])
    unreached = [
        f"{path.name}:{name}"
        for path in SOURCES
        for name, node in definitions(ast.parse(path.read_text()))
        if node.name not in used | EXEMPT]
    assert unreached == []


def test_no_unread_fields():
    # RunConfig's fields are the accepted config keys, read or not
    read = {node.attr
            for path in SOURCES + DEMOS + TESTS
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    unread = [
        f"{path.name}:{cls.name}.{node.target.id}"
        for path in SOURCES
        for cls in ast.walk(ast.parse(path.read_text()))
        if isinstance(cls, ast.ClassDef) and cls.name != "RunConfig"
        for node in cls.body
        if isinstance(node, ast.AnnAssign) and node.target.id not in read]
    assert unread == []


def unused_imports(tree):
    """Names an import binds that no Name node (an attribute's root
    included) or `__all__` entry uses."""
    used = set()
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(elt.value for elt in node.value.elts)
        elif isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    return [name for name in bound if name not in used]


@pytest.mark.parametrize("path", SOURCES + TESTS,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def dead_stores(tree):
    """(line, name) of each plain assignment to a name that its function
    (nested functions included) never reads; an augmented assignment counts
    as a read, and global or nonlocal names are exempt."""
    dead = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read, stores = set(), []
        for node in ast.walk(fn):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.AugAssign) \
                    and isinstance(node.target, ast.Name):
                read.add(node.target.id)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                read.update(node.names)
            elif isinstance(node, ast.Assign):
                stores += [(node.lineno, t.id) for t in node.targets
                           if isinstance(t, ast.Name)]
        dead.update(s for s in stores if s[1] not in read)
    return sorted(dead)


@pytest.mark.parametrize("path", SOURCES + TESTS + DEMOS,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_dead_stores(path):
    assert dead_stores(ast.parse(path.read_text())) == []


def test_trace_targets_resolve(monkeypatch):
    """Every span of perfbench/run.py wraps a live callable, and every probe
    is one of those spans: a renamed or inlined function would otherwise
    read as a zero layer or item metric."""
    bench = ROOT / "perfbench"
    monkeypatch.syspath_prepend(str(bench))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  bench / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)   # for its dataclasses
    spec.loader.exec_module(run)
    targets = run.trace_targets()
    dead = [t.name for t in targets
            if not callable(getattr(t.owner, t.attr, None))]
    assert dead == []
    assert set(run.PROBES) <= {t.name for t in targets}


def test_scipy_footprint():
    """scipy costs resident memory and import time in every process that
    loads it; the package needs none of it, also where it imports lazily."""
    code = ("import sys, leviflat.cli\n"
            "from leviflat import bishop, calculus\n"
            "grid = calculus.DiscGrid(32, 16)\n"
            "grid.cg_apply(grid.zeta)\n"
            "bishop.ellipse_map(0.7, 1.0)\n"
            "print(' '.join(sorted(m for m in sys.modules"
            " if m == 'scipy' or m.startswith('scipy.'))))")
    path = os.pathsep.join([str(PACKAGE.parent)]
                           + os.environ.get("PYTHONPATH", "").split(os.pathsep))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.split() == []


def top_level_imports(tree):
    """The top-level module of each absolute import, at any depth."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_dependencies_are_numpy_alone():
    imported = set().union(*(top_level_imports(ast.parse(p.read_text()))
                             for p in SOURCES))
    assert imported - sys.stdlib_module_names == {"numpy"}
    # tomllib is not in Python 3.10, which requires-python admits
    text = (ROOT / "pyproject.toml").read_text()
    deps = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text,
                     re.M | re.S).group(1)
    assert re.findall(r'"([A-Za-z0-9_.-]+)', deps) == ["numpy"]
