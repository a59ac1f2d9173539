"""Every module of the package compiles without warnings."""

import pathlib
import warnings

import pytest

import leviflat

SOURCES = sorted(pathlib.Path(leviflat.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_compiles_without_warnings(path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(path.read_text(), str(path), "exec")
